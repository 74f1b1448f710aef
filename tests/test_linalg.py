from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc.linalg import (
    DimensionMismatch,
    Matrix,
    SingularError,
    Tensor3,
    basis_vec,
    dot,
    rat,
    stack_rows,
    vec_add,
    vec_sub,
)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def square(n):
    return st.lists(
        st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


def test_rat_accepts_int_str_fraction():
    assert rat(3) == Fraction(3)
    assert rat("-1/2") == Fraction(-1, 2)
    assert rat(Fraction(7, 3)) == Fraction(7, 3)


def test_rat_rejects_bool_and_float():
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(TypeError):
        rat(0.5)


def test_vector_helpers():
    assert basis_vec(3, 1) == [0, 1, 0]
    assert vec_add([1, 2], [3, 4]) == [4, 6]
    assert vec_sub([1, 2], [3, 4]) == [-2, -2]
    assert dot([1, 2], [3, 4]) == 11


def test_matrix_apply_dimension_check():
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2).apply([1, 2, 3])


@given(square(3))
@settings(max_examples=60)
def test_rank_plus_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == 3


@given(square(3))
@settings(max_examples=60)
def test_kernel_vectors_annihilate(m):
    for v in m.kernel_basis():
        assert all(x == 0 for x in m.apply(v))


@given(square(3))
@settings(max_examples=40)
def test_inverse_round_trip_or_singular(m):
    try:
        inv = m.invert()
    except SingularError:
        assert m.rank() < 3
        assert m.det() == 0
    else:
        assert m * inv == Matrix.identity(3)
        assert inv * m == Matrix.identity(3)


@given(square(2), square(2))
@settings(max_examples=60)
def test_det_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


@given(square(3))
@settings(max_examples=40)
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


def test_stack_rows():
    s = stack_rows([Matrix([[1, 2]]), Matrix([[3, 4]])])
    assert s.rows == 2 and s.entries == [[1, 2], [3, 4]]


def test_from_columns_column_round_trip():
    m = Matrix.from_columns([[1, 2], [3, 4]])
    assert m.column(0) == [1, 2]
    assert m.column(1) == [3, 4]


def test_tensor_shape_and_copy():
    t = Tensor3.zeros(2, 3, 4)
    assert (t.d1, t.d2, t.d3) == (2, 3, 4)
    c = t.copy()
    c.entries[0][0][0] = Fraction(1)
    assert t.entries[0][0][0] == 0
    assert t != c
