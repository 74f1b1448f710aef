import copy
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc.io import load_algebra
from antiassoc.linalg import (
    DimensionMismatch,
    Matrix,
    SingularError,
    Tensor3,
    basis_vec,
    dot,
    exact_str,
    rat,
    vec_add,
    vec_sub,
)

from . import reference

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


@st.composite
def any_shape(draw):
    """Wide, tall, square, or with no rows or no columns, with many zero
    entries."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.just(Fraction(0)), fractions)
    row = st.lists(entry, min_size=cols, max_size=cols)
    return Matrix(draw(st.lists(row, min_size=rows, max_size=rows)), (rows, cols))


@given(any_shape())
@settings(max_examples=100, deadline=None)
def test_rank_plus_nullity(m):
    kernel = m.kernel_basis()
    assert m.rank() + len(kernel) == m.cols
    for v in kernel:
        assert len(v) == m.cols and m.apply(v) == [0] * m.rows


def test_a_matrix_with_no_rows_keeps_its_columns():
    m = Matrix.zeros(0, 3)
    assert (m.rows, m.cols) == (0, 3)
    assert m == Matrix([], (0, 3)) and m != Matrix([])
    assert m.rank() == 0
    assert m.kernel_basis() == [basis_vec(3, i) for i in range(3)]
    assert m.apply([1, 2, 3]) == []
    assert Matrix.from_columns([[], [], []]) == m
    assert_matches_reference(m)
    assert_matches_reference(m.transpose())


def test_products_and_transposes_of_empty_shapes():
    assert Matrix.zeros(3, 0).transpose() == Matrix.zeros(0, 3)
    assert Matrix.zeros(2, 0) * Matrix.zeros(0, 3) == Matrix.zeros(2, 3)
    assert Matrix.zeros(0, 2) * Matrix.zeros(2, 3) == Matrix.zeros(0, 3)


@given(any_shape(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_products_and_transposes_keep_their_shape(m, k):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert t.transpose() == m
    assert m * Matrix.zeros(m.cols, k) == Matrix.zeros(m.rows, k)
    assert Matrix.zeros(k, m.rows) * m == Matrix.zeros(k, m.cols)
    zero = Matrix.zeros(m.rows, m.cols)
    for same in (m + zero, m - zero, m.scale(1)):
        assert same == m


def test_entries_must_fill_the_shape():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]], (1, 3))
    with pytest.raises(DimensionMismatch):
        Matrix([], (1, 0))
    with pytest.raises(ValueError):
        Matrix.from_columns([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Tensor3([[[1], [2, 3]]])
    with pytest.raises(DimensionMismatch):
        Tensor3([[[1, 2]]], (1, 2, 2))


@given(any_shape())
@settings(max_examples=100, deadline=None)
def test_rank_matches_rref(m):
    assert m.rank() == len(m.rref()[1])
    zero = Matrix.zeros(m.rows, m.cols)
    assert zero.rank() == len(zero.rref()[1]) == 0


def assert_matches_reference(m):
    """rref, rank and kernel_basis, and for a square m det and invert (or
    SingularError), equal the Fraction Gauss-Jordan of tests/reference.py."""
    rows, pivots = reference.rref(m)
    assert m.rref() == (rows, pivots)
    assert m.rank() == len(pivots)
    assert m.kernel_basis() == reference.kernel_basis(m)
    if m.rows != m.cols:
        return
    assert m.det() == reference.det(m)
    try:
        inverse = reference.invert(m)
    except SingularError:
        with pytest.raises(SingularError):
            m.invert()
    else:
        assert m.invert() == inverse


@pytest.mark.parametrize("entries", [
    [],
    [[0]],
    [[0, 0, 0], [1, 2, 3], [0, 0, 0]],  # zero rows
    [[0, 1, 2], [0, 3, 4]],  # a zero column
    [[1, 2, 3], [2, 4, 7]],  # column 1 holds no pivot
    [[0, 2, 1], [0, 4, 2], [3, 0, 0]],  # singular, pivot taken from the last row
    [[0, 1], [1, 0]],  # one row move
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # three row moves
    [["1/2", "1/3"], ["1/4", "1/5"]],
    [[0, "-3/7", 2], ["5/3", 0, "1/2"], [1, -1, 0]],
])
def test_echelon_queries_match_the_fraction_reference(entries):
    assert_matches_reference(Matrix(entries))


@given(any_shape())
@settings(max_examples=60, deadline=None)
def test_any_shape_matches_the_fraction_reference(m):
    assert_matches_reference(m)


@given(st.integers(1, 5).flatmap(square))
@settings(max_examples=60, deadline=None)
def test_square_matches_the_fraction_reference(m):
    assert_matches_reference(m)


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


def test_from_columns_column_round_trip():
    m = Matrix.from_columns([[1, 2], [3, 4]])
    assert m.column(0) == [1, 2]
    assert m.column(1) == [3, 4]


def assert_refuses_writes(t):
    """Every write to t, of an entry or an attribute, raises TypeError."""
    shape = (t.d1, t.d2, t.d3)
    with pytest.raises(TypeError):
        t[0][0][0] += 1
    with pytest.raises(TypeError):
        t.entries[0][0] = (Fraction(1),) * t.d3
    with pytest.raises(TypeError):
        t.entries[0] = ()
    for name, value in (("entries", ()), ("d1", 0), ("compiled", None), ("_entries", None)):
        with pytest.raises(TypeError):
            setattr(t, name, value)
        with pytest.raises(TypeError):
            delattr(t, name)
    assert (t.d1, t.d2, t.d3) == shape


def test_tensor_shape_and_copy():
    t = Tensor3.zeros(2, 3, 4)
    assert (t.d1, t.d2, t.d3) == (2, 3, 4)
    assert_refuses_writes(t)
    assert t == Tensor3.zeros(2, 3, 4)
    for same in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert same == t
        assert_refuses_writes(same)


def test_tensor_axis_swaps_and_arithmetic():
    t = Tensor3([[[1, 2, 3], [4, 5, 6]]])  # 1 x 2 x 3
    s = t.swapped()
    assert (s.d1, s.d2, s.d3) == (2, 1, 3)
    assert s == Tensor3([[[1, 2, 3]], [[4, 5, 6]]])
    u = t.transposed()
    assert (u.d1, u.d2, u.d3) == (1, 3, 2)
    assert u == Tensor3([[[1, 4], [2, 5], [3, 6]]])
    assert s.swapped() == t and u.transposed() == t
    assert t + t.scale(2) == Tensor3([[[3, 6, 9], [12, 15, 18]]])
    assert t.scale("1/2")[0][1] == (2, Fraction(5, 2), 3)
    with pytest.raises(DimensionMismatch):
        t + s


def test_zeros_share_a_zero_but_no_slot():
    """Every entry of a zero table is one shared Fraction(0), and no slot
    of it can be written; writing one slot of a zero Matrix changes no
    other."""
    for shape in ((2, 3, 4), (1, 3, 2)):
        t = Tensor3.zeros(*shape)
        assert len({id(x) for plane in t.entries for row in plane for x in row}) == 1
        assert_refuses_writes(t)
        assert t.is_zero() and t.compiled == (1, [[[]] * shape[1]] * shape[0])
    for i in range(3):
        for j in range(2):
            m = Matrix.zeros(3, 2)
            m.entries[i][j] = Fraction(-1, 2)
            assert [x for row in m.entries for x in row].count(0) == 5


def test_constructors_still_coerce_what_is_not_a_fraction():
    with pytest.raises(TypeError):
        Tensor3([[[True]]])
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    for entries in (Matrix([[1, "-2/4"]]).entries[0], Tensor3([[[1, "-2/4"]]]).entries[0][0]):
        assert list(entries) == [1, Fraction(-1, 2)] and all(type(x) is Fraction for x in entries)


def test_tensor_results_are_fresh(tmp_path):
    """A table loaded dense or sparse, and every result of an operation on
    one, refuses writes, so none can change the table it came from."""
    dense, sparse = tmp_path / "dense.json", tmp_path / "sparse.json"
    dense.write_text('{"dim": 1, "q": "-1", "c": [[["1/2"]]]}')
    sparse.write_text('{"dim": 1, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"1": "2"}}]}')
    t = Tensor3([[[1, 2], [3, 4]]])
    for out in (t, t.swapped(), t.transposed(), t + t, t.scale(1), t.scale(0),
                load_algebra(str(dense)).c, load_algebra(str(sparse)).c):
        assert_refuses_writes(out)
    assert t == Tensor3([[[1, 2], [3, 4]]])


@pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0), (1, 2, 3)])
def test_tensor_keeps_its_shape(shape):
    d1, d2, d3 = shape
    t = Tensor3.zeros(*shape)
    assert repr(t) == f"Tensor3({d1}x{d2}x{d3})"
    assert t.transposed() == Tensor3.zeros(d1, d3, d2)
    assert t.swapped() == Tensor3.zeros(d2, d1, d3)
    for same in (t + t, t.scale(3), t.transposed().transposed(), t.swapped().swapped()):
        assert same == t


def test_tensor_equality_compares_shapes():
    assert Tensor3.zeros(0, 3, 3) != Tensor3.zeros(0, 2, 2)
    assert Tensor3.zeros(2, 0, 3) != Tensor3.zeros(2, 0, 5)
    assert Tensor3.zeros(2, 0, 3) == Tensor3([[], []], (2, 0, 3))


def _read_decimal(text: str) -> Fraction:
    """The rational a decimal spelling names, read in pieces of 100 digits,
    so no conversion reaches the interpreter's int-string limit."""
    def integer(digits: str) -> int:
        sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
        assert re.fullmatch(r"0|[1-9][0-9]*", digits)
        value = 0
        for start in range(0, len(digits), 100):
            piece = digits[start:start + 100]
            value = value * 10 ** len(piece) + int(piece)
        return sign * value

    num, _, den = text.partition("/")
    return Fraction(integer(num), integer(den) if den else 1)


@pytest.mark.parametrize("x", [
    0, -5, Fraction(-3, 7), 10**5000, -(10**5000 + 1), 7 * 10**9000 + 3, 2**30000,
    10**9999, Fraction(10**5000 + 1, 3**9000), Fraction(-1, 10**5000), Fraction(10**6000, 7),
], ids=["zero", "small", "fraction", "power", "negative", "inner_zeros", "power_of_two",
        "ten_thousand_digits", "long_both", "long_denominator", "long_numerator"])
def test_exact_str_spells_rationals_past_the_int_string_limit(x):
    text = exact_str(x)
    assert _read_decimal(text) == x
    try:
        assert text == str(x)
    except ValueError:  # str refuses; the interpreter's limit is left as it was
        assert len(text) > sys.get_int_max_str_digits() > 0
