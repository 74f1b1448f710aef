import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    Bimodule,
    MatchedPairData,
    StructureAlgebra,
    bowtie,
    check_bimodule,
    check_q_associative,
    dual_bimodule,
    regular_bimodule,
    semidirect_product,
)
from antiassoc.bimodules import action_of
from antiassoc.linalg import DimensionMismatch, Matrix, Tensor3, basis_vec

from .support import (
    nilpotent_algebra,
    perturb_bimodule,
    random_bimodule,
    random_matrix,
    table,
    valid_algebra,
    valid_bimodules,
)

E1E1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})

QS = [Fraction(1), Fraction(-1), Fraction(2)]


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        Bimodule(2, 2, table([Matrix.identity(2)]), table([Matrix.identity(2)] * 2))
    with pytest.raises(DimensionMismatch):
        Bimodule(2, 2, table([Matrix.identity(2)] * 2), table([Matrix.identity(3)] * 2))
    with pytest.raises(TypeError):  # a list of matrices is not a table
        Bimodule(2, 2, [Matrix.identity(2)] * 2, [Matrix.identity(2)] * 2)
    # an algebra of dim 0 has no planes, each with the module's shape
    empty = Tensor3.zeros(0, 2, 2)
    assert repr(empty) == "Tensor3(0x2x2)" and table([], 2) == empty
    assert Bimodule(0, 2, empty, empty).module_dim == 2
    with pytest.raises(DimensionMismatch):
        Bimodule(0, 2, Tensor3.zeros(0, 0, 0), empty)


def test_regular_bimodule_is_valid():
    assert check_bimodule(E1E1, regular_bimodule(E1E1)).passed


def test_zero_bimodule_is_valid():
    assert check_bimodule(E1E1, Bimodule.zero(2, 3)).passed


def test_action_of_extends_linearly():
    mats = [random_matrix(random.Random(3), 3, 3) for _ in range(2)]
    x = [Fraction(2), Fraction(5)]
    got = action_of(table(mats), x)
    expect = mats[0].scale(Fraction(2)) + mats[1].scale(Fraction(5))
    assert got == expect
    # e1 e1 = e2: the left action of e1 maps e1 to e2
    assert action_of(regular_bimodule(E1E1).l, basis_vec(2, 0)) == Matrix([[0, 0], [1, 0]])


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=60, deadline=None)
def test_semidirect_iff(seed, q):
    """The semidirect product is q-associative exactly when the actions
    form a bimodule (the underlying algebra is drawn valid)."""
    rng = random.Random(seed)
    A = valid_algebra(rng, q)
    assert check_q_associative(A).passed
    if rng.random() < 0.4:
        M = rng.choice(valid_bimodules(A))
        if rng.random() < 0.5:
            M = perturb_bimodule(rng, M)
    else:
        M = random_bimodule(rng, A, rng.randrange(1, 3))
    left = check_bimodule(A, M).passed
    right = check_q_associative(semidirect_product(A, M)).passed
    assert left == right


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=40, deadline=None)
def test_semidirect_blocks(seed, q):
    """A sits as a subalgebra, the module squares to zero, and the mixed
    products are the actions."""
    rng = random.Random(seed)
    A = valid_algebra(rng, q)
    M = rng.choice(valid_bimodules(A))
    S = semidirect_product(A, M)
    n, m = A.dim, M.module_dim
    assert S.dim == n + m
    from antiassoc import basis_product, multiply

    for i in range(n):
        for j in range(n):
            assert basis_product(S, i, j)[:n] == basis_product(A, i, j)
            assert all(x == 0 for x in basis_product(S, i, j)[n:])
    for i in range(m):
        for j in range(m):
            assert all(x == 0 for x in basis_product(S, n + i, n + j))
    for i in range(n):
        for j in range(m):
            mixed = basis_product(S, i, n + j)
            assert mixed[n:] == action_of(M.l, basis_vec(n, i)).column(j)
            mixed_r = basis_product(S, n + j, i)
            assert mixed_r[n:] == action_of(M.r, basis_vec(n, i)).column(j)


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=60, deadline=None)
def test_dual_of_valid_is_valid(seed, q):
    rng = random.Random(seed)
    A = valid_algebra(rng, q)
    for M in valid_bimodules(A):
        assert check_bimodule(A, dual_bimodule(A, M)).passed


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=60, deadline=None)
def test_double_dual_is_identity(seed, q):
    """Tensor-for-tensor, not just up to isomorphism."""
    rng = random.Random(seed)
    A = valid_algebra(rng, q)
    M = random_bimodule(rng, A, rng.randrange(1, 4))
    DD = dual_bimodule(A, dual_bimodule(A, M))
    assert DD.l == M.l
    assert DD.r == M.r


def test_dual_swaps_and_transposes():
    M = regular_bimodule(E1E1)
    D = dual_bimodule(E1E1, M)
    q2 = Fraction(1)  # q = -1 so q^2 = 1
    E = [basis_vec(2, i) for i in range(2)]
    for e in E:
        assert action_of(D.l, e) == action_of(M.r, e).transpose().scale(1 / q2)
        assert action_of(D.r, e) == action_of(M.l, e).transpose().scale(q2)


def test_broken_regular_action_fails():
    rng = random.Random(0)
    M = perturb_bimodule(rng, regular_bimodule(E1E1))
    rep = check_bimodule(E1E1, M)
    assert not rep.passed
    assert {v.identity_id for v in rep.violations} <= {"l_law", "r_law", "lr_law"}


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=40, deadline=None)
def test_semidirect_is_bowtie_with_zero_partner(seed, q):
    """A + V is the bowtie of A with the zero algebra on V, acting on V by
    (l, r) and acted on by nothing."""
    rng = random.Random(seed)
    A = nilpotent_algebra(rng, rng.randrange(1, 4), q)
    M = random_bimodule(rng, A, rng.randrange(1, 4))
    P = MatchedPairData(
        A, StructureAlgebra.zero(M.module_dim, q), M, Bimodule.zero(M.module_dim, A.dim)
    )
    assert semidirect_product(A, M) == bowtie(P)
