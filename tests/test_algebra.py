import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antiassoc import (
    Fingerprint,
    StructureAlgebra,
    anticommutator_algebra,
    basis_product,
    check_mock_lie,
    check_q_associative,
    check_quartic_vanishing,
    fingerprint,
    mult_operators,
    multiply,
)
from antiassoc.bimodules import action_of
from antiassoc.linalg import Matrix, Tensor3, basis_vec

from .support import nilpotent_algebra, valid_algebra

ZERO2 = StructureAlgebra.zero(2, -1)
E1E1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
E2E1 = StructureAlgebra.from_products(2, -1, {(2, 1): {2: 1}})
E2E2 = StructureAlgebra.from_products(2, -1, {(2, 2): {1: 1}})


def test_q_zero_rejected():
    with pytest.raises(ValueError):
        StructureAlgebra.zero(2, 0)


def test_from_products_is_one_indexed():
    assert E1E1.c[0][0][1] == 1
    assert basis_product(E1E1, 0, 0) == [0, 1]


def test_published_2d_tables():
    assert check_q_associative(ZERO2).passed
    assert check_q_associative(E1E1).passed
    assert check_q_associative(E2E2).passed
    rep = check_q_associative(E2E1)
    assert not rep.passed
    assert [(v.indices, v.residual) for v in rep.violations] == [
        ((2, 1, 1), [Fraction(0), Fraction(1)])
    ]


def test_report_info_counts_triples():
    rep = check_q_associative(E1E1)
    assert rep.info["triples"] == 8
    assert rep.info["q"] == "-1"


def test_multiply_bilinear():
    x = [Fraction(2), Fraction(0)]
    y = [Fraction(3), Fraction(0)]
    assert multiply(E1E1, x, y) == [Fraction(0), Fraction(6)]


def test_mult_operators_agree_with_multiply():
    L, R = mult_operators(E1E1)
    for i in range(2):
        for j in range(2):
            ei, ej = basis_vec(2, i), basis_vec(2, j)
            assert action_of(L, ei).apply(ej) == multiply(E1E1, ei, ej)
            assert action_of(R, ej).apply(ei) == multiply(E1E1, ei, ej)


def test_mult_operators_are_fresh_tables():
    """A multiplication table refuses every write, so no edit of it can
    reach the algebra's c, which L is."""
    A = StructureAlgebra.from_products(2, -1, {(1, 2): {1: 3}})
    L, R = mult_operators(A)
    assert L is A.c
    for T, (i, j) in ((L, (0, 1)), (R, (1, 0))):
        with pytest.raises(TypeError):
            T[i][j][0] += 1
        with pytest.raises(TypeError):
            T.entries = ()
    assert A.c == StructureAlgebra.from_products(2, -1, {(1, 2): {1: 3}}).c


@given(st.integers(0, 2**30), st.sampled_from(["1", "-1", "2", "-1/2"]))
@settings(max_examples=40, deadline=None)
def test_nilpotent_algebras_q_associative_for_any_q(seed, q):
    rng = random.Random(seed)
    A = nilpotent_algebra(rng, rng.randrange(2, 5), Fraction(q))
    assert check_q_associative(A).passed


def test_anticommutator_of_e1e1_is_mock_lie():
    out = anticommutator_algebra(E1E1)
    assert check_mock_lie(out).passed
    # symmetrized product keeps the only nonzero entry
    assert basis_product(out, 0, 0) == [0, 1]


def test_quartic_vanishing_on_antiassociative():
    for A in (ZERO2, E1E1, E2E2):
        assert check_quartic_vanishing(A).passed


@pytest.mark.parametrize("t", [Fraction(2), Fraction(1, 3)], ids=["2", "1/3"])
def test_quartic_vanishing_holds_off_q_minus_one(t):
    """Any q-associative algebra with q not in {0, 1} has A^4 = 0: the dim-3
    e1e1 = e2, e1e2 = e3, e2e1 = t e3 passes the q-law at q = t, and with it
    quartic vanishing."""
    A = StructureAlgebra.from_products(3, t, {(1, 1): {2: 1}, (1, 2): {3: 1}, (2, 1): {3: t}})
    assert check_q_associative(A).passed
    assert check_quartic_vanishing(A).passed


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@pytest.mark.parametrize("t", [Fraction(2), Fraction(1, 3)], ids=["2", "1/3"])
@given(st.lists(small_rationals, min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_quartic_vanishing_holds_on_a_transported_family(t, entries):
    """The same family transported by an invertible P, x.y = P(P^-1 x . P^-1 y),
    is a dense table on which the q-law passes exactly at q = t, and with it
    quartic vanishing."""
    P = Matrix([entries[:3], entries[3:6], entries[6:]])
    assume(P.det() != 0)
    X = StructureAlgebra.from_products(3, t, {(1, 1): {2: 1}, (1, 2): {3: 1}, (2, 1): {3: t}})
    Pinv = P.invert()
    cols = [Pinv.column(j) for j in range(3)]
    c = Tensor3([[P.apply(multiply(X, cols[i], cols[j])) for j in range(3)] for i in range(3)])
    assert check_q_associative(StructureAlgebra(3, t, c)).passed
    assert not check_q_associative(StructureAlgebra(3, t + 1, c)).passed
    assert check_quartic_vanishing(StructureAlgebra(3, t, c)).passed


def test_quartic_vanishing_fails_at_q_one():
    """At q = 1 the law is associativity, and e1.e1 = e1 keeps A^4 = A."""
    A = StructureAlgebra.from_products(1, 1, {(1, 1): {1: 1}})
    assert check_q_associative(A).passed
    assert not check_quartic_vanishing(A).passed


def test_quartic_flags_nonvanishing():
    # associative with identity-like behavior: e1 acts as left/right unit
    A = StructureAlgebra.from_products(
        2, -1, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 1): {2: 1}}
    )
    assert not check_quartic_vanishing(A).passed


def test_mock_lie_violations_identify_laws():
    skew = StructureAlgebra.from_products(2, -1, {(1, 2): {1: 1}, (2, 1): {1: -1}})
    rep = check_mock_lie(skew)
    assert not rep.passed
    assert {v.identity_id for v in rep.violations} == {"commutative"}


def test_fingerprint_fields():
    f = fingerprint(E1E1)
    assert (f.dim, f.dim_square, f.dim_left_ann, f.dim_right_ann) == (2, 1, 1, 1)
    assert f.commutative
    g = fingerprint(E2E1)
    assert not g.commutative
    assert fingerprint(ZERO2).dim_square == 0
    assert fingerprint(StructureAlgebra.zero(0, -1)) == Fingerprint(0, 0, 0, 0, True)


@given(st.integers(0, 2**30))
@settings(max_examples=30, deadline=None)
def test_fingerprint_swap_invariant_under_relabel(seed):
    """Permuting the basis must not change the fingerprint."""
    rng = random.Random(seed)
    A = valid_algebra(rng, Fraction(-1))
    n = A.dim
    perm = list(range(n))
    rng.shuffle(perm)
    from antiassoc.linalg import Tensor3

    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t[perm[i]][perm[j]][perm[k]] = A.c.entries[i][j][k]
    B = StructureAlgebra(n, A.q, Tensor3(t, (n, n, n)))
    assert fingerprint(A) == fingerprint(B)
