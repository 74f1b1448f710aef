import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    Bimodule,
    MatchedPairData,
    StructureAlgebra,
    basis_product,
    bowtie,
    build_quadratic_double,
    check_matched_pair,
    check_q_associative,
    dual_bimodule,
    regular_bimodule,
)
from antiassoc.linalg import DimensionMismatch, Matrix

from .support import SMALL, valid_algebra

QS = [Fraction(1), Fraction(-1), Fraction(2)]


def trivial_dual_pair(A):
    """A acting on a zero algebra of the same dimension through the dual of
    its regular bimodule, with the zero algebra acting trivially back."""
    B = StructureAlgebra.zero(A.dim, A.q)
    D = dual_bimodule(A, regular_bimodule(A))
    return MatchedPairData(A, B, D, Bimodule.zero(A.dim, A.dim))


def zero_action_pair(A, B):
    return MatchedPairData(A, B, Bimodule.zero(A.dim, B.dim), Bimodule.zero(B.dim, A.dim))


# The four action tables of a pair: lA/rA are on_B's l/r, lB/rB on_A's.
TABLES = {"lA": ("on_B", "l"), "rA": ("on_B", "r"), "lB": ("on_A", "l"), "rB": ("on_A", "r")}


def perturb_pair(rng, P):
    side, slot = TABLES[rng.choice(list(TABLES))]
    M = getattr(P, side)
    raw = [[list(row) for row in mat.entries] for mat in getattr(M, slot)]
    k = rng.randrange(len(raw))
    i = rng.randrange(len(raw[k]))
    j = rng.randrange(len(raw[k][i]))
    raw[k][i][j] += rng.choice([x for x in SMALL if x != 0])
    moved = replace(M, **{slot: [Matrix(mat) for mat in raw]})
    return replace(P, **{side: moved})


def test_rejects_mismatched_q():
    A = StructureAlgebra.zero(2, -1)
    B = StructureAlgebra.zero(2, 1)
    z = Bimodule.zero(2, 2)
    with pytest.raises(ValueError):
        MatchedPairData(A, B, z, z)


def test_rejects_wrong_table_shape():
    """A has dim 2 and B dim 3: on_B must be two actions on a 3-dim space,
    on_A three on a 2-dim space.  Each side is rejected when its algebra
    dimension or its module dimension is wrong; the shapes of the tables
    themselves are the Bimodule's own check."""
    A = StructureAlgebra.zero(2, -1)
    B = StructureAlgebra.zero(3, -1)
    on_B, on_A = Bimodule.zero(2, 3), Bimodule.zero(3, 2)
    MatchedPairData(A, B, on_B, on_A)
    for bad_on_B in (Bimodule.zero(3, 3), Bimodule.zero(2, 2)):
        with pytest.raises(DimensionMismatch, match="on_B"):
            MatchedPairData(A, B, bad_on_B, on_A)
    for bad_on_A in (Bimodule.zero(2, 2), Bimodule.zero(3, 3)):
        with pytest.raises(DimensionMismatch, match="on_A"):
            MatchedPairData(A, B, on_B, bad_on_A)
    with pytest.raises(DimensionMismatch, match="on_B"):  # the two sides swapped
        MatchedPairData(A, B, on_A, on_B)


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=50, deadline=None)
def test_trivial_dual_pair_is_matched(seed, q):
    rng = random.Random(seed)
    P = trivial_dual_pair(valid_algebra(rng, q))
    rep = check_matched_pair(P)
    assert rep.passed, rep.violations[:3]


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=30, deadline=None)
def test_zero_actions_give_direct_sum(seed, q):
    rng = random.Random(seed)
    A = valid_algebra(rng, q)
    B = valid_algebra(rng, q)
    P = zero_action_pair(A, B)
    assert check_matched_pair(P).passed
    T = bowtie(P)
    n = A.dim
    for i in range(n):
        for j in range(n):
            assert basis_product(T, i, j)[:n] == basis_product(A, i, j)
    for i in range(B.dim):
        for j in range(B.dim):
            assert basis_product(T, n + i, n + j)[n:] == basis_product(B, i, j)
    for i in range(n):
        for j in range(B.dim):
            assert all(x == 0 for x in basis_product(T, i, n + j))
            assert all(x == 0 for x in basis_product(T, n + j, i))


def test_bowtie_agrees_with_quadratic_double():
    A = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
    P = trivial_dual_pair(A)
    D = build_quadratic_double(A, StructureAlgebra.zero(2, -1))
    assert bowtie(P).c == D.total.c


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=60, deadline=None)
def test_verdict_matches_bowtie_associativity(seed, q):
    """The assembled product is q-associative exactly when the matched-pair
    report (preconditions included) passes."""
    rng = random.Random(seed)
    A = valid_algebra(rng, q)
    kind = rng.randrange(3)
    if kind == 0:
        P = trivial_dual_pair(A)
    elif kind == 1:
        P = zero_action_pair(A, valid_algebra(rng, q))
    else:
        P = perturb_pair(rng, trivial_dual_pair(A))
    assert check_matched_pair(P).passed == check_q_associative(bowtie(P)).passed


def test_perturbed_pair_reports_equation_ids():
    rng = random.Random(20)
    seen = set()
    for _ in range(40):
        A = valid_algebra(rng, Fraction(-1))
        P = perturb_pair(rng, trivial_dual_pair(A))
        rep = check_matched_pair(P)
        if rep.passed:
            continue
        for v in rep.violations:
            assert v.identity_id.startswith(("eq", "precondition:"))
            seen.add(v.identity_id.split(":")[0])
    assert "eq1" in seen or "precondition" in seen


def test_equation_indices_are_one_based():
    rng = random.Random(4)
    while True:
        A = valid_algebra(rng, Fraction(-1))
        P = perturb_pair(rng, trivial_dual_pair(A))
        rep = check_matched_pair(P)
        eqs = [v for v in rep.violations if v.identity_id.startswith("eq")]
        if eqs:
            break
    for v in eqs:
        assert len(v.indices) == 3
        assert all(ix >= 1 for ix in v.indices)
