import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antiassoc
from antiassoc import (
    Bimodule,
    DendriformMatchedPairData,
    MatchedPairData,
    StructureAlgebra,
    basis_product,
    bowtie,
    build_quadratic_double,
    check_bimodule,
    check_dendriform_bimodule,
    check_dendriform_matched_pair,
    check_matched_pair,
    check_q_associative,
    check_q_dendriform,
    dendriform_bowtie,
    dendriform_semidirect,
    dual_bimodule,
    regular_bimodule,
    semidirect_product,
)
from antiassoc import bimodules, dendriform, matched
from antiassoc.bimodules import action_of
from antiassoc.linalg import DimensionMismatch, basis_vec

from .support import SMALL, bumped, valid_algebra
from .test_kernel import Draw

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
    # row i, column j of the matrix of e_k's action is the table entry [k][j][i]
    T = getattr(M, slot)
    k = rng.randrange(T.d1)
    i = rng.randrange(M.module_dim)
    j = rng.randrange(M.module_dim)
    T = bumped(T, k, j, i, rng.choice([x for x in SMALL if x != 0]))
    moved = replace(M, **{slot: T})
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


@given(seed=st.integers(0, 2**30), n=st.integers(0, 3), m=st.integers(0, 3))
@example(seed=1, n=0, m=2)
@example(seed=2, n=3, m=0)
@settings(max_examples=40, deadline=None)
def test_bowtie_is_the_block_formula(seed, n, m):
    """Every basis product of the dense bowtie is the docstring's
    (x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a o b + lA(x)b + rA(y)a),
    read off basis_product and action_of, with each of the four action
    tables nonzero when both sides are."""
    draw = Draw(random.Random(seed), "dense", n, m)
    back = draw.swapped()
    A, B = draw.algebra(-1), back.algebra(-1)
    on_B, on_A = draw.bimodule(), back.bimodule()

    def nonzero(t):
        return bumped(t, 0, 0, 0, Fraction(1)) if n and m and t.is_zero() else t

    lA, rA, lB, rB = (nonzero(t) for t in (on_B.l, on_B.r, on_A.l, on_A.r))
    P = MatchedPairData(A, B, Bimodule(n, m, lA, rA), Bimodule(m, n, lB, rB))
    T = bowtie(P)
    assert T.dim == n + m
    for p, s in itertools.product(range(n + m), repeat=2):
        left, right = basis_vec(n + m, p), basis_vec(n + m, s)
        x, a, y, b = left[:n], left[n:], right[:n], right[n:]
        xy = basis_product(P.A, p, s) if p < n and s < n else [Fraction(0)] * n
        ab = basis_product(P.B, p - n, s - n) if p >= n and s >= n else [Fraction(0)] * m
        A_part = zip(xy, action_of(lB, a).apply(y), action_of(rB, b).apply(x))
        B_part = zip(ab, action_of(lA, x).apply(b), action_of(rA, y).apply(a))
        assert basis_product(T, p, s) == [sum(t) for t in (*A_part, *B_part)], (p, s)


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


# ---------------------------------------------------------------------------
# Each law of a bimodule or a matched pair, associative or dendriform, is
# the base law of its construction with its arguments at one placement.
# The rows below are written from the definitions, not read from src/:
# (id, base law, placement, scale), where the placement spells the
# arguments of the base law G (i, j: the algebra's basis; u: the module's;
# x: the acting side; a, b: the side the residual lives in) and the law's
# residual is scale * G.  G itself is the base check's residual over that
# check's own scale: check_q_dendriform reports axiom3 as -G/q.

MINUS_INV_Q = "-1/q"
BASE_SCALE = {"q_assoc": 1, "axiom1": 1, "axiom2": 1, "axiom3": MINUS_INV_Q}

BIMODULE_ROWS = [
    ("l_law", "q_assoc", "iju", 1),
    ("r_law", "q_assoc", "uij", MINUS_INV_Q),
    ("lr_law", "q_assoc", "iuj", MINUS_INV_Q),
]
DENDRIFORM_BIMODULE_ROWS = [
    ("law1", "axiom1", "iju", 1),
    ("law2", "axiom1", "jui", 1),
    ("law3", "axiom1", "uji", 1),
    ("law4", "axiom2", "iju", 1),
    ("law5", "axiom2", "jui", 1),
    ("law6", "axiom2", "uji", 1),
    ("law7", "axiom3", "iju", 1),
    ("law8", "axiom3", "jui", 1),
    ("law9", "axiom3", "uji", 1),
]
# matched pairs: (id with x in A, id with x in B, base law, placement, scale)
MATCHED_ROWS = [
    ("eq1", "eq3", "q_assoc", "xab", MINUS_INV_Q),
    ("eq2", "eq4", "q_assoc", "abx", 1),
    ("eq5", "eq6", "q_assoc", "axb", 1),
]
DENDRIFORM_MATCHED_ROWS = [
    ("35", "44", "axiom1", "abx", 1),
    ("36", "45", "axiom1", "axb", 1),
    ("37", "46", "axiom1", "xab", MINUS_INV_Q),
    ("38", "47", "axiom2", "abx", 1),
    ("39", "48", "axiom2", "axb", 1),
    ("40", "49", "axiom2", "xab", MINUS_INV_Q),
    ("41", "50", "axiom3", "abx", 1),
    ("42", "51", "axiom3", "axb", MINUS_INV_Q),
    ("43", "52", "axiom3", "xab", MINUS_INV_Q),
]
ROUTE_QS = [Fraction(-1), Fraction(1), Fraction(2), Fraction(-3, 5)]


def _factor(scale, q):
    return Fraction(1) if scale == 1 else -1 / q


def _by_key(report):
    return {(v.identity_id, v.indices): v.residual for v in report.violations}


def _base_law(base, law, triple, q, dim):
    """G at the 0-based basis triple of the composite, from its base check."""
    res = base.get((law, tuple(t + 1 for t in triple)), [Fraction(0)] * dim)
    return [r / _factor(BASE_SCALE[law], q) for r in res]


def _module_routes(A, M, check, rows, composite, base_check):
    n, m, q = A.dim, M.module_dim, A.q
    report = check(A, M)
    base = _by_key(base_check(composite(A, M)))
    got = _by_key(report)
    assert {k[0] for k in got} <= {row[0] for row in rows}
    for law_id, law, placement, scale in rows:
        for i, j, u in itertools.product(range(n), range(n), range(m)):
            slot = {"i": i, "j": j, "u": n + u}
            G = _base_law(base, law, [slot[c] for c in placement], q, n + m)
            matrix = got.get((law_id, (i + 1, j + 1)), [Fraction(0)] * (m * m))
            column = [matrix[r * m + u] for r in range(m)]
            assert column == [_factor(scale, q) * g for g in G[n:]], (law_id, i, j, u)


def _matched_routes(P, sides, check, rows, composite, base_check):
    X, Y = sides
    n, q = X.dim, X.q
    base = _by_key(base_check(composite(P)))
    got = _by_key(check(P))
    ids = {row[0] for row in rows} | {row[1] for row in rows}
    assert {k[0] for k in got if not k[0].startswith("precondition:")} <= ids
    for half, (acting, acted) in enumerate(((X, Y), (Y, X))):
        # the acting side's basis, then the side the residual lives in
        offset_x, offset_ab = (0, n) if half == 0 else (n, 0)
        for *ids, law, placement, scale in rows:
            for ix, ia, ib in itertools.product(
                range(acting.dim), range(acted.dim), range(acted.dim)
            ):
                slot = {"x": offset_x + ix, "a": offset_ab + ia, "b": offset_ab + ib}
                G = _base_law(base, law, [slot[c] for c in placement], q, X.dim + Y.dim)
                block = G[offset_ab:offset_ab + acted.dim]
                res = got.get((ids[half], (ix + 1, ia + 1, ib + 1)), [Fraction(0)] * acted.dim)
                assert res == [_factor(scale, q) * g for g in block], (ids[half], ix, ia, ib)


@pytest.mark.parametrize("q", ROUTE_QS, ids=str)
@pytest.mark.parametrize("family", ["dense", "perturbed"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "check",
    ["check_bimodule", "check_matched_pair",
     "check_dendriform_bimodule", "check_dendriform_matched_pair"],
)
def test_each_route_is_the_base_law_at_one_placement(check, seed, family, q):
    """Tuple by tuple, each id's residual is its scale times the block of
    the base check on the semidirect product or the bowtie, at the triple
    its placement names; a bimodule law compares each column of its
    matrix.  A tuple missing from a report counts as zero."""
    draw = Draw(random.Random(seed), family, 2, 3)
    back = draw.swapped()
    if check == "check_bimodule":
        _module_routes(draw.algebra(q), draw.bimodule(), check_bimodule, BIMODULE_ROWS,
                       semidirect_product, check_q_associative)
    elif check == "check_dendriform_bimodule":
        _module_routes(draw.dendriform(q), draw.dendriform_bimodule(),
                       check_dendriform_bimodule, DENDRIFORM_BIMODULE_ROWS,
                       dendriform_semidirect, check_q_dendriform)
    elif check == "check_matched_pair":
        P = MatchedPairData(draw.algebra(q), back.algebra(q), draw.bimodule(), back.bimodule())
        _matched_routes(P, (P.A, P.B), check_matched_pair, MATCHED_ROWS,
                        bowtie, check_q_associative)
    else:
        P = DendriformMatchedPairData(
            draw.dendriform(q), back.dendriform(q),
            draw.dendriform_bimodule(), back.dendriform_bimodule(),
        )
        _matched_routes(P, (P.D_A, P.D_B), check_dendriform_matched_pair,
                        DENDRIFORM_MATCHED_ROWS, dendriform_bowtie, check_q_dendriform)


def test_composite_checks_never_build_the_dense_product(monkeypatch):
    """The four composite checks read the compiled block product; the dense
    builders of the semidirect product and the bowtie, and the assembler
    behind them, are the slow path and must not run."""
    def refuse(*args):
        raise AssertionError("a check built a dense product")

    for module, name in (
        (bimodules, "semidirect_product"), (matched, "bowtie"),
        (dendriform, "dendriform_semidirect"), (dendriform, "dendriform_bowtie"),
    ):
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(antiassoc, name, refuse)
    for module in (bimodules, matched, dendriform):
        monkeypatch.setattr(module, "_block_tensor", refuse)
    draw = Draw(random.Random(1), "dense", 2, 3)
    back, q = draw.swapped(), Fraction(-1)
    reports = [
        check_bimodule(draw.algebra(q), draw.bimodule()),
        check_matched_pair(
            MatchedPairData(draw.algebra(q), back.algebra(q), draw.bimodule(), back.bimodule())
        ),
        check_dendriform_bimodule(draw.dendriform(q), draw.dendriform_bimodule()),
        check_dendriform_matched_pair(DendriformMatchedPairData(
            draw.dendriform(q), back.dendriform(q),
            draw.dendriform_bimodule(), back.dendriform_bimodule(),
        )),
    ]
    assert [r.passed for r in reports] == [False] * 4
