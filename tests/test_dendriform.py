import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    DendriformBimodule,
    DendriformMatchedPairData,
    DendriformStructure,
    associated_algebra,
    check_bimodule,
    check_dendriform_bimodule,
    check_dendriform_matched_pair,
    check_q_associative,
    check_q_dendriform,
    dendriform_bowtie,
    dendriform_mult_operators,
    dendriform_semidirect,
    dual_dendriform_bimodule,
    octuple_from_symplectic_pair,
    regular_bimodule,
    regular_dendriform_bimodule,
)
from antiassoc.bimodules import action_of
from antiassoc.linalg import DimensionMismatch, Matrix, Tensor3, basis_vec

from .support import (
    case3_dendriform,
    case4_dendriform,
    nilpotent_dendriform,
    random_matrix,
    table,
)

QS = [Fraction(1), Fraction(-1), Fraction(2)]

# The eight action tables of a matched pair: la_*/ra_* are the l_*/r_*
# slots of on_B (D_A acting on D_B), lb_*/rb_* those of on_A.
SLOTS = ("la_succ", "ra_succ", "la_prec", "ra_prec",
         "lb_succ", "rb_succ", "lb_prec", "rb_prec")


def side_and_slot(name):
    return ("on_B" if name[1] == "a" else "on_A"), name[0] + name[2:]


def raw_matrices(T):
    """The row-major matrices of T's actions as nested lists, raw[k][i][j]
    for the action of e_k."""
    return [[list(row) for row in action_of(T, basis_vec(T.d1, k)).entries]
            for k in range(T.d1)]


def bump_table(P, name, bump):
    """P with its table ``name`` changed by ``bump`` on a copy of its
    entries, raw[k][i][j] for matrix k."""
    side, slot = side_and_slot(name)
    M = getattr(P, side)
    raw = raw_matrices(getattr(M, slot))
    bump(raw)
    return replace(P, **{side: replace(M, **{slot: table([Matrix(m) for m in raw])})})


def perturb_dendriform_bimodule(rng, M):
    slot = rng.choice(["l_succ", "r_succ", "l_prec", "r_prec"])
    raw = raw_matrices(getattr(M, slot))
    k = rng.randrange(len(raw))
    i = rng.randrange(len(raw[k]))
    j = rng.randrange(len(raw[k][i]))
    raw[k][i][j] += rng.choice([1, -1, Fraction(1, 2)])
    kw = dict(l_succ=M.l_succ, r_succ=M.r_succ, l_prec=M.l_prec, r_prec=M.r_prec)
    kw[slot] = table([Matrix(m) for m in raw])
    return DendriformBimodule(M.algebra_dim, M.module_dim, **kw)


def test_from_products_and_star():
    D = case3_dendriform(Fraction(1, 2))
    e1 = basis_vec(2, 0)
    assert D.prec(e1, e1) == [Fraction(0), Fraction(1, 2)]
    assert D.succ(e1, e1) == [Fraction(0), Fraction(1, 2)]
    assert D.star(e1, e1) == [Fraction(0), Fraction(1)]


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-3)])
def test_one_parameter_family_satisfies_axioms(lam):
    assert check_q_dendriform(case3_dendriform(lam)).passed


def test_sign_split_structure_satisfies_axioms():
    D = case4_dendriform()
    assert check_q_dendriform(D).passed
    assert associated_algebra(D).c.is_zero()


@given(st.integers(0, 2**30), st.sampled_from(QS), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_nilpotent_structures_satisfy_axioms(seed, q, dim):
    D = nilpotent_dendriform(random.Random(seed), dim, q)
    rep = check_q_dendriform(D)
    assert rep.passed, rep.violations[:2]


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=60, deadline=None)
def test_axioms_imply_associated_q_associativity(seed, q):
    rng = random.Random(seed)
    D = nilpotent_dendriform(rng, rng.randrange(2, 4), q)
    A = associated_algebra(D)
    assert A.q == q
    assert check_q_associative(A).passed
    x = basis_vec(D.dim, 0)
    y = basis_vec(D.dim, D.dim - 1)
    from antiassoc import multiply

    assert multiply(A, x, y) == D.star(x, y)


def test_broken_axiom_reports_numbered_identity():
    D = DendriformStructure.from_products(
        2, -1,
        prec={(1, 1): {2: "1"}, (2, 1): {1: "1"}},
        succ={(1, 1): {2: "1"}},
    )
    rep = check_q_dendriform(D)
    assert not rep.passed
    assert {v.identity_id for v in rep.violations} == {"axiom1", "axiom2", "axiom3"}
    for v in rep.violations:
        assert len(v.indices) == 3
        assert all(ix >= 1 for ix in v.indices)


def test_mult_operator_columns_are_products():
    D = case3_dendriform(Fraction(1, 3))
    ls, rs, lp, rp = dendriform_mult_operators(D)
    e = [basis_vec(2, i) for i in range(2)]
    for i in range(2):
        for j in range(2):
            assert action_of(ls, e[i]).column(j) == D.succ(e[i], e[j])
            assert action_of(rs, e[j]).column(i) == D.succ(e[i], e[j])
            assert action_of(lp, e[i]).column(j) == D.prec(e[i], e[j])
            assert action_of(rp, e[j]).column(i) == D.prec(e[i], e[j])


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=40, deadline=None)
def test_regular_bimodule_satisfies_nine_laws(seed, q):
    rng = random.Random(seed)
    D = nilpotent_dendriform(rng, rng.randrange(2, 4), q)
    assert check_dendriform_bimodule(D, regular_dendriform_bimodule(D)).passed


def test_zero_bimodule_satisfies_nine_laws():
    D = case4_dendriform()
    assert check_dendriform_bimodule(D, DendriformBimodule.zero(2, 3)).passed


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=40, deadline=None)
def test_lift_valid_iff_assoc_bimodule(seed, q):
    """(l, 0, 0, r) satisfies the nine laws exactly when (l, r) satisfies
    the three associative laws over the associated algebra."""
    rng = random.Random(seed)
    D = nilpotent_dendriform(rng, 2, q)
    A = associated_algebra(D)
    M = regular_bimodule(A)
    if rng.random() < 0.5:
        from .support import perturb_bimodule

        M = perturb_bimodule(rng, M)
    zero = Tensor3.zeros(M.algebra_dim, M.module_dim, M.module_dim)
    lifted = DendriformBimodule(M.algebra_dim, M.module_dim, M.l, zero, zero, M.r)
    assert check_dendriform_bimodule(D, lifted).passed == check_bimodule(A, M).passed


def test_sum_actions_of_regular_is_regular():
    D = case3_dendriform(Fraction(2))
    A = associated_algebra(D)
    shadow = regular_dendriform_bimodule(D).sum_actions()
    reg = regular_bimodule(A)
    assert shadow.l == reg.l
    assert shadow.r == reg.r


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=40, deadline=None)
def test_dual_bimodule_valid_and_involutive(seed, q):
    rng = random.Random(seed)
    D = nilpotent_dendriform(rng, rng.randrange(2, 4), q)
    M = regular_dendriform_bimodule(D)
    Md = dual_dendriform_bimodule(M, q)
    assert check_dendriform_bimodule(D, Md).passed
    DD = dual_dendriform_bimodule(Md, q)
    for slot in ("l_succ", "r_succ", "l_prec", "r_prec"):
        assert getattr(DD, slot) == getattr(M, slot)


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=50, deadline=None)
def test_semidirect_valid_iff_bimodule(seed, q):
    rng = random.Random(seed)
    D = nilpotent_dendriform(rng, 2, q)
    M = regular_dendriform_bimodule(D)
    if rng.random() < 0.6:
        M = perturb_dendriform_bimodule(rng, M)
    left = check_dendriform_bimodule(D, M).passed
    right = check_q_dendriform(dendriform_semidirect(D, M)).passed
    assert left == right


def test_semidirect_blocks():
    D = case3_dendriform(Fraction(1))
    M = regular_dendriform_bimodule(D)
    S = dendriform_semidirect(D, M)
    assert S.dim == 4
    e = [basis_vec(4, i) for i in range(4)]
    # embedded copy
    assert S.prec(e[0], e[0])[:2] == D.prec(basis_vec(2, 0), basis_vec(2, 0))
    # module squares to zero
    assert S.star(e[2], e[3]) == [Fraction(0)] * 4
    # mixed products follow the action tables
    assert S.succ(e[0], e[2])[2:] == action_of(M.l_succ, basis_vec(2, 0)).column(0)


def test_octuple_matched_pair_passes_for_model_pairs():
    for DA, DB in [
        (case3_dendriform(Fraction(0)), DendriformStructure.zero(2, -1)),
        (case3_dendriform(Fraction(1, 2)), DendriformStructure.zero(2, -1)),
        (case4_dendriform(), DendriformStructure.zero(2, -1)),
        (case3_dendriform(Fraction(1, 2)), case4_dendriform()),
    ]:
        P = octuple_from_symplectic_pair(DA, DB)
        rep = check_dendriform_matched_pair(P)
        assert rep.passed, rep.violations[:3]


def test_perturbed_octuple_reports_numbered_equations():
    rng = random.Random(23)
    P = octuple_from_symplectic_pair(
        case3_dendriform(Fraction(1, 2)), DendriformStructure.zero(2, -1)
    )
    numbered = set()
    failed = 0

    def bump(raw):
        k = rng.randrange(len(raw))
        i = rng.randrange(len(raw[k]))
        j = rng.randrange(len(raw[k][i]))
        raw[k][i][j] += rng.choice([1, -1])

    for _ in range(30):
        bad = bump_table(P, rng.choice(SLOTS), bump)
        rep = check_dendriform_matched_pair(bad)
        if rep.passed:
            continue  # a single entry can land back inside the variety
        failed += 1
        for v in rep.violations:
            head = v.identity_id.split(":")[0]
            assert head == "precondition" or 35 <= int(head) <= 52
            if head != "precondition":
                numbered.add(int(head))
    assert failed >= 10
    assert numbered


@given(st.integers(0, 2**30))
@settings(max_examples=30, deadline=None)
def test_bowtie_axioms_iff_matched_pair(seed):
    rng = random.Random(seed)
    halves = [
        case3_dendriform(Fraction(0)),
        case3_dendriform(Fraction(1, 2)),
        case4_dendriform(),
        DendriformStructure.zero(2, -1),
    ]
    P = octuple_from_symplectic_pair(rng.choice(halves), rng.choice(halves))
    if rng.random() < 0.5:

        def bump(raw):
            raw[rng.randrange(2)][rng.randrange(2)][rng.randrange(2)] += 1

        P = bump_table(P, rng.choice(SLOTS), bump)
    mp = check_dendriform_matched_pair(P).passed
    T = dendriform_bowtie(P)
    assert T.dim == 4
    assert check_q_dendriform(T).passed == mp


def test_matched_pair_rejects_mixed_q():
    with pytest.raises(ValueError, match="single q"):
        replace(zero_dendriform_pair(2, 3), D_B=DendriformStructure.zero(3, 1))
    with pytest.raises(ValueError):
        octuple_from_symplectic_pair(
            case3_dendriform(Fraction(0)), nilpotent_dendriform(random.Random(0), 2, Fraction(1))
        )


def test_bimodule_shape_validation():
    with pytest.raises(DimensionMismatch):
        DendriformBimodule(
            2, 2,
            table([Matrix.zeros(2, 2)]),
            table([Matrix.zeros(2, 2)] * 2),
            table([Matrix.zeros(2, 2)] * 2),
            table([Matrix.zeros(2, 2)] * 2),
        )
    with pytest.raises(DimensionMismatch):  # right count, wrong size
        DendriformBimodule(
            2, 2,
            table([Matrix.zeros(2, 2)] * 2),
            table([Matrix.zeros(2, 2)] * 2),
            table([Matrix.zeros(2, 2)] * 2),
            table([Matrix.zeros(1, 1)] * 2),
        )


def zero_dendriform_pair(n, m, q=-1):
    return DendriformMatchedPairData(
        DendriformStructure.zero(n, q), DendriformStructure.zero(m, q),
        DendriformBimodule.zero(n, m), DendriformBimodule.zero(m, n),
    )


@pytest.mark.parametrize("slot", SLOTS)
def test_matched_pair_shape_validation(slot):
    """D_A has dim 2 and D_B dim 3: each table of on_B is two 3x3
    matrices, each of on_A three 2x2 ones.  A table of the wrong count or
    size is rejected by the dendriform bimodule of its side."""
    side, name = side_and_slot(slot)
    M = getattr(zero_dendriform_pair(2, 3), side)
    good = raw_matrices(getattr(M, name))
    with pytest.raises(DimensionMismatch):  # wrong count
        replace(M, **{name: table([Matrix(m) for m in good[:-1]])})
    with pytest.raises(DimensionMismatch):  # right count, wrong size
        replace(M, **{name: table([Matrix.zeros(4, 4)] * len(good))})


@pytest.mark.parametrize("side", ["on_B", "on_A"])
def test_matched_pair_side_validation(side):
    """A side indexed by the wrong algebra or acting on the wrong space is
    rejected by the pair."""
    P = zero_dendriform_pair(2, 3)
    M = getattr(P, side)
    for n, m in ((M.algebra_dim + 1, M.module_dim), (M.algebra_dim, M.module_dim + 1)):
        with pytest.raises(DimensionMismatch, match=side):
            replace(P, **{side: DendriformBimodule.zero(n, m)})


def test_from_products_rejects_out_of_range_pair_without_outputs():
    with pytest.raises(DimensionMismatch):
        DendriformStructure.from_products(2, -1, prec={(3, 1): {}})


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=40, deadline=None)
def test_dendriform_semidirect_is_bowtie_with_zero_partner(seed, q):
    """Both products on A + V are those of the dendriform bowtie of A with
    the zero structure on V, acting on V by M and acted on by nothing."""
    rng = random.Random(seed)
    D = nilpotent_dendriform(rng, rng.randrange(1, 4), q)
    m = rng.randrange(1, 4)
    M = DendriformBimodule(
        D.dim, m, *(table([random_matrix(rng, m, m) for _ in range(D.dim)]) for _ in range(4))
    )
    P = DendriformMatchedPairData(
        D, DendriformStructure.zero(m, q), M, DendriformBimodule.zero(m, D.dim)
    )
    assert dendriform_semidirect(D, M) == dendriform_bowtie(P)
