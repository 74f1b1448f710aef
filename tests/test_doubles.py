import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    Bimodule,
    CheckReport,
    DendriformStructure,
    MatchedPairData,
    StructureAlgebra,
    Violation,
    associated_algebra,
    basis_product,
    bowtie,
    build_quadratic_double,
    build_symplectic_double,
    check_dendriform_matched_pair,
    check_dual_matched_pair_criterion,
    check_symplectic_criterion,
    dendriform_bowtie,
    dendriform_mult_operators,
    dual_bimodule,
    mult_operators,
    natural_forms,
    octuple_from_symplectic_pair,
    regular_bimodule,
    verify_double_isomorphism,
)
from antiassoc.doubles import _closure_violations
from antiassoc.io import double_basis_names, dump_json, format_element
from antiassoc.bimodules import action_of
from antiassoc.linalg import DimensionMismatch, Matrix, Tensor3, basis_vec

from . import reference
from .support import (
    FAMILIES,
    Draw,
    case3_dendriform,
    case4_dendriform,
    perturb_dendriform,
    rand_fraction,
    table,
)

E1E1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
Z2 = StructureAlgebra.zero(2, -1)
DZ = DendriformStructure.zero(2, -1)


def product_lines(total):
    names = double_basis_names(total.dim // 2)
    out = []
    for i in range(total.dim):
        for j in range(total.dim):
            p = basis_product(total, i, j)
            if any(x != 0 for x in p):
                out.append(f"{names[i]} {names[j]} -> {format_element(p, names)}")
    return out


def test_trivial_dual_quadratic_double():
    D = build_quadratic_double(E1E1, Z2)
    assert D.report.passed
    assert D.kind == "quadratic"
    assert D.half_dim == 2
    assert D.report.info["form_rank"] == 4
    assert product_lines(D.total) == [
        "e1 e1 -> e2",
        "e1 e2* -> e1*",
        "e2* e1 -> e1*",
    ]


def test_quadratic_double_refuses_other_q():
    A = StructureAlgebra.zero(2, 1)
    with pytest.raises(ValueError):
        build_quadratic_double(A, StructureAlgebra.zero(2, 1))


def test_nontrivial_dual_product_fails_audit():
    Astar = StructureAlgebra.from_products(2, -1, {(2, 1): {2: 1}})
    D = build_quadratic_double(E1E1, Astar)
    assert not D.report.passed
    heads = {v.identity_id.split(":")[0] for v in D.report.violations}
    assert heads <= {"matched_pair", "total_q_assoc", "form", "closure"}
    assert "matched_pair" in heads


def test_dual_criterion_agrees_with_builder():
    cases = [
        (E1E1, Z2),
        (StructureAlgebra.from_products(2, -1, {(2, 2): {1: 1}}), Z2),
        (E1E1, StructureAlgebra.from_products(2, -1, {(2, 1): {2: 1}})),
        (E1E1, StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})),
        (E1E1, StructureAlgebra.from_products(2, -1, {(2, 2): {1: 1}})),
    ]
    for A, Astar in cases:
        crit = check_dual_matched_pair_criterion(A, Astar)
        built = build_quadratic_double(A, Astar)
        mp = [
            v
            for v in built.report.violations
            if v.identity_id.startswith("matched_pair:")
        ]
        assert crit.passed == (not mp)


def test_dual_criterion_ids():
    # two individually valid halves that are not compatible as a pair
    rep = check_dual_matched_pair_criterion(E1E1, E1E1)
    assert not rep.passed
    ids = {v.identity_id for v in rep.violations}
    assert ids == {"dual1", "dual2"}
    # an invalid half surfaces as a precondition instead
    bad = StructureAlgebra.from_products(2, -1, {(2, 1): {2: 1}})
    rep = check_dual_matched_pair_criterion(E1E1, bad)
    assert any(
        v.identity_id.startswith("precondition:q_assoc:B") for v in rep.violations
    )


@pytest.mark.parametrize(
    "lam,expected",
    [
        (Fraction(0), ["e1 e1 -> e2", "e2* e1 -> e1*"]),
        (
            Fraction(1, 2),
            ["e1 e1 -> e2", "e1 e2* -> 1/2*e1*", "e2* e1 -> 1/2*e1*"],
        ),
        (Fraction(1), ["e1 e1 -> e2", "e1 e2* -> e1*"]),
    ],
)
def test_one_parameter_symplectic_doubles(lam, expected):
    D = build_symplectic_double(case3_dendriform(lam), DZ)
    assert D.report.passed
    assert D.kind == "symplectic"
    assert product_lines(D.total) == expected


def test_sign_split_symplectic_double():
    D = build_symplectic_double(case4_dendriform(), DZ)
    assert D.report.passed
    assert product_lines(D.total) == ["e2 e1* -> -e2*", "e1* e2 -> e2*"]


def test_octuple_bowtie_matches_builder_total():
    for DA in (case3_dendriform(Fraction(0)), case3_dendriform(Fraction(1, 2)), case4_dendriform()):
        P = octuple_from_symplectic_pair(DA, DZ)
        T = dendriform_bowtie(P)
        built = build_symplectic_double(DA, DZ)
        assert associated_algebra(T).c == built.total.c


def test_criterion_and_octuple_and_builder_agree():
    rng = random.Random(31)
    halves = [
        case3_dendriform(Fraction(0)),
        case3_dendriform(Fraction(1, 2)),
        case4_dendriform(),
        DZ,
    ]
    pairs = [(a, b) for a in halves for b in halves]
    for _ in range(10):
        a = perturb_dendriform(rng, rng.choice(halves))
        pairs.append((a, rng.choice(halves)))
    for DA, DB in pairs:
        crit = check_symplectic_criterion(DA, DB).passed
        built = build_symplectic_double(DA, DB)
        mp = [
            v
            for v in built.report.violations
            if v.identity_id.startswith("matched_pair:")
        ]
        octu = check_dendriform_matched_pair(
            octuple_from_symplectic_pair(DA, DB)
        ).passed
        assert crit == (not mp) == octu


def test_closure_detector():
    leaky = StructureAlgebra.from_products(4, -1, {(1, 1): {3: 1}})
    out = _closure_violations(leaky, 2)
    assert len(out) == 1
    assert out[0].identity_id == "closure:A"
    assert out[0].indices == (1, 1)


def test_isomorphism_identity_and_scaling():
    dh = build_symplectic_double(case3_dendriform(Fraction(1, 2)), DZ)
    assert verify_double_isomorphism(dh, dh, Matrix.identity(4)).passed
    rep = verify_double_isomorphism(dh, dh, Matrix.identity(4).scale(2))
    assert not rep.passed
    ids = {v.identity_id for v in rep.violations}
    assert ids == {"form", "multiplicative"}
    form_violations = [v for v in rep.violations if v.identity_id == "form"]
    assert all(v.residual in ([Fraction(3)], [Fraction(-3)]) for v in form_violations)


def test_block_swap_is_not_an_isomorphism():
    d0 = build_symplectic_double(case3_dendriform(Fraction(0)), DZ)
    d1 = build_symplectic_double(case3_dendriform(Fraction(1)), DZ)
    swap = Matrix.zeros(4, 4)
    for k in range(2):
        swap.entries[k][2 + k] = Fraction(1)
        swap.entries[2 + k][k] = Fraction(1)
    rep = verify_double_isomorphism(d0, d1, swap)
    assert not rep.passed
    assert "multiplicative" in {v.identity_id for v in rep.violations}


def test_diagonal_automorphism():
    dh = build_symplectic_double(case3_dendriform(Fraction(1, 2)), DZ)
    phi = Matrix([["2", 0, 0, 0], [0, "4", 0, 0], [0, 0, "1/2", 0], [0, 0, 0, "1/4"]])
    assert verify_double_isomorphism(dh, dh, phi).passed


def test_isomorphism_dimension_guard():
    dh = build_symplectic_double(case3_dendriform(Fraction(1, 2)), DZ)
    with pytest.raises(DimensionMismatch):
        verify_double_isomorphism(dh, dh, Matrix.identity(3))


def _dense_tensor(rng, n):
    return Tensor3([[[rand_fraction(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)])


def _transposed(T):
    """The table whose action matrices are the transposes of T's."""
    return table([action_of(T, basis_vec(T.d1, i)).transpose() for i in range(T.d1)])


@given(st.integers(0, 2**30))
@settings(max_examples=15, deadline=None)
def test_double_actions_follow_their_formulas(seed):
    """On dense (mostly failing) q = -1 halves: the octuple's tables are
    (R_succ^T + R_prec^T, -L_prec^T, -R_succ^T, L_succ^T + L_prec^T) on each
    side, its slot sums are (R_prec^T, L_succ^T), and the two doubles are the
    bowtie products under the transposed operator tables."""
    rng = random.Random(seed)
    n = rng.randrange(1, 4)
    DA, DB = (
        DendriformStructure(n, -1, _dense_tensor(rng, n), _dense_tensor(rng, n))
        for _ in range(2)
    )
    O = octuple_from_symplectic_pair(DA, DB)
    for D, M in ((DA, O.on_B), (DB, O.on_A)):
        l_succ, r_succ, l_prec, r_prec = M.l_succ, M.r_succ, M.l_prec, M.r_prec
        ls, rs, lp, rp = map(_transposed, dendriform_mult_operators(D))
        assert l_succ == rs + rp
        assert r_succ == lp.scale(-1)
        assert l_prec == rs.scale(-1)
        assert r_prec == ls + lp
        assert l_succ + l_prec == rp
        assert r_succ + r_prec == ls

    (ls_a, _, _, rp_a), (ls_b, _, _, rp_b) = (
        map(_transposed, dendriform_mult_operators(D)) for D in (DA, DB)
    )
    P = MatchedPairData(
        associated_algebra(DA), associated_algebra(DB),
        Bimodule(n, n, rp_a, ls_a), Bimodule(n, n, rp_b, ls_b),
    )
    assert build_symplectic_double(DA, DB).total == bowtie(P)

    A, B = (StructureAlgebra(n, -1, _dense_tensor(rng, n)) for _ in range(2))
    (LA, RA), (LB, RB) = (map(_transposed, mult_operators(X)) for X in (A, B))
    P = MatchedPairData(A, B, Bimodule(n, n, RA, LA), Bimodule(n, n, RB, LB))
    assert build_quadratic_double(A, B).total == bowtie(P)


def _reference_closure(total, n):
    """Each product of two basis vectors of one half, where it has a
    coordinate in the other half, read off the Fraction entries."""
    c, zero, violations = total.c.entries, [Fraction(0)] * n, []
    for tag, block, leak in (("closure:A", range(n), lambda f: zero + list(f[n:])),
                             ("closure:B", range(n, 2 * n), lambda f: list(f[:n]) + zero)):
        for i in block:
            for j in block:
                if any(leak(c[i][j])):
                    violations.append(Violation(tag, (i + 1, j + 1), leak(c[i][j])))
    return violations


def _reference_double_report(P, form_check, form, kind):
    """A builder's report assembled from the Fraction reference: the matched
    pair, the bowtie's q-law, the form and the closure of the halves."""
    total = bowtie(P)
    form_report = form_check(total, form)
    violations = (
        reference._prefixed("matched_pair", reference.check_matched_pair(P))
        + reference._prefixed("total_q_assoc", reference.check_q_associative(total))
        + reference._prefixed("form", form_report)
        + _reference_closure(total, P.A.dim)
    )
    return CheckReport.from_violations(
        violations, kind=kind, half_dim=P.A.dim, form_rank=form_report.info["rank"])


@given(seed=st.integers(0, 2**30), family=st.sampled_from(FAMILIES), n=st.integers(0, 3),
       zero_dual=st.booleans())
@settings(max_examples=40, deadline=None)
def test_builders_report_what_the_reference_assembles(seed, family, n, zero_dual):
    """Both builders' reports, ids, indices, residuals, order and info, equal
    the list the Fraction reference assembles for the same matched pair, on
    dense, nilpotent and perturbed halves at q = -1, each dual half drawn or
    zero, by ``as_dict`` and by the bytes of the JSON report."""
    draw = Draw(random.Random(seed), family, n, n)
    A, Astar = draw.algebra(-1), draw.algebra(-1)
    DA, DAstar = draw.dendriform(-1), draw.dendriform(-1)
    if zero_dual:
        Astar, DAstar = StructureAlgebra.zero(n, -1), DendriformStructure.zero(n, -1)
    symmetric, symplectic = natural_forms(n)
    on_Astar, on_A = (dual_bimodule(X, regular_bimodule(X)) for X in (A, Astar))
    octuple = octuple_from_symplectic_pair(DA, DAstar)
    cases = [
        (build_quadratic_double(A, Astar), MatchedPairData(A, Astar, on_Astar, on_A),
         reference.check_invariant_symmetric, symmetric, "quadratic"),
        (build_symplectic_double(DA, DAstar),
         MatchedPairData(associated_algebra(DA), associated_algebra(DAstar),
                         octuple.on_B.sum_actions(), octuple.on_A.sum_actions()),
         reference.check_symplectic, symplectic, "symplectic"),
    ]
    for built, P, form_check, form, kind in cases:
        want = _reference_double_report(P, form_check, form, kind)
        assert built.report.as_dict() == want.as_dict()
        assert dump_json(built.report) == dump_json(want)
