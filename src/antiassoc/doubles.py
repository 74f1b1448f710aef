"""Double constructions on A + A*.

Both builders follow one policy: assemble first, verify afterwards, and
never refuse.  The attached report carries every failed condition, which
is what makes auditing published-but-inconsistent tables possible.  The
two criterion verifiers are deliberately separate code paths from the
generic matched-pair machinery; agreement of their verdicts with the
builders' is a theorem, and the test suite exploits that.

``verify_double_isomorphism`` runs its conditions on algebra.py's law
runner.  ``audit_paper_fixture`` rebuilds one bundled fixture's double
and diffs it against the published product lines; ``paper fixtures`` in
the CLI only finds the fixture files and prints these audits.

Conventions.  The double space is coordinatized A-block first.  Every
matched pair here holds the two bimodules the dual constructions return,
in the dual basis, as they are: ``on_B`` is A acting on A*, ``on_A`` is
A* acting on A.  The quadratic builder takes ``dual_bimodule`` of each
half's regular bimodule, which at q = -1 is (R_A^T, L_A^T) for A acting
on A* and (R_{A*}^T, L_{A*}^T) the other way.  The octuple's two sides
are ``dual_dendriform_bimodule`` of each half's regular dendriform
bimodule, and the symplectic builder takes their ``sum_actions``, the
prec-right and succ-left transposes (R_prec^T, L_succ^T).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    CheckReport,
    StructureAlgebra,
    Violation,
    _prefixed,
    _run_laws,
    basis_product,
    check_q_associative,
    mult_operators,
    multiply,
)
from .bimodules import action_of, dual_bimodule, regular_bimodule
from .dendriform import (
    DendriformMatchedPairData,
    DendriformStructure,
    associated_algebra,
    check_q_dendriform,
    dendriform_mult_operators,
    dual_dendriform_bimodule,
    regular_dendriform_bimodule,
)
from .forms import (
    BilinearForm,
    check_invariant_symmetric,
    check_symplectic,
    natural_forms,
)
from .io import PaperFixture, double_basis_names, format_element
from .linalg import DimensionMismatch, basis_vec, vec_is_zero, vec_sub
from .matched import MatchedPairData, bowtie, check_matched_pair
from .operators import LinearMap


@dataclass
class DoubleConstruction:
    total: StructureAlgebra
    form: BilinearForm
    half_dim: int
    kind: str
    report: CheckReport


def _closure_violations(total: StructureAlgebra, n: int) -> list[Violation]:
    """Each half must be closed under the total product."""
    c = total.c.entries

    def leak_A(i, j):
        yield "closure:A", [Fraction(0)] * n + c[i][j][n:]

    def leak_B(i, j):
        yield "closure:B", c[i][j][:n] + [Fraction(0)] * n

    pairs_A = itertools.product(range(n), repeat=2)
    pairs_B = itertools.product(range(n, total.dim), repeat=2)
    return _run_laws(pairs_A, leak_A) + _run_laws(pairs_B, leak_B)


def _audited_double(
    P: MatchedPairData, form: BilinearForm, check_form, kind: str
) -> DoubleConstruction:
    """Bowtie of P with ``form`` attached; the report collects the matched
    pair, the q-law of the total, ``check_form`` and closure of the halves."""
    n = P.A.dim
    total = bowtie(P)
    violations = (
        _prefixed("matched_pair", check_matched_pair(P))
        + _prefixed("total_q_assoc", check_q_associative(total))
        + _prefixed("form", check_form(total, form))
        + _closure_violations(total, n)
    )
    report = CheckReport.from_violations(
        violations, kind=kind, half_dim=n, form_rank=form.rank()
    )
    return DoubleConstruction(total, form, n, kind, report)


def _require_halves(X, Y) -> None:
    """The two halves of a double (algebras or dendriform structures) must
    have equal dimension, and both must have q = -1."""
    if X.dim != Y.dim:
        raise DimensionMismatch("the two halves must have equal dimension")
    if X.q != -1 or Y.q != -1:
        raise ValueError("double constructions are defined at q = -1")


def build_quadratic_double(
    A: StructureAlgebra, Astar: StructureAlgebra
) -> DoubleConstruction:
    """Bowtie of (A, A*) under the dual regular actions, with the
    canonical symmetric pairing attached.  Audit mode: every failed
    condition lands in the report, nothing raises.
    """
    _require_halves(A, Astar)
    on_Astar, on_A = (dual_bimodule(X, regular_bimodule(X)) for X in (A, Astar))
    P = MatchedPairData(A, Astar, on_Astar, on_A)
    return _audited_double(
        P, natural_forms(A.dim)[0], check_invariant_symmetric, "quadratic"
    )


def check_dual_matched_pair_criterion(
    A: StructureAlgebra, Astar: StructureAlgebra
) -> CheckReport:
    """The two-equation criterion for the quadratic double, namely

        R^T(x)(a o b) + R^T(L_o^T(a) x) b + (R^T(x)a) o b = 0
        R^T(R_o^T(a)x)b + (L^T(x)a) o b + L^T(L_o^T(b)x)a + a o (R^T(x)b) = 0

    over all (x, a, b), with antiassociativity of both halves reported
    as preconditions.  The verdict provably coincides with the full
    six-equation matched-pair check on the quadratic-double data; the
    two are implemented independently so tests can confirm that.
    """
    _require_halves(A, Astar)
    n = A.dim
    violations = []
    for tag, rep in (
        ("A", check_q_associative(A)),
        ("B", check_q_associative(Astar)),
    ):
        violations += _prefixed(f"precondition:q_assoc:{tag}", rep)

    LA, RA = mult_operators(A)
    LB, RB = mult_operators(Astar)
    RstarA, LstarA = RA.transposed(), LA.transposed()
    RstarB, LstarB = RB.transposed(), LB.transposed()
    e = [basis_vec(n, i) for i in range(n)]

    for ix in range(n):
        x = e[ix]
        # the actions that depend on x alone, and on x and b
        RAx, LAx = action_of(RstarA, x), action_of(LstarA, x)
        RAx_e = [RAx.apply(v) for v in e]
        LA_LBx = [action_of(LstarA, action_of(LstarB, b).apply(x)) for b in e]
        for ia in range(n):
            a = e[ia]
            RA_LBa = action_of(RstarA, action_of(LstarB, a).apply(x))
            RA_RBa = action_of(RstarA, action_of(RstarB, a).apply(x))
            LAx_a = LAx.apply(a)
            for ib in range(n):
                b = e[ib]
                idx = (ix + 1, ia + 1, ib + 1)
                ab = multiply(Astar, a, b)
                r1 = RAx.apply(ab)
                t = RA_LBa.apply(b)
                r1 = [u + v for u, v in zip(r1, t)]
                t = multiply(Astar, RAx_e[ia], b)
                r1 = [u + v for u, v in zip(r1, t)]
                if not vec_is_zero(r1):
                    violations.append(Violation("dual1", idx, r1))

                r2 = RA_RBa.apply(b)
                t = multiply(Astar, LAx_a, b)
                r2 = [u + v for u, v in zip(r2, t)]
                t = LA_LBx[ib].apply(a)
                r2 = [u + v for u, v in zip(r2, t)]
                t = multiply(Astar, a, RAx_e[ib])
                r2 = [u + v for u, v in zip(r2, t)]
                if not vec_is_zero(r2):
                    violations.append(Violation("dual2", idx, r2))
    return CheckReport.from_violations(violations)


def build_symplectic_double(
    D_A: DendriformStructure, D_Astar: DendriformStructure
) -> DoubleConstruction:
    """Bowtie of the associated algebras under the summed actions of the
    octuple (prec-right and succ-left transposes), with the canonical
    symplectic form attached.  Audit mode, like the quadratic builder.
    """
    O = octuple_from_symplectic_pair(D_A, D_Astar)
    P = MatchedPairData(
        associated_algebra(D_A), associated_algebra(D_Astar),
        O.on_B.sum_actions(), O.on_A.sum_actions(),
    )
    return _audited_double(P, natural_forms(D_A.dim)[1], check_symplectic, "symplectic")


def check_symplectic_criterion(
    D_A: DendriformStructure, D_Astar: DendriformStructure
) -> CheckReport:
    """The six-equation criterion behind the symplectic double, written
    directly in terms of the two dendriform halves (ids eq1..eq6), with
    both q-dendriform checks reported as preconditions.  Independent of
    the builder's generic matched-pair path; the verdicts must agree.

    Equations eq1, eq2, eq5 live in the dual half and are indexed
    (i_x, i_a, i_b); eq3, eq4, eq6 live in the primal half and are
    indexed (i_a, i_x, i_y).
    """
    _require_halves(D_A, D_Astar)
    n = D_A.dim
    violations = []
    for tag, rep in (
        ("A", check_q_dendriform(D_A)),
        ("B", check_q_dendriform(D_Astar)),
    ):
        violations += _prefixed(f"precondition:dendriform:{tag}", rep)

    A = associated_algebra(D_A)
    B = associated_algebra(D_Astar)
    ls_a, _, _, rp_a = dendriform_mult_operators(D_A)
    ls_b, _, _, rp_b = dendriform_mult_operators(D_Astar)
    Ra = rp_a.transposed()  # R_prec_A^T  : A* -> A*
    La = ls_a.transposed()  # L_succ_A^T  : A* -> A*
    Rb = rp_b.transposed()  # R_prec_B^T  : A  -> A
    Lb = ls_b.transposed()  # L_succ_B^T  : A  -> A
    e = [basis_vec(n, i) for i in range(n)]

    def acc(*vecs):
        out = list(vecs[0])
        for v in vecs[1:]:
            out = [u + w for u, w in zip(out, v)]
        return out

    for i1 in range(n):
        # the actions that depend on the outer basis vector alone: x in the
        # dual-half equations and a2 in the primal-half ones are both e[i1]
        x = a2 = e[i1]
        Ra_x, La_x = action_of(Ra, x), action_of(La, x)
        Rb_a2, Lb_a2 = action_of(Rb, a2), action_of(Lb, a2)
        Ra_x_e = [Ra_x.apply(v) for v in e]
        La_x_e = [La_x.apply(v) for v in e]
        Rb_a2_e = [Rb_a2.apply(v) for v in e]
        Lb_a2_e = [Lb_a2.apply(v) for v in e]
        # the nested actions that depend on e[i1] and one more basis vector
        Ra_Lb = [action_of(Ra, action_of(Lb, v).apply(x)) for v in e]
        La_Rb = [action_of(La, action_of(Rb, v).apply(x)) for v in e]
        Ra_Rb = [action_of(Ra, action_of(Rb, v).apply(x)) for v in e]
        La_Lb = [action_of(La, action_of(Lb, v).apply(x)) for v in e]
        Rb_La = [action_of(Rb, action_of(La, v).apply(a2)) for v in e]
        Lb_Ra = [action_of(Lb, action_of(Ra, v).apply(a2)) for v in e]
        Rb_Ra = [action_of(Rb, action_of(Ra, v).apply(a2)) for v in e]
        Lb_La = [action_of(Lb, action_of(La, v).apply(a2)) for v in e]
        for i2 in range(n):
            for i3 in range(n):
                a, b = e[i2], e[i3]
                idx = (i1 + 1, i2 + 1, i3 + 1)
                ab = multiply(B, a, b)
                r = acc(
                    Ra_x.apply(ab),
                    Ra_Lb[i2].apply(b),
                    multiply(B, Ra_x_e[i2], b),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq1", idx, r))
                r = acc(
                    La_x.apply(ab),
                    La_Rb[i3].apply(a),
                    multiply(B, a, La_x_e[i3]),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq2", idx, r))
                r = acc(
                    Ra_Rb[i2].apply(b),
                    multiply(B, La_x_e[i2], b),
                    La_Lb[i3].apply(a),
                    multiply(B, a, Ra_x_e[i3]),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq5", idx, r))

                # primal-half equations; rename the loop triple (a, x, y)
                x2, y2 = e[i2], e[i3]
                xy = multiply(A, x2, y2)
                r = acc(
                    Rb_a2.apply(xy),
                    Rb_La[i2].apply(y2),
                    multiply(A, Rb_a2_e[i2], y2),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq3", idx, r))
                r = acc(
                    Lb_a2.apply(xy),
                    Lb_Ra[i3].apply(x2),
                    multiply(A, x2, Lb_a2_e[i3]),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq4", idx, r))
                r = acc(
                    Rb_Ra[i2].apply(y2),
                    multiply(A, Lb_a2_e[i2], y2),
                    Lb_La[i3].apply(x2),
                    multiply(A, x2, Rb_a2_e[i3]),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq6", idx, r))
    return CheckReport.from_violations(violations)


def octuple_from_symplectic_pair(
    D_A: DendriformStructure, D_Astar: DendriformStructure
) -> DendriformMatchedPairData:
    """The eight dendriform actions extending the symplectic-double data:

        ( R_succ^T + R_prec^T,  -L_prec^T,  -R_succ^T,  L_succ^T + L_prec^T )

    on each side: the dual of each half's regular dendriform bimodule.
    Summing the succ and prec slots collapses back to the four associative
    actions (R_prec^T, L_succ^T) used by build_symplectic_double.
    """
    _require_halves(D_A, D_Astar)
    on_Astar, on_A = (
        dual_dendriform_bimodule(regular_dendriform_bimodule(D), -1)
        for D in (D_A, D_Astar)
    )
    return DendriformMatchedPairData(D_A, D_Astar, on_Astar, on_A)


def verify_double_isomorphism(
    T1: DoubleConstruction, T2: DoubleConstruction, phi: LinearMap
) -> CheckReport:
    """Candidate-isomorphism verification between two doubles.

    Checks, in order: phi invertible; multiplicative on all basis pairs;
    maps each half into the corresponding half; pulls the second form
    back to the first (phi^T gram2 phi = gram1).  No searching happens
    here; finding phi is someone else's job.
    """
    d = T1.total.dim
    if T2.total.dim != d or phi.src_dim != d or phi.dst_dim != d:
        raise DimensionMismatch("phi must be square of the common double dimension")
    n = T1.half_dim
    cols = [phi.m.column(j) for j in range(d)]
    diff = (phi.m.transpose() * T2.form.gram * phi.m - T1.form.gram).entries

    def invertible():
        for v in phi.m.kernel_basis()[:1]:
            yield "invertible", v

    def multiplicative(i, j):
        lhs = phi.m.apply(basis_product(T1.total, i, j))
        yield "multiplicative", vec_sub(lhs, multiply(T2.total, cols[i], cols[j]))

    def block(j):
        yield ("block_A", cols[j][n:]) if j < n else ("block_Astar", cols[j][:n])

    def form(i, j):
        yield "form", [diff[i][j]]

    pairs = list(itertools.product(range(d), repeat=2))
    violations = (
        _run_laws([()], invertible)
        + _run_laws(pairs, multiplicative)
        + _run_laws([(j,) for j in range(d)], block)
        + _run_laws(pairs, form)
    )
    return CheckReport.from_violations(
        violations, kinds=[T1.kind, T2.kind], dim=d
    )


# Condition names of a fixture audit, keyed by the tag that starts the ids
# under which _audited_double folds each condition into its report.
_CONDITION_NAMES = {
    "matched_pair": "matched-pair",
    "total_q_assoc": "q-associative",
    "form": "form",
    "closure": "closure",
}


def audit_paper_fixture(fx: PaperFixture) -> dict:
    """Rebuild a fixture's double and diff it against the published
    data: which conditions of the build report hold, each displayed product
    line against the recomputed one, and, when the fixture claims its lines
    are the complete table, every nonzero basis product it does not show."""
    if fx.kind == "quadratic":
        d = build_quadratic_double(fx.A, fx.Astar)
    else:
        d = build_symplectic_double(fx.DA, fx.DAstar)
    labels = double_basis_names(fx.half_dim)
    failed = {v.identity_id.split(":", 1)[0] for v in d.report.violations}
    conditions = [
        {"name": name, "passed": tag not in failed}
        for tag, name in _CONDITION_NAMES.items()
    ]
    table = []
    for line in fx.displayed:
        recomputed = multiply(d.total, line["left"], line["right"])
        table.append(
            {
                "left": format_element(line["left"], labels),
                "right": format_element(line["right"], labels),
                "displayed": format_element(line["result"], labels),
                "recomputed": format_element(recomputed, labels),
                "match": recomputed == line["result"],
            }
        )
    listed = {(tuple(line["left"]), tuple(line["right"])) for line in fx.displayed}
    e = [tuple(basis_vec(d.total.dim, i)) for i in range(d.total.dim)]
    undisplayed = []
    for i, j in itertools.product(range(d.total.dim), repeat=2):
        if not fx.complete or (e[i], e[j]) in listed:
            continue
        prod = basis_product(d.total, i, j)
        if not vec_is_zero(prod):
            undisplayed.append(
                {
                    "left": labels[i],
                    "right": labels[j],
                    "product": format_element(prod, labels),
                }
            )
    return {
        "label": fx.label,
        "kind": fx.kind,
        "conditions": conditions,
        "table": table,
        "undisplayed_nonzero": undisplayed,
        "passed": all(c["passed"] for c in conditions)
        and all(row["match"] for row in table)
        and not undisplayed,
    }
