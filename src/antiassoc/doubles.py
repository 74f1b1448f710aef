"""Double constructions on A + A*.

Both builders follow one policy: assemble first, verify afterwards, and
never refuse.  The attached report carries every failed condition, which
is what makes auditing published-but-inconsistent tables possible.  The
matched-pair conditions and the total's q-law are block reads of one
evaluation of G on the total, which is the compiled bowtie, and the
closure of each half is read off the total's compiled fibers, so a build
makes no Fraction view of a table.  The two criterion verifiers are
deliberately separate code paths from the generic matched-pair
machinery; agreement of their verdicts with the builders' is a theorem,
and the test suite exploits that.  The criteria
compute in integers of their own, off the kernel of algebra.py: each call
reads its tables through their entries, scales them by the lcm D of
their denominators and sums sparse integer fibers (see the helpers above
them), so each residual is an integer vector over D^2, kept so in its
Violation until read.  Their dense Fraction form is kept in
tests/reference.py, and tests/test_kernel.py requires identical reports
from the two.

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
import math
from dataclasses import dataclass

from .algebra import (
    _Q_ASSOC_ROUTES,
    CheckReport,
    StructureAlgebra,
    Violation,
    _prefixed,
    _route_violations,
    _run_laws,
    basis_product,
    check_q_associative,
    mult_operators,
    multiply,
)
from .bimodules import dual_bimodule, regular_bimodule
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
from .linalg import DimensionMismatch, Matrix, Tensor3, basis_vec, vec_is_zero, vec_sub
from .matched import (
    _PAIR_ROUTES,
    MatchedPairData,
    _matched_reads,
    _matched_violations,
    bowtie,
)


@dataclass
class DoubleConstruction:
    total: StructureAlgebra
    form: BilinearForm
    half_dim: int
    kind: str
    report: CheckReport


def _closure_violations(total: StructureAlgebra, n: int) -> list[Violation]:
    """Each half must be closed under the total product: a residual is the
    pairs of a product's compiled fiber whose k lies in the other half,
    over the total's d."""
    d, F = total.c.compiled

    def leak(i, j, other):
        res = [0] * total.dim
        for k, a in F[i][j]:
            if k in other:
                res[k] = a
        return res

    A, B = range(n), range(n, total.dim)
    leak_A = ("closure:A", lambda i, j: leak(i, j, B))
    leak_B = ("closure:B", lambda i, j: leak(i, j, A))
    return (_run_laws(itertools.product(A, repeat=2), [leak_A], d)
            + _run_laws(itertools.product(B, repeat=2), [leak_B], d))


def _audited_double(
    P: MatchedPairData, form: BilinearForm, check_form, kind: str
) -> DoubleConstruction:
    """Bowtie of P with ``form`` attached; the report collects the matched
    pair, the q-law of the total, ``check_form`` and closure of the halves,
    and the form's rank as ``check_form`` reports it."""
    n, q = P.A.dim, P.A.q
    total = bowtie(P)
    form_report = check_form(total, form)
    # Every matched-pair condition is one block of the total's q-law, and
    # the total is the compiled bowtie the pair's check reads: both are
    # reads of one evaluation of G on its table, each under its own ids.
    D, F = total.c.compiled
    whole = (0, total.dim)
    *pair, total_law = _route_violations(
        [F], q, D, _matched_reads(_PAIR_ROUTES, n, n) + ((_Q_ASSOC_ROUTES, whole, whole),))
    violations = (
        _prefixed("matched_pair", _matched_violations("q_assoc", pair))
        + _prefixed("total_q_assoc", total_law)
        + _prefixed("form", form_report.violations)
        + _closure_violations(total, n)
    )
    report = CheckReport.from_violations(
        violations, kind=kind, half_dim=n, form_rank=form_report.info["rank"]
    )
    return DoubleConstruction(total, form, n, kind, report)


def _require_halves(X, Y) -> None:
    """The two halves of a double (algebras or dendriform structures) must
    have equal dimension, and both must have q = -1."""
    if X.dim != Y.dim:
        raise DimensionMismatch("the two halves must have equal dimension")
    if X.q != -1 or Y.q != -1:
        raise ValueError("double constructions are defined at q = -1")


# ---------------------------------------------------------------------------
# The two criteria read every table T (a structure tensor or an action
# table, both with T[i][j] = T(e_i) e_j) through its entries, scaled by one
# D per call: the lcm of the denominators of every table the call reads
# (_table_den), 1 when they are all zero.  A table is kept as lists of its
# fibers' nonzero (k, D * T[i][j][k]) pairs.  Each quantified vector is a
# basis vector, so each term of a criterion equation is a fiber, or one
# fiber pushed through one slice of a table:
#
#     T(e_i) v = sum_j v_j T[i][j]      T(w) e_j = sum_i w_i T[i][j]
#
# A product a o b of the half with structure tensor o is the action of its
# left multiplication table, which is o itself.  Every term is a product of
# two scaled entries, so a residual is D^2 times its value, in integers,
# and the law runner keeps it so over the scale D^2.  The arithmetic is
# plain int sums here; the integer kernel of algebra.py is not used, so the
# criteria stay an independent check on the builders.

SparseTable = list[list[list[tuple[int, int]]]]


def _table_den(tables: list[Tensor3]) -> int:
    """The lcm D of the denominators of every entry of ``tables``."""
    return math.lcm(*{x.denominator for T in tables for plane in T.entries
                      for fiber in plane for x in fiber})


def _nonzero_table(T: Tensor3, D: int) -> SparseTable:
    """Each fiber T[i][j] as the list of its nonzero (k, D * T[i][j][k]),
    for D a multiple of every denominator of T."""
    return [
        [[(k, x.numerator * (D // x.denominator)) for k, x in enumerate(fiber) if x]
         for fiber in plane]
        for plane in T.entries
    ]


def _act(T: SparseTable, i: int, v, acc: list) -> list:
    """acc += T(e_i) v for v given by its nonzero (j, v_j)."""
    for j, vj in v:
        for k, t in T[i][j]:
            acc[k] += vj * t
    return acc


def _act_by(T: SparseTable, w, j: int, acc: list) -> list:
    """acc += T(w) e_j for w given by its nonzero (i, w_i)."""
    for i, wi in w:
        for k, t in T[i][j]:
            acc[k] += wi * t
    return acc


# In the three equation shapes below, R and L are the actions of the outer
# basis vector x on the half with product o, and Ro and Lo those of that
# half's basis vectors on x's space.  Each returns the residual at (x, a, b).


def _right_equation(R, Lo, o, x: int, a: int, b: int) -> list:
    """R(x)(a o b) + R(Lo(a) x) b + (R(x) a) o b."""
    acc = _act(R, x, o[a][b], [0] * len(o))
    acc = _act_by(R, Lo[a][x], b, acc)
    return _act_by(o, R[x][a], b, acc)


def _left_equation(L, Ro, o, x: int, a: int, b: int) -> list:
    """L(x)(a o b) + L(Ro(b) x) a + a o (L(x) b)."""
    acc = _act(L, x, o[a][b], [0] * len(o))
    acc = _act_by(L, Ro[b][x], a, acc)
    return _act(o, a, L[x][b], acc)


def _mixed_equation(R, L, Ro, Lo, o, x: int, a: int, b: int) -> list:
    """R(Ro(a) x) b + (L(x) a) o b + L(Lo(b) x) a + a o (R(x) b)."""
    acc = _act_by(R, Ro[a][x], b, [0] * len(o))
    acc = _act_by(o, L[x][a], b, acc)
    acc = _act_by(L, Lo[b][x], a, acc)
    return _act(o, a, R[x][b], acc)


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
    violations = _prefixed("precondition:q_assoc:A", check_q_associative(A).violations)
    violations += _prefixed("precondition:q_assoc:B", check_q_associative(Astar).violations)

    LA, RA = mult_operators(A)
    LB, RB = mult_operators(Astar)
    tables = [T.transposed() for T in (RA, LA, RB, LB)] + [Astar.c]
    D = _table_den(tables)
    R, L, Ro, Lo, o = (_nonzero_table(T, D) for T in tables)

    laws = [
        ("dual1", lambda x, a, b: _right_equation(R, Lo, o, x, a, b)),
        ("dual2", lambda x, a, b: _mixed_equation(R, L, Ro, Lo, o, x, a, b)),
    ]
    violations += _run_laws(itertools.product(range(A.dim), repeat=3), laws, D * D)
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
    indexed (i_a, i_x, i_y).  Each primal equation is its dual-half
    partner with the roles of the two halves exchanged.
    """
    _require_halves(D_A, D_Astar)
    violations = _prefixed("precondition:dendriform:A", check_q_dendriform(D_A).violations)
    violations += _prefixed("precondition:dendriform:B", check_q_dendriform(D_Astar).violations)

    ls_a, _, _, rp_a = dendriform_mult_operators(D_A)
    ls_b, _, _, rp_b = dendriform_mult_operators(D_Astar)
    # R_prec_A^T and L_succ_A^T act on A*, R_prec_B^T and L_succ_B^T on A
    tables = [T.transposed() for T in (rp_a, ls_a, rp_b, ls_b)]
    tables += [associated_algebra(half).c for half in (D_A, D_Astar)]
    D = _table_den(tables)
    Ra, La, Rb, Lb, A, B = (_nonzero_table(T, D) for T in tables)

    laws = [
        ("eq1", lambda *idx: _right_equation(Ra, Lb, B, *idx)),
        ("eq2", lambda *idx: _left_equation(La, Rb, B, *idx)),
        ("eq5", lambda *idx: _mixed_equation(Ra, La, Rb, Lb, B, *idx)),
        ("eq3", lambda *idx: _right_equation(Rb, La, A, *idx)),
        ("eq4", lambda *idx: _left_equation(Lb, Ra, A, *idx)),
        ("eq6", lambda *idx: _mixed_equation(Rb, Lb, Ra, La, A, *idx)),
    ]
    violations += _run_laws(itertools.product(range(D_A.dim), repeat=3), laws, D * D)
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
    T1: DoubleConstruction, T2: DoubleConstruction, phi: Matrix
) -> CheckReport:
    """Candidate-isomorphism verification between two doubles.

    Checks, in order: phi invertible; multiplicative on all basis pairs;
    maps each half into the corresponding half; pulls the second form
    back to the first (phi^T gram2 phi = gram1).  No searching happens
    here; finding phi is someone else's job.
    """
    d = T1.total.dim
    if T2.total.dim != d or (phi.rows, phi.cols) != (d, d):
        raise DimensionMismatch("phi must be square of the common double dimension")
    n = T1.half_dim
    cols = [phi.column(j) for j in range(d)]
    diff = (phi.transpose() * T2.form.gram * phi - T1.form.gram).entries

    def multiplicative(i, j):
        lhs = phi.apply(basis_product(T1.total, i, j))
        return vec_sub(lhs, multiply(T2.total, cols[i], cols[j]))

    kernel = phi.kernel_basis()
    pairs = list(itertools.product(range(d), repeat=2))
    violations = (
        _run_laws([()], [("invertible", lambda: kernel[0] if kernel else [])])
        + _run_laws(pairs, [("multiplicative", multiplicative)])
        + _run_laws([(j,) for j in range(n)], [("block_A", lambda j: cols[j][n:])])
        + _run_laws([(j,) for j in range(n, d)], [("block_Astar", lambda j: cols[j][:n])])
        + _run_laws(pairs, [("form", lambda i, j: [diff[i][j]])])
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
    build = build_quadratic_double if fx.kind == "quadratic" else build_symplectic_double
    d = build(*fx.halves)
    labels = double_basis_names(d.half_dim)
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
