"""O-operators, Rota-Baxter operators, and the induced dendriform splits.

Three construction routes produce a dendriform structure out of
associative data:

  * an O-operator T: V -> A relative to a bimodule (l, r) splits the
    module product as u succ v = l(Tu)v, u prec v = r(Tv)u;
  * an invertible O-operator transports that split onto A itself, where
    it is compatible (prec + succ = the original product, exactly);
  * a nondegenerate symplectic form on A is an invertible O-operator in
    disguise, via the musical map (Tx)_i = w(x, e_i).

Each route reads both product tensors off algebra.py's contraction of
the action tables, and the last two share one transport: an invertible S
and a pair of action tables (l, r) give x succ y = S(l(x) S^{-1}y) and
x prec y = S(r(y) S^{-1}x).  ``check_o_operator`` checks that T maps the
associated product of the first route's split on V to A's product, which
is exactly the O-operator identity.  ``check_rota_baxter`` runs the same
identity body for the regular bimodule (l, r) = (L, R); both run on the
sparse integer kernel in algebra.py, where the action tables compile like
structure tensors and only the maps T and tau as matrices.

A map is its ``Matrix``: T is dim A x dim V and tau is dim A x dim A.
The shape is part of the matrix, so a T onto the zero space is 0 x dim V,
and its identity is checked on all dim V ** 2 pairs.

Constructions refuse invalid input (NotAnOOperator / NotSymplectic)
instead of emitting structures the theorems say nothing about.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import (
    CheckReport,
    StructureAlgebra,
    Violation,
    _columns,
    _contract,
    _iapply,
    _imul,
    _nonzero,
    _on_basis,
    _run_laws,
    mult_operators,
)
from .bimodules import Bimodule
from .dendriform import DendriformStructure
from .forms import BilinearForm, check_symplectic
from .linalg import (
    DimensionMismatch,
    Matrix,
    Scalar,
    SingularError,
    Tensor3,
    _at_common_den,
    basis_vec,
    exact_str,
)


class NotAnOOperator(ValueError):
    """The map fails the O-operator identity; the report is attached."""

    def __init__(self, report: CheckReport):
        super().__init__("the given map is not an O-operator for this bimodule")
        self.report = report


class NotSymplectic(ValueError):
    """The form fails the symplectic check; the report is attached."""

    def __init__(self, report: CheckReport):
        super().__init__("the given form is not symplectic for this algebra")
        self.report = report


def _check_shapes(A: StructureAlgebra, M: Bimodule, T: Matrix) -> None:
    if M.algebra_dim != A.dim:
        raise DimensionMismatch("bimodule belongs to a different algebra dimension")
    if (T.rows, T.cols) != (A.dim, M.module_dim):
        raise DimensionMismatch("T must map the module space into the algebra")


def _induced_split(M: Bimodule, T: Matrix) -> DendriformStructure:
    """u succ v = l(Tu)v and u prec v = r(Tv)u on V, unchecked."""
    m = M.module_dim
    Te, e = [T.column(i) for i in range(m)], [basis_vec(m, i) for i in range(m)]
    succ = Tensor3([[_contract(M.l, Te[i], e[j]) for j in range(m)] for i in range(m)])
    prec = Tensor3([[_contract(M.r, Te[j], e[i]) for j in range(m)] for i in range(m)])
    return DendriformStructure(m, Fraction(-1), prec, succ)


def _transported(
    l: Tensor3, r: Tensor3, S: Matrix, Sinv: Matrix, q: Scalar
) -> DendriformStructure:
    """x succ y = S(l(x) S^{-1}y) and x prec y = S(r(y) S^{-1}x), unchecked,
    for action tables l and r of the space S maps onto."""
    n = S.rows
    e, Sinv_e = [basis_vec(n, i) for i in range(n)], [Sinv.column(i) for i in range(n)]
    succ = [[S.apply(_contract(l, e[i], Sinv_e[j])) for j in range(n)] for i in range(n)]
    prec = [[S.apply(_contract(r, e[j], Sinv_e[i])) for j in range(n)] for i in range(n)]
    return DendriformStructure(n, q, Tensor3(prec), Tensor3(succ))


def _o_operator_violations(F, l, r, Te, D: int, identity_id: str) -> list[Violation]:
    """T(u).T(v) = T( l(Tu)v + r(Tv)u ) on all module basis pairs, for the
    algebra's fibers F, the action tables l and r and the columns Te of T,
    all compiled at D, with each violation under ``identity_id``."""
    n, m = len(F), len(Te)
    # on_e[j] is the map x -> l(x) e_j from A to V, by its columns; so is at_e[j]
    # for x -> r(x) e_j
    on_e, at_e = _on_basis(l, m), _on_basis(r, m)

    def residual(i, j):
        # all terms times D^3; induced is -(l(Tu)v + r(Tv)u)
        induced = _iapply(at_e[i], Te[j], -1, _iapply(on_e[j], Te[i], -1, [0] * m))
        acc = _imul(F, Te[i], Te[j], [0] * n)
        return _iapply(Te, _nonzero(induced), 1, acc)

    return _run_laws(itertools.product(range(m), repeat=2), [(identity_id, residual)], D**3)


def check_o_operator(A: StructureAlgebra, M: Bimodule, T: Matrix) -> CheckReport:
    """T(u).T(v) = T( l(Tu)v + r(Tv)u ) on all module basis pairs, that is,
    T maps the associated product of the induced split on V into A's.
    T is the dim A x dim V matrix of the map."""
    _check_shapes(A, M, T)
    D, (F, l, r, rows) = _at_common_den(A.c, M.l, M.r, T)
    violations = _o_operator_violations(F, l, r, _columns(rows, T.cols), D, "o_operator")
    return CheckReport.from_violations(violations, q=exact_str(A.q))


def _require_o_operator(
    A: StructureAlgebra, M: Bimodule, T: Matrix, force: bool
) -> None:
    """Refuse mismatched shapes always, and a failing identity unless forced."""
    _check_shapes(A, M, T)
    report = None if force else check_o_operator(A, M, T)
    if report is not None and not report.passed:
        raise NotAnOOperator(report)


def check_rota_baxter(A: StructureAlgebra, tau: Matrix) -> CheckReport:
    """Weight-zero identity tau(x).tau(y) = tau(tau(x).y + x.tau(y)): the
    O-operator identity of tau for the regular bimodule, l = L and r = R."""
    if (tau.rows, tau.cols) != (A.dim, A.dim):
        raise DimensionMismatch("tau must be a square map on the algebra")
    D, (F, rows) = _at_common_den(A.c, tau)
    R = _on_basis(F, A.dim)  # R(e_i) e_j = e_j e_i: F's axes swapped
    violations = _o_operator_violations(F, F, R, _columns(rows, A.dim), D, "rota_baxter")
    return CheckReport.from_violations(violations, q=exact_str(A.q))


def induced_dendriform_on_module(
    A: StructureAlgebra, M: Bimodule, T: Matrix, force: bool = False
) -> DendriformStructure:
    """Split the module: u succ v = l(Tu)v, u prec v = r(Tv)u.

    Refuses with NotAnOOperator when the identity fails; force=True
    skips the check, for audit runs.  The returned structure lives on
    V with q = -1 (the construction is the antiassociative-case
    theorem).  T is then a homomorphism from the associated product on
    V to A's product.
    """
    _require_o_operator(A, M, T, force)
    return _induced_split(M, T)


def compatible_dendriform_from_o_operator(
    A: StructureAlgebra, M: Bimodule, T: Matrix, force: bool = False
) -> DendriformStructure:
    """Invertible-T transport onto A: x succ y = T(l(x) T^{-1}y), and
    x prec y = T(r(y) T^{-1}x).  The associated algebra is A itself.
    A T between spaces of different dimensions raises SingularError.
    """
    _require_o_operator(A, M, T, force)
    if T.rows != T.cols:
        raise SingularError(f"T maps dim {T.cols} to dim {T.rows}, so it is not invertible")
    return _transported(M.l, M.r, T, T.invert(), A.q)


def dendriform_from_symplectic(
    A: StructureAlgebra, w: BilinearForm, force: bool = False
) -> DendriformStructure:
    """Split A through a symplectic form:

        x succ y = T^{-1}( R(x)^T T y ),   x prec y = T^{-1}( L(y)^T T x )

    with (Tx)_i = w(x, e_i), i.e. T = gram^T.  T^{-1} is an O-operator
    for the dual regular bimodule, which is where the split comes from.
    A degenerate gram raises SingularError before any other check (force,
    which skips the symplectic check, cannot help: it needs T^{-1}).
    """
    if w.dim != A.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    T = w.gram.transpose()
    Tinv = T.invert()  # SingularError on degenerate forms
    report = None if force else check_symplectic(A, w)
    if report is not None and not report.passed:
        raise NotSymplectic(report)
    L, R = mult_operators(A)
    return _transported(R.transposed(), L.transposed(), Tinv, T, A.q)
