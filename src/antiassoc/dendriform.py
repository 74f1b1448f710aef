"""q-generalized dendriform algebras.

A structure carries two products (prec, succ) on one space; the axioms,
with x*y = x prec y + x succ y the associated product:

    (A1)  (x prec y) prec z = q * x prec (y * z)
    (A2)  (x succ y) prec z = q * x succ (y prec z)
    (A3)  x succ (y succ z) = q^{-1} * (x * y) succ z

Summing the three gives the q-law for *, so every valid structure splits
a q-generalized associative algebra into two halves.

Dendriform bimodules carry four action tables in the fixed slot order
(l_succ, r_succ, l_prec, r_prec), each a Tensor3 of shape
(dim A, dim V, dim V) in the layout of bimodules.py; a matched pair
carries two dendriform bimodules, one for each side's basis acting on
the other's space.  The eighteen matched-pair conditions are stored
under the identity_ids "35".."52": the first nine quantify (x; a, b)
with x in A and a, b in B, the last nine are their exact mirrors under
swapping the roles of A and B, in the same order.

Everything here is the associative machinery of algebra.py applied to
each of the two tensors: both products are its tensor contraction, the
multiplication tables are each tensor and its axis swap, the associated
product is their sum, a dual is a transpose of the last two axes,
semidirect and bowtie products are its block assembler, and every check
runs on its law runner and its sparse integer kernel: the axioms, the
nine bimodule laws and the eighteen matched-pair conditions, whose four
preconditions and two halves share one compilation of both structures
and both bimodules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    CheckReport,
    Sparse,
    StructureAlgebra,
    Violation,
    _basis,
    _block_tensor,
    _common_den,
    _contract,
    _fibers,
    _iaction,
    _iapply,
    _imatmul,
    _imul,
    _on_basis,
    _prefixed,
    _run_laws,
)
from .bimodules import Bimodule, _check_sides, _check_tables
from .linalg import DimensionMismatch, Scalar, Tensor3, rat, vec_add


class DendriformStructure:
    __slots__ = ("dim", "q", "c_prec", "c_succ")

    def __init__(self, dim: int, q: Scalar, c_prec: Tensor3, c_succ: Tensor3):
        q = rat(q)
        if q == 0:
            raise ValueError("q must be nonzero")
        for t in (c_prec, c_succ):
            if (t.d1, t.d2, t.d3) != (dim, dim, dim):
                raise DimensionMismatch("product tensor shape does not match dim")
        self.dim = dim
        self.q = q
        self.c_prec = c_prec
        self.c_succ = c_succ

    @classmethod
    def zero(cls, dim: int, q: Scalar = -1) -> "DendriformStructure":
        return cls(dim, q, Tensor3.zeros(dim, dim, dim), Tensor3.zeros(dim, dim, dim))

    @classmethod
    def from_products(
        cls,
        dim: int,
        q: Scalar,
        prec: dict[tuple[int, int], dict[int, Scalar]] | None = None,
        succ: dict[tuple[int, int], dict[int, Scalar]] | None = None,
    ) -> "DendriformStructure":
        """Sparse 1-indexed constructor: each table is read by
        StructureAlgebra.from_products."""
        prec_t, succ_t = (
            StructureAlgebra.from_products(dim, q, t or {}).c for t in (prec, succ)
        )
        return cls(dim, q, prec_t, succ_t)

    def prec(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        return _contract(self.c_prec, x, y)

    def succ(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        return _contract(self.c_succ, x, y)

    def star(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        return vec_add(self.prec(x, y), self.succ(x, y))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DendriformStructure):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.q == other.q
            and self.c_prec == other.c_prec
            and self.c_succ == other.c_succ
        )

    def __repr__(self) -> str:
        return f"DendriformStructure(dim={self.dim}, q={self.q})"


def _structure_tables(D: DendriformStructure, den: int) -> tuple[list[list[Sparse]], ...]:
    """den times D's (prec, succ, star) tensors, compiled by ``_fibers``."""
    return tuple(_fibers(t, den) for t in (D.c_prec, D.c_succ, associated_algebra(D).c))


def _axiom_violations(Y: tuple[list[list[Sparse]], ...], q: Fraction, den: int) -> list[Violation]:
    """The three axioms on the compiled (prec, succ, star) tensors ``Y``,
    compiled at den."""
    p, s, star = Y
    n = len(p)
    # every axiom times den^2 qn qd: q = qn/qd and q^{-1} = qd/qn fold into integers
    qn, qd = q.numerator, q.denominator
    e, eq, eqi = _basis(n, qn * qd), _basis(n, -qn * qn), _basis(n, -qd * qd)

    def residual(i, j, k):
        yield "axiom1", _imul(p, eq[i], star[j][k], _imul(p, p[i][j], e[k], [0] * n))
        yield "axiom2", _imul(s, eq[i], p[j][k], _imul(p, s[i][j], e[k], [0] * n))
        yield "axiom3", _imul(s, star[i][j], eqi[k], _imul(s, e[i], s[j][k], [0] * n))

    return _run_laws(itertools.product(range(n), repeat=3), residual, den * den * qn * qd)


def check_q_dendriform(D: DendriformStructure) -> CheckReport:
    """The three axioms on all basis triples; ids axiom1/axiom2/axiom3."""
    den = _common_den([D.c_prec, D.c_succ])
    violations = _axiom_violations(_structure_tables(D, den), D.q, den)
    return CheckReport.from_violations(violations, q=str(D.q), triples=D.dim**3)


def associated_algebra(D: DendriformStructure) -> StructureAlgebra:
    """x * y = x prec y + x succ y, with the same q."""
    return StructureAlgebra(D.dim, D.q, D.c_prec + D.c_succ)


def dendriform_mult_operators(
    D: DendriformStructure,
) -> tuple[Tensor3, Tensor3, Tensor3, Tensor3]:
    """(L_succ, R_succ, L_prec, R_prec), the multiplication tables of the
    two products as in algebra.mult_operators: fresh copies, never c itself."""
    return D.c_succ.copy(), D.c_succ.swapped(), D.c_prec.copy(), D.c_prec.swapped()


@dataclass
class DendriformBimodule:
    algebra_dim: int
    module_dim: int
    l_succ: Tensor3
    r_succ: Tensor3
    l_prec: Tensor3
    r_prec: Tensor3

    def __post_init__(self):
        for name in ("l_succ", "r_succ", "l_prec", "r_prec"):
            _check_tables(name, getattr(self, name), self.algebra_dim, self.module_dim)

    @classmethod
    def zero(cls, algebra_dim: int, module_dim: int) -> "DendriformBimodule":
        n, m = algebra_dim, module_dim
        return cls(n, m, *(Tensor3.zeros(n, m, m) for _ in range(4)))

    def sum_actions(self) -> Bimodule:
        """The associative-module shadow (l_*, r_*)."""
        l_star = self.l_succ + self.l_prec
        r_star = self.r_succ + self.r_prec
        return Bimodule(self.algebra_dim, self.module_dim, l_star, r_star)


def lift_assoc_bimodule(M: Bimodule) -> DendriformBimodule:
    """Pad an associative bimodule (l, r) into the slots (l, 0, 0, r)."""
    n, m = M.algebra_dim, M.module_dim
    return DendriformBimodule(
        n, m, M.l.copy(), Tensor3.zeros(n, m, m), Tensor3.zeros(n, m, m), M.r.copy()
    )


def regular_dendriform_bimodule(D: DendriformStructure) -> DendriformBimodule:
    return DendriformBimodule(D.dim, D.dim, *dendriform_mult_operators(D))


def _compiled(M: DendriformBimodule, den: int) -> list[list[list[Sparse]]]:
    """The kernel's view of a dendriform bimodule: den times each of the
    four tables and of the two summed ones, compiled by ``_fibers``, in the
    order (l_succ, r_succ, l_prec, r_prec, l_star, r_star)."""
    summed = M.sum_actions()
    tables = (M.l_succ, M.r_succ, M.l_prec, M.r_prec, summed.l, summed.r)
    return [_fibers(t, den) for t in tables]


def _bimodule_violations(
    X: tuple[list[list[Sparse]], ...], M: list[list[list[Sparse]]], q: Fraction, den: int
) -> list[Violation]:
    """The nine action laws for X's compiled (prec, succ, star) tensors and
    the compiled tables ``M`` of ``_compiled``, both compiled at den."""
    p, s, star = X
    ls, rs, lp, rp, lstar, rstar = M
    size = len(ls[0]) ** 2 if ls else 0
    # every law times den^2 qd: q = qn/qd folds into integers
    f, fq = q.denominator, -q.numerator

    def residual(i, j):
        yield "law1", _imatmul(lp[i], lstar[j], fq, _iaction(lp, p[i][j], f, [0] * size))
        yield "law2", _imatmul(lp[j], rstar[i], fq, _imatmul(rp[i], lp[j], f, [0] * size))
        yield "law3", _iaction(rp, star[j][i], fq, _imatmul(rp[i], rp[j], f, [0] * size))
        yield "law4", _imatmul(ls[i], lp[j], fq, _iaction(lp, s[i][j], f, [0] * size))
        yield "law5", _imatmul(ls[j], rp[i], fq, _imatmul(rp[i], ls[j], f, [0] * size))
        yield "law6", _iaction(rs, p[j][i], fq, _imatmul(rp[i], rs[j], f, [0] * size))
        yield "law7", _imatmul(ls[i], ls[j], fq, _iaction(ls, star[i][j], f, [0] * size))
        yield "law8", _imatmul(ls[j], rs[i], fq, _imatmul(rs[i], lstar[j], f, [0] * size))
        yield "law9", _iaction(rs, s[j][i], fq, _imatmul(rs[i], rstar[j], f, [0] * size))

    pairs = itertools.product(range(len(p)), repeat=2)
    return _run_laws(pairs, residual, den * den * q.denominator)


def check_dendriform_bimodule(
    D: DendriformStructure, M: DendriformBimodule
) -> CheckReport:
    """The nine action laws on all basis pairs (i, j) of D.

    Laws are numbered law1..law9 in the order: the three laws with
    l_prec/r_prec against prec (1-3), the mixed block (4-6), then the
    succ block (7-9).  Residuals are matrices flattened row-major.
    """
    if M.algebra_dim != D.dim:
        raise DimensionMismatch("bimodule indexed by a different algebra dimension")
    den = _common_den([D.c_prec, D.c_succ, M.l_succ, M.r_succ, M.l_prec, M.r_prec])
    violations = _bimodule_violations(_structure_tables(D, den), _compiled(M, den), D.q, den)
    return CheckReport.from_violations(violations, q=str(D.q))


def dual_dendriform_bimodule(M: DendriformBimodule, q: Scalar) -> DendriformBimodule:
    """Actions on V* in the dual basis:

        (q^{-2}(r_succ^T + r_prec^T), -q^2 l_prec^T,
         -q^{-2} r_succ^T,            q^2 (l_succ^T + l_prec^T))
    """
    q = rat(q)
    q2 = q * q
    qm2 = 1 / q2
    l_succ = (M.r_succ + M.r_prec).transposed().scale(qm2)
    r_succ = M.l_prec.transposed().scale(-q2)
    l_prec = M.r_succ.transposed().scale(-qm2)
    r_prec = (M.l_succ + M.l_prec).transposed().scale(q2)
    return DendriformBimodule(M.algebra_dim, M.module_dim, l_succ, r_succ, l_prec, r_prec)


def dendriform_semidirect(
    D: DendriformStructure, M: DendriformBimodule
) -> DendriformStructure:
    """Structure on A + V:

        (x+u) succ (y+v) = x succ y + l_succ(x)v + r_succ(y)u
        (x+u) prec (y+v) = x prec y + l_prec(x)v + r_prec(y)u
    """
    if M.algebra_dim != D.dim:
        raise DimensionMismatch("bimodule indexed by a different algebra dimension")
    m = M.module_dim
    zero = Tensor3.zeros(m, m, m)
    back = Bimodule.zero(m, D.dim)
    return DendriformStructure(
        D.dim + m,
        D.q,
        _block_tensor(D.c_prec, zero, M.l_prec, M.r_prec, back.l, back.r),
        _block_tensor(D.c_succ, zero, M.l_succ, M.r_succ, back.l, back.r),
    )


@dataclass
class DendriformMatchedPairData:
    """Two structures plus two dendriform bimodules: ``on_B`` is indexed by
    D_A's basis and acts on D_B's space, ``on_A`` the other way around."""

    D_A: DendriformStructure
    D_B: DendriformStructure
    on_B: DendriformBimodule
    on_A: DendriformBimodule

    def __post_init__(self):
        if self.D_A.q != self.D_B.q:
            raise ValueError("matched pair requires a single q on both structures")
        _check_sides(self.D_A.dim, self.D_B.dim, self.on_B, self.on_A)


def _halfside_violations(
    Y: tuple[list[list[Sparse]], ...],
    by_X: list[list[list[Sparse]]],
    by_Y: list[list[list[Sparse]]],
    q: Fraction,
    first_id: int,
    den: int,
) -> list[Violation]:
    """The nine conditions for X acting on Y, ids first_id..first_id+8.

    ``by_X`` holds the actions of X's basis on Y's space, ``by_Y`` those
    of Y's basis on X's space, and ``Y`` Y's (prec, succ, star) tensors,
    all compiled at den.  Quantified over x in X's basis and a, b in Y's
    basis; residuals live in Y's space; indices are (i_x, i_a, i_b).
    """
    p, s, star = Y
    lx_s, rx_s, lx_p, rx_p, lx, rx = by_X
    ly_s, ry_s, ly_p, ry_p, ly, ry = by_Y
    n, m = len(lx), len(p)
    # every term times den^2 qn qd: q = qn/qd and q^{-1} = qd/qn fold into integers
    qn, qd = q.numerator, q.denominator
    f, fq, fqi = qn * qd, -qn * qn, -qd * qd
    e, eq, eqi = _basis(m, f), _basis(m, fq), _basis(m, fqi)
    ids = [str(first_id + k) for k in range(9)]
    # on_lp[j] is the map x -> lx_p(x) e_j from X to Y, by its columns; so
    # are the other three for their tables
    on_lp, on_rp, on_ls, on_rs = (_on_basis(t, m) for t in (lx_p, rx_p, lx_s, rx_s))

    def residual(ix, ia, ib):
        # the actions of x on Y's space
        Ls, Rs, Lp, Rp, L, R = lx_s[ix], rx_s[ix], lx_p[ix], rx_p[ix], lx[ix], rx[ix]
        acc = _imul(p, eq[ia], R[ib], _iapply(Rp, p[ia][ib], f, [0] * m))
        yield ids[0], _iapply(on_rp[ia], ly[ib][ix], fq, acc)
        acc = _imul(p, Rp[ia], e[ib], _iapply(on_lp[ib], ly_p[ia][ix], f, [0] * m))
        acc = _imul(p, eq[ia], L[ib], acc)
        yield ids[1], _iapply(on_rp[ia], ry[ib][ix], fq, acc)
        acc = _imul(p, Lp[ia], eqi[ib], _iapply(Lp, star[ia][ib], f, [0] * m))
        yield ids[2], _iapply(on_lp[ib], ry_p[ia][ix], fqi, acc)
        acc = _iapply(on_rs[ia], ly_p[ib][ix], fq, _iapply(Rp, s[ia][ib], f, [0] * m))
        yield ids[3], _imul(s, eq[ia], Rp[ib], acc)
        acc = _imul(p, Rs[ia], e[ib], _iapply(on_lp[ib], ly_s[ia][ix], f, [0] * m))
        acc = _imul(s, eq[ia], Lp[ib], acc)
        yield ids[4], _iapply(on_rs[ia], ry_p[ib][ix], fq, acc)
        acc = _imul(p, Ls[ia], eqi[ib], _iapply(Ls, p[ia][ib], f, [0] * m))
        yield ids[5], _iapply(on_lp[ib], ry_s[ia][ix], fqi, acc)
        acc = _imul(s, eq[ia], Rs[ib], _iapply(Rs, star[ia][ib], f, [0] * m))
        yield ids[6], _iapply(on_rs[ia], ly_s[ib][ix], fq, acc)
        acc = _iapply(on_rs[ia], ry_s[ib][ix], f, _imul(s, e[ia], Ls[ib], [0] * m))
        acc = _iapply(on_ls[ib], ly[ia][ix], fqi, acc)
        yield ids[7], _imul(s, R[ia], eqi[ib], acc)
        acc = _imul(s, L[ia], eqi[ib], _iapply(Ls, s[ia][ib], f, [0] * m))
        yield ids[8], _iapply(on_ls[ib], ry[ia][ix], fqi, acc)

    return _run_laws(itertools.product(range(n), range(m), range(m)), residual, den * den * f)


def check_dendriform_matched_pair(P: DendriformMatchedPairData) -> CheckReport:
    """All eighteen conditions, ids "35".."52", plus preconditions.

    Preconditions (both structures pass check_q_dendriform, both action
    quadruples pass check_dendriform_bimodule) are folded into the
    violation list with a precondition: prefix.  The preconditions and
    both halves share one compilation of the two structures and the two
    bimodules, at the common denominator of all their tables.
    """
    A, B, q = P.D_A, P.D_B, P.D_A.q
    den = _common_den([
        A.c_prec, A.c_succ, B.c_prec, B.c_succ,
        *(t for M in (P.on_B, P.on_A) for t in (M.l_succ, M.r_succ, M.l_prec, M.r_prec)),
    ])
    on_B, on_A = _compiled(P.on_B, den), _compiled(P.on_A, den)
    fA, fB = _structure_tables(A, den), _structure_tables(B, den)
    violations = (
        _prefixed("precondition:dendriform:A", _axiom_violations(fA, q, den))
        + _prefixed("precondition:dendriform:B", _axiom_violations(fB, q, den))
        + _prefixed("precondition:bimodule:A_on_B", _bimodule_violations(fA, on_B, q, den))
        + _prefixed("precondition:bimodule:B_on_A", _bimodule_violations(fB, on_A, q, den))
        + _halfside_violations(fB, on_B, on_A, q, 35, den)
        + _halfside_violations(fA, on_A, on_B, q, 44, den)
    )
    return CheckReport.from_violations(violations, q=str(q))


def dendriform_bowtie(P: DendriformMatchedPairData) -> DendriformStructure:
    """Both products on A + B:

        (x+a) succ (y+b) = (x succ y + on_A.r_succ(b)x + on_A.l_succ(a)y)
                         + (on_B.l_succ(x)b + on_B.r_succ(y)a + a succ b)

    and the prec analogue with the _prec tables.
    """
    A, B, on_B, on_A = P.D_A, P.D_B, P.on_B, P.on_A
    return DendriformStructure(
        A.dim + B.dim,
        A.q,
        _block_tensor(A.c_prec, B.c_prec, on_B.l_prec, on_B.r_prec, on_A.l_prec, on_A.r_prec),
        _block_tensor(A.c_succ, B.c_succ, on_B.l_succ, on_B.r_succ, on_A.l_succ, on_A.r_succ),
    )
