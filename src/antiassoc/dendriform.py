"""q-generalized dendriform algebras.

A structure carries two products (prec, succ) on one space; the axioms,
with x*y = x prec y + x succ y the associated product:

    (A1)  (x prec y) prec z = q * x prec (y * z)
    (A2)  (x succ y) prec z = q * x succ (y prec z)
    (A3)  x succ (y succ z) = q^{-1} * (x * y) succ z

Summing the three gives the q-law for *, so every valid structure splits
a q-generalized associative algebra into two halves.

Dendriform bimodules carry four action tables in the fixed slot order
(l_succ, r_succ, l_prec, r_prec); a matched pair carries two dendriform
bimodules, one for each side's basis acting on the other's space.  The
eighteen matched-pair conditions are stored under the identity_ids
"35".."52": the first nine quantify (x; a, b) with x in A and a, b in B,
the last nine are their exact mirrors under swapping the roles of A and
B, in the same order.

Everything here is the associative machinery of algebra.py applied to
each of the two tensors: both products are its tensor contraction, the
operator tables its ``_operator_tables``, semidirect and bowtie products
its block assembler, and every check runs on its law runner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    CheckReport,
    StructureAlgebra,
    Violation,
    _block_tensor,
    _contract,
    _operator_tables,
    _prefixed,
    _run_laws,
)
from .bimodules import Bimodule, _check_sides, _check_tables, _flat, action_of
from .linalg import (
    DimensionMismatch,
    Matrix,
    Scalar,
    Tensor3,
    basis_vec,
    rat,
    vec_add,
)


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


def check_q_dendriform(D: DendriformStructure) -> CheckReport:
    """The three axioms on all basis triples; ids axiom1/axiom2/axiom3."""
    n = D.dim
    q = D.q
    qi = 1 / q
    e = [basis_vec(n, i) for i in range(n)]
    p, s = D.c_prec.entries, D.c_succ.entries
    star = associated_algebra(D).c.entries

    def residual(i, j, k):
        lhs, rhs = D.prec(p[i][j], e[k]), D.prec(e[i], star[j][k])
        yield "axiom1", [u - q * v for u, v in zip(lhs, rhs)]
        lhs, rhs = D.prec(s[i][j], e[k]), D.succ(e[i], p[j][k])
        yield "axiom2", [u - q * v for u, v in zip(lhs, rhs)]
        lhs, rhs = D.succ(e[i], s[j][k]), D.succ(star[i][j], e[k])
        yield "axiom3", [u - qi * v for u, v in zip(lhs, rhs)]

    violations = _run_laws(itertools.product(range(n), repeat=3), residual)
    return CheckReport.from_violations(violations, q=str(q), triples=n**3)


def associated_algebra(D: DendriformStructure) -> StructureAlgebra:
    """x * y = x prec y + x succ y, with the same q."""
    p, s = D.c_prec.entries, D.c_succ.entries
    t = [[vec_add(x, y) for x, y in zip(p[i], s[i])] for i in range(D.dim)]
    return StructureAlgebra(D.dim, D.q, Tensor3(t))


def dendriform_mult_operators(
    D: DendriformStructure,
) -> tuple[list[Matrix], list[Matrix], list[Matrix], list[Matrix]]:
    """(L_succ, R_succ, L_prec, R_prec) basis-operator tables."""
    l_succ, r_succ = _operator_tables(D.c_succ)
    l_prec, r_prec = _operator_tables(D.c_prec)
    return l_succ, r_succ, l_prec, r_prec


@dataclass
class DendriformBimodule:
    algebra_dim: int
    module_dim: int
    l_succ: list[Matrix]
    r_succ: list[Matrix]
    l_prec: list[Matrix]
    r_prec: list[Matrix]

    def __post_init__(self):
        for name in ("l_succ", "r_succ", "l_prec", "r_prec"):
            _check_tables(name, getattr(self, name), self.algebra_dim, self.module_dim)

    @classmethod
    def zero(cls, algebra_dim: int, module_dim: int) -> "DendriformBimodule":
        def z():
            return [Matrix.zeros(module_dim, module_dim) for _ in range(algebra_dim)]

        return cls(algebra_dim, module_dim, z(), z(), z(), z())

    def sum_actions(self) -> Bimodule:
        """The associative-module shadow (l_*, r_*)."""
        l_star = [a + b for a, b in zip(self.l_succ, self.l_prec)]
        r_star = [a + b for a, b in zip(self.r_succ, self.r_prec)]
        return Bimodule(self.algebra_dim, self.module_dim, l_star, r_star)


def lift_assoc_bimodule(M: Bimodule) -> DendriformBimodule:
    """Pad an associative bimodule (l, r) into the slots (l, 0, 0, r)."""
    zeros = [Matrix.zeros(M.module_dim, M.module_dim) for _ in M.l]
    return DendriformBimodule(
        M.algebra_dim, M.module_dim, list(M.l), zeros, [z for z in zeros], list(M.r)
    )


def regular_dendriform_bimodule(D: DendriformStructure) -> DendriformBimodule:
    return DendriformBimodule(D.dim, D.dim, *dendriform_mult_operators(D))


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
    q = D.q
    ls, rs, lp, rp = M.l_succ, M.r_succ, M.l_prec, M.r_prec
    summed = M.sum_actions()
    lstar, rstar = summed.l, summed.r
    p, s = D.c_prec.entries, D.c_succ.entries
    star = associated_algebra(D).c.entries

    def residual(i, j):
        for law, res in (
            ("law1", action_of(lp, p[i][j]) - (lp[i] * lstar[j]).scale(q)),
            ("law2", rp[i] * lp[j] - (lp[j] * rstar[i]).scale(q)),
            ("law3", rp[i] * rp[j] - action_of(rp, star[j][i]).scale(q)),
            ("law4", action_of(lp, s[i][j]) - (ls[i] * lp[j]).scale(q)),
            ("law5", rp[i] * ls[j] - (ls[j] * rp[i]).scale(q)),
            ("law6", rp[i] * rs[j] - action_of(rs, p[j][i]).scale(q)),
            ("law7", action_of(ls, star[i][j]) - (ls[i] * ls[j]).scale(q)),
            ("law8", rs[i] * lstar[j] - (ls[j] * rs[i]).scale(q)),
            ("law9", rs[i] * rstar[j] - action_of(rs, s[j][i]).scale(q)),
        ):
            yield law, _flat(res)

    violations = _run_laws(itertools.product(range(D.dim), repeat=2), residual)
    return CheckReport.from_violations(violations, q=str(q))


def dual_dendriform_bimodule(M: DendriformBimodule, q: Scalar) -> DendriformBimodule:
    """Actions on V* in the dual basis:

        (q^{-2}(r_succ^T + r_prec^T), -q^2 l_prec^T,
         -q^{-2} r_succ^T,            q^2 (l_succ^T + l_prec^T))
    """
    q = rat(q)
    q2 = q * q
    qm2 = 1 / q2
    l_succ = [
        (a.transpose() + b.transpose()).scale(qm2)
        for a, b in zip(M.r_succ, M.r_prec)
    ]
    r_succ = [m.transpose().scale(-q2) for m in M.l_prec]
    l_prec = [m.transpose().scale(-qm2) for m in M.r_succ]
    r_prec = [
        (a.transpose() + b.transpose()).scale(q2)
        for a, b in zip(M.l_succ, M.l_prec)
    ]
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
    DY: DendriformStructure,
    by_X: DendriformBimodule,
    by_Y: DendriformBimodule,
    first_id: int,
) -> list[Violation]:
    """The nine conditions for X acting on Y, ids first_id..first_id+8.

    ``by_X`` holds the actions of X's basis on Y's space, ``by_Y`` those
    of Y's basis on X's space.  Quantified over x in X's basis and a, b
    in Y's basis; residuals live in Y's space; indices are (i_x, i_a, i_b).
    """
    q = DY.q
    qi = 1 / q
    n, m = by_X.algebra_dim, DY.dim
    eX = [basis_vec(n, i) for i in range(n)]
    eY = [basis_vec(m, i) for i in range(m)]
    ids = [str(first_id + k) for k in range(9)]
    lx_s, rx_s, lx_p, rx_p = by_X.l_succ, by_X.r_succ, by_X.l_prec, by_X.r_prec
    ly_s, ry_s, ly_p, ry_p = by_Y.l_succ, by_Y.r_succ, by_Y.l_prec, by_Y.r_prec
    sum_X, sum_Y = by_X.sum_actions(), by_Y.sum_actions()
    lx, rx, ly, ry = sum_X.l, sum_X.r, sum_Y.l, sum_Y.r
    p, s = DY.c_prec.entries, DY.c_succ.entries
    star = associated_algebra(DY).c.entries
    one = Fraction(1)

    def comb(*terms):
        out = list(terms[0])
        for coeff, vecv in terms[1:]:
            out = [u + coeff * v for u, v in zip(out, vecv)]
        return out

    def residual(ix, ia, ib):
        x, a, b = eX[ix], eY[ia], eY[ib]
        # the actions of x on Y's space
        Ls, Rs, Lp, Rp = lx_s[ix], rx_s[ix], lx_p[ix], rx_p[ix]
        L, R = lx[ix], rx[ix]
        terms = (
            (
                Rp.apply(p[ia][ib]),
                (-q, DY.prec(a, R.apply(b))),
                (-q, action_of(rx_p, ly[ib].apply(x)).apply(a)),
            ),
            (
                action_of(lx_p, ly_p[ia].apply(x)).apply(b),
                (one, DY.prec(Rp.apply(a), b)),
                (-q, DY.prec(a, L.apply(b))),
                (-q, action_of(rx_p, ry[ib].apply(x)).apply(a)),
            ),
            (
                Lp.apply(star[ia][ib]),
                (-qi, DY.prec(Lp.apply(a), b)),
                (-qi, action_of(lx_p, ry_p[ia].apply(x)).apply(b)),
            ),
            (
                Rp.apply(s[ia][ib]),
                (-q, action_of(rx_s, ly_p[ib].apply(x)).apply(a)),
                (-q, DY.succ(a, Rp.apply(b))),
            ),
            (
                action_of(lx_p, ly_s[ia].apply(x)).apply(b),
                (one, DY.prec(Rs.apply(a), b)),
                (-q, DY.succ(a, Lp.apply(b))),
                (-q, action_of(rx_s, ry_p[ib].apply(x)).apply(a)),
            ),
            (
                Ls.apply(p[ia][ib]),
                (-qi, DY.prec(Ls.apply(a), b)),
                (-qi, action_of(lx_p, ry_s[ia].apply(x)).apply(b)),
            ),
            (
                Rs.apply(star[ia][ib]),
                (-q, DY.succ(a, Rs.apply(b))),
                (-q, action_of(rx_s, ly_s[ib].apply(x)).apply(a)),
            ),
            (
                DY.succ(a, Ls.apply(b)),
                (one, action_of(rx_s, ry_s[ib].apply(x)).apply(a)),
                (-qi, action_of(lx_s, ly[ia].apply(x)).apply(b)),
                (-qi, DY.succ(R.apply(a), b)),
            ),
            (
                Ls.apply(s[ia][ib]),
                (-qi, DY.succ(L.apply(a), b)),
                (-qi, action_of(lx_s, ry[ia].apply(x)).apply(b)),
            ),
        )
        for identity_id, t in zip(ids, terms):
            yield identity_id, comb(*t)

    return _run_laws(itertools.product(range(n), range(m), range(m)), residual)


def check_dendriform_matched_pair(P: DendriformMatchedPairData) -> CheckReport:
    """All eighteen conditions, ids "35".."52", plus preconditions.

    Preconditions (both structures pass check_q_dendriform, both action
    quadruples pass check_dendriform_bimodule) are folded into the
    violation list with a precondition: prefix.
    """
    violations = (
        _prefixed("precondition:dendriform:A", check_q_dendriform(P.D_A))
        + _prefixed("precondition:dendriform:B", check_q_dendriform(P.D_B))
        + _prefixed("precondition:bimodule:A_on_B", check_dendriform_bimodule(P.D_A, P.on_B))
        + _prefixed("precondition:bimodule:B_on_A", check_dendriform_bimodule(P.D_B, P.on_A))
        + _halfside_violations(P.D_B, P.on_B, P.on_A, 35)
        + _halfside_violations(P.D_A, P.on_A, P.on_B, 44)
    )
    return CheckReport.from_violations(violations, q=str(P.D_A.q))


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
