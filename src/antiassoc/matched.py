"""Matched pairs of q-generalized associative algebras.

Data: two algebras A and B with the same q, plus two bimodules:
``on_B`` = (lA, rA), A's basis acting on B's space, and ``on_A`` =
(lB, rB), B's basis acting on A's space.  The six compatibility
equations, writing * for A's product and o for B's:

    (1) lA(x)(a o b)            = q^{-1} lA(rB(a)x) b + q^{-1} (lA(x)a) o b
    (2) rA(x)(a o b)            = q rA(lB(b)x) a + q a o (rA(x)b)
    (3) lB(a)(x * y)            = q^{-1} lB(rA(x)a) y + q^{-1} (lB(a)x) * y
    (4) rB(a)(x * y)            = q rB(lA(y)a) x + q x * (rB(a)y)
    (5) lA(lB(a)x)b + (rA(x)a) o b - q rA(rB(b)x)a - q a o (lA(x)b) = 0
    (6) lB(lA(x)a)y + (rB(a)x) * y - q rB(rA(y)a)x - q x * (lB(a)y) = 0

Equations (3), (4), (6) are (1), (2), (5) with the roles of A and B
swapped, so one half-function evaluates both: over (A, B) it gives (1),
(2), (5), which live in B's space and are quantified over (x, a, b) with
indices (i_x, i_a, i_b); over (B, A) it gives (3), (4), (6), which live
in A's space over (a, x, y) with indices (i_a, i_x, i_y).  Both halves
and the four preconditions run on the sparse integer kernel and the law
runner in algebra.py, from one compilation of the two tensors and the
four action tables, and bowtie is algebra.py's block assembler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    CheckReport,
    Sparse,
    StructureAlgebra,
    Violation,
    _basis,
    _block_tensor,
    _common_den,
    _fibers,
    _iapply,
    _imul,
    _on_basis,
    _prefixed,
    _q_assoc_violations,
    _run_laws,
)
from .bimodules import Bimodule, _bimodule_violations, _check_sides


@dataclass
class MatchedPairData:
    A: StructureAlgebra
    B: StructureAlgebra
    on_B: Bimodule
    on_A: Bimodule

    def __post_init__(self):
        if self.A.q != self.B.q:
            raise ValueError("matched pair requires a single q on both algebras")
        _check_sides(self.A.dim, self.B.dim, self.on_B, self.on_A)


Tables = list[list[Sparse]]


def _matched_half(
    F: list[list[Sparse]],
    by_X: tuple[Tables, Tables],
    by_Y: tuple[Tables, Tables],
    q: Fraction,
    ids: tuple[str, str, str],
    D: int,
) -> list[Violation]:
    """Equations (1), (2), (5) for the actions ``by_X`` = (l, r) of X's
    basis on Y's space and ``by_Y`` of Y's basis on X's space, over x in X
    and a, b in Y.  F is Y's tensor; all of them are compiled at D."""
    lX, rX = by_X
    lY, rY = by_Y
    n, m = len(lX), len(F)
    # every term times D^2 qn qd: q = qn/qd and q^{-1} = qd/qn fold into integers
    qn, qd = q.numerator, q.denominator
    f, fq, fqi = qn * qd, -qn * qn, -qd * qd
    e, eq, eqi = _basis(m, f), _basis(m, fq), _basis(m, fqi)
    # l_on[j] is the map x -> lX(x) e_j from X to Y, by its columns; so is
    # r_on[j] for x -> rX(x) e_j
    l_on, r_on = _on_basis(lX, m), _on_basis(rX, m)

    def residual(ix, ia, ib):
        lx, rx, ab = lX[ix], rX[ix], F[ia][ib]
        acc = _iapply(l_on[ib], rY[ia][ix], fqi, _iapply(lx, ab, f, [0] * m))
        yield ids[0], _imul(F, lx[ia], eqi[ib], acc)
        acc = _iapply(r_on[ia], lY[ib][ix], fq, _iapply(rx, ab, f, [0] * m))
        yield ids[1], _imul(F, eq[ia], rx[ib], acc)
        acc = _imul(F, rx[ia], e[ib], _iapply(l_on[ib], lY[ia][ix], f, [0] * m))
        acc = _iapply(r_on[ia], rY[ib][ix], fq, acc)
        yield ids[2], _imul(F, eq[ia], lx[ib], acc)

    return _run_laws(itertools.product(range(n), range(m), range(m)), residual, D * D * f)


def check_matched_pair(P: MatchedPairData) -> CheckReport:
    """Evaluate the six matched-pair equations on all basis tuples.

    Precondition failures (either algebra not q-associative, either action
    pair not a bimodule) are themselves reported as violations with an
    ``precondition:`` id prefix, so the verdict is the full conjunction.
    All of them share one compilation of the six tables at their common D.
    """
    A, B, q = P.A, P.B, P.A.q
    D = _common_den([A.c, B.c, P.on_B.l, P.on_B.r, P.on_A.l, P.on_A.r])
    fA, fB = _fibers(A.c, D), _fibers(B.c, D)
    on_B, on_A = ((_fibers(M.l, D), _fibers(M.r, D)) for M in (P.on_B, P.on_A))
    violations = (
        _prefixed("precondition:q_assoc:A", _q_assoc_violations(fA, q, D))
        + _prefixed("precondition:q_assoc:B", _q_assoc_violations(fB, q, D))
        + _prefixed("precondition:bimodule:A_on_B", _bimodule_violations(fA, *on_B, q, D))
        + _prefixed("precondition:bimodule:B_on_A", _bimodule_violations(fB, *on_A, q, D))
        + _matched_half(fB, on_B, on_A, q, ("eq1", "eq2", "eq5"), D)
        + _matched_half(fA, on_A, on_B, q, ("eq3", "eq4", "eq6"), D)
    )
    return CheckReport.from_violations(violations, q=str(q))


def bowtie(P: MatchedPairData) -> StructureAlgebra:
    """Product on A + B:

    (x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a o b + lA(x)b + rA(y)a).

    Built unconditionally; whether it satisfies the q-law is for
    check_q_associative to say.
    """
    t = _block_tensor(P.A.c, P.B.c, P.on_B.l, P.on_B.r, P.on_A.l, P.on_A.r)
    return StructureAlgebra(P.A.dim + P.B.dim, P.A.q, t)
