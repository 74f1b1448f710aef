"""Matched pairs of q-generalized associative algebras.

Data: two algebras A and B with the same q, plus four action tables.
lA/rA act on B's space and are indexed by A's basis; lB/rB act on A's
space and are indexed by B's basis.  The six compatibility equations,
writing * for A's product and o for B's:

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
in A's space over (a, x, y) with indices (i_a, i_x, i_y).  The half runs
on the law runner in algebra.py, and bowtie is algebra.py's block
assembler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    CheckReport,
    StructureAlgebra,
    Violation,
    _block_tensor,
    _prefixed,
    _run_laws,
    check_q_associative,
    multiply,
)
from .bimodules import Bimodule, _check_tables, action_of, check_bimodule
from .linalg import Matrix, basis_vec, vec_sub


@dataclass
class MatchedPairData:
    A: StructureAlgebra
    B: StructureAlgebra
    lA: list[Matrix]
    rA: list[Matrix]
    lB: list[Matrix]
    rB: list[Matrix]

    def __post_init__(self):
        if self.A.q != self.B.q:
            raise ValueError("matched pair requires a single q on both algebras")
        n, m = self.A.dim, self.B.dim
        _check_tables("lA", self.lA, n, m)
        _check_tables("rA", self.rA, n, m)
        _check_tables("lB", self.lB, m, n)
        _check_tables("rB", self.rB, m, n)

    def actions_on_B(self) -> Bimodule:
        return Bimodule(self.A.dim, self.B.dim, self.lA, self.rA)

    def actions_on_A(self) -> Bimodule:
        return Bimodule(self.B.dim, self.A.dim, self.lB, self.rB)


def _matched_half(
    Y: StructureAlgebra, by_X: Bimodule, by_Y: Bimodule, ids: tuple[str, str, str]
) -> list[Violation]:
    """Equations (1), (2), (5) for the actions ``by_X`` of X's basis on Y's
    space and ``by_Y`` of Y's basis on X's space, over x in X and a, b in Y."""
    q = Y.q
    qi = 1 / q
    n, m = by_X.algebra_dim, Y.dim
    eX = [basis_vec(n, i) for i in range(n)]
    eY = [basis_vec(m, i) for i in range(m)]
    lX, rX, lY, rY = by_X.l, by_X.r, by_Y.l, by_Y.r
    mulY = lambda u, v: multiply(Y, u, v)  # noqa: E731

    def residual(ix, ia, ib):
        x, a, b = eX[ix], eY[ia], eY[ib]
        ab = Y.c.entries[ia][ib]
        lx, rx = lX[ix], rX[ix]
        rhs1 = zip(action_of(lX, rY[ia].apply(x)).apply(b), mulY(lx.apply(a), b))
        yield ids[0], vec_sub(lx.apply(ab), [qi * (u + v) for u, v in rhs1])
        rhs2 = zip(action_of(rX, lY[ib].apply(x)).apply(a), mulY(a, rx.apply(b)))
        yield ids[1], vec_sub(rx.apply(ab), [q * (u + v) for u, v in rhs2])
        t5 = action_of(lX, lY[ia].apply(x)).apply(b)
        t5 = [u + v for u, v in zip(t5, mulY(rx.apply(a), b))]
        t5 = [u - q * v for u, v in zip(t5, action_of(rX, rY[ib].apply(x)).apply(a))]
        t5 = [u - q * v for u, v in zip(t5, mulY(a, lx.apply(b)))]
        yield ids[2], t5

    return _run_laws(itertools.product(range(n), range(m), range(m)), residual)


def check_matched_pair(P: MatchedPairData) -> CheckReport:
    """Evaluate the six matched-pair equations on all basis tuples.

    Precondition failures (either algebra not q-associative, either action
    pair not a bimodule) are themselves reported as violations with an
    ``precondition:`` id prefix, so the verdict is the full conjunction.
    """
    on_B, on_A = P.actions_on_B(), P.actions_on_A()
    violations = (
        _prefixed("precondition:q_assoc:A", check_q_associative(P.A))
        + _prefixed("precondition:q_assoc:B", check_q_associative(P.B))
        + _prefixed("precondition:bimodule:A_on_B", check_bimodule(P.A, on_B))
        + _prefixed("precondition:bimodule:B_on_A", check_bimodule(P.B, on_A))
        + _matched_half(P.B, on_B, on_A, ("eq1", "eq2", "eq5"))
        + _matched_half(P.A, on_A, on_B, ("eq3", "eq4", "eq6"))
    )
    return CheckReport.from_violations(violations, q=str(P.A.q))


def bowtie(P: MatchedPairData) -> StructureAlgebra:
    """Product on A + B:

    (x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a o b + lA(x)b + rA(y)a).

    Built unconditionally; whether it satisfies the q-law is for
    check_q_associative to say.
    """
    t = _block_tensor(P.A.c, P.B.c, P.lA, P.rA, P.lB, P.rB)
    return StructureAlgebra(P.A.dim + P.B.dim, P.A.q, t)
