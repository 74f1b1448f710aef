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

Each is the q-law G of the bowtie (see algebra.py) with one argument in
the other algebra, read in one block: for x in A and a, b in B, eq1 is
-G(x, a, b)/q, eq2 is G(a, b, x) and eq5 is G(a, x, b), in B's block, at
indices (i_x, i_a, i_b).  Equations (3), (4), (6) are their mirrors with
the roles of A and B swapped, in A's block at (i_a, i_x, i_y), so one
route row gives both ids.  A matched pair of either kind, this one or
the dendriform one, is six reads (``_matched_reads``) of one evaluation
of the bowtie's G: the two algebras' base laws and the two bimodules'
laws as preconditions, then the two halves, which ``_matched_violations``
folds into one verdict.  Each cube of the bowtie with arguments in both
algebras is evaluated once and read in both blocks.  The checks read the
compiled bowtie (``_compiled_blocks``); ``bowtie`` builds its table from
the same join (``_block_tensor``), so a double reads its total's q-law
off that same evaluation too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    _Q_ASSOC_ROUTES,
    _Q_LAW,
    CheckReport,
    StructureAlgebra,
    Violation,
    _block_tensor,
    _compiled_blocks,
    _prefixed,
    _route_violations,
)
from .bimodules import _BIMODULE_ROUTES, Bimodule, _check_sides
from .linalg import exact_str


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


# ((id for x in A, id for x in B), shape, placement, scale), as in the docstring
_MATCHED_ROUTES = (
    (("eq1", "eq3"), _Q_LAW, "xab", "-1/q"),
    (("eq2", "eq4"), _Q_LAW, "abx", "1"),
    (("eq5", "eq6"), _Q_LAW, "axb", "1"),
)
_PAIR_ROUTES = (_Q_ASSOC_ROUTES, _BIMODULE_ROUTES, _MATCHED_ROUTES)


def _matched_reads(routes, n: int, m: int) -> tuple:
    """The six reads of a matched pair of either kind on its block product
    on A + B, A of dim n first: the pure ``routes`` on each algebra, the
    module ones for each algebra acting on the other, and the mixed ones
    for x in A and for x in B."""
    pure, module, mixed = routes
    A, B = (0, n), (n, m)
    half_A, half_B = (tuple((ids[s], *row) for ids, *row in mixed) for s in (0, 1))
    return ((pure, A, A), (pure, B, B), (module, A, B), (module, B, A),
            (half_A, A, B), (half_B, B, A))


def _matched_violations(tag: str, found: list[list[Violation]]) -> list[Violation]:
    """The violations of the six reads as one verdict: the four
    preconditions, tagged, then the two halves."""
    pure_A, pure_B, on_B, on_A, half_A, half_B = found
    return (
        _prefixed(f"precondition:{tag}:A", pure_A)
        + _prefixed(f"precondition:{tag}:B", pure_B)
        + _prefixed("precondition:bimodule:A_on_B", on_B)
        + _prefixed("precondition:bimodule:B_on_A", on_A)
        + half_A
        + half_B
    )


def check_matched_pair(P: MatchedPairData) -> CheckReport:
    """Evaluate the six matched-pair equations on all basis tuples.

    Precondition failures (either algebra not q-associative, either action
    pair not a bimodule) are themselves reported as violations with an
    ``precondition:`` id prefix, so the verdict is the full conjunction.
    All of them share one compilation of the six tables at their common D.
    """
    A, B, q = P.A, P.B, P.A.q
    D, Fs = _compiled_blocks(A.dim, B.dim, [(A.c, B.c, P.on_B.l, P.on_B.r, P.on_A.l, P.on_A.r)])
    found = _route_violations(Fs, q, D, _matched_reads(_PAIR_ROUTES, A.dim, B.dim))
    violations = _matched_violations("q_assoc", found)
    return CheckReport.from_violations(violations, q=exact_str(q))


def bowtie(P: MatchedPairData) -> StructureAlgebra:
    """Product on A + B:

    (x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a o b + lA(x)b + rA(y)a).

    Built unconditionally; whether it satisfies the q-law is for
    check_q_associative to say.
    """
    A, B = P.A, P.B
    t = _block_tensor(A.dim, B.dim, A.c, B.c, P.on_B.l, P.on_B.r, P.on_A.l, P.on_A.r)
    return StructureAlgebra(A.dim + B.dim, A.q, t)
