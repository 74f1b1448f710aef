"""q-generalized dendriform algebras.

A structure carries two products (prec, succ) on one space; the axioms,
with x*y = x prec y + x succ y the associated product:

    (A1)  (x prec y) prec z = q * x prec (y * z)
    (A2)  (x succ y) prec z = q * x succ (y prec z)
    (A3)  x succ (y succ z) = q^{-1} * (x * y) succ z

Summing the three gives the q-law for *, so every valid structure splits
a q-generalized associative algebra into two halves.

Each axiom is algebra.py's law shape G on [prec, succ, star]: A1 and A2
are G for (prec, prec, prec, star) and (succ, prec, succ, prec), A3 is
-G/q for (star, succ, succ, succ).

Dendriform bimodules carry four action tables in the fixed slot order
(l_succ, r_succ, l_prec, r_prec), each a Tensor3 of shape
(dim A, dim V, dim V) in the layout of bimodules.py.  Law 3a+1, 3a+2 and
3a+3 is G(x_i, x_j, u), G(x_j, u, x_i) and G(u, x_j, x_i) for axiom a+1
on the semidirect product.  A matched pair carries two dendriform
bimodules, one for each side's basis acting on the other's space; its
eighteen conditions, ids "35".."52", are the axioms of the bowtie with x
in one side and a, b in the other, read in the other's block at
(i_x, i_a, i_b).  Ids first+3a, +1 and +2 are G(a, b, x), G(a, x, b) and
G(x, a, b) for axiom a+1, at scales (1, 1, -1/q) for A1 and A2 and
(1, -1/q, -1/q) for A3; first is 35 for x in A and 44 for the mirror.

Everything else is algebra.py's associative machinery on each tensor:
its contraction, its multiplication tables, duals as transposes, and its
block product on A + B.  ``_pieces`` lists the tensor and the two action
tables of each of prec and succ; the builders' tables are their join
(``_block_tensor``), and the checks compile them (``_compiled_blocks``),
add the compiled prec and succ products in integers for star
(``linalg._fiber_sum``), and hand their route rows on the three to
algebra.py's route body, which evaluates each axiom's G once per check;
the matched pair is matched.py's six reads of that one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .algebra import (
    CheckReport,
    StructureAlgebra,
    _block_tensor,
    _compiled_blocks,
    _contract,
    _route_violations,
)
from .bimodules import Bimodule, _check_sides
from .linalg import (
    DimensionMismatch,
    Scalar,
    Tensor3,
    _at_common_den,
    _check_table,
    _fiber_sum,
    exact_str,
    rat,
    vec_add,
)
from .matched import _matched_reads, _matched_violations


class DendriformStructure:
    __slots__ = ("dim", "q", "c_prec", "c_succ")

    def __init__(self, dim: int, q: Scalar, c_prec: Tensor3, c_succ: Tensor3):
        q = rat(q)
        if q == 0:
            raise ValueError("q must be nonzero")
        _check_table("c_prec", c_prec, (dim, dim, dim))
        _check_table("c_succ", c_succ, (dim, dim, dim))
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
        return f"DendriformStructure(dim={self.dim}, q={exact_str(self.q)})"


# the routes of the docstring; shapes index the products [prec, succ, star]
_PREC, _SUCC, _STAR = 0, 1, 2
_AXIOM_ROUTES = (
    ("axiom1", (_PREC, _PREC, _PREC, _STAR), "ijk", "1"),
    ("axiom2", (_SUCC, _PREC, _SUCC, _PREC), "ijk", "1"),
    ("axiom3", (_STAR, _SUCC, _SUCC, _SUCC), "ijk", "-1/q"),
)


def check_q_dendriform(D: DendriformStructure) -> CheckReport:
    """The three axioms on all basis triples; ids axiom1/axiom2/axiom3."""
    den, (prec, succ) = _at_common_den(D.c_prec, D.c_succ)
    whole = (0, D.dim)
    Fs = [prec, succ, _fiber_sum(prec, succ)]
    (violations,) = _route_violations(Fs, D.q, den, ((_AXIOM_ROUTES, whole, whole),))
    return CheckReport.from_violations(violations, q=exact_str(D.q), triples=D.dim**3)


def associated_algebra(D: DendriformStructure) -> StructureAlgebra:
    """x * y = x prec y + x succ y, with the same q."""
    return StructureAlgebra(D.dim, D.q, D.c_prec + D.c_succ)


def dendriform_mult_operators(
    D: DendriformStructure,
) -> tuple[Tensor3, Tensor3, Tensor3, Tensor3]:
    """(L_succ, R_succ, L_prec, R_prec), the multiplication tables of the
    two products as in algebra.mult_operators."""
    return D.c_succ, D.c_succ.swapped(), D.c_prec, D.c_prec.swapped()


@dataclass
class DendriformBimodule:
    algebra_dim: int
    module_dim: int
    l_succ: Tensor3
    r_succ: Tensor3
    l_prec: Tensor3
    r_prec: Tensor3

    def __post_init__(self):
        shape = (self.algebra_dim, self.module_dim, self.module_dim)
        for name in ("l_succ", "r_succ", "l_prec", "r_prec"):
            _check_table(name, getattr(self, name), shape)

    @classmethod
    def zero(cls, algebra_dim: int, module_dim: int) -> "DendriformBimodule":
        n, m = algebra_dim, module_dim
        return cls(n, m, *(Tensor3.zeros(n, m, m) for _ in range(4)))

    def sum_actions(self) -> Bimodule:
        """The associative-module shadow (l_*, r_*)."""
        l_star = self.l_succ + self.l_prec
        r_star = self.r_succ + self.r_prec
        return Bimodule(self.algebra_dim, self.module_dim, l_star, r_star)


def regular_dendriform_bimodule(D: DendriformStructure) -> DendriformBimodule:
    return DendriformBimodule(D.dim, D.dim, *dendriform_mult_operators(D))


def _pieces(D: DendriformStructure, M: DendriformBimodule) -> Iterator[tuple[Tensor3, ...]]:
    """(c, l, r) for prec and succ in turn: D's product tensor and M's left
    and right tables for it."""
    yield D.c_prec, M.l_prec, M.r_prec
    yield D.c_succ, M.l_succ, M.r_succ


_BIMODULE_ROUTES = tuple(
    (f"law{3 * a + k + 1}", shape, placement, "1")
    for a, (_, shape, _, _) in enumerate(_AXIOM_ROUTES)
    for k, placement in enumerate(("iju", "jui", "uji"))
)


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
    n, m = D.dim, M.module_dim
    blocks = [(c, None, l, r, None, None) for c, l, r in _pieces(D, M)]
    den, Fs = _compiled_blocks(n, m, blocks)
    Fs.append(_fiber_sum(*Fs))
    (violations,) = _route_violations(Fs, D.q, den, ((_BIMODULE_ROUTES, (0, n), (n, m)),))
    return CheckReport.from_violations(violations, q=exact_str(D.q))


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
    n, m = D.dim, M.module_dim
    prec, succ = (_block_tensor(n, m, c, None, l, r, None, None) for c, l, r in _pieces(D, M))
    return DendriformStructure(n + m, D.q, prec, succ)


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


_MIXED_SCALES = (("1", "1", "-1/q"), ("1", "1", "-1/q"), ("1", "-1/q", "-1/q"))
_MATCHED_ROUTES = tuple(
    ((str(35 + 3 * a + k), str(44 + 3 * a + k)), shape, placement, scale)
    for a, ((_, shape, _, _), scales) in enumerate(zip(_AXIOM_ROUTES, _MIXED_SCALES))
    for k, (placement, scale) in enumerate(zip(("abx", "axb", "xab"), scales))
)
_PAIR_ROUTES = (_AXIOM_ROUTES, _BIMODULE_ROUTES, _MATCHED_ROUTES)


def _bowtie_blocks(P: DendriformMatchedPairData) -> Iterator[tuple[Tensor3, ...]]:
    """The pieces (cA, cB, la, ra, lb, rb) of the bowtie of prec and succ
    in turn, in ``_join``'s order."""
    for (cA, la, ra), (cB, lb, rb) in zip(_pieces(P.D_A, P.on_B), _pieces(P.D_B, P.on_A)):
        yield cA, cB, la, ra, lb, rb


def check_dendriform_matched_pair(P: DendriformMatchedPairData) -> CheckReport:
    """All eighteen conditions, ids "35".."52", plus preconditions.

    Preconditions (both structures pass check_q_dendriform, both action
    quadruples pass check_dendriform_bimodule) are folded into the
    violation list with a precondition: prefix.  The preconditions and
    both halves share one compilation of the two structures and the two
    bimodules, at the common denominator of all their tables.
    """
    A, B, q = P.D_A, P.D_B, P.D_A.q
    den, Fs = _compiled_blocks(A.dim, B.dim, list(_bowtie_blocks(P)))
    Fs.append(_fiber_sum(*Fs))
    found = _route_violations(Fs, q, den, _matched_reads(_PAIR_ROUTES, A.dim, B.dim))
    violations = _matched_violations("dendriform", found)
    return CheckReport.from_violations(violations, q=exact_str(q))


def dendriform_bowtie(P: DendriformMatchedPairData) -> DendriformStructure:
    """Both products on A + B:

        (x+a) succ (y+b) = (x succ y + on_A.r_succ(b)x + on_A.l_succ(a)y)
                         + (on_B.l_succ(x)b + on_B.r_succ(y)a + a succ b)

    and the prec analogue with the _prec tables.
    """
    A, B = P.D_A, P.D_B
    prec, succ = (_block_tensor(A.dim, B.dim, *block) for block in _bowtie_blocks(P))
    return DendriformStructure(A.dim + B.dim, A.q, prec, succ)
