"""Structure-constant algebras and the q-associativity verifier.

An algebra is a dense tensor c together with the deformation parameter q:
``e_i * e_j = sum_k c[i][j][k] e_k`` and the law under test is

    (x * y) * z  =  q * x * (y * z)

with q = -1 the antiassociative case.  Storage is 0-indexed; every index
that reaches a report or an error message is 1-based (e1, e2, ...).

Every bilinear table has the layout of c.  An action table of an n-dim
algebra on an m-dim space is a Tensor3 T of shape (n, m, m) with
``T[i][j] = T(e_i) e_j``, so the action is the same contraction as the
product: T(x) v = ``_contract(T, x, v)``.  The left multiplication table
is c itself, L(x) y = x * y, and the right one is c with its first two
axes swapped, R(y) x = x * y.

This module also holds the machinery every other module builds on: the
law runner ``_run_laws`` that turns residual functions into Violations,
``_prefixed`` for folding one check's violations into another's, the one
tensor contraction ``_contract`` behind every product and every action, and
``_block_tensor``, the assembler of the product tensor on A + B behind
semidirect and bowtie products.

It also holds the exact sparse integer kernel the law checks run on.  A
check scales every table it reads (structure tensors, action tables, maps,
Gram matrices) by one common denominator D (``_common_den``) and keeps
each fiber or column as its nonzero ``(index, int)`` pairs: ``_fibers``
compiles every bilinear table, structure tensor or action table alike,
and ``_columns`` the matrices of linear maps.  It evaluates each law as
integer contractions (``_imul``, ``_iapply``, ``_iaction``,
``_imatmul``), with q's numerator and denominator folded into the
coefficients, often through scaled basis vectors (``_basis``), so every
term of a law carries the same scale.  The action of an element on a
basis vector, as in the matched-pair laws, is one ``_iapply`` through the
columns of the map x -> T(x) e_j, which are the fibers of T with its
first two axes swapped (``_on_basis``).  The runner divides by the
scale, building Fractions only for the coordinates of a nonzero
residual.  Nothing is cached on the tables, whose entries are mutable:
each check call compiles its own and hands them, with q and D, to its law
bodies (such as ``_q_assoc_violations``), which work out their divisors,
so a composite check runs its preconditions on one compilation.
The checks of the bimodules, the matched pairs, the dendriform structures
and the forms all run on this kernel; the independent oracles (classify2d
and the criteria in doubles.py) do not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .linalg import (
    DimensionMismatch,
    Matrix,
    Scalar,
    Tensor3,
    rat,
    zero_vec,
)


@dataclass
class Violation:
    """One failed identity instance: which law, at which basis indices.

    ``residual`` is LHS minus RHS in coordinates, so a reader can see not
    just that a law failed but by how much and in which direction.
    """

    identity_id: str
    indices: tuple[int, ...]
    residual: list[Fraction]

    def as_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "indices": list(self.indices),
            "residual": [str(x) for x in self.residual],
        }


@dataclass
class CheckReport:
    passed: bool
    violations: list[Violation]
    info: dict = field(default_factory=dict)

    @classmethod
    def from_violations(cls, violations: list[Violation], **info) -> "CheckReport":
        return cls(passed=not violations, violations=violations, info=dict(info))

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [v.as_dict() for v in self.violations],
            "info": self.info,
        }


def _run_laws(
    tuples: Iterable[tuple[int, ...]],
    residual: Callable[..., Iterable[tuple[str, Sequence]]],
    den: int = 1,
) -> list[Violation]:
    """The law runner behind every check: ``residual(*idx)`` yields
    (identity_id, den * residual) pairs for one 0-based index tuple, and the
    nonzero residuals become Violations with 1-based indices, in tuple
    order and then yield order.  Kernel checks yield integers over their
    common scale ``den``; the others yield Fractions with den 1."""
    out = []
    for idx in tuples:
        for identity_id, res in residual(*idx):
            if any(res):
                out.append(Violation(
                    identity_id, tuple(i + 1 for i in idx), [Fraction(a, den) for a in res]
                ))
    return out


def _prefixed(tag: str, violations: list[Violation]) -> list[Violation]:
    """``violations`` with ids prefixed ``tag:``, for folding one check, or
    one law body, into another's verdict."""
    return [Violation(f"{tag}:{v.identity_id}", v.indices, v.residual) for v in violations]


# ---------------------------------------------------------------------------
# the sparse integer kernel: a sparse vector is a list of (index, int) pairs

Sparse = list[tuple[int, int]]


def _common_den(tensors: Iterable[Tensor3] = (), matrices: Iterable[Matrix] = ()) -> int:
    """The least common denominator D of every entry of the given tensors
    (structure tensors and action tables) and matrices."""
    dens = {x.denominator for t in tensors for plane in t.entries for f in plane for x in f}
    dens.update(x.denominator for m in matrices for row in m.entries for x in row)
    return math.lcm(*dens)


def _scaled(vec: Sequence[Fraction], D: int) -> list[int]:
    """D * vec as integers; D must be a multiple of every denominator."""
    return [x.numerator * (D // x.denominator) for x in vec]


def _nonzero(vec: Sequence[int]) -> Sparse:
    return [(k, a) for k, a in enumerate(vec) if a]


def _fibers(c: Tensor3, D: int) -> list[list[Sparse]]:
    """D * c[i][j] as sparse vectors.  For an action table T these are the
    sparse columns of each D * T(e_i)."""
    return [[_nonzero(_scaled(fiber, D)) for fiber in plane] for plane in c.entries]


def _columns(m: Matrix, D: int) -> list[Sparse]:
    """The columns of D * m as sparse vectors."""
    return [_nonzero(col) for col in zip(*(_scaled(row, D) for row in m.entries))]


def _basis(n: int, f: int = 1) -> list[Sparse]:
    """f * e_i as sparse vectors, for i < n."""
    return [[(i, f)] for i in range(n)]


def _imul(F: list[list[Sparse]], x: Sparse, y: Sparse, acc: list[int]) -> list[int]:
    """acc += the contraction of sparse x and y with the compiled tensor F."""
    for a, xa in x:
        Fa = F[a]
        for b, yb in y:
            f = xa * yb
            for k, v in Fa[b]:
                acc[k] += f * v
    return acc


def _iapply(cols: Sequence[Sparse], x: Sparse, f: int, acc: list[int]) -> list[int]:
    """acc += f * M x for the matrix M with sparse columns ``cols``."""
    for s, xs in x:
        g = f * xs
        for r, v in cols[s]:
            acc[r] += g * v
    return acc


def _iaction(tables: Sequence[list[Sparse]], x: Sparse, f: int, acc: list[int]) -> list[int]:
    """acc += f * T(x) for the action table T compiled by ``_fibers``, as a
    matrix flattened row-major."""
    for t, xt in x:
        g = f * xt
        cols = tables[t]
        m = len(cols)
        for u, col in enumerate(cols):
            for r, v in col:
                acc[r * m + u] += g * v
    return acc


def _on_basis(tables: Sequence[list[Sparse]], m: int) -> list[list[Sparse]]:
    """For an action table T compiled by ``_fibers``, the fibers of T with
    its first two axes swapped: the sparse columns of each map
    x -> T(x) e_j, for j < m.  The action of an element x on a basis vector
    is then one ``_iapply``."""
    return [[cols[j] for cols in tables] for j in range(m)]


def _imatmul(P: list[Sparse], Q: list[Sparse], f: int, acc: list[int]) -> list[int]:
    """acc += f * P Q, row-major, for square P and Q given by sparse columns."""
    m = len(Q)
    for u, qcol in enumerate(Q):
        for s, qv in qcol:
            g = f * qv
            for r, pv in P[s]:
                acc[r * m + u] += g * pv
    return acc


@dataclass
class Fingerprint:
    """Cheap isomorphism invariants used to separate non-isomorphic algebras."""

    dim: int
    dim_square: int
    dim_left_ann: int
    dim_right_ann: int
    commutative: bool

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "dim_square": self.dim_square,
            "dim_left_ann": self.dim_left_ann,
            "dim_right_ann": self.dim_right_ann,
            "commutative": self.commutative,
        }


class StructureAlgebra:
    """A finite-dimensional algebra over Q given by structure constants.

    The q-law is deliberately NOT enforced at construction time: auditing
    tables that fail it is a first-class use of this package, so validity
    is what check_q_associative decides, never an assumption.
    """

    __slots__ = ("dim", "q", "c")

    def __init__(self, dim: int, q: Scalar, c: Tensor3):
        q = rat(q)
        if q == 0:
            raise ValueError("q must be nonzero")
        if (c.d1, c.d2, c.d3) != (dim, dim, dim):
            raise DimensionMismatch(
                f"tensor {c.d1}x{c.d2}x{c.d3} does not match dim {dim}"
            )
        self.dim = dim
        self.q = q
        self.c = c

    @classmethod
    def zero(cls, dim: int, q: Scalar = -1) -> "StructureAlgebra":
        return cls(dim, q, Tensor3.zeros(dim, dim, dim))

    @classmethod
    def from_products(
        cls,
        dim: int,
        q: Scalar,
        products: dict[tuple[int, int], dict[int, Scalar]],
    ) -> "StructureAlgebra":
        """Build from a sparse 1-indexed table, e.g. {(1, 1): {2: 1}}."""
        t = Tensor3.zeros(dim, dim, dim)
        for (i, j), out in products.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise DimensionMismatch(f"product index ({i},{j}) out of range")
            for k, v in out.items():
                if not (1 <= k <= dim):
                    raise DimensionMismatch(f"output index {k} out of range")
                t.entries[i - 1][j - 1][k - 1] = rat(v)
        return cls(dim, q, t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.q == other.q and self.c == other.c

    def __repr__(self) -> str:
        return f"StructureAlgebra(dim={self.dim}, q={self.q})"


def _contract(
    c: Tensor3, x: Sequence[Fraction], y: Sequence[Fraction]
) -> list[Fraction]:
    """The tensor contraction sum_{i,j,k} x_i y_j c[i][j][k] e_k."""
    out = zero_vec(c.d3)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        plane = c.entries[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            f = xi * yj
            fiber = plane[j]
            for k in range(c.d3):
                if fiber[k] != 0:
                    out[k] += f * fiber[k]
    return out


def multiply(
    A: StructureAlgebra, x: Sequence[Fraction], y: Sequence[Fraction]
) -> list[Fraction]:
    """Bilinear product: returns sum_{i,j,k} x_i y_j c[i][j][k] e_k."""
    if len(x) != A.dim or len(y) != A.dim:
        raise DimensionMismatch("operand length does not match algebra dimension")
    return _contract(A.c, x, y)


def basis_product(A: StructureAlgebra, i: int, j: int) -> list[Fraction]:
    """e_{i+1} * e_{j+1} in coordinates (0-indexed arguments)."""
    return list(A.c.entries[i][j])


def mult_operators(A: StructureAlgebra) -> tuple[Tensor3, Tensor3]:
    """The left and right multiplication tables (L, R), with
    L(x) y = R(y) x = x * y: fresh copies of c and of c with its first two
    axes swapped."""
    return A.c.copy(), A.c.swapped()


def _block_tensor(
    cA: Tensor3, cB: Tensor3, la: Tensor3, ra: Tensor3, lb: Tensor3, rb: Tensor3
) -> Tensor3:
    """Product tensor on A + B (A-block first):

    (x+a)(y+b) = (x*y + lb(a)y + rb(b)x) + (a o b + la(x)b + ra(y)a)

    where la/ra are indexed by A's basis and act on B's space, lb/rb the
    other way around.  A semidirect product is the case cB = 0, lb = rb = 0.
    """
    n, m = cA.d1, cB.d1
    d = n + m
    t = Tensor3.zeros(d, d, d)
    for i in range(n):
        for j in range(n):
            t.entries[i][j][:n] = cA.entries[i][j]
    for i in range(m):
        for j in range(m):
            t.entries[n + i][n + j][n:] = cB.entries[i][j]
    for i in range(n):
        for j in range(m):
            t.entries[i][n + j][n:] = la[i][j]  # e_i * b_j, B part
            t.entries[i][n + j][:n] = rb[j][i]  # e_i * b_j, A part
            t.entries[n + j][i][n:] = ra[i][j]  # b_j * e_i, B part
            t.entries[n + j][i][:n] = lb[j][i]  # b_j * e_i, A part
    return t


def _q_assoc_violations(F: list[list[Sparse]], q: Fraction, D: int) -> list[Violation]:
    """The q-law on all basis triples of the structure tensor compiled at D
    as ``F``."""
    n = len(F)
    # every term times D^2 qd: q = qn/qd folds into integers
    qn, qd = q.numerator, q.denominator
    right, left = _basis(n, qd), _basis(n, -qn)

    def residual(i, j, k):
        acc = _imul(F, F[i][j], right[k], [0] * n)
        yield "q_assoc", _imul(F, left[i], F[j][k], acc)

    return _run_laws(itertools.product(range(n), repeat=3), residual, D * D * qd)


def check_q_associative(A: StructureAlgebra) -> CheckReport:
    """Test (e_i e_j) e_k - q * e_i (e_j e_k) = 0 on all basis triples."""
    D = _common_den([A.c])
    violations = _q_assoc_violations(_fibers(A.c, D), A.q, D)
    return CheckReport.from_violations(violations, q=str(A.q), triples=A.dim**3)


def anticommutator_algebra(A: StructureAlgebra) -> StructureAlgebra:
    """Symmetrized product a # b = (a*b + b*a)/2; output carries q = -1."""
    n, c = A.dim, A.c.entries
    half = Fraction(1, 2)
    t = [
        [[half * (u + v) for u, v in zip(c[i][j], c[j][i])] for j in range(n)]
        for i in range(n)
    ]
    # the q slot is meaningless for the symmetrized product; -1 by convention
    return StructureAlgebra(n, Fraction(-1), Tensor3(t))


def check_mock_lie(A: StructureAlgebra) -> CheckReport:
    """Commutativity plus the Jacobi identity, both on A's own product."""
    n = A.dim
    D = _common_den([A.c])
    F = _fibers(A.c, D)
    e, minus = _basis(n), _basis(n, -1)

    def commutator(i, j):
        yield "commutative", _imul(F, e[i], e[j], _imul(F, minus[j], e[i], [0] * n))

    def jacobi(i, j, k):
        acc = _imul(F, F[i][j], e[k], [0] * n)
        acc = _imul(F, F[k][i], e[j], acc)
        yield "jacobi", _imul(F, F[j][k], e[i], acc)

    violations = _run_laws(itertools.combinations(range(n), 2), commutator, D)
    violations += _run_laws(itertools.product(range(n), repeat=3), jacobi, D * D)
    return CheckReport.from_violations(violations)


def check_quartic_vanishing(A: StructureAlgebra) -> CheckReport:
    """All five parenthesizations of any four basis vectors must vanish.

    Indices in a violation are (p, i, j, k, l) where p numbers the
    parenthesization: 1 ((wx)y)z, 2 (w(xy))z, 3 (wx)(yz), 4 w((xy)z),
    5 w(x(yz)).
    """
    n = A.dim
    D = _common_den([A.c])
    F = _fibers(A.c, D)
    e = _basis(n)
    r = range(n)
    # (e_i e_j) e_k and e_i (e_j e_k), times D^2
    left = [[[_nonzero(_imul(F, F[i][j], e[k], [0] * n)) for k in r] for j in r] for i in r]
    right = [[[_nonzero(_imul(F, e[i], F[j][k], [0] * n)) for k in r] for j in r] for i in r]
    parenthesizations = (
        lambda i, j, k, l: _imul(F, left[i][j][k], e[l], [0] * n),
        lambda i, j, k, l: _imul(F, right[i][j][k], e[l], [0] * n),
        lambda i, j, k, l: _imul(F, F[i][j], F[k][l], [0] * n),
        lambda i, j, k, l: _imul(F, e[i], left[j][k][l], [0] * n),
        lambda i, j, k, l: _imul(F, e[i], right[j][k][l], [0] * n),
    )

    def residual(p, i, j, k, l):
        yield "quartic", parenthesizations[p](i, j, k, l)

    quintuples = (
        (p, *ijkl)
        for ijkl in itertools.product(range(n), repeat=4)
        for p in range(5)
    )
    violations = _run_laws(quintuples, residual, D**3)
    return CheckReport.from_violations(violations, quadruples=n**4)


def fingerprint(A: StructureAlgebra) -> Fingerprint:
    """Basis-change invariants: dim A^2, annihilator dimensions, symmetry."""
    n = A.dim
    if n == 0:
        return Fingerprint(0, 0, 0, 0, True)
    c, r = A.c.entries, range(n)
    dim_square = Matrix.from_columns([c[i][j] for i in r for j in r]).rank()
    # x is a left annihilator iff x*e_j = sum_i x_i c[i][j] = 0 for every j,
    # and a right one iff e_i*x = sum_j x_j c[i][j] = 0 for every i
    dim_left = n - Matrix([[c[i][j][k] for i in r] for j in r for k in r]).rank()
    dim_right = n - Matrix([[c[i][j][k] for j in r] for i in r for k in r]).rank()
    commutative = all(c[i][j] == c[j][i] for i in r for j in range(i))
    return Fingerprint(n, dim_square, dim_left, dim_right, commutative)
