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
law runner ``_run_laws`` over (identity_id, law) pairs, ``_prefixed``
for folding one check's violations into another's, the one contraction
``_contract`` behind every product and action, and ``_block_tensor``,
the product tensor on A + B behind semidirect and bowtie products.

One law shape covers every identity of an algebra, a dendriform
structure, their bimodules and their matched pairs:

    G(x, y, z) = (x o1 y) o2 z - q * x o3 (y o4 z)

for four products from [c] or [prec, succ, star], named by position in
a shape.  A bimodule law puts one argument of the base law in the
module, a matched-pair condition one in the other algebra.  So each
identity is a route row (id, shape, placement, scale): the placement
spells G's arguments ("iju" is G(e_i, e_j, u), "axb" is G(a, x, b)) and
the scale is 1 or -1/q.  One body per family of placements runs them:
``_pure_violations``, ``_module_violations`` and ``_mixed_violations``.

They run on the exact sparse integer kernel, as do the operator and form
checks.  A check scales every table it reads by one common denominator D
(``_common_den``) and keeps each fiber or column as its nonzero
``(index, int)`` pairs (``_fibers`` for bilinear tables, ``_columns``
for maps).  Each law is a sum of integer contractions (``_imul``,
``_iapply``, ``_iaction``, ``_imatmul``) with q's numerator and
denominator folded into the coefficients, often through scaled basis
vectors (``_basis``), so all its terms share one scale, D^2 qn qd in a
route body; ``_on_basis`` turns x -> T(x) e_j into columns.  The runner
divides by the scale, building Fractions only for a nonzero residual.
Nothing is cached on the mutable tables: each check call compiles its
own, once for all its preconditions.  The independent oracles
(classify2d and the criteria in doubles.py) stay off the kernel.
"""

from __future__ import annotations

import functools
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
    laws: Sequence[tuple[str, Callable[..., Sequence]]],
    den: int = 1,
) -> list[Violation]:
    """The law runner behind every check: for (identity_id, law) pairs, with
    ``law(*idx)`` den times the residual at a 0-based index tuple, the
    nonzero residuals become Violations with 1-based indices, in tuple order
    and then law order.  Kernel laws return integers over ``den``."""
    out = []
    for idx in tuples:
        for identity_id, law in laws:
            res = law(*idx)
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
_Compiled = list[list[Sparse]]  # a bilinear table compiled by _fibers
_Acts = list[tuple[_Compiled, _Compiled]]  # the (L, R) tables of each product


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


def _fibers(c: Tensor3, D: int) -> _Compiled:
    """D * c[i][j] as sparse vectors.  For an action table T these are the
    sparse columns of each D * T(e_i)."""
    return [[_nonzero(_scaled(fiber, D)) for fiber in plane] for plane in c.entries]


def _columns(m: Matrix, D: int) -> list[Sparse]:
    """The m.cols columns of D * m as sparse vectors."""
    return [_nonzero(_scaled(m.column(j), D)) for j in range(m.cols)]


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


# ---------------------------------------------------------------------------
# the route bodies of the one law shape G (see the module docstring)

_Q_LAW = (0, 0, 0, 0)
_Q_ASSOC_ROUTES = (("q_assoc", _Q_LAW, "1"),)


@functools.lru_cache(maxsize=64)
def _scales(qn: int, qd: int, n: int) -> dict[str, tuple]:
    """For each scale, (a, b, a e_k, b e_k) with scale * G * qn qd equal to
    a (x o1 y) o2 z + b x o3 (y o4 z), for q = qn/qd and the e_k of an
    n-dim space.  Cached on integers, which hash faster than a Fraction;
    every caller only reads the result."""
    pairs = (("1", (qn * qd, -qn * qn)), ("-1/q", (-qd * qd, qn * qd)))
    return {scale: (a, b, _basis(n, a), _basis(n, b)) for scale, (a, b) in pairs}


def _pure_violations(Fs: list[_Compiled], routes, q: Fraction, D: int) -> list[Violation]:
    """Routes (id, shape, scale) on the basis triples of the products ``Fs``."""
    n, scales = len(Fs[0]), _scales(q.numerator, q.denominator, len(Fs[0]))

    def law(shape, scale):
        (o1, o2, o3, o4), (_, _, ez, ex) = shape, scales[scale]
        F1, F2, F3, F4 = Fs[o1], Fs[o2], Fs[o3], Fs[o4]
        return lambda i, j, k: _imul(F3, ex[i], F4[j][k], _imul(F2, F1[i][j], ez[k], [0] * n))

    laws = [(name, law(shape, scale)) for name, shape, scale in routes]
    triples = itertools.product(range(n), repeat=3)
    return _run_laws(triples, laws, D * D * q.numerator * q.denominator)


def _module_violations(
    Fs: list[_Compiled], acts: _Acts, routes, q: Fraction, D: int
) -> list[Violation]:
    """Routes (id, shape, placement, scale) on the basis pairs (i, j) for the
    products ``Fs`` and their (L, R) tables ``acts`` on a module V, as the
    matrix of u -> scale * G, row-major, for u in V."""
    n, scales = len(Fs[0]), _scales(q.numerator, q.denominator, 0)
    size = len(acts[0][0][0]) ** 2 if n else 0

    def law(shape, placement, scale):
        (o1, o2, o3, o4), (a, b, _, _) = shape, scales[scale]
        (L1, R1), (L2, R2), (L3, R3), (L4, R4) = acts[o1], acts[o2], acts[o3], acts[o4]
        F1, F4 = Fs[o1], Fs[o4]
        residual = (
            # u first: R2(y) R1(x) - q R3(x o4 y)
            lambda x, y: _iaction(R3, F4[x][y], b, _imatmul(R2[y], R1[x], a, [0] * size)),
            # u in the middle: R2(y) L1(x) - q L3(x) R4(y)
            lambda x, y: _imatmul(L3[x], R4[y], b, _imatmul(R2[y], L1[x], a, [0] * size)),
            # u last: L2(x o1 y) - q L3(x) L4(y)
            lambda x, y: _imatmul(L3[x], L4[y], b, _iaction(L2, F1[x][y], a, [0] * size)),
        )[placement.index("u")]
        if placement.index("i") < placement.index("j"):
            return residual
        return lambda i, j: residual(j, i)

    laws = [(name, law(shape, place, scale)) for name, shape, place, scale in routes]
    pairs = itertools.product(range(n), repeat=2)
    return _run_laws(pairs, laws, D * D * q.numerator * q.denominator)


def _mixed_violations(
    Fs: list[_Compiled], by_X: _Acts, by_Y: _Acts, routes, q: Fraction, D: int
) -> list[Violation]:
    """Routes (id, shape, placement, scale) on the basis triples (x, a, b),
    x in X and a, b in Y, read in Y's block at (i_x, i_a, i_b).  ``Fs`` are
    Y's products, ``by_X`` X's (L, R) tables on Y and ``by_Y`` Y's on X."""
    n, m = len(by_X[0][0]), len(Fs[0])
    scales = _scales(q.numerator, q.denominator, m)
    # the maps x -> L(x) e_j and x -> R(x) e_j from X to Y, by their columns
    on = [tuple(_on_basis(T, m) for T in pair) for pair in by_X]

    def law(shape, placement, scale):
        (o1, o2, o3, o4), (a, b, e1, e2) = shape, scales[scale]
        F1, F2, F3, F4 = Fs[o1], Fs[o2], Fs[o3], Fs[o4]
        (L1, R1), (L2, R2), (L3, R3), (L4, R4) = by_X[o1], by_X[o2], by_X[o3], by_X[o4]
        (L1y, R1y), (L4y, R4y), on_L2, on_R3 = by_Y[o1], by_Y[o4], on[o2][0], on[o3][1]

        def xab(ix, ia, ib):  # L2(R'1(a)x)b + (L1(x)a) o2 b - q L3(x)(a o4 b)
            acc = _imul(F2, L1[ix][ia], e1[ib], _iapply(on_L2[ib], R1y[ia][ix], a, [0] * m))
            return _iapply(L3[ix], F4[ia][ib], b, acc)

        def abx(ix, ia, ib):  # R2(x)(a o1 b) - q [R3(L'4(b)x)a + a o3 (R4(x)b)]
            acc = _iapply(on_R3[ia], L4y[ib][ix], b, _iapply(R2[ix], F1[ia][ib], a, [0] * m))
            return _imul(F3, e2[ia], R4[ix][ib], acc)

        def axb(ix, ia, ib):  # L2(L'1(a)x)b + (R1(x)a) o2 b - q [R3(R'4(b)x)a + a o3 (L4(x)b)]
            acc = _imul(F2, R1[ix][ia], e1[ib], _iapply(on_L2[ib], L1y[ia][ix], a, [0] * m))
            acc = _iapply(on_R3[ia], R4y[ib][ix], b, acc)
            return _imul(F3, e2[ia], L4[ix][ib], acc)

        return {"xab": xab, "abx": abx, "axb": axb}[placement]

    laws = [(name, law(shape, place, scale)) for name, shape, place, scale in routes]
    triples = itertools.product(range(n), range(m), range(m))
    return _run_laws(triples, laws, D * D * q.numerator * q.denominator)


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


def check_q_associative(A: StructureAlgebra) -> CheckReport:
    """Test (e_i e_j) e_k - q * e_i (e_j e_k) = 0 on all basis triples."""
    D = _common_den([A.c])
    violations = _pure_violations([_fibers(A.c, D)], _Q_ASSOC_ROUTES, A.q, D)
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
        return _imul(F, e[i], e[j], _imul(F, minus[j], e[i], [0] * n))

    def jacobi(i, j, k):
        acc = _imul(F, F[i][j], e[k], [0] * n)
        acc = _imul(F, F[k][i], e[j], acc)
        return _imul(F, F[j][k], e[i], acc)

    pairs = itertools.combinations(range(n), 2)
    violations = _run_laws(pairs, [("commutative", commutator)], D)
    violations += _run_laws(itertools.product(range(n), repeat=3), [("jacobi", jacobi)], D * D)
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
        return parenthesizations[p](i, j, k, l)

    quintuples = (
        (p, *ijkl)
        for ijkl in itertools.product(range(n), repeat=4)
        for p in range(5)
    )
    violations = _run_laws(quintuples, [("quartic", residual)], D**3)
    return CheckReport.from_violations(violations, quadruples=n**4)


def fingerprint(A: StructureAlgebra) -> Fingerprint:
    """Basis-change invariants: dim A^2, annihilator dimensions, symmetry."""
    n = A.dim
    c, r = A.c.entries, range(n)
    dim_square = Matrix.from_columns([c[i][j] for i in r for j in r]).rank()
    # x is a left annihilator iff x*e_j = sum_i x_i c[i][j] = 0 for every j,
    # and a right one iff e_i*x = sum_j x_j c[i][j] = 0 for every i
    dim_left = n - Matrix([[c[i][j][k] for i in r] for j in r for k in r]).rank()
    dim_right = n - Matrix([[c[i][j][k] for j in r] for i in r for k in r]).rank()
    commutative = all(c[i][j] == c[j][i] for i in r for j in range(i))
    return Fingerprint(n, dim_square, dim_left, dim_right, commutative)
