"""Structure-constant algebras and the q-associativity verifier.

An algebra is a dense tensor c together with the deformation parameter q:
``e_i * e_j = sum_k c[i][j][k] e_k`` and the law under test is

    (x * y) * z  =  q * x * (y * z)

with q = -1 the antiassociative case.  Storage is 0-indexed; every index
that reaches a report or an error message is 1-based (e1, e2, ...).

Left and right multiplication operators follow the column-vector convention:
``L[i][k][j] = c[i][j][k]`` so that multiply(A, e_i, v) == L[i].apply(v), and
``R[j][k][i] = c[i][j][k]`` so that multiply(A, v, e_j) == R[j].apply(v).

This module also holds the machinery every other module builds on: the
law runner ``_run_laws`` that turns residual functions into Violations,
``_prefixed`` for folding one report into another, the one tensor
contraction ``_contract`` behind every product, ``_operator_tables``
behind every (L, R) table and its reverse ``_tables_tensor`` behind every
dendriform split, and ``_block_tensor``, the assembler of the product
tensor on A + B behind semidirect and bowtie products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .linalg import (
    DimensionMismatch,
    Matrix,
    Scalar,
    Tensor3,
    basis_vec,
    rat,
    stack_rows,
    vec_is_zero,
    vec_sub,
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
    residual: Callable[..., Iterable[tuple[str, list[Fraction]]]],
) -> list[Violation]:
    """The law runner behind every check: ``residual(*idx)`` yields
    (identity_id, residual) pairs for one 0-based index tuple, and the
    nonzero residuals become Violations with 1-based indices, in tuple
    order and then yield order."""
    out = []
    for idx in tuples:
        for identity_id, res in residual(*idx):
            if not vec_is_zero(res):
                out.append(Violation(identity_id, tuple(i + 1 for i in idx), res))
    return out


def _prefixed(tag: str, rep: CheckReport) -> list[Violation]:
    """A report's violations with ids prefixed ``tag:``, for folding one
    check into another's verdict."""
    return [
        Violation(f"{tag}:{v.identity_id}", v.indices, v.residual)
        for v in rep.violations
    ]


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


def _operator_tables(c: Tensor3) -> tuple[list[Matrix], list[Matrix]]:
    """Left and right multiplication matrices of a cubic product tensor."""
    n = c.d1
    L = [
        Matrix([[c.entries[i][j][k] for j in range(n)] for k in range(n)])
        for i in range(n)
    ]
    R = [
        Matrix([[c.entries[i][j][k] for i in range(n)] for k in range(n)])
        for j in range(n)
    ]
    return L, R


def _tables_tensor(tables: Sequence[Matrix], right: bool = False) -> Tensor3:
    """The reverse of ``_operator_tables``: the product tensor whose left
    multiplication matrices are ``tables`` (c[i][j] = L[i].column(j)), or
    with ``right`` its right ones (c[i][j] = R[j].column(i))."""
    n = len(tables)
    if right:
        return Tensor3([[tables[j].column(i) for j in range(n)] for i in range(n)])
    return Tensor3([[tables[i].column(j) for j in range(n)] for i in range(n)])


def mult_operators(A: StructureAlgebra) -> tuple[list[Matrix], list[Matrix]]:
    """Matrices of left and right multiplication by each basis vector."""
    return _operator_tables(A.c)


def _block_tensor(
    cA: Tensor3,
    cB: Tensor3,
    la: Sequence[Matrix],
    ra: Sequence[Matrix],
    lb: Sequence[Matrix],
    rb: Sequence[Matrix],
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
            t.entries[i][n + j][n:] = la[i].column(j)  # e_i * b_j, B part
            t.entries[i][n + j][:n] = rb[j].column(i)  # e_i * b_j, A part
            t.entries[n + j][i][n:] = ra[i].column(j)  # b_j * e_i, B part
            t.entries[n + j][i][:n] = lb[j].column(i)  # b_j * e_i, A part
    return t


def check_q_associative(A: StructureAlgebra) -> CheckReport:
    """Test (e_i e_j) e_k - q * e_i (e_j e_k) = 0 on all basis triples."""
    n = A.dim
    c = A.c.entries
    e = [basis_vec(n, i) for i in range(n)]

    def residual(i, j, k):
        lhs = multiply(A, c[i][j], e[k])
        rhs = multiply(A, e[i], c[j][k])
        yield "q_assoc", [u - A.q * v for u, v in zip(lhs, rhs)]

    violations = _run_laws(itertools.product(range(n), repeat=3), residual)
    return CheckReport.from_violations(
        violations, q=str(A.q), triples=n**3
    )


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
    c = A.c.entries
    e = [basis_vec(n, i) for i in range(n)]

    def commutator(i, j):
        yield "commutative", vec_sub(c[i][j], c[j][i])

    def jacobi(i, j, k):
        terms = (
            multiply(A, c[i][j], e[k]),
            multiply(A, c[k][i], e[j]),
            multiply(A, c[j][k], e[i]),
        )
        yield "jacobi", [sum(t, Fraction(0)) for t in zip(*terms)]

    violations = _run_laws(itertools.combinations(range(n), 2), commutator)
    violations += _run_laws(itertools.product(range(n), repeat=3), jacobi)
    return CheckReport.from_violations(violations)


def check_quartic_vanishing(A: StructureAlgebra) -> CheckReport:
    """All five parenthesizations of any four basis vectors must vanish.

    Indices in a violation are (p, i, j, k, l) where p numbers the
    parenthesization: 1 ((wx)y)z, 2 (w(xy))z, 3 (wx)(yz), 4 w((xy)z),
    5 w(x(yz)).
    """
    n = A.dim
    c = A.c.entries
    e = [basis_vec(n, i) for i in range(n)]
    mul = lambda u, v: multiply(A, u, v)  # noqa: E731
    parenthesizations = (
        lambda i, j, k, l: mul(mul(c[i][j], e[k]), e[l]),
        lambda i, j, k, l: mul(mul(e[i], c[j][k]), e[l]),
        lambda i, j, k, l: mul(c[i][j], c[k][l]),
        lambda i, j, k, l: mul(e[i], mul(c[j][k], e[l])),
        lambda i, j, k, l: mul(e[i], mul(e[j], c[k][l])),
    )

    def residual(p, i, j, k, l):
        yield "quartic", parenthesizations[p](i, j, k, l)

    quintuples = (
        (p, *ijkl)
        for ijkl in itertools.product(range(n), repeat=4)
        for p in range(5)
    )
    violations = _run_laws(quintuples, residual)
    return CheckReport.from_violations(violations, quadruples=n**4)


def fingerprint(A: StructureAlgebra) -> Fingerprint:
    """Basis-change invariants: dim A^2, annihilator dimensions, symmetry."""
    n = A.dim
    if n == 0:
        return Fingerprint(0, 0, 0, 0, True)
    products = [basis_product(A, i, j) for i in range(n) for j in range(n)]
    dim_square = Matrix.from_columns(products).rank()
    L, R = mult_operators(A)
    # x is a left annihilator iff x*e_j = R[j] x = 0 for every j
    dim_left = n - stack_rows(R).rank()
    dim_right = n - stack_rows(L).rank()
    commutative = all(
        A.c.entries[i][j] == A.c.entries[j][i] for i in range(n) for j in range(i)
    )
    return Fingerprint(n, dim_square, dim_left, dim_right, commutative)
