"""Exact linear algebra over the rationals.

Everything in this package funnels through the small kernel in this module:
dense matrices and rank-3 tensors with Fraction entries, Gaussian elimination
for rank / inverse / kernel, and a handful of vector helpers.  No floats,
anywhere.  Vectors are plain ``list[Fraction]`` and are always column vectors;
matrices act on the left.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, str, Fraction]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class SingularError(ValueError):
    """A matrix that was required to be invertible is not."""


def rat(x: Scalar) -> Fraction:
    """Coerce an int, a string like ``\"-3/7\"``, or a Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):  # bool is an int subclass; reject it explicitly
        raise TypeError("boolean is not a rational scalar")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# vectors


def zero_vec(n: int) -> list[Fraction]:
    return [Fraction(0)] * n


def basis_vec(n: int, i: int) -> list[Fraction]:
    """Standard basis vector e_{i+1} of length n (0-indexed slot i)."""
    v = zero_vec(n)
    v[i] = Fraction(1)
    return v


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return [a - b for a, b in zip(u, v)]


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """A dense rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        self.entries: list[list[Fraction]] = [[rat(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix rows")

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Fraction]]) -> "Matrix":
        if not columns:
            return Matrix.zeros(0, 0)
        n = len(columns[0])
        return Matrix([[col[i] for col in columns] for i in range(n)])

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.entries]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def scale(self, s: Scalar) -> "Matrix":
        c = rat(s)
        return Matrix([[c * a for a in row] for row in self.entries])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.entries[i]
            for k in range(self.cols):
                a = row[k]
                if a == 0:
                    continue
                orow = other.entries[k]
                dest = out[i]
                for j in range(other.cols):
                    dest[j] += a * orow[j]
        return Matrix(out)

    def apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Matrix times column vector."""
        if self.cols != len(v):
            raise DimensionMismatch(
                f"cannot apply {self.rows}x{self.cols} to vector of length {len(v)}"
            )
        return [dot(row, v) for row in self.entries]

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shapes {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )

    # -- elimination-based queries ---------------------------------------

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices)."""
        m = [row[:] for row in self.entries]
        pivots: list[int] = []
        r = 0
        for col in range(self.cols):
            pivot_row = next(
                (i for i in range(r, self.rows) if m[i][col] != 0), None
            )
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][col]
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][col] != 0:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(col)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the null space {v : self.apply(v) = 0}."""
        m, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        for j in free:
            v = zero_vec(self.cols)
            v[j] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -m[r][j]
            basis.append(v)
        return basis

    def invert(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        aug = [row[:] + basis_vec(n, i) for i, row in enumerate(self.entries)]
        reduced, pivots = Matrix(aug).rref()
        if pivots != list(range(n)):
            raise SingularError("matrix is singular")
        return Matrix([row[n:] for row in reduced])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        m = [row[:] for row in self.entries]
        n = self.rows
        d = Fraction(1)
        for col in range(n):
            pivot_row = next((i for i in range(col, n) if m[i][col] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != col:
                m[col], m[pivot_row] = m[pivot_row], m[col]
                d = -d
            d *= m[col][col]
            inv = 1 / m[col][col]
            for i in range(col + 1, n):
                if m[i][col] != 0:
                    f = m[i][col] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[col])]
        return d


def stack_rows(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices vertically (all must share a column count)."""
    if not mats:
        raise DimensionMismatch("nothing to stack")
    cols = mats[0].cols
    rows: list[list[Fraction]] = []
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatch("column counts differ across stack")
        rows.extend(row[:] for row in m.entries)
    return Matrix(rows)


# ---------------------------------------------------------------------------
# rank-3 tensors


class Tensor3:
    """Structure-constant tensor c[i][j][k], stored dense and row-major.

    The three axes need not agree in general (bimodule action tables use
    mixed shapes), but algebra product tensors are cubic.
    """

    __slots__ = ("d1", "d2", "d3", "entries")

    def __init__(self, entries: Sequence[Sequence[Sequence[Scalar]]]):
        self.entries: list[list[list[Fraction]]] = [
            [[rat(x) for x in fiber] for fiber in plane] for plane in entries
        ]
        self.d1 = len(self.entries)
        self.d2 = len(self.entries[0]) if self.d1 else 0
        self.d3 = len(self.entries[0][0]) if self.d1 and self.d2 else 0
        for plane in self.entries:
            if len(plane) != self.d2:
                raise DimensionMismatch("ragged tensor")
            for fiber in plane:
                if len(fiber) != self.d3:
                    raise DimensionMismatch("ragged tensor")

    @staticmethod
    def zeros(d1: int, d2: int, d3: int) -> "Tensor3":
        return Tensor3([[[0] * d3 for _ in range(d2)] for _ in range(d1)])

    def __getitem__(self, i: int) -> list[list[Fraction]]:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"Tensor3({self.d1}x{self.d2}x{self.d3})"

    def copy(self) -> "Tensor3":
        return Tensor3(self.entries)

    def is_zero(self) -> bool:
        return all(
            x == 0 for plane in self.entries for fiber in plane for x in fiber
        )
