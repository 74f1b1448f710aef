"""Exact linear algebra over the rationals.

Everything in this package funnels through the small kernel in this module:
dense Fraction matrices and rank-3 tensors of rationals, each holding its
shape even when an axis is empty (a map onto the zero space), one
fraction-free elimination on integer rows (``echelon``) behind rank, rref,
kernel, inverse and determinant, and a handful of vector helpers.  A
Matrix scales its rows to integers and hands them to ``echelon``
(``Matrix._echelon``); a caller that already holds a table as integers,
such as ``algebra.fingerprint``, calls it directly.  No floats, anywhere.
Vectors are plain ``list[Fraction]`` and are always column vectors; matrices
act on the left.

A Tensor3 is its compiled form, the integer fibers the kernel of
algebra.py runs on: the least common denominator d of its entries and
each fiber d * c[i][j] as its nonzero (k, int) pairs in k order.  This
form is canonical.  Every constructor builds it: the two dense ones
through one compile (``Tensor3._compile``), from Fraction entries or, for
the loader, from each entry's int looked up (``Tensor3.from_scaled``),
and the sparse one ``Tensor3.from_sparse`` from the nonzero entries it
is given.  Every operation (sum, scaling, the two axis swaps) works on
the integers alone; the dense Fraction entries are a view, made on first
read.  A
Matrix is still mutable Fraction rows, scaled to integers on each check
by ``_at_common_den``, the one rule for a check's common denominator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

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


def exact_str(x: int | Fraction) -> str:
    """``str(x)``, also when x, or a fraction's numerator or denominator, has
    more digits than the interpreter converts (``sys.get_int_max_str_digits``),
    without changing that limit."""
    try:
        return str(x)
    except ValueError:
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"{exact_str(x.numerator)}/{exact_str(x.denominator)}"
        a = int(x)
    # an integer too long for str: its decimal halves, split at a power of
    # ten of about half its digits (a digit is log2(10) ~ 20/6 bits)
    h = max(1, abs(a).bit_length() * 3 // 20)
    hi, lo = divmod(abs(a), 10**h)
    return ("-" if a < 0 else "") + exact_str(hi) + exact_str(lo).zfill(h)


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
# the one elimination


def echelon(rows: Iterable[list[int]], ncols: int
            ) -> tuple[list[list[int]], list[int], int, list[tuple[int, int]]]:
    """The one row elimination, fraction-free on integer rows of length
    ``ncols``; zero rows are dropped.  For each column in turn, the first
    row left with a nonzero entry p there is the pivot and leaves the pool;
    every other row with an entry f there becomes p*row - f*pivot, divided
    by the gcd of its entries (a row that reaches zero is dropped).

    Returns the pivot rows in order, their pivot columns, and for det
    ``moves``, the sum of each pivot's index in the pool it was taken from,
    and ``ops``, the (gcd, pivot) pair of each row operation.  The rank is
    the number of pivot columns."""
    rows = [r for r in rows if any(r)]
    pivots, cols, moves, ops = [], [], 0, []
    for col in range(ncols):
        for k, pivot in enumerate(rows):
            if pivot[col]:
                break
        else:
            continue
        del rows[k]
        pivots.append(pivot)
        cols.append(col)
        moves += k
        p = pivot[col]
        reduced = []
        for r in rows:
            f = r[col]
            if f:
                r = [p * a - f * b for a, b in zip(r, pivot)]
                g = math.gcd(*r)
                if not g:
                    continue
                ops.append((g, p))
                if g > 1:
                    r = [a // g for a in r]
            reduced.append(r)
        rows = reduced
    return pivots, cols, moves, ops


# ---------------------------------------------------------------------------
# matrices


def _unfilled(shape: tuple) -> DimensionMismatch:
    return DimensionMismatch(f"entries do not fill the shape {'x'.join(map(str, shape))}")


class Matrix:
    """A dense rows x cols matrix of Fractions.  The shape (rows, cols) is
    read off the entries unless given; entries with no rows cannot hold the
    column count, so a 0 x n matrix, such as a map onto the zero space, is
    built with its shape."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Sequence[Scalar]], shape: tuple | None = None):
        e = self.entries = [[x if x.__class__ is Fraction else rat(x) for x in row]
                            for row in entries]
        if shape is None:
            shape = (len(e), len(e[0]) if e else 0)
        self.rows, self.cols = shape
        if len(e) != self.rows:
            raise _unfilled(shape)
        for row in e:
            if len(row) != self.cols:
                raise _unfilled(shape)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        zero = Fraction(0)
        return Matrix([[zero] * cols for _ in range(rows)], (rows, cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence[Fraction]]) -> "Matrix":
        """The matrix with these columns; with none, it is 0x0."""
        rows = len(columns[0]) if columns else 0
        return Matrix(zip(*columns, strict=True), (rows, len(columns)))

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.entries]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(exact_str, row)) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        pairs = zip(self.entries, other.entries)
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in pairs], (self.rows, self.cols))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        pairs = zip(self.entries, other.entries)
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in pairs], (self.rows, self.cols))

    def scale(self, s: Scalar) -> "Matrix":
        c = rat(s)
        return Matrix([[c * a for a in row] for row in self.entries], (self.rows, self.cols))

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
        return Matrix(out, (self.rows, other.cols))

    def apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Matrix times column vector."""
        if self.cols != len(v):
            raise DimensionMismatch(
                f"cannot apply {self.rows}x{self.cols} to vector of length {len(v)}"
            )
        return [dot(row, v) for row in self.entries]

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)], (self.cols, self.rows))

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shapes {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )

    # -- elimination-based queries ---------------------------------------

    def _echelon(self) -> tuple[list[list[int]], list[int], int, list[tuple[int, int]]]:
        """``echelon`` of the rows, each scaled to integers by the lcm of
        its denominators."""
        rows = []
        for row in self.entries:
            d = math.lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (d // x.denominator) for x in row])
        return echelon(rows, self.cols)

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices).
        Each pivot row of the echelon is divided by its pivot, each pivot
        column is cleared upward, and zero rows pad the form to self.rows."""
        pivots, cols, _, _ = self._echelon()
        m = [[Fraction(a, r[c]) for a in r] for r, c in zip(pivots, cols)]
        for t in range(len(m) - 1, 0, -1):
            row, c = m[t], cols[t]
            for s in range(t):
                f = m[s][c]
                if f:
                    m[s] = [a - f * b for a, b in zip(m[s], row)]
        m += [[Fraction(0)] * self.cols for _ in range(self.rows - len(m))]
        return m, cols

    def rank(self) -> int:
        return len(self._echelon()[1])

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
        reduced, pivots = Matrix(aug, (n, 2 * n)).rref()
        if pivots != list(range(n)):
            raise SingularError("matrix is singular")
        return Matrix([row[n:] for row in reduced], (n, n))

    def det(self) -> Fraction:
        """0 below full rank; else (-1)^moves times the echelon's pivots, with
        each row's lcm and each row operation's pivot and gcd undone."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        pivots, cols, moves, ops = self._echelon()
        if len(cols) < self.rows:
            return Fraction(0)
        num = math.prod(r[c] for r, c in zip(pivots, cols)) * math.prod(g for g, _ in ops)
        den = math.prod(p for _, p in ops) * math.prod(
            math.lcm(*(x.denominator for x in row)) for row in self.entries
        )
        return Fraction((-1) ** moves * num, den)


# ---------------------------------------------------------------------------
# rank-3 tensors

Fibers = list[list[list[tuple[int, int]]]]  # F[i][j]: the nonzero (k, int) in k order

_set = object.__setattr__
_second = operator.itemgetter(1)


def _times(F: Fibers, f: int) -> Fibers:
    """Every int of the fibers F times f."""
    if f == 1:
        return F
    return [[[(k, a * f) for k, a in fib] if fib else fib for fib in plane] for plane in F]


def _fiber_sum(F: Fibers, G: Fibers) -> Fibers:
    """F + G for two tables compiled at one d, as its fibers at that d:
    each fiber's nonzero pairs in k order.  Two fibers that list the same
    ks in the same order, as every fiber of a dense table does, are added
    pairwise; any others through a dict of their ks."""
    def added(f, g):
        if not (f and g):
            return f or g
        if len(f) == len(g):
            pairs = [(k, a + b) for (k, a), (l, b) in zip(f, g) if k == l]
            if len(pairs) == len(f):
                return list(filter(_second, pairs))
        acc = dict(f)
        for k, v in g:
            acc[k] = acc.get(k, 0) + v
        return [(k, v) for k, v in sorted(acc.items()) if v]

    return [[added(f, g) for f, g in zip(Fp, Gp)] for Fp, Gp in zip(F, G)]


class Tensor3:
    """Rank-3 tensor c[i][j][k] of rationals, held as its compiled form.

    The three axes need not agree in general (action tables of an n-dim
    algebra on an m-dim space are n x m x m), but algebra product tensors
    are cubic.  As for Matrix, the shape (d1, d2, d3) is read off the
    entries unless given, and a tensor with an empty axis is built with it.

    ``compiled`` = (d, F) is the table: d the least common denominator of
    its entries (1 for a zero table) and F[i][j] the fiber d * c[i][j] as
    its nonzero (k, int) pairs in k order.  This form is canonical, so two
    tables are equal exactly when their shapes and forms are.  Every
    constructor and operation builds it directly.  ``entries``, the dense
    tuples of Fractions, is a view made from it on first read; the dense
    constructor keeps the tuples it is given as that view.  A Tensor3 is
    immutable, and every reader of its compiled form shares the lists.
    """

    __slots__ = ("d1", "d2", "d3", "compiled", "_entries")

    def __init__(self, entries: Sequence[Sequence[Sequence[Scalar]]], shape: tuple | None = None):
        e = tuple([tuple([tuple([x if x.__class__ is Fraction else rat(x) for x in fiber])
                          for fiber in plane]) for plane in entries])
        if shape is None:
            shape = (len(e), len(e[0]) if e else 0, len(e[0][0]) if e and e[0] else 0)
        d1, d2, d3 = shape
        if len(e) != d1:
            raise _unfilled(shape)
        for plane in e:
            if len(plane) != d2:
                raise _unfilled(shape)
            for fiber in plane:
                if len(fiber) != d3:
                    raise _unfilled(shape)
        d = math.lcm(*{x.denominator for plane in e for f in plane for x in f})
        self._compile(shape, d, e, lambda x: x.numerator * (d // x.denominator), e)

    def _compile(self, shape: tuple, d: int, table: Sequence, scale, entries: tuple | None) -> None:
        """The one compile of a dense table, behind this constructor and the
        loader's ``from_scaled``: ``table`` the nested lists of ``shape``,
        each entry taken to its int at d, the least common denominator, by
        ``scale``; each fiber keeps its nonzero (k, int) pairs in k order."""
        F = [[list(filter(_second, enumerate(map(scale, f)))) for f in plane] for plane in table]
        self._hold(shape, (d, F), entries)

    @classmethod
    def from_scaled(cls, shape: tuple, d: int, table: Sequence, ints: dict) -> "Tensor3":
        """The tensor of ``shape`` whose entry x of the nested lists ``table``
        is ints[x] / d, where d is the least common denominator of those
        values: each entry is one lookup."""
        t = object.__new__(cls)
        t._compile(shape, d, table, ints.__getitem__, None)
        return t

    def _hold(self, shape: tuple, compiled: tuple[int, Fibers], entries: tuple | None) -> None:
        for name, value in zip(self.__slots__, (*shape, compiled, entries)):
            _set(self, name, value)

    @classmethod
    def _made(cls, shape: tuple, compiled: tuple[int, Fibers]) -> "Tensor3":
        """The tensor of ``shape`` whose canonical form is ``compiled``, as given."""
        t = object.__new__(cls)
        t._hold(shape, compiled, None)
        return t

    @classmethod
    def _reduced(cls, shape: tuple, d: int, F: Fibers) -> "Tensor3":
        """The tensor of ``shape`` with fibers F at a positive d that need
        not be the least: both are divided by the gcd of d and every int."""
        g = math.gcd(d, *(a for plane in F for f in plane for _, a in f))
        if g > 1:
            d, F = d // g, [[[(k, a // g) for k, a in f] for f in plane] for plane in F]
        return cls._made(shape, (d, F))

    def __setattr__(self, name: str, value: object) -> None:
        raise TypeError("a Tensor3 is immutable")

    def __delattr__(self, name: str) -> None:
        raise TypeError("a Tensor3 is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a tensor from its compiled form, as slots cannot be set
        return Tensor3._made, ((self.d1, self.d2, self.d3), self.compiled)

    @classmethod
    def from_sparse(cls, shape: tuple[int, int, int],
                    fibers: dict[tuple[int, int], dict[int, Fraction]]) -> "Tensor3":
        """The tensor of ``shape`` with c[i][j][k] = fibers[i, j][k], 0-based
        indices in range and Fraction values, and zero elsewhere: zero
        values are dropped and each fiber is sorted by k."""
        d1, d2, _ = shape
        d = math.lcm(*{x.denominator for out in fibers.values() for x in out.values()})
        F = [[[]] * d2 for _ in range(d1)]
        for (i, j), out in fibers.items():
            F[i][j] = [(k, x.numerator * (d // x.denominator)) for k, x in sorted(out.items()) if x]
        return cls._made(shape, (d, F))

    @staticmethod
    def zeros(d1: int, d2: int, d3: int) -> "Tensor3":
        return Tensor3._made((d1, d2, d3), (1, [[[]] * d2 for _ in range(d1)]))

    @property
    def entries(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The dense view c[i][j][k]: one shared zero, one Fraction per distinct int."""
        if self._entries is None:
            _set(self, "_entries", self._view())
        return self._entries

    def _view(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        d, F = self.compiled
        zero, made = Fraction(0), {}
        empty = (zero,) * self.d3

        def fiber(f):
            row = [zero] * self.d3
            for k, a in f:
                row[k] = made.get(a) or made.setdefault(a, Fraction(a, d))
            return tuple(row)

        return tuple([tuple([fiber(f) if f else empty for f in plane]) for plane in F])

    def __getitem__(self, i: int) -> tuple[tuple[Fraction, ...], ...]:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (self.d1, self.d2, self.d3, self.compiled) == (
            other.d1, other.d2, other.d3, other.compiled
        )

    def __repr__(self) -> str:
        return f"Tensor3({self.d1}x{self.d2}x{self.d3})"

    def __add__(self, other: "Tensor3") -> "Tensor3":
        shape = (self.d1, self.d2, self.d3)
        if shape != (other.d1, other.d2, other.d3):
            raise DimensionMismatch(f"shapes {self!r} and {other!r}")
        D, (F, G) = _at_common_den(self, other)
        return Tensor3._reduced(shape, D, _fiber_sum(F, G))

    def scale(self, s: Scalar) -> "Tensor3":
        """The tensor times s; by a unit, 1 or -1, the same d and the same
        or negated ints, which are canonical as they stand."""
        c = rat(s)
        shape = (self.d1, self.d2, self.d3)
        if not c:
            return Tensor3.zeros(*shape)
        d, F = self.compiled
        if c.denominator == 1 and c.numerator in (1, -1):
            return Tensor3._made(shape, (d, _times(F, c.numerator)))
        return Tensor3._reduced(shape, d * c.denominator, _times(F, c.numerator))

    def swapped(self) -> "Tensor3":
        """The tensor with axes 0 and 1 exchanged: out[j][i] = self[i][j],
        the same d and fibers, re-indexed."""
        d, F = self.compiled
        planes = [[row[j] for row in F] for j in range(self.d2)]
        return Tensor3._made((self.d2, self.d1, self.d3), (d, planes))

    def transposed(self) -> "Tensor3":
        """The tensor with axes 1 and 2 exchanged: out[i][k][j] = self[i][j][k],
        so each plane, read as a matrix, is transposed."""
        d, F = self.compiled
        planes = [[[] for _ in range(self.d3)] for _ in F]
        for cols, plane in zip(planes, F):
            for j, f in enumerate(plane):
                for k, a in f:
                    cols[k].append((j, a))
        return Tensor3._made((self.d1, self.d3, self.d2), (d, planes))

    def is_zero(self) -> bool:
        return not any(f for plane in self.compiled[1] for f in plane)


def _at_common_den(*tables: Tensor3 | Matrix | None) -> tuple[int, list]:
    """The one scale of a check on several tables: D, the lcm of the
    denominators of every entry of ``tables``, and each table at D.  A
    Tensor3 comes back as its fibers D * c[i][j], its own fiber lists when
    D is its d; a Matrix as the integer rows of D * m; None as None.  A
    check on one table reads its ``compiled``, which is this rule for that
    table alone."""
    dens = set()
    for t in tables:
        if isinstance(t, Tensor3):
            dens.add(t.compiled[0])
        elif t is not None:
            dens.update(x.denominator for row in t.entries for x in row)
    D, out = math.lcm(*dens), []
    for t in tables:
        if isinstance(t, Tensor3):
            d, F = t.compiled
            out.append(F if d == D else _times(F, D // d))
        elif t is None:
            out.append(None)
        else:
            out.append([[x.numerator * (D // x.denominator) for x in row] for row in t.entries])
    return D, out


def _check_table(name: str, table: object, shape: tuple[int, int, int]) -> None:
    """The check of every table a structure holds: a Tensor3 of ``shape``."""
    if not isinstance(table, Tensor3):
        raise TypeError(f"{name}: a table is a Tensor3, got {type(table).__name__}")
    if (table.d1, table.d2, table.d3) != shape:
        raise DimensionMismatch(f"{name}: expected a {'x'.join(map(str, shape))} table, "
                                f"got {table.d1}x{table.d2}x{table.d3}")
