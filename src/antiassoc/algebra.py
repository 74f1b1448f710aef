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
``_contract`` behind every product and action, and ``_join``, the one
code that knows the block layout of a product on A + B.  The composite
checks read it through ``_compiled_blocks``, and the builders of
semidirect and bowtie products through ``_block_tensor``, whose table is
that join: a Tensor3 is its compiled form.

One law shape covers every identity of an algebra, a dendriform
structure, their bimodules and their matched pairs:

    G(x, y, z) = (x o1 y) o2 z - q * x o3 (y o4 z)

for four products from [c] or [prec, succ, star], named by position in
a shape.  A bimodule law is G on the semidirect product A + V with one
argument in V, a matched-pair condition G on the bowtie A + B with one
in the other algebra, read in one block.  So each identity is a route
row (id, shape, placement, scale): the placement spells G's arguments
("ijk" is the base law, "iju" G(e_i, e_j, u), "axb" G(a, x, b)) and the
scale is 1 or -1/q.  One body, ``_route_violations``, runs every row on
the compiled block product (``_compiled_blocks``), each letter over one
block.  A check hands it all its reads at once, each a set of rows read
in one block, and it evaluates each shape's G once (``_evaluate``): at
each triple (x, y, z) of the whole product that some read needs, as one
integer vector over every block, keeping only the nonzero ones.  Each
row is then a block read of that evaluation (``_block_read``), so the
six placements of a matched pair, its preconditions and a double's total
q-law share one evaluation of each cube, each product of three blocks
(``_plan`` cuts them).  G is evaluated only where it can be nonzero:
(x o1 y) o2 z is a sum over the k of x o1 y of e_k o2 z, and
x o3 (y o4 z) one over the k of y o4 z of x o3 e_k.  Where none of
these products is nonzero, both sums are over empty sets and the
residual is exactly zero, so skipping the triple samples nothing.
``_reached`` finds the other triples of each cube, in the order of the
full walk.  Where the first k of each x o1 y reaches every z of a cube,
as on a dense table, the body walks the whole cube with no bit mask;
elsewhere it reads reach off bit masks, and where the first term reaches
at least half of a cube it walks the whole cube with no sort.  The
triples it did not need come out zero and are dropped.  A valid
nilpotent table, where every product of three vanishes, thus costs its
nonzero products, not n^3 law calls.  Quartic vanishing walks only the
quintuples whose inner product is nonzero, on the same ground.

The checks run on the exact sparse integer kernel, as do the operator
and form checks.  A check scales every table it reads by one common
denominator D, the lcm of their denominators, in one call
(``linalg._at_common_den``), which hands back each table at D: a
bilinear table as its fibers, a map as integer rows, whose columns
``_columns`` keeps as nonzero ``(index, int)`` pairs.  Each law is a sum of integer contractions with
q's numerator and denominator folded into the coefficients, so all its
terms share one scale, D^2 qn qd in the route body.  A check keeps a
nonzero residual as those integers over the scale (``Violation``), the
one form a violation is stored in: a Fraction is made only when a caller
reads ``Violation.residual``, and the report writer spells each distinct
integer once from them.  A table is its compiled form
(``Tensor3.compiled``: its least denominator d and its
fibers at d), which every constructor and operation of linalg.Tensor3
builds in integers, so no check reads a Fraction of a table.  A sum of
two tables, such as a dendriform star product, is added in integers
(``linalg._fiber_sum``).  ``fingerprint`` reads
its three ranks off the compiled fibers too, as integer rows handed to
the one elimination ``linalg.echelon``, with no Fraction matrix.  The
independent oracles (classify2d and the criteria in doubles.py) stay
off the kernel.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .linalg import (
    DimensionMismatch,
    Scalar,
    Tensor3,
    _at_common_den,
    _check_table,
    echelon,
    exact_str,
    rat,
    zero_vec,
)


class Violation:
    """One failed identity instance: which law, at which basis indices.

    ``residual`` is LHS minus RHS in coordinates, so a reader can see not
    just that a law failed but by how much and in which direction.  It
    reads as a list of Fractions, made afresh on each read.  It is stored
    as ``entries``, integers over one ``scale``: a kernel check hands over
    the integer numerators of its residual with their common scale, and
    rationals handed over with no scale are stored as numerators over the
    lcm of their denominators (1 for an empty or all-integer residual).
    No read changes what is stored, and the writer of a report spells the
    integers without making a Fraction.  Two violations are equal when
    their ids, indices and residual values are.
    """

    __slots__ = ("identity_id", "indices", "entries", "scale")
    __hash__ = None  # equal by value, and mutable

    def __init__(self, identity_id: str, indices: tuple[int, ...],
                 residual: list, scale: int | None = None):
        self.identity_id = identity_id
        self.indices = indices
        if not scale:
            scale = math.lcm(*(x.denominator for x in residual))
            residual = [x.numerator * (scale // x.denominator) for x in residual]
        self.entries = residual
        self.scale = scale

    @property
    def residual(self) -> list[Fraction]:
        return [Fraction(a, self.scale) for a in self.entries]

    def __eq__(self, other: object) -> bool:
        if type(other) is not Violation:
            return NotImplemented
        return (self.identity_id, self.indices, self.residual) == (
            other.identity_id, other.indices, other.residual)

    def __repr__(self) -> str:
        residual = ", ".join(f"Fraction({exact_str(x.numerator)}, {exact_str(x.denominator)})"
                             for x in self.residual)
        return (f"Violation(identity_id={self.identity_id!r}, indices={self.indices!r}, "
                f"residual=[{residual}])")

    def __reduce__(self):
        return Violation, (self.identity_id, self.indices, self.entries, self.scale)

    def as_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "indices": list(self.indices),
            "residual": [exact_str(x) for x in self.residual],
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
    den: int | None = None,
) -> list[Violation]:
    """The law runner of every check off the route body: for (identity_id,
    law) pairs, with ``law(*idx)`` the residual at a 0-based index tuple,
    the nonzero residuals become Violations with 1-based indices, in tuple
    order and then law order.  A kernel law returns integers, den times
    the residual, kept as the violation's entries over the scale den; with
    no den, the law returns rationals, which the Violation stores as
    integers over their own lcm."""
    out = []
    for idx in tuples:
        for identity_id, law in laws:
            res = law(*idx)
            if any(res):
                out.append(Violation(identity_id, tuple(i + 1 for i in idx), res, den))
    return out


def _prefixed(tag: str, violations: list[Violation]) -> list[Violation]:
    """``violations`` with ids prefixed ``tag:``, for folding one check, or
    one law body, into another's verdict; integer entries stay integers."""
    return [Violation(f"{tag}:{v.identity_id}", v.indices, v.entries, v.scale)
            for v in violations]


# ---------------------------------------------------------------------------
# the sparse integer kernel: a sparse vector is a list of (index, int) pairs

Sparse = list[tuple[int, int]]
_Compiled = list[list[Sparse]]  # a bilinear table at D, as _at_common_den hands it out


def _nonzero(vec: Sequence[int]) -> Sparse:
    return [(k, a) for k, a in enumerate(vec) if a]


def _columns(rows: Sequence[Sequence[int]], n: int) -> list[Sparse]:
    """The n columns of a matrix given by its integer rows, as sparse
    vectors; n is given, since a matrix with no rows cannot hold it."""
    return [[(r, row[j]) for r, row in enumerate(rows) if row[j]] for j in range(n)]


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


def _on_basis(tables: Sequence[list[Sparse]], m: int) -> list[list[Sparse]]:
    """For the fibers of an action table T at D, the fibers of T with
    its first two axes swapped: the sparse columns of each map
    x -> T(x) e_j, for j < m.  The action of an element x on a basis vector
    is then one ``_iapply``."""
    return [[cols[j] for cols in tables] for j in range(m)]


# ---------------------------------------------------------------------------
# the route body of the one law shape G (see the module docstring)

_Q_LAW = (0, 0, 0, 0)
_Q_ASSOC_ROUTES = (("q_assoc", _Q_LAW, "ijk", "1"),)


def _join(n: int, m: int, cA, cB, la, ra, lb, rb) -> _Compiled:
    """The product on A + B from the compiled fibers of its pieces, their
    nonzero (k, int) pairs at one D, None for a zero piece: A part, then
    B part shifted by n,

        (x+a)(y+b) = (x*y + lb(a)y + rb(b)x) + (a o b + la(x)b + ra(y)a)

    where la/ra are indexed by A's basis and act on B's space, lb/rb the
    other way around.  The one place that knows this layout: a semidirect
    product has cB, lb and rb None.  No two pieces share an entry, and each
    fiber keeps its pairs in k order, so at the pieces' least common D this
    is the compiled form of the product's table."""
    zero = [[[]] * n] * m

    def shifted(piece, rows):  # the piece's fibers moved into B's block
        if piece is None:
            return [[[]] * m] * rows
        return [[[(k + n, v) for k, v in f] if f else f for f in row] for row in piece]

    la, ra, cB, lb, rb = shifted(la, n), shifted(ra, n), shifted(cB, m), lb or zero, rb or zero
    return [cA[i] + [rb[j][i] + la[i][j] for j in range(m)] for i in range(n)] + [
        [lb[j][i] + ra[i][j] for i in range(n)] + cB[j] for j in range(m)
    ]


def _compiled_blocks(n: int, m: int, blocks: list[tuple]) -> tuple[int, list[_Compiled]]:
    """The common denominator D of every piece of ``blocks``, each a
    (cA, cB, la, ra, lb, rb) tuple of Tensor3s or None as for ``_join``,
    and the ``_join`` of each block's pieces compiled at D: the block
    products a composite check hands to the route body."""
    D, pieces = _at_common_den(*itertools.chain.from_iterable(blocks))
    return D, [_join(n, m, *pieces[s:s + 6]) for s in range(0, len(pieces), 6)]


def _route_violations(Fs: list[_Compiled], q: Fraction, D: int,
                      reads: tuple[tuple, ...]) -> list[list[Violation]]:
    """The violations of each read (routes, acting, read) on the products
    ``Fs`` of a block product compiled at D, all read off one evaluation
    of G per shape (``_evaluate``), on the cubes ``_plan`` cuts."""
    qn, qd = q.numerator, q.denominator
    plans, wanted = _plan(reads)
    values = {shape: {cube: _evaluate(Fs, shape, triples, qn * qd, -qn * qn)
                      for cube, triples in _reached(Fs, shape, cubes)}
              for shape, cubes in wanted}
    scale = D * D * qn * qd
    return [_block_read(values, *plan, len(Fs[0]), qn, qd, scale) for plan in plans]


@functools.lru_cache(maxsize=1024)
def _plan(reads: tuple[tuple, ...]) -> tuple[tuple, tuple]:
    """What ``_route_violations`` reads: for each read, its rows, the block
    offset less 1 of each of its letters, its read block and whether its
    values come out in the order of its tuples; and for each shape, the
    cubes its G is evaluated on.

    A read's rows (id, shape, placement, scale) share the letters of their
    placements, taken in the order x, i, j, k, a, b: i, j and x run over
    the block ``acting``, k, a, b and u over ``read``, each an (offset,
    size) pair, and the residual is read in ``read``.  The ends of every
    block cut the product into blocks, and their products of three into
    cubes; a row reads G on the cubes its placement spans."""
    cuts = sorted({p for _, (a, m), (b, s) in reads for p in (a, a + m, b, b + s)})
    blocks = [(a, b - a) for a, b in zip(cuts, cuts[1:])]
    plans, wanted = [], {}
    for routes, acting, read in reads:
        letters = "".join(c for c in "xijkab" if c in routes[0][2])
        span = {c: read if c in "kabu" else acting for c in "xijkabu"}
        parts = {c: [b for b in blocks if off <= b[0] < off + size]
                 for c, (off, size) in span.items()}
        rows = []
        for identity_id, shape, placement, scale in routes:
            cubes = tuple(itertools.product(*map(parts.get, placement)))
            wanted.setdefault(shape, {}).update(dict.fromkeys(cubes))
            rows.append((identity_id, shape, _picker(placement, letters), placement.find("u"),
                         scale == "-1/q", cubes))
        ordered = len(rows) == 1 and len(rows[0][-1]) == 1 and routes[0][2].startswith(letters)
        base = tuple(span[c][0] - 1 for c in letters)
        plans.append((tuple(rows), base, read, ordered))
    return tuple(plans), tuple((shape, tuple(cubes)) for shape, cubes in wanted.items())


def _reached(Fs: list[_Compiled], shape, cubes) -> list[tuple]:
    """(cube, triples) for each cube (three (offset, size) blocks) holding
    a triple (x, y, z) at which G of ``shape`` can be nonzero, with those
    triples in ``itertools.product`` order, as (x, y, the z in order).
    G(x, y, z) is a sum over the k of F1[x][y] of F2[k][z] plus one over
    the k of F4[y][z] of F3[x][k], so it can be nonzero only where z is
    reached from F1[x][y] (some k in it has F2[k][z] nonempty) or x from
    F4[y][z] (some k in it has F3[x][k] nonempty).  At any other triple
    both sums run over empty sets, so its residual is exactly zero and
    skipping it changes no report.  Until some cube falls short of it, a
    cube where the first k of every F1[x][y] has F2[k][z] nonempty at
    every z, as on a dense table, is walked whole with no reach read.
    Past that, reach is read off bit masks of F2's rows and F3's
    columns, once per shape; where the first term alone reaches at least
    half of a cube the cube is walked whole too, and the triples reached
    by neither term evaluate to zero vectors, which are dropped.
    Elsewhere the second term is read only at the (x, y) the first leaves
    short of some z."""
    F1, F2, F3, F4 = (Fs[o] for o in shape)
    d, out, first, second = len(F1), [], None, None
    for cube in cubes:
        (x0, nx), (y0, ny), (z0, nz) = cube
        xs, ys, zs = range(x0, x0 + nx), range(y0, y0 + ny), range(z0, z0 + nz)
        if first is None:
            corner = F1[x0][y0]  # tried first: on a sparse table it is short at once
            if corner and F2[corner[0][0]][z0] and all(
                    f and all(F2[f[0][0]][z0:z0 + nz])
                    for row in F1[x0:x0 + nx] for f in row[y0:y0 + ny]):
                out.append((cube, [(x, y, zs) for x in xs for y in ys]))
                continue
            first = _reaching(F1, F2)  # (x, y, the bits z of the F2[k][z], k in F1[x][y])
        full, reached, count = ((1 << nz) - 1) << z0, {}, 0  # (x, y): the bits z reached
        for x, y, b in first:
            if x in xs and y in ys and (b := b & full):
                reached[x, y] = b
                count += b.bit_count()
        if 2 * count >= nx * ny * nz:
            out.append((cube, [(x, y, zs) for x in xs for y in ys]))
            continue
        if second is None:  # (y, z, the bits x of the F3[x][k], k in F4[y][z])
            second = _reaching(F4, zip(*F3))
        short = [((1 << nx) - 1) << x0] * d  # for each y, the bits x of the (x, y) short of a z
        for (x, y), b in reached.items():
            if b == full:
                short[y] &= ~(1 << x)
        for y, z, b in second:
            if y in ys and z in zs:
                b &= short[y]
                while b:
                    low = b & -b
                    xy = low.bit_length() - 1, y
                    reached[xy] = reached.get(xy, 0) | 1 << z
                    b ^= low
        if reached:
            out.append((cube, [(x, y, [z for z in zs if b >> z & 1])
                               for (x, y), b in sorted(reached.items())]))
    return out


def _reaching(F: _Compiled, rows) -> list[tuple[int, int, int]]:
    """(x, y, b) where b, the bits z of the nonempty rows[k][z] over the k
    of F[x][y], is not zero."""
    bits = [1 << z for z in range(len(F))]
    masks = [sum(itertools.compress(bits, row)) for row in rows]
    found = []
    for x, row in enumerate(F):
        for y, f in enumerate(row):
            if f:
                b = 0
                for k, _ in f:
                    b |= masks[k]
                if b:
                    found.append((x, y, b))
    return found


def _evaluate(Fs: list[_Compiled], shape, triples, a: int, b: int) -> list[tuple]:
    """(t, g) for each triple t = (x, y, z) of ``triples``, given as
    (x, y, the z in order), at which g = a (x o1 y) o2 z + b x o3 (y o4 z),
    on the whole product, is not zero.  With a = qn qd and b = -qn^2, g is
    D^2 qn qd G(x, y, z)."""
    F1, F2, F3, F4 = (Fs[o] for o in shape)
    d, out = len(F1), []
    for x, y, zs in triples:
        F1xy, F3x, F4y = F1[x][y], F3[x], F4[y]
        for z in zs:
            acc = [0] * d
            for k, v in F1xy:
                f = a * v
                for r, w in F2[k][z]:
                    acc[r] += f * w
            for k, v in F4y[z]:
                f = b * v
                for r, w in F3x[k]:
                    acc[r] += f * w
            if any(acc):
                out.append(((x, y, z), acc))
    return out


def _block_read(values: dict, rows: tuple, base: tuple[int, ...], read: tuple[int, int],
                ordered: bool, d: int, qn: int, qd: int, scale: int) -> list[Violation]:
    """The violations of one read off ``values``, each shape's nonzero g on
    each cube: each row's value at a tuple of its letters is g's block
    ``read`` at the placement's triple, or, with a module letter u, the
    row-major matrix whose column u is that block at u; under the scale
    -1/q each int g of it is -qd (g // qn), exact since every g is a
    multiple of qn, so all rows share the scale D^2 qn qd.  Violations are
    in the order of the tuples, then of the rows, at indices within each
    letter's block."""
    off, size = read
    end, sub, found = off + size, operator.sub, []
    for identity_id, shape, pick, u, negated, cubes in rows:
        cubed = values[shape]
        got = cubed.get(cubes[0], ()) if len(cubes) == 1 else [
            tg for cube in cubes for tg in cubed.get(cube, ())]
        if negated and qn != -qd:  # -1/q is 1 at q = -1
            got = [(t, [-qd * (x // qn) for x in g]) for t, g in got]
        if u >= 0:  # row r of a d x size matrix holds G's coordinate r; keep the read rows
            mats = collections.defaultdict(([0] * (d * size)).copy)
            for t, g in got:
                mats[pick(t)][t[u] - off::size] = g
            found += [Violation(identity_id, tuple(map(sub, key, base)), mat, scale)
                      for key, full in mats.items() if any(mat := full[off * size:end * size])]
        elif read == (0, d):
            found += [Violation(identity_id, tuple(map(sub, pick(t), base)), g, scale)
                      for t, g in got]
        else:
            found += [Violation(identity_id, tuple(map(sub, pick(t), base)), block, scale)
                      for t, g in got if any(block := g[off:end])]
    if not ordered:  # stable: at one tuple the rows stay in order
        found.sort(key=operator.attrgetter("indices"))
    return found


@functools.lru_cache(maxsize=None)
def _picker(roles: str, letters: str) -> Callable:
    """The getter of the values of ``letters`` from values given in ``roles`` order."""
    return operator.itemgetter(*map(roles.index, letters))


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
        _check_table("c", c, (dim, dim, dim))
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
        fibers = {}
        for (i, j), out in products.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise DimensionMismatch(f"product index ({i},{j}) out of range")
            for k in out:
                if not (1 <= k <= dim):
                    raise DimensionMismatch(f"output index {k} out of range")
            fibers[i - 1, j - 1] = {k - 1: rat(v) for k, v in out.items()}
        return cls(dim, q, Tensor3.from_sparse((dim, dim, dim), fibers))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.q == other.q and self.c == other.c

    def __repr__(self) -> str:
        return f"StructureAlgebra(dim={self.dim}, q={exact_str(self.q)})"


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
    L(x) y = R(y) x = x * y: c itself and c with its first two axes
    swapped."""
    return A.c, A.c.swapped()


def _block_tensor(n: int, m: int, *pieces: Tensor3 | None) -> Tensor3:
    """The product tensor on A + B of the pieces (cA, cB, la, ra, lb, rb),
    Tensor3s or None for a zero piece: their ``_join`` compiled at D.  D is
    the lcm of the pieces' own least d, and the join places every nonzero
    entry of each piece, so (D, join) is the table's canonical form."""
    D, (F,) = _compiled_blocks(n, m, [pieces])
    return Tensor3._made((n + m,) * 3, (D, F))


def check_q_associative(A: StructureAlgebra) -> CheckReport:
    """Test (e_i e_j) e_k - q * e_i (e_j e_k) = 0 on all basis triples."""
    (D, F), whole = A.c.compiled, (0, A.dim)
    (violations,) = _route_violations([F], A.q, D, ((_Q_ASSOC_ROUTES, whole, whole),))
    return CheckReport.from_violations(violations, q=exact_str(A.q), triples=A.dim**3)


def anticommutator_algebra(A: StructureAlgebra) -> StructureAlgebra:
    """Symmetrized product a # b = (a*b + b*a)/2; output carries q = -1."""
    # the q slot is meaningless for the symmetrized product; -1 by convention
    return StructureAlgebra(A.dim, -1, (A.c + A.c.swapped()).scale(Fraction(1, 2)))


def check_mock_lie(A: StructureAlgebra) -> CheckReport:
    """Commutativity plus the Jacobi identity, both on A's own product."""
    n = A.dim
    D, F = A.c.compiled
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
    5 w(x(yz)).  A parenthesization is evaluated only where its inner
    vector is nonzero: (e_i e_j) e_k or e_i (e_j e_k) for p = 1, 2, 4, 5,
    and for p = 3 some product e_a e_b with a in e_i e_j and b in e_k e_l.
    Everywhere else it is exactly zero.

    Every q-associative algebra with q not in {0, 1} passes, not only the
    antiassociative ones (q = -1).  The law (xy)z = q x(yz) at (ab, c, d)
    and then at (a, b, cd) gives ((ab)c)d = q^2 a(b(cd)); at (a, b, c),
    then (a, bc, d), then (b, c, d) it gives ((ab)c)d = q^3 a(b(cd)).  So
    q^2 (q - 1) a(b(cd)) = 0, hence a(b(cd)) = 0, and each other
    parenthesization is a power of q times it.  At q = 1 the law is
    associativity, which e1 e1 = e1 satisfies with every product of four
    vectors e1.
    """
    n = A.dim
    D, F = A.c.compiled
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

    # A parenthesization is zero wherever its inner vector is, so the walk
    # streams only the others, in the (i, j, k, l, p) order of the quadruples.
    # p = 1, 2 at (i, j, k, l) read left/right[i][j][k], and p = 4, 5 read
    # left/right[j][k][l]: tails[j][k] maps each l with one nonzero to its p,
    # in l order.
    tails = [[{} for _ in r] for _ in r]
    for j, k, l in itertools.product(r, repeat=3):
        if ps := [p for p, inner in ((3, left), (4, right)) if inner[j][k][l]]:
            tails[j][k][l] = ps
    # (e_i e_j)(e_k e_l) needs some F[a][b] nonempty, a in F[i][j] and b in F[k][l]
    support = [[sum(1 << b for b, _ in f) for f in row] for row in F]
    hits = [sum(1 << b for b, f in enumerate(row) if f) for row in F]

    def quintuples():
        for i, j in itertools.product(r, repeat=2):
            reach = 0  # the b of some F[a][b] nonempty with a in F[i][j]
            for a, _ in F[i][j]:
                reach |= hits[a]
            for k in r:
                heads = [p for p, inner in ((0, left), (1, right)) if inner[i][j][k]]
                tail = tails[j][k]
                for l in r if heads or reach else tail:
                    for p in heads:
                        yield p, i, j, k, l
                    if reach & support[k][l]:
                        yield 2, i, j, k, l
                    for p in tail.get(l, ()):
                        yield p, i, j, k, l

    violations = _run_laws(quintuples(), [("quartic", residual)], D**3)
    return CheckReport.from_violations(violations, quadruples=n**4)


def fingerprint(A: StructureAlgebra) -> Fingerprint:
    """Basis-change invariants: dim A^2, annihilator dimensions, symmetry.

    The three ranks are read off the compiled fibers D*c[i][j], as n rows
    of n*n integers each, in one pass: row k of ``square`` holds the e_k
    coordinate of every product e_i e_j, so its rank is dim A^2.  x is a
    left annihilator iff sum_i x_i c[i][j][k] = 0 for every (j, k), so
    row i of ``left`` holds c[i][j][k] at (j, k); x is a right one iff
    sum_j x_j c[i][j][k] = 0 for every (i, k), and row j of ``right``
    holds c[i][j][k] at (i, k).  The scale D changes no rank, and c is
    commutative iff its fibers D*c[i][j] and D*c[j][i] are equal."""
    n = A.dim
    F, r, nn = A.c.compiled[1], range(n), n * n
    square, left, right = ([[0] * nn for _ in r] for _ in range(3))
    for i, plane in enumerate(F):
        for j, f in enumerate(plane):
            for k, a in f:
                square[k][i * n + j] = left[i][j * n + k] = right[j][i * n + k] = a
    dim_square, rank_left, rank_right = (len(echelon(m, nn)[1]) for m in (square, left, right))
    commutative = all(F[i][j] == F[j][i] for i in r for j in range(i))
    return Fingerprint(n, dim_square, n - rank_left, n - rank_right, commutative)
