"""Shared generators for randomized corpora.

Everything here is seeded and deterministic.  The workhorse family is
the 2-step nilpotent algebra: basis splits into generators followed by
a "target" block, products map generator pairs into the target block,
and every triple product vanishes, so the q-associativity law holds for
every q at once.  The same trick yields dendriform structures and
bimodules that are valid for all q.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

from antiassoc import (
    BilinearForm,
    Bimodule,
    DendriformBimodule,
    DendriformStructure,
    StructureAlgebra,
    dual_bimodule,
    regular_bimodule,
)
from antiassoc.linalg import Matrix, Tensor3

SMALL = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
         Fraction(1, 2), Fraction(1), Fraction(2)]


def rand_fraction(rng: random.Random) -> Fraction:
    return rng.choice(SMALL)


def nilpotent_algebra(rng: random.Random, dim: int, q) -> StructureAlgebra:
    """Random 2-step nilpotent structure: generators are the first
    `split` basis vectors, products of generators land strictly above.
    """
    split = rng.randrange(1, dim) if dim > 1 else 1
    t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(split):
        for j in range(split):
            for k in range(split, dim):
                t[i][j][k] = rand_fraction(rng)
    return StructureAlgebra(dim, q, Tensor3(t, (dim, dim, dim)))


def curated_algebras(q) -> list[StructureAlgebra]:
    out = [
        StructureAlgebra.zero(1, q),
        StructureAlgebra.zero(2, q),
        StructureAlgebra.from_products(2, q, {(1, 1): {2: 1}}),
        StructureAlgebra.from_products(2, q, {(2, 2): {1: 1}}),
        StructureAlgebra.from_products(3, q, {(1, 1): {3: 1}, (1, 2): {3: -2},
                                              (2, 1): {3: "1/2"}}),
    ]
    return out


def valid_algebra(rng: random.Random, q) -> StructureAlgebra:
    pool = curated_algebras(q)
    if rng.random() < 0.5:
        return rng.choice(pool)
    return nilpotent_algebra(rng, rng.randrange(2, 4), q)


def random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix([[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)], (rows, cols))


def table(mats, size: int | None = None) -> Tensor3:
    """The action table on a ``size``-dim space whose action of e_k has the
    row-major matrix mats[k], as a document spells it: T[k][j] is column j
    of mats[k].  ``size`` defaults to the size of mats[0]."""
    if size is None:
        size = mats[0].rows
    return Tensor3([m.entries for m in mats], (len(mats), size, size)).transposed()


def random_bimodule(rng: random.Random, A: StructureAlgebra, m: int) -> Bimodule:
    l = table([random_matrix(rng, m, m) for _ in range(A.dim)])
    r = table([random_matrix(rng, m, m) for _ in range(A.dim)])
    return Bimodule(A.dim, m, l, r)


def valid_bimodules(A: StructureAlgebra) -> list[Bimodule]:
    reg = regular_bimodule(A)
    return [Bimodule.zero(A.dim, 2), reg, dual_bimodule(A, reg)]


def bumped(t: Tensor3, i: int, j: int, k: int, amount) -> Tensor3:
    """A new table equal to t but for t[i][j][k] + amount."""
    entries = [[list(fiber) for fiber in plane] for plane in t.entries]
    entries[i][j][k] += amount
    return Tensor3(entries, (t.d1, t.d2, t.d3))


def perturb_bimodule(rng: random.Random, M: Bimodule) -> Bimodule:
    """Copy with a single random entry bumped by a nonzero amount: row i,
    column j of the matrix of one basis vector's action, which is the
    table entry [k][j][i]."""
    left = rng.random() < 0.5
    side = M.l if left else M.r
    k = rng.randrange(side.d1)
    i = rng.randrange(M.module_dim)
    j = rng.randrange(M.module_dim)
    side = bumped(side, k, j, i, rng.choice([Fraction(1), Fraction(-1), Fraction(1, 2)]))
    return Bimodule(M.algebra_dim, M.module_dim, side if left else M.l, M.r if left else side)


def nilpotent_dendriform(rng: random.Random, dim: int, q) -> DendriformStructure:
    split = rng.randrange(1, dim) if dim > 1 else 1
    prec, succ = ([[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
                  for _ in range(2))
    for i in range(split):
        for j in range(split):
            for k in range(split, dim):
                prec[i][j][k] = rand_fraction(rng)
                succ[i][j][k] = rand_fraction(rng)
    shape = (dim, dim, dim)
    return DendriformStructure(dim, q, Tensor3(prec, shape), Tensor3(succ, shape))


def case3_dendriform(lam) -> DendriformStructure:
    lam = Fraction(lam)
    return DendriformStructure.from_products(
        2, -1,
        prec={(1, 1): {2: lam}},
        succ={(1, 1): {2: 1 - lam}},
    )


def case4_dendriform() -> DendriformStructure:
    return DendriformStructure.from_products(
        2, -1, prec={(2, 2): {1: -1}}, succ={(2, 2): {1: 1}}
    )


def perturb_dendriform(rng: random.Random, D: DendriformStructure) -> DendriformStructure:
    on_prec = rng.random() < 0.5
    i = rng.randrange(D.dim)
    j = rng.randrange(D.dim)
    k = rng.randrange(D.dim)
    amount = rng.choice([Fraction(1), Fraction(-1), Fraction(2)])
    prec, succ = D.c_prec, D.c_succ
    if on_prec:
        prec = bumped(prec, i, j, k, amount)
    else:
        succ = bumped(succ, i, j, k, amount)
    return DendriformStructure(D.dim, D.q, prec, succ)


def dendriform_pair_corpus(rng: random.Random, invalid_count: int):
    """(DA, DB) pairs for the three-way equivalence tests: the published
    cases, their zero-action variants, nilpotents, and `invalid_count`
    single-entry perturbations of those."""
    zero2 = DendriformStructure.zero(2, -1)
    valid = [
        (case3_dendriform(0), zero2),
        (case3_dendriform(Fraction(1, 2)), zero2),
        (case3_dendriform(1), zero2),
        (case4_dendriform(), zero2),
        (zero2, zero2),
        (zero2, case3_dendriform(Fraction(1, 2))),
        (zero2, case4_dendriform()),
    ]
    for _ in range(4):
        valid.append((nilpotent_dendriform(rng, 2, Fraction(-1)), zero2))
    pairs = list(valid)
    while len(pairs) < len(valid) + invalid_count:
        base = rng.choice(valid)
        if rng.random() < 0.5:
            pairs.append((perturb_dendriform(rng, base[0]), base[1]))
        else:
            pairs.append((base[0], perturb_dendriform(rng, base[1])))
    return pairs


# the families of Draw; a perturbed draw is a nilpotent one with one entry bumped
FAMILIES = ["dense", "nilpotent", "perturbed"]
WIDE = [x for x in SMALL if x] + [Fraction(1, 7), Fraction(-5, 3), Fraction(7, 2)]


def entry(rng, density=0.6):
    return rng.choice(WIDE) if rng.random() < density else Fraction(0)


class Draw:
    """Random inputs of one family.  The nilpotent shapes: A's basis is
    generators (below ``split``) then targets, products of generators land
    in the targets; V splits the same way at ``vsplit``, generators of A
    map V's generators into V's targets, and maps land in A's targets.
    A matched pair takes B on V's space, split at ``vsplit``, with B's
    generators mapping A's generators into A's targets.  Every law of the
    twelve checks then holds for every q, apart from commutativity and the
    nondegeneracy of a symplectic form.  A sparse draw has the dense shapes
    with each entry nonzero at a drawn density in [0.1, 0.5], so a product
    reaches some basis tuples and not others."""

    def __init__(self, rng, family, n, m):
        self.rng, self.family, self.n, self.m = rng, family, n, m
        self.split = rng.randrange(1, n) if n > 1 else n
        self.vsplit = rng.randrange(1, m) if m > 1 else m
        self.density = rng.uniform(0.1, 0.5) if family == "sparse" else 0.6

    def keep(self, *targets) -> bool:
        return self.family in ("dense", "sparse") or all(targets)

    def bump(self, rows):
        """Add a nonzero amount to one random entry of a perturbed input."""
        cells = [(row, k) for row in rows for k in range(len(row))]
        if self.family == "perturbed" and cells:
            row, k = self.rng.choice(cells)
            row[k] += self.rng.choice(WIDE)

    def tensor(self) -> Tensor3:
        n, s = self.n, self.split
        t = [
            [[entry(self.rng, self.density) if self.keep(i < s, j < s, k >= s)
              else Fraction(0) for k in range(n)] for j in range(n)] for i in range(n)
        ]
        self.bump([fiber for plane in t for fiber in plane])
        return Tensor3(t, (n, n, n))

    def matrix(self, rows, cols, row_ok, col_ok) -> Matrix:
        m = [[entry(self.rng, self.density) if self.keep(row_ok(r), col_ok(c))
              else Fraction(0) for c in range(cols)] for r in range(rows)]
        self.bump(m)
        return Matrix(m, (rows, cols))

    def actions(self) -> Tensor3:
        m, vs = self.m, self.vsplit
        return table([
            self.matrix(m, m, lambda r: r >= vs and i < self.split, lambda c: c < vs)
            for i in range(self.n)
        ], m)

    def swapped(self) -> "Draw":
        """The same draw with the roles of A and V exchanged."""
        other = copy.copy(self)
        other.n, other.m, other.split, other.vsplit = self.m, self.n, self.vsplit, self.split
        return other

    def algebra(self, q) -> StructureAlgebra:
        return StructureAlgebra(self.n, q, self.tensor())

    def bimodule(self) -> Bimodule:
        return Bimodule(self.n, self.m, self.actions(), self.actions())

    def dendriform(self, q) -> DendriformStructure:
        return DendriformStructure(self.n, q, self.tensor(), self.tensor())

    def dendriform_bimodule(self) -> DendriformBimodule:
        return DendriformBimodule(self.n, self.m, *(self.actions() for _ in range(4)))

    def map_into(self, src) -> Matrix:
        """An n x src matrix whose columns land in A's targets."""
        return self.matrix(self.n, src, lambda r: r >= self.split, lambda c: True)

    def form(self, sign) -> BilinearForm:
        """A Gram matrix on A's generators, made symmetric (sign 1) or
        antisymmetric (sign -1) in the nilpotent family."""
        s = self.split
        g = self.matrix(self.n, self.n, lambda r: r < s, lambda c: c < s)
        if self.family == "nilpotent":
            g = g + g.transpose().scale(sign)
        return BilinearForm(self.n, g)
