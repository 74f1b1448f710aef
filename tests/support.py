"""Shared generators for randomized corpora.

Everything here is seeded and deterministic.  The workhorse family is
the 2-step nilpotent algebra: basis splits into generators followed by
a "target" block, products map generator pairs into the target block,
and every triple product vanishes, so the q-associativity law holds for
every q at once.  The same trick yields dendriform structures and
bimodules that are valid for all q.
"""

from __future__ import annotations

import random
from fractions import Fraction

from antiassoc import (
    Bimodule,
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
