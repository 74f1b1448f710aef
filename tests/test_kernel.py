"""The integer kernel against the Fraction reference in tests/reference.py.

Every check that runs on the kernel must give the reference's report
exactly: verdict, ids, indices, residual strings, order and info.  Inputs
are dense, 2-step nilpotent (valid for every q), or nilpotent with one
entry bumped; entries have denominators up to 7, the module dimension
differs from the algebra dimension, and dims 0 and 1 are drawn.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antiassoc
from antiassoc import (
    BilinearForm,
    Bimodule,
    DendriformStructure,
    LinearMap,
    StructureAlgebra,
)
from antiassoc.linalg import Matrix, Tensor3

from . import reference
from .support import SMALL

QS = [Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 5), Fraction(-7, 2)]
WIDE = [x for x in SMALL if x] + [Fraction(1, 7), Fraction(-5, 3), Fraction(7, 2)]
FAMILIES = ["dense", "nilpotent", "perturbed"]


def entry(rng):
    return rng.choice(WIDE) if rng.random() < 0.6 else Fraction(0)


class Draw:
    """Random inputs of one family.  The nilpotent shapes: A's basis is
    generators (below ``split``) then targets, products of generators land
    in the targets; V splits the same way at ``vsplit``, generators of A
    map V's generators into V's targets, and maps land in A's targets.
    Every law of the nine checks then holds for every q."""

    def __init__(self, rng, family, n, m):
        self.rng, self.family, self.n, self.m = rng, family, n, m
        self.split = rng.randrange(1, n) if n > 1 else n
        self.vsplit = rng.randrange(1, m) if m > 1 else m

    def keep(self, *targets) -> bool:
        return self.family == "dense" or all(targets)

    def bump(self, rows):
        """Add a nonzero amount to one random entry of a perturbed input."""
        cells = [(row, k) for row in rows for k in range(len(row))]
        if self.family == "perturbed" and cells:
            row, k = self.rng.choice(cells)
            row[k] += self.rng.choice(WIDE)

    def tensor(self) -> Tensor3:
        n, s = self.n, self.split
        t = [
            [[entry(self.rng) if self.keep(i < s, j < s, k >= s) else Fraction(0)
              for k in range(n)] for j in range(n)] for i in range(n)
        ]
        self.bump([fiber for plane in t for fiber in plane])
        return Tensor3(t)

    def matrix(self, rows, cols, row_ok, col_ok) -> Matrix:
        m = [[entry(self.rng) if self.keep(row_ok(r), col_ok(c)) else Fraction(0)
              for c in range(cols)] for r in range(rows)]
        self.bump(m)
        return Matrix(m)

    def actions(self) -> list[Matrix]:
        m, vs = self.m, self.vsplit
        return [
            self.matrix(m, m, lambda r: r >= vs and i < self.split, lambda c: c < vs)
            for i in range(self.n)
        ]

    def algebra(self, q) -> StructureAlgebra:
        return StructureAlgebra(self.n, q, self.tensor())

    def bimodule(self) -> Bimodule:
        return Bimodule(self.n, self.m, self.actions(), self.actions())

    def map_into(self, src) -> LinearMap:
        n = self.n
        return LinearMap(src, n, self.matrix(n, src, lambda r: r >= self.split, lambda c: True))

    def form(self, sign) -> BilinearForm:
        """A Gram matrix on A's generators, made symmetric (sign 1) or
        antisymmetric (sign -1) in the nilpotent family."""
        s = self.split
        g = self.matrix(self.n, self.n, lambda r: r < s, lambda c: c < s)
        if self.family == "nilpotent":
            g = g + g.transpose().scale(sign)
        return BilinearForm(self.n, g)


def inputs(name, draw, q):
    if name == "check_q_dendriform":
        return (DendriformStructure(draw.n, q, draw.tensor(), draw.tensor()),)
    A = draw.algebra(q)
    if name == "check_bimodule":
        return A, draw.bimodule()
    if name == "check_rota_baxter":
        return A, draw.map_into(draw.n)
    if name == "check_o_operator":
        return A, draw.bimodule(), draw.map_into(draw.m)
    if name == "check_invariant_symmetric":
        return A, draw.form(1)
    if name == "check_symplectic":
        return A, draw.form(-1)
    return (A,)


CHECKS = [
    "check_q_associative",
    "check_mock_lie",
    "check_quartic_vanishing",
    "check_bimodule",
    "check_rota_baxter",
    "check_o_operator",
    "check_q_dendriform",
    "check_invariant_symmetric",
    "check_symplectic",
]


@pytest.mark.parametrize("name", CHECKS)
@given(
    seed=st.integers(0, 2**30),
    q=st.sampled_from(QS),
    family=st.sampled_from(FAMILIES),
    n=st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference(name, seed, q, family, n):
    rng = random.Random(seed)
    m = rng.choice([k for k in range(4) if k != n])
    if name == "check_o_operator" and n == 0:
        m = 0  # a Matrix with no rows has no columns, so T needs m = 0
    args = inputs(name, Draw(rng, family, n, m), q)
    got = getattr(antiassoc, name)(*args)
    want = getattr(reference, name)(*args)
    assert got.as_dict() == want.as_dict()
