"""Bilinear forms: invariant symmetric and symplectic verification.

A form is its Gram matrix with the orientation fixed once and for all:

    value(u, v) = u^T . gram . v

so gram[i][j] is the form evaluated at (e_{i+1}, e_{j+1}).  The natural
forms on a doubled space A + A* (coordinates: A-block first) are

    B: gram = [[0, I], [I, 0]]      symmetric pairing
    w: gram = [[0, -I], [I, 0]]     so w(e_1, e_1*) = -1, w(e_1*, e_1) = +1

Both checks run on the sparse integer kernel and the law runner in
algebra.py.  The Gram matrix is contracted with the structure tensor once
per check, so each invariance or cyclic instance is a table lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    CheckReport,
    StructureAlgebra,
    Violation,
    _columns,
    _iapply,
    _nonzero,
    _run_laws,
)
from .linalg import DimensionMismatch, Matrix, _at_common_den, dot

KINDS = ("symmetric", "antisymmetric", "general")


@dataclass
class BilinearForm:
    dim: int
    gram: Matrix
    kind: str = "general"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown form kind {self.kind!r}")
        if self.gram.rows != self.dim or self.gram.cols != self.dim:
            raise DimensionMismatch(
                f"gram is {self.gram.rows}x{self.gram.cols}, dim is {self.dim}"
            )
        if self.kind == "symmetric" and self.gram != self.gram.transpose():
            raise ValueError("kind is symmetric but the gram matrix is not")
        if self.kind == "antisymmetric":
            if self.gram != self.gram.transpose().scale(-1):
                raise ValueError("kind is antisymmetric but the gram matrix is not")

    def value(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return dot(u, self.gram.apply(v))

    def rank(self) -> int:
        return self.gram.rank()

    def nondegenerate(self) -> bool:
        return self.rank() == self.dim


def _compiled(A: StructureAlgebra, form: BilinearForm):
    """The kernel's view of a form on A: the common denominator D of c and
    the Gram matrix, D * c as sparse fibers, D * gram as integer rows, and
    first[i][j][k] = D^2 * form(e_i e_j, e_k)."""
    if form.dim != A.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    D, (F, g) = _at_common_den(A.c, form.gram)
    rows = [_nonzero(row) for row in g]
    first = [[_iapply(rows, fiber, 1, [0] * A.dim) for fiber in plane] for plane in F]
    return D, F, g, first


def check_invariant_symmetric(A: StructureAlgebra, B: BilinearForm) -> CheckReport:
    """Symmetry plus B(x*y, z) = B(x, y*z) on all basis triples.

    Nondegeneracy is not a pass/fail condition here; the rank is reported
    in info because audits feed degenerate candidates on purpose.
    """
    D, F, g, first = _compiled(A, B)
    n = A.dim
    # second[j][k][i] = D^2 * B(e_i, e_j e_k), read off the Gram matrix's columns
    cols = _columns(g, n)
    second = [[_iapply(cols, fiber, 1, [0] * n) for fiber in plane] for plane in F]

    symmetric = ("symmetric", lambda i, j: [g[i][j] - g[j][i]])
    invariance = ("invariance", lambda i, j, k: [first[i][j][k] - second[j][k][i]])
    violations = _run_laws(itertools.combinations(range(n), 2), [symmetric], D)
    violations += _run_laws(itertools.product(range(n), repeat=3), [invariance], D * D)
    rank = B.rank()
    return CheckReport.from_violations(
        violations, rank=rank, nondegenerate=rank == n
    )


def check_symplectic(A: StructureAlgebra, w: BilinearForm) -> CheckReport:
    """Antisymmetry, the cyclic invariance condition

        w(x*y, z) + w(y*z, x) + w(z*x, y) = 0

    on all basis triples, and nondegeneracy (a degenerate form is a
    violation here, with a kernel vector as the residual).
    """
    D, F, g, first = _compiled(A, w)
    n = A.dim

    antisymmetric = ("antisymmetric", lambda i, j: [g[i][j] + g[j][i]])
    cyclic = ("cyclic", lambda i, j, k: [first[i][j][k] + first[j][k][i] + first[k][i][j]])
    pairs = itertools.combinations_with_replacement(range(n), 2)
    violations = _run_laws(pairs, [antisymmetric], D)
    violations += _run_laws(itertools.product(range(n), repeat=3), [cyclic], D * D)
    kernel = w.gram.kernel_basis()
    if kernel:
        violations.append(Violation("nondegenerate", (), kernel[0]))
    return CheckReport.from_violations(violations, rank=n - len(kernel))


def natural_forms(n: int) -> tuple[BilinearForm, BilinearForm]:
    """The canonical pairing forms on a 2n-dimensional doubled space: e_i
    pairs with e_i* to 1 both ways in the symmetric form, and to -1 (e_i
    first) and 1 (e_i* first) in the antisymmetric one."""
    d = 2 * n
    one, zero = Fraction(1), Fraction(0)

    def gram(upper: Fraction) -> Matrix:
        rows = [[zero] * d for _ in range(d)]
        for i in range(n):
            rows[i][n + i], rows[n + i][i] = upper, one
        return Matrix(rows, (d, d))

    return BilinearForm(d, gram(one), "symmetric"), BilinearForm(d, gram(-one), "antisymmetric")
