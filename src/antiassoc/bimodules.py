"""Bimodules over q-generalized associative algebras.

A bimodule is a pair of action tables (l, r) on a module space V:
``l[i]`` is the matrix of the left action of e_i, ``r[i]`` of the right
action.  The three laws checked here, with q the algebra's parameter:

    l(x*y) = q * l(x) l(y)
    r(x*y) = q^{-1} * r(y) r(x)
    l(x) r(y) = q^{-1} * r(y) l(x)

Actions of non-basis elements extend linearly from the tables;
``action_of`` builds that extension as a Fraction matrix, for the
induced split in operators.py and the independent criteria in
doubles.py.  The laws run on the sparse integer kernel and the law
runner in algebra.py instead, as do the matched-pair laws built on these
tables, and the semidirect product is algebra.py's block assembler with
a zero partner algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    CheckReport,
    StructureAlgebra,
    _block_tensor,
    _columns,
    _common_den,
    _fibers,
    _iaction,
    _imatmul,
    _run_laws,
    mult_operators,
)
from .linalg import DimensionMismatch, Matrix, Tensor3


def _check_tables(name: str, table: Sequence[Matrix], count: int, size: int) -> None:
    """The shape check of every action-table dataclass: ``count`` matrices,
    one per acting basis vector, each ``size`` x ``size``."""
    if len(table) != count:
        raise DimensionMismatch(f"{name}: expected {count} matrices")
    for m in table:
        if m.rows != size or m.cols != size:
            raise DimensionMismatch(
                f"{name}: matrices must be {size}x{size}, got {m.rows}x{m.cols}"
            )


def _check_sides(n: int, m: int, on_B, on_A) -> None:
    """The shape check of a matched pair of spaces A (dim n) and B (dim m):
    ``on_B`` is indexed by A's basis and acts on B's space, ``on_A`` the
    other way around.  Either may be a Bimodule or a DendriformBimodule."""
    for name, M, count, size in (("on_B", on_B, n, m), ("on_A", on_A, m, n)):
        if (M.algebra_dim, M.module_dim) != (count, size):
            raise DimensionMismatch(
                f"{name}: expected {count} actions on a {size}-dim space, "
                f"got {M.algebra_dim} on a {M.module_dim}-dim space"
            )


@dataclass
class Bimodule:
    algebra_dim: int
    module_dim: int
    l: list[Matrix]
    r: list[Matrix]

    def __post_init__(self):
        _check_tables("l", self.l, self.algebra_dim, self.module_dim)
        _check_tables("r", self.r, self.algebra_dim, self.module_dim)

    @classmethod
    def zero(cls, algebra_dim: int, module_dim: int) -> "Bimodule":
        z = [Matrix.zeros(module_dim, module_dim) for _ in range(algebra_dim)]
        return cls(algebra_dim, module_dim, z, [m for m in z])


def action_of(table: Sequence[Matrix], x: Sequence[Fraction]) -> Matrix:
    """Linear extension: the action matrix of the element with coordinates x."""
    if len(table) != len(x):
        raise DimensionMismatch("coordinate length does not match action table")
    out = Matrix.zeros(table[0].rows, table[0].cols)
    for xi, m in zip(x, table):
        if xi != 0:
            out = out + m.scale(xi)
    return out


def check_bimodule(A: StructureAlgebra, M: Bimodule) -> CheckReport:
    """Verify the three bimodule laws on all basis pairs of A.

    Violations are matrix identities, reported at indices (i, j) with the
    residual matrix flattened row-major.
    """
    if M.algebra_dim != A.dim:
        raise DimensionMismatch("bimodule is indexed by a different algebra dimension")
    q = A.q
    D = _common_den([A.c], [*M.l, *M.r])
    F = _fibers(A.c, D)
    l = [_columns(x, D) for x in M.l]
    r = [_columns(x, D) for x in M.r]
    size = M.module_dim**2
    # every law times D^2 qn qd: q = qn/qd and q^{-1} = qd/qn fold into integers
    qn, qd = q.numerator, q.denominator
    f, fq, fqi = qn * qd, -qn * qn, -qd * qd

    def residual(i, j):
        yield "l_law", _imatmul(l[i], l[j], fq, _iaction(l, F[i][j], f, [0] * size))
        yield "r_law", _imatmul(r[j], r[i], fqi, _iaction(r, F[i][j], f, [0] * size))
        yield "lr_law", _imatmul(r[j], l[i], fqi, _imatmul(l[i], r[j], f, [0] * size))

    pairs = itertools.product(range(A.dim), repeat=2)
    violations = _run_laws(pairs, residual, D * D * qn * qd)
    return CheckReport.from_violations(violations, q=str(q))


def regular_bimodule(A: StructureAlgebra) -> Bimodule:
    """The algebra acting on itself by its own multiplication operators."""
    L, R = mult_operators(A)
    return Bimodule(A.dim, A.dim, L, R)


def dual_bimodule(A: StructureAlgebra, M: Bimodule) -> Bimodule:
    """Contragredient actions on V*: (q^{-2} r^T, q^2 l^T).

    Coordinates on V* are with respect to the dual basis, which is what
    makes the starred operators literal transposes.  Applying this twice
    returns the original bimodule exactly.
    """
    q2 = A.q * A.q
    dual_l = [m.transpose().scale(1 / q2) for m in M.r]
    dual_r = [m.transpose().scale(q2) for m in M.l]
    return Bimodule(M.algebra_dim, M.module_dim, dual_l, dual_r)


def semidirect_product(A: StructureAlgebra, M: Bimodule) -> StructureAlgebra:
    """Algebra on A + V with product (x+a)(y+b) = x*y + l(x)b + r(y)a."""
    if M.algebra_dim != A.dim:
        raise DimensionMismatch("bimodule is indexed by a different algebra dimension")
    m = M.module_dim
    back = Bimodule.zero(m, A.dim)
    t = _block_tensor(A.c, Tensor3.zeros(m, m, m), M.l, M.r, back.l, back.r)
    return StructureAlgebra(A.dim + m, A.q, t)
