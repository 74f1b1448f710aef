"""Bimodules over q-generalized associative algebras.

A bimodule is a pair of action tables (l, r) on a module space V, each a
Tensor3 of shape (dim A, dim V, dim V) like a structure tensor:
``l[i][j]`` is l(e_i) e_j, the left action of e_i on e_j, and ``r[i][j]``
is r(e_i) e_j; over a 0-dim algebra both are 0 x dim V x dim V.
Documents still spell each table as a list of row-major matrices; io.py
converts at load and at dump.  The three laws checked
here, with q the algebra's parameter, are the q-law G of the semidirect
product A + V with one argument u in V (see algebra.py):

    l_law   l(x*y) - q l(x) l(y)          =  G(x, y, u)
    r_law   r(x*y) - q^{-1} r(y) r(x)     = -G(u, x, y) / q
    lr_law  l(x) r(y) - q^{-1} r(y) l(x)  = -G(x, u, y) / q

Each is one route row, run by algebra.py's route body on the compiled
semidirect product as a matrix identity in u.  Actions of non-basis
elements extend linearly from the tables: T(x) v is algebra.py's
contraction of T with x and v, and ``action_of`` builds the matrix of
T(x) as a ``Matrix``.  The regular bimodule is (c, c with its first two
axes swapped) and a dual is a transpose of the last two axes, scaled.
The semidirect product and the compiled one the check runs on are
algebra.py's one block product on A + V, with no partner algebra and no
back-actions: the built table is that join.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    _Q_LAW,
    CheckReport,
    StructureAlgebra,
    _block_tensor,
    _compiled_blocks,
    _contract,
    _route_violations,
    mult_operators,
)
from .linalg import DimensionMismatch, Matrix, Tensor3, _check_table, basis_vec, exact_str


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
    l: Tensor3
    r: Tensor3

    def __post_init__(self):
        shape = (self.algebra_dim, self.module_dim, self.module_dim)
        _check_table("l", self.l, shape)
        _check_table("r", self.r, shape)

    @classmethod
    def zero(cls, algebra_dim: int, module_dim: int) -> "Bimodule":
        n, m = algebra_dim, module_dim
        return cls(n, m, Tensor3.zeros(n, m, m), Tensor3.zeros(n, m, m))


def action_of(table: Tensor3, x: Sequence[Fraction]) -> Matrix:
    """Linear extension: the action matrix of the element with coordinates x,
    whose column j is T(x) e_j.

    No check calls it.  It is public, the Fraction reference of the tests
    builds its action matrices with it, and bench/tracing.py traces it by
    name, so deleting it is a change to the benchmark itself, which
    tests/test_tracing_names.py::test_traced_names_resolve guards."""
    if table.d1 != len(x):
        raise DimensionMismatch("coordinate length does not match action table")
    m = table.d2
    return Matrix.from_columns([_contract(table, x, basis_vec(m, j)) for j in range(m)])


# (id, shape, placement, scale) of the three laws, as in the docstring
_BIMODULE_ROUTES = (
    ("l_law", _Q_LAW, "iju", "1"),
    ("r_law", _Q_LAW, "uij", "-1/q"),
    ("lr_law", _Q_LAW, "iuj", "-1/q"),
)


def check_bimodule(A: StructureAlgebra, M: Bimodule) -> CheckReport:
    """Verify the three bimodule laws on all basis pairs of A.

    Violations are matrix identities, reported at indices (i, j) with the
    residual matrix flattened row-major.
    """
    if M.algebra_dim != A.dim:
        raise DimensionMismatch("bimodule is indexed by a different algebra dimension")
    n, m = A.dim, M.module_dim
    D, Fs = _compiled_blocks(n, m, [(A.c, None, M.l, M.r, None, None)])
    (violations,) = _route_violations(Fs, A.q, D, ((_BIMODULE_ROUTES, (0, n), (n, m)),))
    return CheckReport.from_violations(violations, q=exact_str(A.q))


def regular_bimodule(A: StructureAlgebra) -> Bimodule:
    """The algebra acting on itself by its own multiplication tables."""
    return Bimodule(A.dim, A.dim, *mult_operators(A))


def dual_bimodule(A: StructureAlgebra, M: Bimodule) -> Bimodule:
    """Contragredient actions on V*: (q^{-2} r^T, q^2 l^T).

    Coordinates on V* are with respect to the dual basis, which is what
    makes the starred operators literal transposes.  Applying this twice
    returns the original bimodule exactly.
    """
    q2 = A.q * A.q
    dual_l = M.r.transposed().scale(1 / q2)
    dual_r = M.l.transposed().scale(q2)
    return Bimodule(M.algebra_dim, M.module_dim, dual_l, dual_r)


def semidirect_product(A: StructureAlgebra, M: Bimodule) -> StructureAlgebra:
    """Algebra on A + V with product (x+a)(y+b) = x*y + l(x)b + r(y)a."""
    if M.algebra_dim != A.dim:
        raise DimensionMismatch("bimodule is indexed by a different algebra dimension")
    t = _block_tensor(A.dim, M.module_dim, A.c, None, M.l, M.r, None, None)
    return StructureAlgebra(A.dim + M.module_dim, A.q, t)
