"""Classification of 2-dimensional antiassociative algebras.

Over Q, (xy)z = -x(yz) gives ((xy)z)w = -(xy)(zw) = x(y(zw)) and also
((xy)z)w = -x(y(zw)), so A^4 = 0.  The chain A > A^2 > A^3 > A^4 is then
strict: in dimension 2, dim A^2 <= 1 and A^3 = 0, so a nonzero algebra is
e1.e1 = e2 in the basis (u, u.u) for any u outside A^2.
are_isomorphic_dim2 builds its witness from that normal form.

The grid enumeration is the independent cross-check.  Its unknowns
follow the layout

    e1.e1 = a1 e1 + a2 e2      e1.e2 = b1 e1 + b2 e2
    e2.e1 = c1 e1 + c2 e2      e2.e2 = d1 e1 + d2 e2

and antiassociativity is 8 basis triples x 2 coordinates = 16 polynomial
residuals in those eight unknowns.  _residual_terms expands the products
directly from an assignment, without going through the Tensor3 machinery
or the integer kernel of algebra.py, so its agreement with
check_q_associative is a genuine cross-check and not a tautology.

Every term of every residual is a product of exactly two structure
constants, so the residuals are homogeneous of degree 2: scaling every
unknown by L scales every residual by L^2.  The enumeration therefore
multiplies the grid by the lcm L of its denominators and walks integer
assignments, which vanish exactly where the rational ones do, and drops
an assignment at its first nonzero residual.  A Fraction table is built
only for a solution.  The classify command enumerates and partitions
once: verify_paper_classification reuses its solutions and their classes
when the grid is {-1,0,1}, and enumerates that grid itself otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import (
    StructureAlgebra,
    basis_product,
    check_q_associative,
    fingerprint,
    multiply,
)
from .linalg import DimensionMismatch, Matrix, Scalar, Tensor3, basis_vec, exact_str, rat

UNKNOWNS = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")


class ConstraintSystem:
    """The 16 antiassociativity residuals in the eight unknowns."""

    unknowns = UNKNOWNS

    @staticmethod
    def algebra_from(assignment: Mapping[str, Scalar]) -> StructureAlgebra:
        v = {k: rat(assignment[k]) for k in UNKNOWNS}
        fibers = {(0, 0): {0: v["a1"], 1: v["a2"]}, (0, 1): {0: v["b1"], 1: v["b2"]},
                  (1, 0): {0: v["c1"], 1: v["c2"]}, (1, 1): {0: v["d1"], 1: v["d2"]}}
        return StructureAlgebra(2, Fraction(-1), Tensor3.from_sparse((2, 2, 2), fibers))

    @staticmethod
    def residuals(assignment: Mapping[str, Scalar]) -> list[Fraction]:
        """(e_i e_j) e_k + e_i (e_j e_k), both coordinates, 8 triples in
        lexicographic order: 16 values, all zero iff antiassociative.
        """
        return list(_residual_terms([rat(assignment[k]) for k in UNKNOWNS]))


def _residual_terms(v: Sequence) -> Iterator:
    """The 16 residuals of ConstraintSystem.residuals, lazily, for the
    eight unknowns v in UNKNOWNS order (ints or Fractions alike)."""
    table = ((v[0:2], v[2:4]), (v[4:6], v[6:8]))
    for i in range(2):
        for j in range(2):
            p = table[i][j]
            for k in range(2):
                r = table[j][k]
                for s in range(2):
                    # ((e_i e_j) e_k)_s + (e_i (e_j e_k))_s
                    yield (p[0] * table[0][k][s] + p[1] * table[1][k][s]
                           + r[0] * table[i][0][s] + r[1] * table[i][1][s])


def enumerate_2d_antiassociative(grid: Sequence[Scalar]) -> list[StructureAlgebra]:
    """All antiassociative tables with structure constants drawn from grid.

    Output order is lexicographic on the flattened tensor (with grid
    values sorted), so it is deterministic however the search is run.
    The search runs on the grid scaled to integers by the lcm L of its
    denominators; the residuals are homogeneous of degree 2, so an
    integer assignment n solves them iff n / L does.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    values = sorted({rat(g) for g in grid})
    L = math.lcm(*(x.denominator for x in values))
    scaled = [x.numerator * (L // x.denominator) for x in values]
    found = []
    for ints in itertools.product(scaled, repeat=8):
        if any(_residual_terms(ints)):
            continue
        alg = ConstraintSystem.algebra_from(
            dict(zip(UNKNOWNS, (Fraction(n, L) for n in ints)))
        )
        if not check_q_associative(alg).passed:
            raise RuntimeError("residual evaluator disagrees with check_q_associative")
        found.append(alg)
    return found


@dataclass
class IsoVerdict:
    status: str  # "yes" | "no" | "unknown"
    witness: Matrix | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": (
                [[exact_str(x) for x in row] for row in self.witness.entries]
                if self.witness is not None
                else None
            ),
            "detail": self.detail,
        }


def verify_algebra_isomorphism(
    A1: StructureAlgebra, A2: StructureAlgebra, phi: Matrix
) -> bool:
    """Is phi an invertible map with phi(x .1 y) = phi(x) .2 phi(y)?"""
    if A1.dim != A2.dim or phi.rows != A1.dim or phi.cols != A1.dim:
        raise DimensionMismatch("phi must be square of the common dimension")
    if phi.rank() != A1.dim:
        return False
    n = A1.dim
    cols = [phi.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if phi.apply(basis_product(A1, i, j)) != multiply(A2, cols[i], cols[j]):
                return False
    return True


def _normal_form_basis(A: StructureAlgebra) -> Matrix:
    """[e_i | e_i.e_i] for the first i where it is invertible, else the
    identity.  For antiassociative A the first maps e1.e1 = e2 onto A;
    the identity is left only for A = 0."""
    for i in range(2):
        P = Matrix.from_columns([basis_vec(2, i), basis_product(A, i, i)])
        if P.det() != 0:
            return P
    return Matrix.identity(2)


def are_isomorphic_dim2(
    A1: StructureAlgebra, A2: StructureAlgebra, grid: Iterable[Scalar] = ()
) -> IsoVerdict:
    """Isomorphism test in dimension 2 through the normal form e1.e1 = e2.

    No verdicts point at a separating fingerprint field; Yes verdicts come
    with the witness P2 P1^-1 of _normal_form_basis, re-verified.  Unknown
    is left only for tables that are not antiassociative.
    grid is accepted for existing positional callers and not read.
    """
    if A1.dim != 2 or A2.dim != 2:
        raise DimensionMismatch("this test is specific to dimension 2")
    f1, f2 = fingerprint(A1), fingerprint(A2)
    for field in ("dim_square", "dim_left_ann", "dim_right_ann", "commutative"):
        x1, x2 = getattr(f1, field), getattr(f2, field)
        if x1 != x2:
            return IsoVerdict("no", None, f"{field} differs: {x1} vs {x2}")
    phi = _normal_form_basis(A2) * _normal_form_basis(A1).invert()
    if verify_algebra_isomorphism(A1, A2, phi):
        return IsoVerdict("yes", phi, "witness re-verified multiplicative")
    return IsoVerdict("unknown", None, "fingerprints agree; normal-form witness fails")


# the four dimension-2 tables under audit, in display order
AUDIT_TABLES: tuple[tuple[str, dict], ...] = (
    ("e_i.e_j=0", {}),
    ("e1.e1=e2", {(1, 1): {2: 1}}),
    ("e2.e1=e2", {(2, 1): {2: 1}}),
    ("e2.e2=e1", {(2, 2): {1: 1}}),
)

ENUM_GRID = ("-1", "0", "1")


def partition_into_classes(algebras: Sequence[StructureAlgebra]) -> list[list[int]]:
    """Partition indices into isomorphism classes (witness-decided only)."""
    classes: list[list[int]] = []
    for idx, alg in enumerate(algebras):
        for cls in classes:
            if are_isomorphic_dim2(algebras[cls[0]], alg).status == "yes":
                cls.append(idx)
                break
        else:
            classes.append([idx])
    return classes


def describe_products(A: StructureAlgebra) -> str:
    """Short human form like 'e1.e1 = e2; e2.e2 = e1' ('0' when empty)."""
    parts = []
    for i in range(A.dim):
        for j in range(A.dim):
            prod = basis_product(A, i, j)
            if any(prod):
                parts.append(f"e{i + 1}.e{j + 1} = " + describe_residual(prod))
    return "; ".join(parts) if parts else "0"


def verify_paper_classification(
    enumerated: Sequence[StructureAlgebra] | None = None,
    enumerated_classes: Sequence[Sequence[int]] | None = None,
) -> dict:
    """Audit of the published four-class table in dimension 2.

    Runs the antiassociativity verifier on each listed table, tests the
    valid ones pairwise for isomorphism, reduces the grid enumeration over
    ENUM_GRID to classes, and reports plain verifier facts.  enumerated,
    when given, must be enumerate_2d_antiassociative(ENUM_GRID), and
    enumerated_classes, read only with it, partition_into_classes(enumerated);
    they spare a caller that has just computed them a second run.
    """
    tables = []
    valid: list[tuple[str, StructureAlgebra]] = []
    discrepancies: list[str] = []
    for label, products in AUDIT_TABLES:
        alg = StructureAlgebra.from_products(2, -1, products)
        rep = check_q_associative(alg)
        entry = {
            "label": label,
            "passed": rep.passed,
            "violations": [v.as_dict() for v in rep.violations],
            "fingerprint": fingerprint(alg).as_dict(),
        }
        tables.append(entry)
        if rep.passed:
            valid.append((label, alg))
        else:
            first = rep.violations[0]
            discrepancies.append(
                f"table {label}: antiassociativity fails at "
                f"{first.indices} with residual "
                + describe_residual(first.residual)
            )

    # verdicts are exact, so the classes are the tables isomorphic to no
    # earlier one
    pairwise, repeated = [], set()
    for i in range(len(valid)):
        for j in range(i + 1, len(valid)):
            verdict = are_isomorphic_dim2(valid[i][1], valid[j][1])
            pairwise.append(
                {
                    "first": valid[i][0],
                    "second": valid[j][0],
                    **verdict.as_dict(),
                }
            )
            if verdict.status == "yes":
                repeated.add(j)
                discrepancies.append(
                    f"tables {valid[i][0]} and {valid[j][0]}: isomorphic "
                    f"(witness re-verified)"
                )

    distinct_valid = len(valid) - len(repeated)

    if enumerated is None:
        enumerated, enumerated_classes = enumerate_2d_antiassociative(ENUM_GRID), None
    if enumerated_classes is None:
        enumerated_classes = partition_into_classes(enumerated)
    reps = [describe_products(enumerated[cls[0]]) for cls in enumerated_classes]
    discrepancies.append(
        f"distinct classes among the listed tables: {distinct_valid} "
        f"(of {len(AUDIT_TABLES)} listed); grid enumeration over "
        f"{{-1,0,1}} yields {len(enumerated_classes)} classes"
    )

    return {
        "tables": tables,
        "pairwise": pairwise,
        "distinct_valid_classes": distinct_valid,
        "enumeration": {
            "grid": list(ENUM_GRID),
            "solutions": len(enumerated),
            "classes": len(enumerated_classes),
            "class_sizes": sorted(len(c) for c in enumerated_classes),
            "representatives": reps,
        },
        "discrepancies": discrepancies,
    }


def describe_residual(residual: Sequence[Fraction]) -> str:
    terms = []
    for k, x in enumerate(residual):
        if x == 0:
            continue
        coeff = "" if x == 1 else ("-" if x == -1 else f"{exact_str(x)}*")
        terms.append(f"{coeff}e{k + 1}")
    return " + ".join(terms) if terms else "0"
