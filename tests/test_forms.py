from fractions import Fraction

import pytest

from antiassoc import (
    BilinearForm,
    DendriformStructure,
    StructureAlgebra,
    build_quadratic_double,
    build_symplectic_double,
    check_invariant_symmetric,
    check_symplectic,
    natural_forms,
)
from antiassoc.linalg import DimensionMismatch, Matrix, basis_vec

from .support import case3_dendriform

E1E1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
E2E2 = StructureAlgebra.from_products(2, -1, {(2, 2): {1: 1}})


def test_natural_form_orientations():
    B, w = natural_forms(2)
    e = [basis_vec(4, i) for i in range(4)]
    assert B.value(e[0], e[2]) == 1
    assert B.value(e[2], e[0]) == 1
    assert B.value(e[0], e[1]) == 0
    assert w.value(e[0], e[2]) == -1
    assert w.value(e[2], e[0]) == 1
    assert B.kind == "symmetric"
    assert w.kind == "antisymmetric"
    assert B.nondegenerate() and w.nondegenerate()


def test_natural_forms_of_zero_halves_are_0x0():
    """The double of two zero spaces is the 0-dim space, with 0x0 forms."""
    B, w = natural_forms(0)
    assert (B.dim, B.gram.rows, B.gram.cols, B.kind) == (0, 0, 0, "symmetric")
    assert (w.dim, w.gram.rows, w.gram.cols, w.kind) == (0, 0, 0, "antisymmetric")


def test_kind_is_enforced_against_gram():
    skew = Matrix([[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        BilinearForm(2, skew, "symmetric")
    sym = Matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        BilinearForm(2, sym, "antisymmetric")
    with pytest.raises(ValueError):
        BilinearForm(2, sym, "positive")
    with pytest.raises(DimensionMismatch):
        BilinearForm(3, sym, "symmetric")


def test_value_is_bilinear():
    form = BilinearForm(2, Matrix([[2, 1], ["1/2", 0]]))
    u = [Fraction(1), Fraction(3)]
    v = [Fraction(-2), Fraction(5)]
    w = [Fraction(0), Fraction(7)]
    lhs = form.value(u, [a + b for a, b in zip(v, w)])
    assert lhs == form.value(u, v) + form.value(u, w)
    assert form.value([2 * a for a in u], v) == 2 * form.value(u, v)


def test_quadratic_double_form_is_invariant():
    D = build_quadratic_double(E1E1, StructureAlgebra.zero(2, -1))
    rep = check_invariant_symmetric(D.total, D.form)
    assert rep.passed
    assert rep.info["rank"] == 4
    assert rep.info["nondegenerate"] is True


def test_identity_gram_fails_invariance():
    form = BilinearForm(2, Matrix.identity(2), "symmetric")
    rep = check_invariant_symmetric(E2E2, form)
    assert not rep.passed
    found = {(v.identity_id, v.indices, tuple(v.residual)) for v in rep.violations}
    assert found == {
        ("invariance", (1, 2, 2), (Fraction(-1),)),
        ("invariance", (2, 2, 1), (Fraction(1),)),
    }


def test_symplectic_double_form_is_cyclic():
    D = build_symplectic_double(
        case3_dendriform(Fraction(1, 2)), DendriformStructure.zero(2, -1)
    )
    rep = check_symplectic(D.total, D.form)
    assert rep.passed


def test_degenerate_symplectic_reports_kernel_vector():
    A = StructureAlgebra.zero(2, -1)
    w = BilinearForm(2, Matrix.zeros(2, 2), "antisymmetric")
    rep = check_symplectic(A, w)
    assert not rep.passed
    ids = {v.identity_id for v in rep.violations}
    assert ids == {"nondegenerate"}
    kernel_vec = rep.violations[0].residual
    assert w.gram.apply(kernel_vec) == [Fraction(0), Fraction(0)]
    assert any(x != 0 for x in kernel_vec)
    assert rep.info["rank"] == 0


def test_symmetric_gram_fails_antisymmetry_check():
    A = StructureAlgebra.zero(2, -1)
    w = BilinearForm(2, Matrix.identity(2), "general")
    rep = check_symplectic(A, w)
    ids = {v.identity_id for v in rep.violations}
    assert "antisymmetric" in ids
    diag = [v for v in rep.violations if v.identity_id == "antisymmetric"]
    assert (1, 1) in [v.indices for v in diag]


def test_dimension_mismatch_is_raised():
    B, _ = natural_forms(2)
    with pytest.raises(DimensionMismatch):
        check_invariant_symmetric(E1E1, B)
