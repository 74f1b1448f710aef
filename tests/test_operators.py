import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    BilinearForm,
    Bimodule,
    NotAnOOperator,
    NotSymplectic,
    StructureAlgebra,
    associated_algebra,
    check_o_operator,
    check_q_dendriform,
    check_rota_baxter,
    compatible_dendriform_from_o_operator,
    dendriform_from_symplectic,
    induced_dendriform_on_module,
    multiply,
    operators,
    regular_bimodule,
)
from antiassoc.linalg import (
    DimensionMismatch,
    Matrix,
    SingularError,
    Tensor3,
    basis_vec,
    dot,
)

from .support import rand_fraction, random_bimodule, random_matrix

E1E1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
TAU = Matrix([["1", "0"], ["0", "1/2"]])


def test_diagonal_rota_baxter_operator():
    assert check_rota_baxter(E1E1, TAU).passed


def test_identity_is_not_rota_baxter_here():
    rep = check_rota_baxter(E1E1, Matrix.identity(2))
    assert not rep.passed
    v = rep.violations[0]
    assert v.identity_id == "rota_baxter"
    assert v.indices == (1, 1)
    assert v.residual == [Fraction(0), Fraction(-1)]


def test_rota_baxter_matches_o_operator_on_regular_bimodule():
    reg = regular_bimodule(E1E1)
    for tau in (TAU, Matrix.identity(2), Matrix.zeros(2, 2)):
        assert (
            check_o_operator(E1E1, reg, tau).passed
            == check_rota_baxter(E1E1, tau).passed
        )


def test_induced_structure_on_module():
    reg = regular_bimodule(E1E1)
    D = induced_dendriform_on_module(E1E1, reg, TAU)
    assert D.q == Fraction(-1)
    assert check_q_dendriform(D).passed
    e1 = basis_vec(2, 0)
    assert D.succ(e1, e1) == [Fraction(0), Fraction(1)]
    assert D.prec(e1, e1) == [Fraction(0), Fraction(1)]
    assert D.star(e1, e1) == [Fraction(0), Fraction(2)]


def test_operator_is_homomorphism_from_induced_product():
    reg = regular_bimodule(E1E1)
    D = induced_dendriform_on_module(E1E1, reg, TAU)
    for i in range(2):
        for j in range(2):
            u, v = basis_vec(2, i), basis_vec(2, j)
            assert multiply(E1E1, TAU.apply(u), TAU.apply(v)) == TAU.apply(D.star(u, v))


def test_refusal_carries_the_report():
    reg = regular_bimodule(E1E1)
    bad = Matrix.identity(2)
    with pytest.raises(NotAnOOperator) as exc:
        induced_dendriform_on_module(E1E1, reg, bad)
    assert not exc.value.report.passed
    assert exc.value.report.violations[0].identity_id == "o_operator"
    forced = induced_dendriform_on_module(E1E1, reg, bad, force=True)
    assert forced.dim == 2


def test_compatible_transport_recovers_the_algebra():
    reg = regular_bimodule(E1E1)
    D = compatible_dendriform_from_o_operator(E1E1, reg, TAU)
    assert check_q_dendriform(D).passed
    assert associated_algebra(D).c == E1E1.c


def test_compatible_transport_needs_invertible_map():
    reg = regular_bimodule(E1E1)
    zero = Matrix.zeros(2, 2)
    assert check_o_operator(E1E1, reg, zero).passed
    with pytest.raises(SingularError):
        compatible_dendriform_from_o_operator(E1E1, reg, zero)


def test_symplectic_split_on_a_double():
    from .support import case3_dendriform
    from antiassoc import DendriformStructure, build_symplectic_double

    double = build_symplectic_double(
        case3_dendriform(Fraction(1, 2)), DendriformStructure.zero(2, -1)
    )
    w = double.form
    D = dendriform_from_symplectic(double.total, w)
    assert check_q_dendriform(D).passed
    total = double.total
    n = total.dim
    e = [basis_vec(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            s = D.succ(e[i], e[j])
            p = D.prec(e[i], e[j])
            for k in range(n):
                assert w.value(s, e[k]) == w.value(e[j], multiply(total, e[k], e[i]))
                assert w.value(p, e[k]) == w.value(e[i], multiply(total, e[j], e[k]))
    summed = [
        [
            [
                D.c_prec.entries[i][j][k] + D.c_succ.entries[i][j][k]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert Tensor3(summed, (n, n, n)) == total.c


def test_degenerate_form_is_singular_even_with_force():
    A = StructureAlgebra.zero(2, -1)
    w = BilinearForm(2, Matrix.zeros(2, 2), "antisymmetric")
    with pytest.raises(SingularError):
        dendriform_from_symplectic(A, w, force=True)


def test_noncyclic_form_is_refused():
    w = BilinearForm(2, Matrix([["0", "1"], ["-1", "0"]]), "antisymmetric")
    with pytest.raises(NotSymplectic) as exc:
        dendriform_from_symplectic(E1E1, w)
    ids = {v.identity_id for v in exc.value.report.violations}
    assert "cyclic" in ids
    forced = dendriform_from_symplectic(E1E1, w, force=True)
    assert forced.dim == 2


def test_forced_induced_split_evaluates_no_products(monkeypatch):
    calls = []
    monkeypatch.setattr(operators, "check_o_operator", lambda *a: calls.append(a))
    T = Matrix([["1", "0", "2"], ["0", "1", "-1"]])
    D = induced_dendriform_on_module(E1E1, Bimodule.zero(2, 3), T, force=True)
    assert D.dim == 3
    assert calls == []


def test_o_operator_check_compiles_each_table_once(monkeypatch):
    """One compile per call, of the four tables c, l, r and T together, the
    same at two (n, m): not one per matrix of an action table, and not one
    per tuple."""
    calls, real = [], operators._at_common_den
    monkeypatch.setattr(operators, "_at_common_den", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(4)
    for n, m in ((2, 4), (3, 2)):
        c = [[[rand_fraction(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        A = StructureAlgebra(n, -1, Tensor3(c))
        M = random_bimodule(rng, A, m)
        T = random_matrix(rng, n, m)
        calls.clear()
        assert not check_o_operator(A, M, T).passed
        assert calls == [(A.c, M.l, M.r, T)]


@pytest.mark.parametrize(
    "split", [induced_dendriform_on_module, compatible_dendriform_from_o_operator]
)
def test_forced_splits_still_check_shapes(split):
    with pytest.raises(DimensionMismatch):  # T maps dim 2, the module has dim 3
        split(E1E1, Bimodule.zero(2, 3), Matrix.identity(2), force=True)
    with pytest.raises(DimensionMismatch):  # T lands in dim 3, A has dim 2
        split(E1E1, Bimodule.zero(2, 2), Matrix.zeros(3, 2), force=True)


def _act(table, x, v):
    """The action of the element with coordinates x on v:
    sum_{k,j} x_k v_j table[k][j], where table[k][j] is e_k acting on e_j."""
    out = [Fraction(0)] * len(v)
    for xk, plane in zip(x, table.entries):
        for vj, fiber in zip(v, plane):
            out = [a + xk * vj * b for a, b in zip(out, fiber)]
    return out


def _invertible(rng, n):
    while True:
        mat = random_matrix(rng, n, n)
        if mat.det() != 0:
            return mat


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_splits_follow_their_formulas(seed):
    """Every basis product of each forced split equals its defining formula,
    on random (mostly invalid) data with module dim and algebra dim apart."""
    rng = random.Random(seed)
    n, m = rng.randrange(1, 5), rng.randrange(1, 5)
    c = [[[rand_fraction(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    A = StructureAlgebra(n, -1, Tensor3(c))
    e = [basis_vec(n, i) for i in range(n)]

    M = random_bimodule(rng, A, m)
    T = random_matrix(rng, n, m)
    D = induced_dendriform_on_module(A, M, T, force=True)
    for u, v in itertools.product([basis_vec(m, i) for i in range(m)], repeat=2):
        assert D.succ(u, v) == _act(M.l, T.apply(u), v)
        assert D.prec(u, v) == _act(M.r, T.apply(v), u)

    M = random_bimodule(rng, A, n)
    S = _invertible(rng, n)
    Sinv = S.invert()
    D = compatible_dendriform_from_o_operator(A, M, S, force=True)
    for x, y in itertools.product(e, repeat=2):
        assert D.succ(x, y) == S.apply(_act(M.l, x, Sinv.apply(y)))
        assert D.prec(x, y) == S.apply(_act(M.r, y, Sinv.apply(x)))

    w = BilinearForm(n, _invertible(rng, n), "general")
    T = w.gram.transpose()
    Tinv = T.invert()
    D = dendriform_from_symplectic(A, w, force=True)
    for x, y in itertools.product(e, repeat=2):
        # (R(x)^T z)_i = <e_i x, z> and (L(y)^T z)_i = <y e_i, z>
        right_t = [dot(multiply(A, ei, x), T.apply(y)) for ei in e]
        left_t = [dot(multiply(A, y, ei), T.apply(x)) for ei in e]
        assert D.succ(x, y) == Tinv.apply(right_t)
        assert D.prec(x, y) == Tinv.apply(left_t)
