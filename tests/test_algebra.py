import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import antiassoc
from antiassoc import (
    Bimodule,
    CheckReport,
    DendriformBimodule,
    DendriformMatchedPairData,
    DendriformStructure,
    Fingerprint,
    IsoVerdict,
    MatchedPairData,
    StructureAlgebra,
    Violation,
    anticommutator_algebra,
    basis_product,
    check_mock_lie,
    check_q_associative,
    check_quartic_vanishing,
    fingerprint,
    mult_operators,
    multiply,
)
from antiassoc import io
from antiassoc.bimodules import action_of
from antiassoc.classify2d import describe_residual
from antiassoc.linalg import DimensionMismatch, Matrix, Tensor3, basis_vec, exact_str

from .support import nilpotent_algebra, valid_algebra

ZERO2 = StructureAlgebra.zero(2, -1)
E1E1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
E2E1 = StructureAlgebra.from_products(2, -1, {(2, 1): {2: 1}})
E2E2 = StructureAlgebra.from_products(2, -1, {(2, 2): {1: 1}})


def test_q_zero_rejected():
    with pytest.raises(ValueError):
        StructureAlgebra.zero(2, 0)


def test_from_products_is_one_indexed():
    assert E1E1.c[0][0][1] == 1
    assert basis_product(E1E1, 0, 0) == [0, 1]


def test_published_2d_tables():
    assert check_q_associative(ZERO2).passed
    assert check_q_associative(E1E1).passed
    assert check_q_associative(E2E2).passed
    rep = check_q_associative(E2E1)
    assert not rep.passed
    assert [(v.indices, v.residual) for v in rep.violations] == [
        ((2, 1, 1), [Fraction(0), Fraction(1)])
    ]


def test_report_info_counts_triples():
    rep = check_q_associative(E1E1)
    assert rep.info["triples"] == 8
    assert rep.info["q"] == "-1"


def test_multiply_bilinear():
    x = [Fraction(2), Fraction(0)]
    y = [Fraction(3), Fraction(0)]
    assert multiply(E1E1, x, y) == [Fraction(0), Fraction(6)]


def test_mult_operators_agree_with_multiply():
    L, R = mult_operators(E1E1)
    for i in range(2):
        for j in range(2):
            ei, ej = basis_vec(2, i), basis_vec(2, j)
            assert action_of(L, ei).apply(ej) == multiply(E1E1, ei, ej)
            assert action_of(R, ej).apply(ei) == multiply(E1E1, ei, ej)


def test_mult_operators_are_fresh_tables():
    """A multiplication table refuses every write, so no edit of it can
    reach the algebra's c, which L is."""
    A = StructureAlgebra.from_products(2, -1, {(1, 2): {1: 3}})
    L, R = mult_operators(A)
    assert L is A.c
    for T, (i, j) in ((L, (0, 1)), (R, (1, 0))):
        with pytest.raises(TypeError):
            T[i][j][0] += 1
        with pytest.raises(TypeError):
            T.entries = ()
    assert A.c == StructureAlgebra.from_products(2, -1, {(1, 2): {1: 3}}).c


@given(st.integers(0, 2**30), st.sampled_from(["1", "-1", "2", "-1/2"]))
@settings(max_examples=40, deadline=None)
def test_nilpotent_algebras_q_associative_for_any_q(seed, q):
    rng = random.Random(seed)
    A = nilpotent_algebra(rng, rng.randrange(2, 5), Fraction(q))
    assert check_q_associative(A).passed


def test_anticommutator_of_e1e1_is_mock_lie():
    out = anticommutator_algebra(E1E1)
    assert check_mock_lie(out).passed
    # symmetrized product keeps the only nonzero entry
    assert basis_product(out, 0, 0) == [0, 1]


def test_quartic_vanishing_on_antiassociative():
    for A in (ZERO2, E1E1, E2E2):
        assert check_quartic_vanishing(A).passed


@pytest.mark.parametrize("t", [Fraction(2), Fraction(1, 3)], ids=["2", "1/3"])
def test_quartic_vanishing_holds_off_q_minus_one(t):
    """Any q-associative algebra with q not in {0, 1} has A^4 = 0: the dim-3
    e1e1 = e2, e1e2 = e3, e2e1 = t e3 passes the q-law at q = t, and with it
    quartic vanishing."""
    A = StructureAlgebra.from_products(3, t, {(1, 1): {2: 1}, (1, 2): {3: 1}, (2, 1): {3: t}})
    assert check_q_associative(A).passed
    assert check_quartic_vanishing(A).passed


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@pytest.mark.parametrize("t", [Fraction(2), Fraction(1, 3)], ids=["2", "1/3"])
@given(st.lists(small_rationals, min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_quartic_vanishing_holds_on_a_transported_family(t, entries):
    """The same family transported by an invertible P, x.y = P(P^-1 x . P^-1 y),
    is a dense table on which the q-law passes exactly at q = t, and with it
    quartic vanishing."""
    P = Matrix([entries[:3], entries[3:6], entries[6:]])
    assume(P.det() != 0)
    X = StructureAlgebra.from_products(3, t, {(1, 1): {2: 1}, (1, 2): {3: 1}, (2, 1): {3: t}})
    Pinv = P.invert()
    cols = [Pinv.column(j) for j in range(3)]
    c = Tensor3([[P.apply(multiply(X, cols[i], cols[j])) for j in range(3)] for i in range(3)])
    assert check_q_associative(StructureAlgebra(3, t, c)).passed
    assert not check_q_associative(StructureAlgebra(3, t + 1, c)).passed
    assert check_quartic_vanishing(StructureAlgebra(3, t, c)).passed


def test_quartic_vanishing_fails_at_q_one():
    """At q = 1 the law is associativity, and e1.e1 = e1 keeps A^4 = A."""
    A = StructureAlgebra.from_products(1, 1, {(1, 1): {1: 1}})
    assert check_q_associative(A).passed
    assert not check_quartic_vanishing(A).passed


def test_quartic_flags_nonvanishing():
    # associative with identity-like behavior: e1 acts as left/right unit
    A = StructureAlgebra.from_products(
        2, -1, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 1): {2: 1}}
    )
    assert not check_quartic_vanishing(A).passed


def test_mock_lie_violations_identify_laws():
    skew = StructureAlgebra.from_products(2, -1, {(1, 2): {1: 1}, (2, 1): {1: -1}})
    rep = check_mock_lie(skew)
    assert not rep.passed
    assert {v.identity_id for v in rep.violations} == {"commutative"}


def test_fingerprint_fields():
    f = fingerprint(E1E1)
    assert (f.dim, f.dim_square, f.dim_left_ann, f.dim_right_ann) == (2, 1, 1, 1)
    assert f.commutative
    g = fingerprint(E2E1)
    assert not g.commutative
    assert fingerprint(ZERO2).dim_square == 0
    assert fingerprint(StructureAlgebra.zero(0, -1)) == Fingerprint(0, 0, 0, 0, True)


@given(st.integers(0, 2**30))
@settings(max_examples=30, deadline=None)
def test_fingerprint_swap_invariant_under_relabel(seed):
    """Permuting the basis must not change the fingerprint."""
    rng = random.Random(seed)
    A = valid_algebra(rng, Fraction(-1))
    n = A.dim
    perm = list(range(n))
    rng.shuffle(perm)
    from antiassoc.linalg import Tensor3

    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t[perm[i]][perm[j]][perm[k]] = A.c.entries[i][j][k]
    B = StructureAlgebra(n, A.q, Tensor3(t, (n, n, n)))
    assert fingerprint(A) == fingerprint(B)


# a q whose numerator is past the interpreter's int-string limit
LONG_Q = Fraction(3**10000, 7)


def test_a_long_q_is_spelled_whole_in_every_report():
    """Each check that reports its q spells it with exact_str, as do the
    document writers and the reprs, where str would raise ValueError."""
    q = LONG_Q
    A, D = StructureAlgebra.zero(1, q), DendriformStructure.zero(1, q)
    M, N = Bimodule.zero(1, 1), DendriformBimodule.zero(1, 1)
    reports = [
        check_q_associative(A),
        antiassoc.check_bimodule(A, M),
        antiassoc.check_q_dendriform(D),
        antiassoc.check_dendriform_bimodule(D, N),
        antiassoc.check_dendriform_matched_pair(DendriformMatchedPairData(D, D, N, N)),
        antiassoc.check_matched_pair(MatchedPairData(A, A, M, M)),
        antiassoc.check_o_operator(A, M, Matrix.zeros(1, 1)),
        antiassoc.check_rota_baxter(A, Matrix.zeros(1, 1)),
    ]
    spelled = exact_str(q)
    for report in reports:
        assert report.passed and report.info["q"] == spelled
        assert repr(report) == f"CheckReport(passed=True, violations=[], info={report.info!r})"
    assert io.algebra_to_doc(A)["q"] == io.dendriform_to_doc(D)["q"] == spelled
    assert repr(A) == f"StructureAlgebra(dim=1, q={spelled})"
    assert repr(D) == f"DendriformStructure(dim=1, q={spelled})"


def test_reprs_spell_long_rationals_whole():
    """A Violation in either form, a CheckReport holding one, a Matrix, an
    isomorphism verdict and a described residual spell a rational past the
    int-string limit whole; ordinary values print as before."""
    big, spelled = LONG_Q.numerator, exact_str(LONG_Q.numerator)
    want = f"Violation(identity_id='a', indices=(1,), residual=[Fraction({spelled}, 7), Fraction(-2, 7)])"
    for v in (Violation("a", (1,), [big, -2], 7), Violation("a", (1,), [LONG_Q, Fraction(-2, 7)])):
        assert repr(v) == want
        assert repr(CheckReport(False, [v], {"q": "-1"})) == (
            f"CheckReport(passed=False, violations=[{want}], info={{'q': '-1'}})")
    short = [Fraction(1, 2), Fraction(-3)]
    assert repr(Violation("b", (1, 2), [2, -12], 4)) == (
        f"Violation(identity_id='b', indices=(1, 2), residual={short!r})")
    assert repr(Matrix([[LONG_Q, "1/2"]])) == f"Matrix[1x2: {exact_str(LONG_Q)} 1/2]"
    assert IsoVerdict("yes", Matrix([[LONG_Q]])).as_dict()["witness"] == [[exact_str(LONG_Q)]]
    assert describe_residual([LONG_Q, 0, -1]) == f"{exact_str(LONG_Q)}*e1 + -e3"


_ONE, _TWO = Tensor3.zeros(1, 1, 1), Tensor3.zeros(1, 2, 2)


@pytest.mark.parametrize("make, name, shape", [
    (lambda t: StructureAlgebra(1, -1, t), "c", (1, 1, 1)),
    (lambda t: DendriformStructure(1, -1, _ONE, t), "c_succ", (1, 1, 1)),
    (lambda t: Bimodule(1, 2, t, _TWO), "l", (1, 2, 2)),
    (lambda t: DendriformBimodule(1, 2, _TWO, _TWO, _TWO, t), "r_prec", (1, 2, 2)),
], ids=["algebra", "dendriform", "bimodule", "dendriform_bimodule"])
def test_every_structure_checks_its_tables_alike(make, name, shape):
    """One table check serves every structure: a table that is not a
    Tensor3 is a TypeError and a wrong shape a DimensionMismatch, each
    naming the table."""
    make(Tensor3.zeros(*shape))
    d1, d2, d3 = shape
    with pytest.raises(TypeError, match=f"^{name}: a table is a Tensor3, got list$"):
        make([[[0] * d3 for _ in range(d2)] for _ in range(d1)])
    with pytest.raises(DimensionMismatch,
                       match=f"^{name}: expected a {d1}x{d2}x{d3} table, got 2x3x3$"):
        make(Tensor3.zeros(2, 3, 3))
