import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antiassoc import (
    ConstraintSystem,
    StructureAlgebra,
    UNKNOWNS,
    are_isomorphic_dim2,
    check_q_associative,
    describe_products,
    enumerate_2d_antiassociative,
    verify_algebra_isomorphism,
    verify_paper_classification,
)
from antiassoc import classify2d
from antiassoc.algebra import CheckReport, multiply
from antiassoc.classify2d import describe_residual, partition_into_classes
from antiassoc.linalg import DimensionMismatch, Matrix, Tensor3

E1E1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
E2E2 = StructureAlgebra.from_products(2, -1, {(2, 2): {1: 1}})

values = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)])


@given(st.tuples(*([values] * 8)))
@settings(max_examples=120, deadline=None)
def test_residuals_agree_with_verifier(vals):
    assignment = dict(zip(UNKNOWNS, vals))
    res = ConstraintSystem.residuals(assignment)
    assert len(res) == 16
    alg = ConstraintSystem.algebra_from(assignment)
    assert all(x == 0 for x in res) == check_q_associative(alg).passed


def test_singleton_grid_gives_zero_algebra():
    sols = enumerate_2d_antiassociative(["0"])
    assert len(sols) == 1
    assert sols[0].c.is_zero()


def test_two_value_grid():
    sols = enumerate_2d_antiassociative(["0", "1"])
    assert [describe_products(a) for a in sols] == [
        "0",
        "e2.e2 = e1",
        "e1.e1 = e2",
    ]


@pytest.mark.parametrize("grid", [("-1/2", "0", "1/3"), ("0", "1", "5")],
                         ids=["denominators", "numerator"])
def test_integer_enumeration_matches_the_fraction_filter(grid):
    # the reference: every assignment over the grid through the Fraction residuals
    values = sorted(Fraction(g) for g in grid)
    expected = []
    for combo in itertools.product(values, repeat=8):
        assignment = dict(zip(UNKNOWNS, combo))
        if all(r == 0 for r in ConstraintSystem.residuals(assignment)):
            expected.append(ConstraintSystem.algebra_from(assignment).c)
    assert [a.c for a in enumerate_2d_antiassociative(grid)] == expected


def test_enumeration_cross_check_raises(monkeypatch):
    # an explicit raise, so the cross-check also runs under python -O
    monkeypatch.setattr(classify2d, "check_q_associative",
                        lambda alg: CheckReport(passed=False, violations=[]))
    with pytest.raises(RuntimeError, match="disagrees"):
        enumerate_2d_antiassociative(["0"])


def test_full_small_grid_count_and_classes():
    sols = enumerate_2d_antiassociative(["-1", "0", "1"])
    assert len(sols) == 9
    classes = partition_into_classes(sols)
    assert sorted(len(c) for c in classes) == [1, 8]


def test_enumeration_closed_under_basis_swap():
    sols = enumerate_2d_antiassociative(["-1", "0", "1"])
    tensors = [a.c for a in sols]
    swap = Matrix([[0, 1], [1, 0]])
    for a in sols:
        relabeled = [
            [
                [a.c.entries[1 - i][1 - j][1 - k] for k in range(2)]
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert Tensor3(relabeled) in tensors
        assert verify_algebra_isomorphism(
            a, StructureAlgebra(2, -1, Tensor3(relabeled)), swap
        )


def test_swap_witness_between_published_tables():
    v = are_isomorphic_dim2(E1E1, E2E2)
    assert v.status == "yes"
    assert verify_algebra_isomorphism(E1E1, E2E2, v.witness)


def test_fingerprint_separates_zero_algebra():
    v = are_isomorphic_dim2(E1E1, StructureAlgebra.zero(2, -1))
    assert v.status == "no"
    assert "differs" in v.detail
    assert v.witness is None


def test_scaled_tables_get_verified_witnesses():
    # the witnesses need the entries 1/2 and 1/5, which no small grid holds
    for first, second in (
        (E1E1, StructureAlgebra.from_products(2, -1, {(1, 1): {2: 2}})),
        (E2E2, StructureAlgebra.from_products(2, -1, {(2, 2): {1: 5}})),
    ):
        v = are_isomorphic_dim2(first, second)
        assert v.status == "yes"
        assert verify_algebra_isomorphism(first, second, v.witness)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(small_rationals.filter(lambda b: b != 0), st.tuples(*([small_rationals] * 4)))
@settings(max_examples=80, deadline=None)
def test_transported_normal_form_is_isomorphic(b, entries):
    # Y is e1.e1 = b*e2 transported by P: y1.y2 = P(P^-1 y1 . P^-1 y2)
    P = Matrix([entries[:2], entries[2:]])
    assume(P.det() != 0)
    X = StructureAlgebra.from_products(2, -1, {(1, 1): {2: b}})
    Pinv = P.invert()
    cols = [Pinv.column(j) for j in range(2)]
    Y = StructureAlgebra(2, -1, Tensor3(
        [[P.apply(multiply(X, cols[i], cols[j])) for j in range(2)] for i in range(2)]
    ))
    assert check_q_associative(Y).passed
    v = are_isomorphic_dim2(E1E1, Y)
    assert v.status == "yes"
    assert verify_algebra_isomorphism(E1E1, Y, v.witness)
    assert are_isomorphic_dim2(Y, StructureAlgebra.zero(2, -1)).status == "no"


def test_unknown_only_outside_the_theorem():
    # neither table is antiassociative and neither has a nonzero square
    # e_i.e_i, so there is no normal-form basis; the fingerprints agree,
    # and the swap is in fact an isomorphism, so "no" would be wrong
    left = StructureAlgebra.from_products(2, -1, {(2, 1): {2: 1}})
    right = StructureAlgebra.from_products(2, -1, {(1, 2): {1: 1}})
    v = are_isomorphic_dim2(left, right)
    assert v.status == "unknown"
    assert v.witness is None


def test_iso_verdict_as_dict_is_json_ready():
    v = are_isomorphic_dim2(E1E1, E2E2)
    d = v.as_dict()
    assert d["status"] == "yes"
    assert all(isinstance(x, str) for row in d["witness"] for x in row)


def test_dimension_guard():
    with pytest.raises(DimensionMismatch):
        are_isomorphic_dim2(E1E1, StructureAlgebra.zero(3, -1))


def test_describe_residual():
    assert describe_residual([Fraction(0), Fraction(1)]) == "e2"
    assert describe_residual([Fraction(-1), Fraction(1, 2)]) == "-e1 + 1/2*e2"
    assert describe_residual([Fraction(0), Fraction(0)]) == "0"


def test_published_table_audit():
    audit = verify_paper_classification()
    verdicts = {t["label"]: t["passed"] for t in audit["tables"]}
    assert verdicts == {
        "e_i.e_j=0": True,
        "e1.e1=e2": True,
        "e2.e1=e2": False,
        "e2.e2=e1": True,
    }
    failing = [t for t in audit["tables"] if not t["passed"]][0]
    first = failing["violations"][0]
    assert tuple(first["indices"]) == (2, 1, 1)
    assert audit["distinct_valid_classes"] == 2
    assert audit["enumeration"]["solutions"] == 9
    assert audit["enumeration"]["classes"] == 2
    assert audit["enumeration"]["class_sizes"] == [1, 8]
    assert audit["discrepancies"]
    swaps = [p for p in audit["pairwise"] if p["status"] == "yes"]
    assert len(swaps) == 1
    assert {swaps[0]["first"], swaps[0]["second"]} == {"e1.e1=e2", "e2.e2=e1"}


def test_algebra_from_is_grid_independent_of_strings():
    rng = random.Random(2)
    assignment = {k: Fraction(rng.randrange(-2, 3)) for k in UNKNOWNS}
    alg = ConstraintSystem.algebra_from(assignment)
    assert alg.dim == 2
    assert alg.q == Fraction(-1)
    assert alg.c.entries[0][0][0] == assignment["a1"]
