"""Order of violations in a report.

Byte-identical JSON output depends on it: violations come in
lexicographic order of their basis indices and, within one index tuple,
in the documented order of the laws.  A matched pair lists its
preconditions first, then equations (1), (2), (5), then (3), (4), (6).
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from antiassoc import (
    Bimodule,
    DendriformBimodule,
    DendriformStructure,
    MatchedPairData,
    StructureAlgebra,
    check_bimodule,
    check_dendriform_bimodule,
    check_matched_pair,
    check_q_associative,
    check_q_dendriform,
)
from antiassoc.linalg import Tensor3

from .support import rand_fraction, random_bimodule, random_matrix

QS = [Fraction(-1), Fraction(2), Fraction(-1, 2)]


def dense_tensor(rng, n):
    return Tensor3(
        [[[rand_fraction(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    )


def dense_algebra(rng, n, q):
    return StructureAlgebra(n, q, dense_tensor(rng, n))


def matrices(rng, count, size):
    return [random_matrix(rng, size, size) for _ in range(count)]


def assert_ordered(violations, laws):
    """Keys (indices, position of the law) strictly increase."""
    keys = [(v.indices, laws.index(v.identity_id)) for v in violations]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=20, deadline=None)
def test_q_associative_order(seed, q):
    rng = random.Random(seed)
    rep = check_q_associative(dense_algebra(rng, rng.randrange(2, 4), q))
    assume(not rep.passed)
    assert_ordered(rep.violations, ["q_assoc"])


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=20, deadline=None)
def test_bimodule_order(seed, q):
    rng = random.Random(seed)
    A = dense_algebra(rng, rng.randrange(1, 4), q)
    rep = check_bimodule(A, random_bimodule(rng, A, rng.randrange(1, 3)))
    assume(not rep.passed)
    assert_ordered(rep.violations, ["l_law", "r_law", "lr_law"])


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=20, deadline=None)
def test_q_dendriform_order(seed, q):
    rng = random.Random(seed)
    n = rng.randrange(2, 4)
    rep = check_q_dendriform(
        DendriformStructure(n, q, dense_tensor(rng, n), dense_tensor(rng, n))
    )
    assume(not rep.passed)
    assert_ordered(rep.violations, ["axiom1", "axiom2", "axiom3"])


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=20, deadline=None)
def test_dendriform_bimodule_order(seed, q):
    rng = random.Random(seed)
    n, m = rng.randrange(1, 4), rng.randrange(1, 3)
    D = DendriformStructure(n, q, dense_tensor(rng, n), dense_tensor(rng, n))
    M = DendriformBimodule(n, m, *(matrices(rng, n, m) for _ in range(4)))
    rep = check_dendriform_bimodule(D, M)
    assume(not rep.passed)
    assert_ordered(rep.violations, [f"law{k}" for k in range(1, 10)])


@given(st.integers(0, 2**30), st.sampled_from(QS))
@settings(max_examples=20, deadline=None)
def test_matched_pair_order(seed, q):
    rng = random.Random(seed)
    n, m = rng.randrange(1, 4), rng.randrange(1, 4)
    A, B = dense_algebra(rng, n, q), dense_algebra(rng, m, q)
    P = MatchedPairData(
        A, B, Bimodule(n, m, matrices(rng, n, m), matrices(rng, n, m)),
        Bimodule(m, n, matrices(rng, m, n), matrices(rng, m, n)),
    )
    rep = check_matched_pair(P)
    assume(not rep.passed)
    ids = [v.identity_id for v in rep.violations]
    pre = [v for v in rep.violations if v.identity_id.startswith("precondition:")]
    half1 = [v for v in rep.violations if v.identity_id in ("eq1", "eq2", "eq5")]
    half2 = [v for v in rep.violations if v.identity_id in ("eq3", "eq4", "eq6")]
    assert rep.violations == pre + half1 + half2
    tags = ["q_assoc:A", "q_assoc:B", "bimodule:A_on_B", "bimodule:B_on_A"]
    blocks = [tags.index(i.split(":", 1)[1].rsplit(":", 1)[0]) for i in ids[: len(pre)]]
    assert blocks == sorted(blocks)
    assert_ordered(half1, ["eq1", "eq2", "eq5"])
    assert_ordered(half2, ["eq3", "eq4", "eq6"])
    assert all(v.indices[0] <= n and max(v.indices[1:]) <= m for v in half1)
    assert all(v.indices[0] <= m and max(v.indices[1:]) <= n for v in half2)
