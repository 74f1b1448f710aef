"""The integer kernel against the Fraction reference in tests/reference.py.

Every check that runs on the kernel must give the reference's report
exactly: verdict, ids, indices, residual strings, order and info.  Inputs
are dense, 2-step nilpotent (valid for every q), nilpotent with one entry
bumped, or sparse (dense shapes at a low density, so the route body walks
some basis tuples and skips others); entries have denominators up to 7,
the module dimension differs from the algebra dimension (for a matched
pair, the dimension of B differs from that of A), and dims 0 and 1 are
drawn.  A table is its compiled form: every operation on one, the sparse
loader and the block products the builders lay out must give the
canonical form of the dense Fraction table computed in the test, and no
check, no ``verify`` and no builder compiles a table from entries or
reads a table's Fractions.

The two criteria of doubles.py, which compute in integers of their own
over the lcm D of their tables' denominators, are compared the same way
with their dense Fraction form, also at denominators up to 10^6 and at
half-dim 0; they, with every doubles.py helper they reach, and classify2d
stay off the kernel.  ``fingerprint``, whose ranks come from the integer
fibers, is compared with its Fraction form, which ranks Fraction
matrices.
"""

import ast
import collections
import copy
import inspect
import itertools
import json
import math
import pickle
import random
import re
import sys
import textwrap
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import antiassoc
from antiassoc import (
    BilinearForm,
    Bimodule,
    DendriformBimodule,
    DendriformMatchedPairData,
    DendriformStructure,
    MatchedPairData,
    StructureAlgebra,
    Violation,
)
from antiassoc import algebra, cli, doubles, io, linalg, operators
from antiassoc.io import load_algebra, load_fixture
from antiassoc.linalg import Matrix, Tensor3

from . import reference
from .support import FAMILIES, WIDE, Draw, entry, table

QS = [Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 5), Fraction(-7, 2)]
# The draw-seeded tests skip shrinking: a smaller seed is not a smaller
# input to Draw, so shrinking would only rerun the slow reference.  A
# failure is still reported with the seed that reproduces it.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def inputs(name, draw, q):
    back = draw.swapped()
    if name == "check_q_dendriform":
        return (draw.dendriform(q),)
    if name == "check_dendriform_bimodule":
        return draw.dendriform(q), draw.dendriform_bimodule()
    if name == "check_dendriform_matched_pair":
        D_A, D_B = draw.dendriform(q), back.dendriform(q)
        on_B, on_A = draw.dendriform_bimodule(), back.dendriform_bimodule()
        return (DendriformMatchedPairData(D_A, D_B, on_B, on_A),)
    A = draw.algebra(q)
    if name == "check_matched_pair":
        pair = MatchedPairData(A, back.algebra(q), draw.bimodule(), back.bimodule())
        return (pair,)
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
    "check_matched_pair",
    "check_dendriform_bimodule",
    "check_dendriform_matched_pair",
]
# the checks whose nilpotent draws must pass, so both verdicts are compared
PASS_WHEN_NILPOTENT = CHECKS[-3:]


@pytest.mark.parametrize("name", CHECKS)
@given(
    seed=st.integers(0, 2**30),
    q=st.sampled_from(QS),
    family=st.sampled_from(FAMILIES + ["sparse"]),
    n=st.integers(0, 3),
)
@settings(max_examples=53, deadline=None, phases=NO_SHRINK)
def test_kernel_matches_reference(name, seed, q, family, n):
    rng = random.Random(seed)
    m = rng.choice([k for k in range(4) if k != n])
    args = inputs(name, Draw(rng, family, n, m), q)
    got = getattr(antiassoc, name)(*args)
    want = getattr(reference, name)(*args)
    assert got.as_dict() == want.as_dict()
    if family == "nilpotent" and name in PASS_WHEN_NILPOTENT:
        assert got.passed


def multiples(rng, n) -> Tensor3:
    """A rank-deficient table: every fiber a multiple of one vector, each
    plane's fibers multiples of one vector of that plane, or the planes
    e_i.(-) or (-).e_j multiples of one plane."""
    kind = rng.choice(["fibers", "rows", "left", "right"])
    a, v = [entry(rng) for _ in range(n)], [entry(rng) for _ in range(n)]
    s, m = ([[entry(rng) for _ in range(n)] for _ in range(n)] for _ in range(2))

    def value(i, j, k):
        if kind == "fibers":
            return s[i][j] * v[k]
        if kind == "rows":
            return s[i][j] * m[i][k]
        return a[i] * m[j][k] if kind == "left" else a[j] * m[i][k]

    return Tensor3([[[value(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)],
                   (n, n, n))


@given(seed=st.integers(0, 2**30), family=st.sampled_from(FAMILIES + ["multiples"]),
       n=st.integers(0, 5))
@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
def test_fingerprint_matches_the_fraction_reference(seed, family, n):
    """The ranks read off the integer fibers are those of the Fraction
    matrices, on dims 0 to 5, with denominators 2, 3 and 7 and on
    rank-deficient tables."""
    rng = random.Random(seed)
    q = rng.choice(QS)
    if family == "multiples":
        A = StructureAlgebra(n, q, multiples(rng, n))
    else:
        A = Draw(rng, family, n, n).algebra(q)
    assert algebra.fingerprint(A) == reference.fingerprint(A)


def test_fingerprint_builds_no_matrix(monkeypatch):
    made = []
    init = Matrix.__init__

    def spy(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.Matrix, "__init__", spy)
    Matrix.identity(1)
    assert len(made) == 1  # the spy sees every Matrix built
    A = Draw(random.Random(3), "dense", 5, 5).algebra(Fraction(-1))
    made.clear()
    assert algebra.fingerprint(A) == antiassoc.Fingerprint(5, 5, 0, 0, False)
    assert made == []


@pytest.mark.parametrize("name", PASS_WHEN_NILPOTENT + ["check_bimodule"])
@pytest.mark.parametrize("family", ["dense", "nilpotent"])
@pytest.mark.parametrize("n, m", [(1, 5), (5, 1), (2, 6)])
def test_module_laws_match_reference_past_the_drawn_sizes(name, family, n, m):
    """The module letter u runs over a block of up to 6 vectors, past the
    sizes of 0 to 3 that the draws above reach, and over a block of 1.  At
    q = 2 the two terms of G have distinct integer coefficients, and the
    Fraction reference stays fast enough for these sizes."""
    rng = random.Random(f"{name}:{family}:{n}:{m}")
    args = inputs(name, Draw(rng, family, n, m), Fraction(2))
    got = getattr(antiassoc, name)(*args)
    assert got.as_dict() == getattr(reference, name)(*args).as_dict()
    assert got.passed == (family == "nilpotent")


@given(seed=st.integers(0, 2**30), family=st.sampled_from(FAMILIES + ["sparse"]),
       n=st.integers(0, 5))
@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
def test_quartic_walk_matches_reference(seed, family, n):
    """Quartic vanishing walks only the quintuples whose inner product is
    nonzero; the reference walks all 5n^4.  The reports are equal on dims
    up to 5, past the dims the draws of test_kernel_matches_reference reach."""
    rng = random.Random(seed)
    A = Draw(rng, family, n, 1).algebra(rng.choice(QS))
    got = antiassoc.check_quartic_vanishing(A)
    assert got.as_dict() == reference.check_quartic_vanishing(A).as_dict()


def _spied_evaluations(monkeypatch) -> list:
    """From here on, (shape, triple) for each triple at which the route
    body evaluates G, handed over as (x, y, the z)."""
    evaluated = []
    real = algebra._evaluate

    def spy(Fs, shape, triples, *args):
        evaluated.extend((shape, (x, y, z)) for x, y, zs in triples for z in zs)
        return real(Fs, shape, triples, *args)

    monkeypatch.setattr(algebra, "_evaluate", spy)
    return evaluated


def test_route_body_skips_only_unreachable_tuples(monkeypatch):
    """The route body evaluates G only at the triples some product reaches:
    none for a 2-step nilpotent table, where every product of three
    vanishes, and all n^3 for a table with no zero entry."""
    evaluated = _spied_evaluations(monkeypatch)
    draw = Draw(random.Random(8), "nilpotent", 8, 8)
    A, D = draw.algebra(Fraction(-1)), draw.dendriform(Fraction(-1))
    assert len(A.c.compiled[1][0][0]) > 0  # the table is not zero
    for report in (antiassoc.check_q_associative(A), antiassoc.check_q_dendriform(D),
                   antiassoc.check_bimodule(A, antiassoc.regular_bimodule(A))):
        assert report.passed
    assert evaluated == []
    full = Tensor3([[[Fraction(i + j + k + 1) for k in range(4)] for j in range(4)]
                    for i in range(4)], (4, 4, 4))
    antiassoc.check_q_associative(StructureAlgebra(4, -1, full))
    assert [t for _, t in evaluated] == list(itertools.product(range(4), repeat=3))


def test_a_block_product_is_evaluated_once(monkeypatch):
    """Both matched-pair checks and both builders read every condition,
    precondition and the total's q-law off one evaluation: each triple of
    the block product at most once per shape per call, and none on a
    (nilpotent, zero) pair, where every product of three vanishes."""
    evaluated = _spied_evaluations(monkeypatch)

    def calls(family, zero_dual):
        draw = Draw(random.Random(9), family, 3, 3)
        A, D = draw.algebra(-1), draw.dendriform(-1)
        A_star, D_star = ((StructureAlgebra.zero(3, -1), DendriformStructure.zero(3, -1))
                          if zero_dual else (draw.algebra(-1), draw.dendriform(-1)))
        on_B, on_A = (antiassoc.dual_bimodule(X, antiassoc.regular_bimodule(X))
                      for X in (A, A_star))
        return [
            (antiassoc.check_matched_pair, MatchedPairData(A, A_star, on_B, on_A)),
            (antiassoc.check_dendriform_matched_pair,
             doubles.octuple_from_symplectic_pair(D, D_star)),
            (doubles.build_quadratic_double, A, A_star),
            (doubles.build_symplectic_double, D, D_star),
        ]

    for call, *args in calls("dense", zero_dual=False):
        evaluated.clear()
        call(*args)
        assert evaluated and max(collections.Counter(evaluated).values()) == 1, call.__name__
    for call, *args in calls("nilpotent", zero_dual=True):
        evaluated.clear()
        result = call(*args)
        assert getattr(result, "report", result).passed, call.__name__
        assert evaluated == [], call.__name__


@given(seed=st.integers(0, 2**30), family=st.sampled_from(["dense", "nilpotent"]),
       n=st.integers(0, 3))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
def test_rota_baxter_is_the_o_operator_identity_of_the_regular_bimodule(seed, family, n):
    """The whole report, not only the verdict: the same violations, indices
    and residuals in the same order, under the id rota_baxter."""
    rng = random.Random(seed)
    draw = Draw(rng, family, n, n)
    A, tau = draw.algebra(rng.choice(QS)), draw.map_into(n)
    want = antiassoc.check_o_operator(A, antiassoc.regular_bimodule(A), tau).as_dict()
    for v in want["violations"]:
        v["identity_id"] = "rota_baxter"
    assert antiassoc.check_rota_baxter(A, tau).as_dict() == want


def test_a_map_onto_the_zero_space_runs_its_law_on_every_pair(monkeypatch):
    """T from a 2-dim V onto the zero algebra is a 0x2 matrix, so the
    O-operator identity is evaluated on all 4 basis pairs of V."""
    evaluated = []
    real = operators._run_laws

    def spy(tuples, laws, den):
        laws = [(i, lambda *idx, law=law: evaluated.append(idx) or law(*idx)) for i, law in laws]
        return real(tuples, laws, den)

    monkeypatch.setattr(operators, "_run_laws", spy)
    A, M = StructureAlgebra.zero(0, -1), Bimodule.zero(0, 2)
    assert antiassoc.check_o_operator(A, M, Matrix.zeros(0, 2)).passed
    assert evaluated == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _pair_at_21() -> MatchedPairData:
    """A failing matched pair at q = -1 whose common denominator is 21,
    where A's own is 1 and B's is 7."""
    A = StructureAlgebra(2, -1, Tensor3([[[1, 2], [0, -1]], [[3, 0], [1, 1]]]))
    B = StructureAlgebra(2, -1, Tensor3([[["1/7", 0], ["2/7", 1]], [[0, "-3/7"], [1, 0]]]))
    on_B = Bimodule(2, 2, *(table([Matrix([[1, "1/3"], [0, 2]])] * 2) for _ in "lr"))
    on_A = Bimodule(2, 2, *(table([Matrix([["2/3", 0], [1, -1]])] * 2) for _ in "lr"))
    return MatchedPairData(A, B, on_B, on_A)


def test_matched_pair_preconditions_at_the_pairs_scale():
    """The preconditions run on the pair's tables compiled at the pair's
    common denominator, 21 here, where A's own is 1 and B's is 7: their
    residuals must still equal the reference's exactly."""
    pair = _pair_at_21()
    got = antiassoc.check_matched_pair(pair)
    assert got.as_dict() == reference.check_matched_pair(pair).as_dict()
    tags = {v.identity_id.rsplit(":", 1)[0] for v in got.violations}
    assert {"precondition:q_assoc:A", "precondition:q_assoc:B",
            "precondition:bimodule:A_on_B", "precondition:bimodule:B_on_A"} <= tags


def test_a_kernel_violation_reads_as_the_fractions_it_stands_for():
    """A kernel violation holds its residual as integers over the law's
    scale, D^2 qn qd = -441 here.  Read, it is the reference's Violation of
    Fractions, and the read keeps the integers; a deep copy, a pickle and a
    prefixed copy keep them too and read the same."""
    pair = _pair_at_21()
    got = antiassoc.check_matched_pair(pair).violations
    want = reference.check_matched_pair(pair).violations
    assert got and {v.scale for v in got} == {-441}
    copies = [copy.deepcopy(got)] + [
        pickle.loads(pickle.dumps(got, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    prefixed = algebra._prefixed("tag", got)
    assert {v.scale for copied in [*copies, prefixed] for v in copied} == {-441}
    assert got == want
    assert all(type(v.residual) is list and v.scale == -441 for v in got)
    assert all(type(x) is Fraction for v in got for x in v.residual)
    for copied in copies:
        assert copied == want
    assert [(v.identity_id, v.indices, v.residual) for v in prefixed] == [
        (f"tag:{w.identity_id}", w.indices, w.residual) for w in want
    ]
    # equal by value across forms and scales, and never equal to a tuple
    assert Violation("a", (1,), [2, -3], 4) == Violation("a", (1,), [-1, Fraction(3, 2)], -2)
    assert Violation("a", (1,), [2, -3], 4) == Violation("a", (1,), [Fraction(1, 2), Fraction(-3, 4)])
    assert Violation("a", (1,), [2, -3], 4) != Violation("a", (1,), [2, -3], 5)
    assert Violation("a", (1,), [2], 4) != ("a", (1,), [Fraction(1, 2)])


# drawn residuals: rationals with denominators up to 10^6 and integers,
# then rationals whose numerator is past the int-string limit, which are
# made in the test from drawn denominators, as hypothesis cannot print them
_LONG = 2 * 10 ** ((sys.get_int_max_str_digits() or 4300) + 1) + 1
_RATIONALS = st.lists(
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**6))
    | st.integers(-10**6, 10**6).map(Fraction),
    max_size=6,
)


@given(short=_RATIONALS, long_dens=st.lists(st.integers(-10**6, 10**6).filter(bool), max_size=2))
@example(short=[], long_dens=[])
@example(short=[Fraction(-1, 2), Fraction(0)], long_dens=[3])
@settings(max_examples=50, deadline=None)
def test_reading_a_violation_leaves_its_form(short, long_dens):
    """A violation is stored as integers over one scale: rationals handed
    over with no scale become their numerators over the lcm of their
    denominators.  ``residual``, ``repr``, ``==``, ``as_dict``, the report
    writer, a deep copy, a pickle and a prefixed copy make the Fractions
    without keeping them, so a violation read any of these ways keeps its
    integers over its scale, whichever side of ``==`` it is on."""
    v, w = Violation("a", (1,), [2, -6], 4), Violation("a", (1,), [1, -3], 2)
    r = Violation("a", (1,), [Fraction(1, 2), Fraction(-3, 2)])
    assert repr(v) == repr(w) == repr(r)
    assert (v.entries, v.scale, w.entries, w.scale) == ([2, -6], 4, [1, -3], 2)
    assert v == w and w == v and v == r and r == v and w == r
    assert not v != w
    assert v != Violation("a", (1,), [2, -6], 5) and Violation("a", (1,), [2, -6], 5) != w
    assert (v.entries, v.scale, w.entries, w.scale) == ([2, -6], 4, [1, -3], 2)
    assert v.as_dict() == w.as_dict() == r.as_dict()
    assert (v.entries, v.scale, w.entries, w.scale) == ([2, -6], 4, [1, -3], 2)
    assert v.residual == r.residual and (v.entries, v.scale, r.entries, r.scale) == (
        [2, -6], 4, [1, -3], 2)

    residual = short + [Fraction(_LONG, den) for den in long_dens]
    d = Violation("b", (2, 1), residual)
    scale = math.lcm(*(x.denominator for x in residual))
    assert all(type(a) is int for a in d.entries) and d.scale == scale
    assert d.residual == residual
    form = (list(d.entries), d.scale)
    # protocols 0 and 1 write an int in decimal, which the int-string limit
    # refuses for any int past it, in a violation or not
    copies = [copy.deepcopy(d), *algebra._prefixed("tag", [d])] + [
        pickle.loads(pickle.dumps(d, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ]
    twin = Violation("b", (2, 1), [-3 * a for a in d.entries], -3 * scale)
    assert repr(d) == repr(copies[0])
    assert d == twin and twin == d and d == copies[0]
    assert d.as_dict()["residual"] == [linalg.exact_str(x) for x in residual]
    rep = antiassoc.CheckReport(False, [d, twin])
    assert io.dump_json(rep) == json.dumps(rep.as_dict(), sort_keys=True, indent=2) + "\n"
    assert all((u.entries, u.scale) == form for u in [d, *copies])
    assert (twin.entries, twin.scale) == ([-3 * a for a in form[0]], -3 * scale)


# The two criteria of doubles.py compute in integers over their own D, the
# lcm of the denominators they read off their tables' entries, with each
# residual kept over D^2; they stay off the kernel.  The dense Fraction
# form they replaced is kept in tests/reference.py.  Each draw is a pair
# of halves: dense random ones (failing nearly everywhere), a
# nilpotent half with the zero half (a valid double), or two nilpotent
# halves split alike, which the criteria need not accept.
CRITERIA = [
    ("check_dual_matched_pair_criterion", "dual_matched_pair_criterion"),
    ("check_symplectic_criterion", "symplectic_criterion"),
]
CRITERION_DRAWS = [("dense", 2), ("dense", 3)] + [("zero", n) for n in range(2, 6)] + [
    ("nilpotent", n) for n in range(2, 5)
]


def _halves(name, draw, family):
    """Two q = -1 halves of dimension draw.n for the criterion ``name``."""
    quadratic = name == "check_dual_matched_pair_criterion"
    half = draw.algebra if quadratic else draw.dendriform
    zero = (StructureAlgebra if quadratic else DendriformStructure).zero(draw.n, -1)
    return half(-1), zero if family == "zero" else half(-1)


@pytest.mark.parametrize("name, ref", CRITERIA, ids=[c for c, _ in CRITERIA])
@pytest.mark.parametrize("family, n", CRITERION_DRAWS)
@given(seed=st.integers(0, 2**30))
@settings(max_examples=3, deadline=None, phases=NO_SHRINK)
def test_criteria_match_the_dense_reference(name, ref, family, n, seed):
    rng = random.Random(seed)
    draw = Draw(rng, "dense" if family == "dense" else "nilpotent", n, n)
    halves = _halves(name, draw, family)
    got = getattr(antiassoc, name)(*halves)
    want = getattr(reference, ref)(*halves)
    assert got.violations == want.violations
    assert got.as_dict() == want.as_dict()
    if family == "zero":
        assert got.passed


FIXTURES = resources.files("antiassoc") / "fixtures"


@pytest.mark.parametrize(
    "source", sorted(p.name for p in FIXTURES.iterdir() if p.name.endswith(".json"))
)
def test_criteria_match_the_dense_reference_on_the_paper_fixtures(source):
    fx = load_fixture(str(FIXTURES / source))
    name, ref = CRITERIA[0] if fx.kind == "quadratic" else CRITERIA[1]
    got = getattr(antiassoc, name)(*fx.halves)
    want = getattr(reference, ref)(*fx.halves)
    assert got.violations == want.violations
    assert got.as_dict() == want.as_dict()


def _far_table(rng, d1: int, d2: int, d3: int) -> Tensor3:
    """A dense table of the given shape, about a third of it zero, with
    denominators up to 10^6."""
    return Tensor3([[[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 10**6]))
                      if rng.random() < 0.7 else Fraction(0) for _ in range(d3)]
                     for _ in range(d2)] for _ in range(d1)], (d1, d2, d3))


def _far_halves(name: str, rng, n: int) -> tuple:
    """Two q = -1 halves of dimension n for the criterion ``name``, their
    tables built by ``_far_table``, with the lcm of their denominators."""
    k = 1 if name == "check_dual_matched_pair_criterion" else 2
    tables = [[_far_table(rng, n, n, n) for _ in range(k)] for _ in "AB"]
    den = math.lcm(*(x.denominator for half in tables for t in half
                     for plane in t.entries for f in plane for x in f))
    cls = StructureAlgebra if k == 1 else DendriformStructure
    return tuple(cls(n, -1, *half) for half in tables), den


@pytest.mark.parametrize("name, ref", CRITERIA, ids=[c for c, _ in CRITERIA])
@given(seed=st.integers(0, 2**30), n=st.integers(2, 3))
@example(seed=0, n=2)
@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
def test_criteria_match_the_reference_at_wide_denominators(name, ref, seed, n):
    """Entries mix denominators up to 10^6, so a criterion's D reaches
    3 * 7 * 10^6.  Each equation violation holds its residual as
    integers over D^2 before anything reads it, so no Fraction is made per
    residual, and the report is the reference's, in value and in bytes."""
    halves, D = _far_halves(name, random.Random(seed), n)
    got = getattr(antiassoc, name)(*halves)
    equations = [v for v in got.violations if not v.identity_id.startswith("precondition:")]
    assert all(v.scale == D * D and all(type(a) is int for a in v.entries) for v in equations)
    want = getattr(reference, ref)(*halves)
    assert got.violations == want.violations
    assert io.dump_json(got) == io.dump_json(want)
    assert got.as_dict() == want.as_dict()
    assert all(v.scale == D * D for v in equations)


@pytest.mark.parametrize("name, ref", CRITERIA, ids=[c for c, _ in CRITERIA])
def test_doubles_of_0_dim_halves(name, ref):
    """Half-dim 0 has no entry and no tuple, so a criterion's D is the lcm
    of no denominators, 1.  Both criteria pass, as the reference's do, and
    so do both builders."""
    quadratic = name == "check_dual_matched_pair_criterion"
    half = (StructureAlgebra if quadratic else DendriformStructure).zero(0, -1)
    got = getattr(antiassoc, name)(half, half)
    want = getattr(reference, ref)(half, half)
    assert got.passed and want.passed and got.as_dict() == want.as_dict()
    build = antiassoc.build_quadratic_double if quadratic else antiassoc.build_symplectic_double
    built = build(half, half)
    assert built.report.passed and built.total.dim == 0


def _canonical(dense) -> tuple:
    """The compiled form of dense lists of rationals, read off them here:
    the lcm d of their denominators and each fiber's nonzero (k, d * x)."""
    d = math.lcm(*(Fraction(x).denominator for plane in dense for f in plane for x in f))
    return d, [[[(k, Fraction(x).numerator * (d // Fraction(x).denominator))
                 for k, x in enumerate(f) if x] for f in plane] for plane in dense]


def _fibers_at(t: Tensor3, D: int) -> list:
    """The compiled fibers of t at D, a multiple of its own d, rescaled here."""
    d, F = t.compiled
    return [[[(k, a * (D // d)) for k, a in f] for f in plane] for plane in F]


def assert_is_the_table(t: Tensor3, dense, shape: tuple) -> None:
    """t is the table of the dense lists ``dense``: the same shape, compiled
    form, entries and value as the dense constructor gives, the form is the
    canonical one, and the dense constructor rebuilds t from its entries."""
    want = Tensor3(dense, shape)
    assert (t.d1, t.d2, t.d3) == shape
    assert t.compiled == want.compiled == _canonical(dense)
    assert t.entries == want.entries
    assert t == want and Tensor3(t.entries, shape) == t


def assert_is_a_view(t: Tensor3) -> None:
    """The entries of t, built from its compiled form, hold one Fraction
    object per distinct value, so one shared zero."""
    flat = [x for plane in t.entries for f in plane for x in f]
    assert all(type(x) is Fraction for x in flat)
    assert len({id(x) for x in flat}) == len(set(flat))


_VALUES = st.just(Fraction(0)) | st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7, 999983, 10**6]))


@st.composite
def table_pairs(draw):
    """(shape, e, u): two dense lists of Fractions of one shape, any axis
    possibly empty."""
    shape = tuple(draw(st.integers(0, 3)) for _ in range(3))
    d1, d2, d3 = shape
    size = d1 * d2 * d3

    def dense():
        flat = iter(draw(st.lists(_VALUES, min_size=size, max_size=size)))
        return [[[next(flat) for _ in range(d3)] for _ in range(d2)] for _ in range(d1)]

    return shape, dense(), dense()


_HALF, _TINY = Fraction(1, 2), Fraction(-1, 10**6)


@given(table_pairs(), st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                st.sampled_from([1, 2, 7, 10**6])))
@example(((2, 0, 3), [[], []], [[], []]), Fraction(3, 7))
@example(((1, 2, 2), [[[_HALF, 0], [0, _TINY]]], [[[_HALF, _HALF], [0, -_TINY]]]), Fraction(-2))
@settings(max_examples=150, deadline=None)
def test_every_operation_builds_the_canonical_form(tables, s):
    """Each operation on the integers gives the table of the dense Fraction
    result computed here, at its least d: on a table built dense and one
    built sparse from the same values (zero values among them, keys out of
    order), with empty axes, for scale by 0, 1, -1 and p/r, and for sums
    with a drawn table and with the negation, which cancels every entry."""
    shape, e, other = tables
    d1, d2, d3 = shape
    r1, r2, r3 = range(d1), range(d2), range(d3)
    fibers = {(i, j): dict(reversed(list(enumerate(e[i][j])))) for i in r1 for j in r2
              if any(e[i][j])}
    results = []
    for t in (Tensor3(e, shape), Tensor3.from_sparse(shape, fibers)):
        assert_is_the_table(t, e, shape)
        results.append((t, e, shape))
        results.append((t.swapped(), [[e[i][j] for i in r1] for j in r2], (d2, d1, d3)))
        results.append((t.transposed(), [[[e[i][j][k] for j in r2] for k in r3] for i in r1],
                        (d1, d3, d2)))
        for c in (0, 1, -1, s):
            results.append((t.scale(c), [[[c * x for x in f] for f in p] for p in e], shape))
        for u in (other, [[[-x for x in f] for f in p] for p in e]):
            total = [[[x + y for x, y in zip(f, g)] for f, g in zip(p, q)] for p, q in zip(e, u)]
            results.append((t + Tensor3(u, shape), total, shape))
    for t, dense, shape in results[1:]:
        assert_is_a_view(t)
        assert_is_the_table(t, dense, shape)


@given(seed=st.integers(0, 2**30), n=st.integers(0, 3), m=st.integers(0, 3))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
def test_join_is_the_compiled_block_tensor(seed, n, m):
    """``_block_tensor`` lays its pieces out as the bowtie formula does, a
    None piece as zero: it is the table of the formula's dense Fractions,
    and its compiled form is the route body's ``_join`` of the compiled
    pieces.  The table of each of the four builders of a block product is
    canonical too."""
    rng = random.Random(seed)
    shapes = [(n, n, n), (m, m, m), (n, m, m), (n, m, m), (m, n, n), (m, n, n)]
    pieces = [_far_table(rng, *shape) for shape in shapes]
    semidirect = pieces[:1] + [None] + pieces[2:4] + [None, None]
    some = pieces[:1] + [t if rng.random() < 0.5 else None for t in pieces[1:]]
    for chosen in (pieces, semidirect, some):
        t = algebra._block_tensor(n, m, *chosen)
        D = math.lcm(*(p.compiled[0] for p in chosen if p is not None))
        compiled = (None if p is None else _fibers_at(p, D) for p in chosen)
        assert t.compiled == (D, algebra._join(n, m, *compiled))
        cA, cB, la, ra, lb, rb = (Tensor3.zeros(*shape) if p is None else p
                                  for p, shape in zip(chosen, shapes))
        want = [[None] * (n + m) for _ in range(n + m)]
        for p, s in itertools.product(range(n + m), repeat=2):
            if p < n and s < n:
                want[p][s] = cA[p][s] + (0,) * m
            elif p < n:
                want[p][s] = rb[s - n][p] + la[p][s - n]
            elif s < n:
                want[p][s] = lb[p - n][s] + ra[s][p - n]
            else:
                want[p][s] = (0,) * n + cB[p - n][s - n]
        assert_is_the_table(t, want, (n + m,) * 3)
    A, B = StructureAlgebra(n, -1, pieces[0]), StructureAlgebra(m, -1, pieces[1])
    on_B, on_A = Bimodule(n, m, *pieces[2:4]), Bimodule(m, n, *pieces[4:])
    D_A, D_B = (DendriformStructure(k, -1, _far_table(rng, k, k, k), _far_table(rng, k, k, k))
                for k in (n, m))
    don_B = DendriformBimodule(n, m, *(_far_table(rng, n, m, m) for _ in range(4)))
    don_A = DendriformBimodule(m, n, *(_far_table(rng, m, n, n) for _ in range(4)))
    S = antiassoc.dendriform_semidirect(D_A, don_B)
    T = antiassoc.dendriform_bowtie(DendriformMatchedPairData(D_A, D_B, don_B, don_A))
    built = [antiassoc.semidirect_product(A, on_B).c,
             antiassoc.bowtie(MatchedPairData(A, B, on_B, on_A)).c,
             S.c_prec, S.c_succ, T.c_prec, T.c_succ]
    for t in built:
        assert_is_the_table(t, t.entries, (n + m,) * 3)


def _counted(monkeypatch) -> tuple[list, list]:
    """From here on, the tables compiled from dense entries, by the dense
    constructor, and the tables whose entries view is built from their
    compiled form; no other code path makes either."""
    compiles, views = [], []
    init, view = Tensor3.__init__, Tensor3._view

    def counted_init(t, *args, **kwargs):
        compiles.append(t)
        init(t, *args, **kwargs)

    monkeypatch.setattr(Tensor3, "__init__", counted_init)
    monkeypatch.setattr(Tensor3, "_view", lambda t: views.append(t) or view(t))
    return compiles, views


def _structure_doc(n: int, tables: dict, sparse: bool) -> dict:
    """A structure document with the product tables ``tables`` by key (c, or
    prec and succ), each spelled sparse or dense."""
    doc = {"dim": n, "q": "-1"}
    for key, t in tables.items():
        if not sparse:
            doc[key] = io.tensor_doc(t)
            continue
        d, F = t.compiled
        doc["products" if key == "c" else f"{key}_products"] = [
            {"i": i + 1, "j": j + 1, "out": {str(k + 1): str(Fraction(a, d)) for k, a in f}}
            for i, plane in enumerate(F) for j, f in enumerate(plane) if f
        ]
    return doc


def _actions_doc(M: Bimodule, keys=("l", "r")) -> dict:
    return {key: io.tensor_doc(t.transposed()) for key, t in zip(keys, (M.l, M.r))}


def _verify_documents(sparse: bool) -> dict:
    """For each kind of ``verify``, a document on sparse draws and the
    number of its tables spelled dense: its product tables when not
    ``sparse``, and its action tables, which documents spell dense only."""
    draw = Draw(random.Random(7), "sparse", 3, 2)
    back = draw.swapped()
    A, B, D = draw.algebra(-1), back.algebra(-1), draw.dendriform(-1)
    M, N = draw.bimodule(), back.bimodule()
    g = draw.matrix(3, 3, lambda _: True, lambda _: True)
    dense = 0 if sparse else 1
    a, b = (_structure_doc(X.dim, {"c": X.c}, sparse) for X in (A, B))
    return {
        "algebra": (a, dense),
        "dendriform": (_structure_doc(3, {"prec": D.c_prec, "succ": D.c_succ}, sparse),
                       2 * dense),
        "bimodule": ({"algebra": a, "module_dim": 2, **_actions_doc(M)}, dense + 2),
        "matched-pair": ({"A": a, "B": b, **_actions_doc(M, ("lA", "rA")),
                          **_actions_doc(N, ("lB", "rB"))}, 2 * dense + 4),
        "form": ({"algebra": a, "form": io.form_to_doc(
            BilinearForm(3, g + g.transpose(), "symmetric"))}, dense),
        "o-operator": ({"algebra": a, "bimodule": {"module_dim": 2, **_actions_doc(M)},
                        "T": io.matrix_doc(draw.map_into(2))}, dense + 2),
        "rota-baxter": ({"algebra": a, "tau": io.matrix_doc(draw.map_into(3))}, dense),
    }


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_verify_reads_no_fraction_of_a_table(monkeypatch, tmp_path, capsys, sparse):
    """``verify`` of every kind builds no entries view: the checks, the
    fingerprint and the report read the compiled forms alone.  Each table
    a document spells dense is compiled exactly once, at load, and one
    spelled sparse never."""
    documents = _verify_documents(sparse)
    compiles, views = _counted(monkeypatch)
    for kind, (doc, tables) in documents.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        compiles.clear()
        assert cli.run(["verify", kind, str(path), "--json"]) in (0, 1), kind
        assert "passed" in json.loads(capsys.readouterr().out)
        assert (len(compiles), len({id(t) for t in compiles}), views) == (tables, tables, []), kind


def test_checks_and_builders_compile_nothing(monkeypatch, tmp_path, capsys):
    """Every check on dense draws, and the regular bimodule check of a
    sparse-loaded algebra, compiles no table and builds no entries view.
    The builders of both doubles compile nothing and build no entries view,
    the total's included: they read every table in integers.  ``build
    bowtie`` compiles nothing past the tables of its input."""
    draw = Draw(random.Random(5), "dense", 3, 2)
    calls = [(getattr(antiassoc, name), inputs(name, draw, Fraction(-1))) for name in CHECKS]
    rng = random.Random(6)
    products = [(i, j, {str(k): str(rng.choice(WIDE)) for k in rng.sample(range(1, 7), 3)})
                for i in range(1, 7) for j in range(1, 7) if rng.random() < 0.4]
    A = load_algebra(_sparse_document(tmp_path / "a.json", 6, products))
    calls.append((antiassoc.check_bimodule, (A, antiassoc.regular_bimodule(A))))
    compiles, views = _counted(monkeypatch)
    for check, args in calls:
        check(*args)
        assert (compiles, views) == ([], []), check.__name__
    pair = tmp_path / "pair.json"
    on_B, on_A = draw.bimodule(), draw.swapped().bimodule()
    pair.write_text(json.dumps({
        "A": io.algebra_to_doc(draw.algebra(-1)),
        "B": io.algebra_to_doc(draw.swapped().algebra(-1)),
        **_actions_doc(on_B, ("lA", "rA")), **_actions_doc(on_A, ("lB", "rB")),
    }))
    halves = draw.algebra(-1), draw.algebra(-1)
    dendriform_halves = draw.dendriform(-1), draw.dendriform(-1)
    compiles.clear()
    views.clear()
    assert not doubles.build_quadratic_double(*halves).report.passed
    assert not doubles.build_symplectic_double(*dendriform_halves).report.passed
    assert (compiles, views) == ([], [])
    assert cli.run(["build", "bowtie", str(pair)]) == 1
    assert json.loads(capsys.readouterr().out)["algebra"]["dim"] == 5
    assert sorted((t.d1, t.d2, t.d3) for t in compiles) == [
        (2, 2, 2), (2, 3, 3), (2, 3, 3), (3, 2, 2), (3, 2, 2), (3, 3, 3)]


def _sparse_document(path, n: int, products) -> str:
    path.write_text(json.dumps({"dim": n, "q": "-1", "products": [
        {"i": i, "j": j, "out": out} for i, j, out in products]}))
    return str(path)


def _spelled(p: int, d: int) -> str:
    return str(p) if d == 1 else f"{p}/{d}"


@st.composite
def sparse_documents(draw):
    """(dim, products) of a sparse document: explicit zero values, out keys
    in any order, unreduced spellings and denominators up to 10^6."""
    n = draw(st.integers(0, 4))
    value = st.tuples(st.one_of(st.just(0), st.integers(-9, 9)),
                      st.sampled_from([1, 2, 3, 7, 10**6]))
    index = st.integers(1, max(n, 1))
    pairs = draw(st.lists(st.tuples(index, index), unique=True)) if n else []
    products = []
    for i, j in pairs:
        ks = draw(st.lists(index, unique=True))
        products.append({"i": i, "j": j, "out": {str(k): _spelled(*draw(value)) for k in ks}})
    return n, products


@given(sparse_documents())
@example((3, [{"i": 2, "j": 1, "out": {"3": "1/2", "1": "0", "2": "-5/1000000"}},
              {"i": 1, "j": 1, "out": {"2": "0/7"}}]))
@example((0, []))
@example((1, [{"i": 1, "j": 1, "out": {"1": "-3/3"}}]))
@settings(max_examples=100, deadline=None)
def test_sparse_loader_builds_the_dense_paths_form(tmp_path_factory, document):
    """The sparse loader, which builds only integers, and the dense loader,
    which compiles the document's entries, give one compiled form, so
    equal tables with equal entries."""
    n, products = document
    c = [[["0"] * n for _ in range(n)] for _ in range(n)]
    for item in products:
        for k, x in item["out"].items():
            c[item["i"] - 1][item["j"] - 1][int(k) - 1] = x
    where = tmp_path_factory.mktemp("documents")
    sparse, dense = where / "sparse.json", where / "dense.json"
    sparse.write_text(json.dumps({"dim": n, "q": "-1", "products": products}))
    dense.write_text(json.dumps({"dim": n, "q": "-1", "c": c}))
    loaded, reference_table = load_algebra(str(sparse)).c, load_algebra(str(dense)).c
    assert loaded.compiled == reference_table.compiled == _canonical(reference_table.entries)
    assert loaded == reference_table and loaded.entries == reference_table.entries


@given(seed=st.integers(0, 2**30), n=st.integers(0, 3), m=st.integers(0, 3))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
def test_fiber_sum_is_the_compiled_sum(seed, n, m):
    """Compiled tables added in integers are the Fraction sum of their
    entries, made here, compiled at the tables' common D, also where every
    entry cancels, as for the dendriform star products."""
    draw = Draw(random.Random(seed), "dense", n, m)
    for a, b in ((draw.tensor(), draw.tensor()), (draw.actions(), draw.actions())):
        for b in (b, a.scale(-1)):
            D = math.lcm(a.compiled[0], b.compiled[0])
            total = [[[x + y for x, y in zip(f, g)] for f, g in zip(p, q)]
                     for p, q in zip(a.entries, b.entries)]
            want = [[[(k, x.numerator * (D // x.denominator)) for k, x in enumerate(f) if x]
                     for f in plane] for plane in total]
            assert linalg._fiber_sum(_fibers_at(a, D), _fibers_at(b, D)) == want


_PRIMES = [2, 3, 7, 101, 999983]


@st.composite
def scaled_tables(draw):
    """Up to five tables, each a Tensor3 (any axis possibly empty, zero
    tables among them), a Matrix (0 x m among them) or None, with entries
    over one shared prime denominator or over distinct ones."""
    shared = draw(st.sampled_from([None, *_PRIMES]))

    def value():
        den = shared or draw(st.sampled_from(_PRIMES))
        return Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, den])))

    tables = []
    for kind in draw(st.lists(st.sampled_from(["tensor", "zero", "matrix", None]), max_size=5)):
        d1, d2, d3 = (draw(st.integers(0, 3)) for _ in range(3))
        if kind == "tensor":
            tables.append(Tensor3([[[value() for _ in range(d3)] for _ in range(d2)]
                                   for _ in range(d1)], (d1, d2, d3)))
        elif kind == "zero":
            tables.append(Tensor3.zeros(d1, d2, d3))
        elif kind == "matrix":
            tables.append(Matrix([[value() for _ in range(d2)] for _ in range(d1)], (d1, d2)))
        else:
            tables.append(None)
    return tables


def _dense(t) -> list[Fraction]:
    """Every entry of a Tensor3 or a Matrix, read off its dense entries."""
    if isinstance(t, Matrix):
        return [x for row in t.entries for x in row]
    return [x for plane in t.entries for f in plane for x in f]


@given(scaled_tables())
@example([Tensor3.zeros(2, 0, 3), Matrix([], (0, 3)), None,
          Tensor3([[[Fraction(1, 2), Fraction(1, 3)]]]), Matrix([[Fraction(-5, 7)]])])
@settings(max_examples=150, deadline=None)
def test_at_common_den_is_each_table_at_the_lcm(tables):
    """D is the lcm of every entry's denominator, each table comes back as
    its dense entries times D (a Tensor3 as its nonzero fiber pairs, a
    Matrix as integer rows, None as None), and a Tensor3 whose own d is D
    is handed out as its own fiber lists."""
    D, scaled = linalg._at_common_den(*tables)
    assert D == math.lcm(*(x.denominator for t in tables if t is not None for x in _dense(t)))
    for t, got in zip(tables, scaled, strict=True):
        if t is None:
            assert got is None
        elif isinstance(t, Matrix):
            assert got == [[int(x * D) for x in row] for row in t.entries]
            assert all(type(a) is int for row in got for a in row)
        else:
            assert got == [[[(k, int(x * D)) for k, x in enumerate(f) if x] for f in plane]
                           for plane in t.entries]
            assert (got is t.compiled[1]) == (t.compiled[0] == D)


KERNEL_NAMES = [
    "_at_common_den", "_columns", "_imul", "_iapply", "_nonzero", "_basis", "_on_basis",
    "_join", "_compiled_blocks", "_route_violations", "_plan", "_reached", "_reaching",
    "_evaluate", "_block_read", "_fiber_sum", "compiled",
]


def test_kernel_names_resolve():
    """A name that no longer exists would pass the scan below unchecked.
    ``compiled``, a table's compiled form, is the one the kernel reads off
    Tensor3; ``_fiber_sum``, the integer sum of two such forms, and
    ``_at_common_den``, the one rule for a check's denominator, are
    linalg's."""
    assert [name for name in KERNEL_NAMES
            if not any(hasattr(home, name) for home in (algebra, linalg, Tensor3))] == []


def _with_doubles_helpers(fn) -> list:
    """``fn`` and every doubles.py function it calls, directly or through
    another such function."""
    found, todo = [], [fn]
    while todo:
        f = todo.pop()
        if f in found:
            continue
        found.append(f)
        tree = ast.parse(textwrap.dedent(inspect.getsource(f)))
        for name in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}:
            g = getattr(doubles, name, None)
            if inspect.isfunction(g) and g.__module__ == doubles.__name__:
                todo.append(g)
    return found


@pytest.mark.parametrize(
    "oracle",
    [
        antiassoc.classify2d,
        antiassoc.check_dual_matched_pair_criterion,
        antiassoc.check_symplectic_criterion,
    ],
    ids=lambda o: o.__name__,
)
def test_independent_oracles_stay_off_the_kernel(oracle):
    """The hand-expanded residuals of classify2d and the two criteria in
    doubles.py are checked against the kernel path; sharing the kernel
    would let one bug pass both.  A criterion is scanned together with
    every doubles.py helper it reaches, so no kernel name enters through
    a helper."""
    if inspect.ismodule(oracle):
        sources = [inspect.getsource(oracle)]
    else:
        helpers = _with_doubles_helpers(oracle)
        assert doubles._require_halves in helpers  # the scan follows calls
        sources = [inspect.getsource(f) for f in helpers]
    used = {name for source in sources for name in KERNEL_NAMES
            if re.search(rf"\b{name}\b", source)}
    assert used == set()
