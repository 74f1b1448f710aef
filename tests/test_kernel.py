"""The integer kernel against the Fraction reference in tests/reference.py.

Every check that runs on the kernel must give the reference's report
exactly: verdict, ids, indices, residual strings, order and info.  Inputs
are dense, 2-step nilpotent (valid for every q), nilpotent with one entry
bumped, or sparse (dense shapes at a low density, so the route body walks
some basis tuples and skips others); entries have denominators up to 7,
the module dimension differs from the algebra dimension (for a matched
pair, the dimension of B differs from that of A), and dims 0 and 1 are
drawn.  Each check also compiles every table at most once, whatever the
dimensions and the number of tuples, and a table the sparse loader built
is handed its compiled form, which must be the one its dense twin
compiles.  So is a block product the builders lay out, whose compiled
form is the join of its compiled pieces.

The two criteria of doubles.py, sparse Fraction lookups, are compared
the same way with their dense form, and they, with every doubles.py
helper they reach, and classify2d stay off the kernel.  ``fingerprint``,
whose ranks come from the integer fibers, is compared with its Fraction
form, which ranks Fraction matrices.
"""

import ast
import copy
import inspect
import itertools
import json
import pickle
import random
import re
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
from .support import SMALL, table

QS = [Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 5), Fraction(-7, 2)]
WIDE = [x for x in SMALL if x] + [Fraction(1, 7), Fraction(-5, 3), Fraction(7, 2)]
FAMILIES = ["dense", "nilpotent", "perturbed"]
# The draw-seeded tests skip shrinking: a smaller seed is not a smaller
# input to Draw, so shrinking would only rerun the slow reference.  A
# failure is still reported with the seed that reproduces it.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def entry(rng, density=0.6):
    return rng.choice(WIDE) if rng.random() < density else Fraction(0)


class Draw:
    """Random inputs of one family.  The nilpotent shapes: A's basis is
    generators (below ``split``) then targets, products of generators land
    in the targets; V splits the same way at ``vsplit``, generators of A
    map V's generators into V's targets, and maps land in A's targets.
    A matched pair takes B on V's space, split at ``vsplit``, with B's
    generators mapping A's generators into A's targets.  Every law of the
    twelve checks then holds for every q, apart from commutativity and the
    nondegeneracy of a symplectic form.  A sparse draw has the dense shapes
    with each entry nonzero at a drawn density in [0.1, 0.5], so a product
    reaches some basis tuples and not others."""

    def __init__(self, rng, family, n, m):
        self.rng, self.family, self.n, self.m = rng, family, n, m
        self.split = rng.randrange(1, n) if n > 1 else n
        self.vsplit = rng.randrange(1, m) if m > 1 else m
        self.density = rng.uniform(0.1, 0.5) if family == "sparse" else 0.6

    def keep(self, *targets) -> bool:
        return self.family in ("dense", "sparse") or all(targets)

    def bump(self, rows):
        """Add a nonzero amount to one random entry of a perturbed input."""
        cells = [(row, k) for row in rows for k in range(len(row))]
        if self.family == "perturbed" and cells:
            row, k = self.rng.choice(cells)
            row[k] += self.rng.choice(WIDE)

    def tensor(self) -> Tensor3:
        n, s = self.n, self.split
        t = [
            [[entry(self.rng, self.density) if self.keep(i < s, j < s, k >= s)
              else Fraction(0) for k in range(n)] for j in range(n)] for i in range(n)
        ]
        self.bump([fiber for plane in t for fiber in plane])
        return Tensor3(t, (n, n, n))

    def matrix(self, rows, cols, row_ok, col_ok) -> Matrix:
        m = [[entry(self.rng, self.density) if self.keep(row_ok(r), col_ok(c))
              else Fraction(0) for c in range(cols)] for r in range(rows)]
        self.bump(m)
        return Matrix(m, (rows, cols))

    def actions(self) -> Tensor3:
        m, vs = self.m, self.vsplit
        return table([
            self.matrix(m, m, lambda r: r >= vs and i < self.split, lambda c: c < vs)
            for i in range(self.n)
        ], m)

    def swapped(self) -> "Draw":
        """The same draw with the roles of A and V exchanged."""
        other = copy.copy(self)
        other.n, other.m, other.split, other.vsplit = self.m, self.n, self.vsplit, self.split
        return other

    def algebra(self, q) -> StructureAlgebra:
        return StructureAlgebra(self.n, q, self.tensor())

    def bimodule(self) -> Bimodule:
        return Bimodule(self.n, self.m, self.actions(), self.actions())

    def dendriform(self, q) -> DendriformStructure:
        return DendriformStructure(self.n, q, self.tensor(), self.tensor())

    def dendriform_bimodule(self) -> DendriformBimodule:
        return DendriformBimodule(self.n, self.m, *(self.actions() for _ in range(4)))

    def map_into(self, src) -> Matrix:
        """An n x src matrix whose columns land in A's targets."""
        return self.matrix(self.n, src, lambda r: r >= self.split, lambda c: True)

    def form(self, sign) -> BilinearForm:
        """A Gram matrix on A's generators, made symmetric (sign 1) or
        antisymmetric (sign -1) in the nilpotent family."""
        s = self.split
        g = self.matrix(self.n, self.n, lambda r: r < s, lambda c: c < s)
        if self.family == "nilpotent":
            g = g + g.transpose().scale(sign)
        return BilinearForm(self.n, g)


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


def test_route_body_skips_only_unreachable_tuples(monkeypatch):
    """The route body hands the runner only the tuples some product reaches:
    none for a 2-step nilpotent table, where every product of three
    vanishes, and all n^3 for a table with no zero entry."""
    handed = []
    real = algebra._run_laws

    def spy(tuples, *args):
        tuples = list(tuples)
        handed.extend(tuples)
        return real(tuples, *args)

    monkeypatch.setattr(algebra, "_run_laws", spy)
    draw = Draw(random.Random(8), "nilpotent", 8, 8)
    A, D = draw.algebra(Fraction(-1)), draw.dendriform(Fraction(-1))
    assert len(A.c.compiled[1][0][0]) > 0  # the table is not zero
    for report in (antiassoc.check_q_associative(A), antiassoc.check_q_dendriform(D),
                   antiassoc.check_bimodule(A, antiassoc.regular_bimodule(A))):
        assert report.passed
    assert handed == []
    full = Tensor3([[[Fraction(i + j + k + 1) for k in range(4)] for j in range(4)]
                    for i in range(4)], (4, 4, 4))
    antiassoc.check_q_associative(StructureAlgebra(4, -1, full))
    assert handed == list(itertools.product(range(4), repeat=3))


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
    Fractions; a deep copy, a pickle and a prefixed copy made before any
    read keep the integers and read the same."""
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
    assert all(type(v.residual) is list and v.scale is None for v in got)
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


# The two criteria of doubles.py read sparse Fraction fibers; the dense
# Matrix form they replaced is kept in tests/reference.py.  Each draw is a
# pair of halves: dense random ones (failing nearly everywhere), a
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


@given(seed=st.integers(0, 2**30), n=st.integers(0, 3), m=st.integers(0, 3))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
def test_join_is_the_compiled_block_tensor(seed, n, m):
    """``_block_tensor`` lays its pieces out as the bowtie formula does, a
    None piece as zero, and the compiled form it hands over, the route
    body's ``_join`` of the compiled pieces, is the one its entries compile
    to.  So is the table of each of the four builders of a block product."""
    rng = random.Random(seed)
    shapes = [(n, n, n), (m, m, m), (n, m, m), (n, m, m), (m, n, n), (m, n, n)]
    pieces = [_far_table(rng, *shape) for shape in shapes]
    semidirect = pieces[:1] + [None] + pieces[2:4] + [None, None]
    some = pieces[:1] + [t if rng.random() < 0.5 else None for t in pieces[1:]]
    for chosen in (pieces, semidirect, some):
        t = algebra._block_tensor(n, m, *chosen)
        D = algebra._common_den(p for p in chosen if p is not None)
        compiled = (None if p is None else algebra._fibers(p, D) for p in chosen)
        assert t.compiled == t._compile() == (D, algebra._join(n, m, *compiled))
        cA, cB, la, ra, lb, rb = (Tensor3.zeros(*shape) if p is None else p
                                  for p, shape in zip(chosen, shapes))
        for p, s in itertools.product(range(n + m), repeat=2):
            if p < n and s < n:
                want = cA[p][s] + (0,) * m
            elif p < n:
                want = rb[s - n][p] + la[p][s - n]
            elif s < n:
                want = lb[p - n][s] + ra[s][p - n]
            else:
                want = (0,) * n + cB[p - n][s - n]
            assert t[p][s] == want, (p, s)
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
        assert t.compiled == t._compile()


# two (n, m) shapes: a compile count that is the same at both is one
# compile per table, not one per matrix of an action table or per tuple
SHAPES = [(2, 3), (3, 1)]


def _counted_compiles(monkeypatch) -> list:
    """The tables compiled from here on, one item per compile made from a
    table's entries; a table handed its compiled form, or compiled
    already, adds none."""
    calls = []
    real = Tensor3._compile
    monkeypatch.setattr(Tensor3, "_compile", lambda t: calls.append(t) or real(t))
    return calls


def _compiles_per_call(monkeypatch, check, make_args):
    """The number of tables that one call of ``check`` compiles on fresh
    dense (failing) inputs, at each of SHAPES."""
    calls = _counted_compiles(monkeypatch)
    counts = []
    for n, m in SHAPES:
        args = make_args(Draw(random.Random(5), "dense", n, m))
        calls.clear()
        assert not check(*args).passed
        counts.append(len(calls))
    return counts


def test_matched_pair_compiles_each_action_once(monkeypatch):
    def make_args(draw):
        back = draw.swapped()
        return (MatchedPairData(draw.algebra(-1), back.algebra(-1),
                                draw.bimodule(), back.bimodule()),)

    counts = _compiles_per_call(monkeypatch, antiassoc.check_matched_pair, make_args)
    # the two structure tensors and on_B.l, on_B.r, on_A.l, on_A.r, shared by
    # the preconditions and the two halves
    assert counts == [6, 6]


def test_dendriform_bimodule_compiles_each_action_once(monkeypatch):
    counts = _compiles_per_call(
        monkeypatch, antiassoc.check_dendriform_bimodule,
        lambda draw: (draw.dendriform(-1), draw.dendriform_bimodule()),
    )
    # prec, succ and the four tables; the star sums are added compiled
    assert counts == [6, 6]


def test_dendriform_matched_pair_compiles_each_action_once(monkeypatch):
    def make_args(draw):
        back = draw.swapped()
        return (DendriformMatchedPairData(
            draw.dendriform(-1), back.dendriform(-1),
            draw.dendriform_bimodule(), back.dendriform_bimodule(),
        ),)

    counts = _compiles_per_call(
        monkeypatch, antiassoc.check_dendriform_matched_pair, make_args
    )
    # each side's two tensors and four tables, shared by the preconditions
    # and the two halves; the star sums are added compiled
    assert counts == [2 * (2 + 4)] * 2


def test_block_builders_hand_their_total_its_compiled_form(monkeypatch, tmp_path, capsys):
    """Both doubles and ``build bowtie`` check the total on the compiled form
    ``_block_tensor`` hands it, so none compiles a table of the total's
    shape from its entries, and none compiles a piece twice."""
    draw = Draw(random.Random(5), "dense", 2, 2)
    on_B, on_A = draw.bimodule(), draw.bimodule()
    pair = tmp_path / "pair.json"
    pair.write_text(io.dump_json({
        "A": io.algebra_to_doc(draw.algebra(-1)), "B": io.algebra_to_doc(draw.algebra(-1)),
        **{key: io.tensor_doc(t.transposed())
           for key, t in zip(["lA", "rA", "lB", "rB"], [on_B.l, on_B.r, on_A.l, on_A.r])},
    }))
    builds = [
        lambda: doubles.build_quadratic_double(draw.algebra(-1), draw.algebra(-1)).report.passed,
        lambda: doubles.build_symplectic_double(
            draw.dendriform(-1), draw.dendriform(-1)).report.passed,
        lambda: cli.run(["build", "bowtie", str(pair)]) == 0,
    ]
    calls = _counted_compiles(monkeypatch)
    for build in builds:
        calls.clear()
        assert not build()
        assert [t for t in calls if (t.d1, t.d2, t.d3) == (4, 4, 4)] == []
        assert 0 < len({id(t) for t in calls}) == len(calls)
    assert json.loads(capsys.readouterr().out)["algebra"]["dim"] == 4


NILPOTENT4 = [(1, 1, {"3": "1/2", "4": "-2/3"}), (1, 2, {"4": "5/7"}), (2, 1, {"3": "-1"}),
              (2, 2, {"4": "3/1000000"})]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_verify_algebra_compiles_its_table_once(monkeypatch, tmp_path, capsys, sparse):
    """The q-law and the fingerprint of ``verify algebra`` share one
    compiled form: made once from a dense document's entries, and handed
    over by the loader for a sparse one."""
    if sparse:
        doc = {"products": [{"i": i, "j": j, "out": out} for i, j, out in NILPOTENT4]}
    else:
        c = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
        for i, j, out in NILPOTENT4:
            for k, x in out.items():
                c[i - 1][j - 1][int(k) - 1] = x
        doc = {"c": c}
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"dim": 4, "q": "-1", **doc}))
    calls = _counted_compiles(monkeypatch)
    assert cli.run(["verify", "algebra", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["fingerprint"]["dim_square"] == 2
    assert len(calls) == (0 if sparse else 1)


def _sparse_document(path, n: int, products) -> str:
    path.write_text(json.dumps({"dim": n, "q": "-1", "products": [
        {"i": i, "j": j, "out": out} for i, j, out in products]}))
    return str(path)


def test_swapped_hands_over_its_compiled_form(tmp_path):
    """A swapped table carries its source's compiled form, re-indexed, and
    it is the form its own entries compile to: on a table the sparse loader
    built, on dense draws compiled first and on tables with an empty axis.
    A table not compiled yet is swapped without compiling it."""
    draw = Draw(random.Random(3), "dense", 3, 2)
    tables = [load_algebra(_sparse_document(tmp_path / "a.json", 4, NILPOTENT4)).c,
              draw.tensor(), draw.actions(),
              Tensor3.zeros(0, 0, 0), Tensor3.zeros(0, 2, 3), Tensor3.zeros(2, 0, 3)]
    for t in tables:
        assert t.compiled
        s = t.swapped()
        assert s._compiled is not None
        assert s.compiled == s._compile()
        assert s.swapped() == t and s.swapped().compiled == t.compiled
    fresh = draw.tensor()
    assert fresh.swapped()._compiled is None and fresh._compiled is None


def test_regular_bimodule_of_a_sparse_algebra_compiles_nothing(monkeypatch, tmp_path):
    """``check_bimodule(A, regular_bimodule(A))`` on a sparse-loaded dim-6
    algebra runs on the loader's compiled form alone: R = c.swapped() is
    handed it, so no table is compiled from its entries."""
    rng = random.Random(6)
    products = [(i, j, {str(k): str(rng.choice(WIDE)) for k in rng.sample(range(1, 7), 3)})
                for i in range(1, 7) for j in range(1, 7) if rng.random() < 0.4]
    A = load_algebra(_sparse_document(tmp_path / "a.json", 6, products))
    calls = _counted_compiles(monkeypatch)
    assert not antiassoc.check_bimodule(A, antiassoc.regular_bimodule(A)).passed
    assert calls == []


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
def test_sparse_loader_compiles_as_the_dense_path(tmp_path_factory, document):
    """The compiled form the sparse loader sets is ``_fibers`` of the
    equal table loaded dense, which compiles from its entries, and the
    two loaders give equal tables."""
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
    assert reference_table._compiled is None and loaded._compiled is not None
    D = algebra._common_den([reference_table])
    assert loaded.compiled == (D, algebra._fibers(reference_table, D))
    assert loaded == reference_table


@given(seed=st.integers(0, 2**30), n=st.integers(0, 3), m=st.integers(0, 3))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
def test_fiber_sum_is_the_compiled_sum(seed, n, m):
    """Compiled tables added in integers are the compiled Fraction sum, also
    where every entry cancels, as for the dendriform star products."""
    draw = Draw(random.Random(seed), "dense", n, m)
    for a, b in ((draw.tensor(), draw.tensor()), (draw.actions(), draw.actions())):
        for b in (b, a.scale(-1)):
            D = algebra._common_den([a, b])
            assert algebra._fiber_sum(algebra._fibers(a, D), algebra._fibers(b, D)) == \
                algebra._fibers(a + b, D)


KERNEL_NAMES = [
    "_fibers", "_columns", "_imul", "_iapply", "_common_den", "_scaled", "_nonzero",
    "_basis", "_on_basis", "_join", "_compiled_blocks", "_route_violations", "_fiber_sum",
    "compiled",
]


def test_kernel_names_resolve():
    """A name that no longer exists would pass the scan below unchecked.
    ``compiled``, a table's compiled form, is the one the kernel reads off
    Tensor3."""
    assert [name for name in KERNEL_NAMES
            if not hasattr(algebra, name) and not hasattr(Tensor3, name)] == []


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
