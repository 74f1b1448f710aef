"""The four workloads: seeded documents, the operations run on them, and
the known answer each operation is checked against.

A workload builder writes its documents under ``workdir`` and returns
``(ops, warmups)``.  An ``Op`` runs one verdict or build through the
library's public functions (looked up at call time, so a traced run sees
them), and ``check`` returns "ok", "undecided" (an honest "unknown" from
the dim-2 isomorphism search), or the reason the result is wrong.

The schedules (kinds and dimensions) are fixed; the seed draws the
coefficients and the order of the operations, so every seed costs about
the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import corpus
import oracle

Q = Fraction(-1)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    query: bool = False  # a dim-2 isomorphism query, counted in undecided_ratio


def run_cli(lib, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lib.cli.run(argv)
    return rc, out.getvalue()


def _write(path, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def _verify_op(lib, kind: str, path: str, expected: Callable[[], list]) -> Op:
    argv = ["verify", kind, path, "--json"]
    known: list = []

    def check(result) -> str:
        rc, out = result
        if not known:
            known.append(expected())
        want = known[0]
        doc = json.loads(out)
        got = [
            (v["identity_id"], tuple(v["indices"]), tuple(v["residual"]))
            for v in doc["report"]["violations"]
        ]
        if rc != (1 if want else 0):
            return f"exit code {rc}"
        if doc["passed"] is bool(want):
            return "verdict differs"
        if got != want:
            return "violation set differs"
        return "ok"

    return Op(f"verify {kind}", lambda: run_cli(lib, argv), check)


# ---------------------------------------------------------------------------
# verify_sparse: valid 2-step nilpotent documents; every check passes.

# The cheap dim-6 algebra and Rota-Baxter documents are 60 of the 100, so
# the median falls inside one plateau; the top decile starts among the
# dim-6 O-operators, behind the six largest algebras.
SPARSE_DIMS = {
    "algebra": (6,) * 30 + (7,) * 4 + (8,) * 3 + (9,) * 2 + (10,) * 2 + (12, 14),
    "bimodule": (6,) * 9,
    "dendriform": (6,) * 8,
    "rota-baxter": (6,) * 30 + (8,) * 2,
    "o-operator": (6,) * 8,
}


def _sparse_doc(rng: random.Random, kind: str, n: int, k: int) -> dict:
    if kind == "dendriform":
        return corpus.dendriform_doc(
            corpus.nilpotent_tensor(rng, n), corpus.nilpotent_tensor(rng, n), Q, sparse=True
        )
    c = corpus.nilpotent_tensor(rng, n)
    alg = corpus.algebra_doc(c, Q, sparse=True)
    if kind == "algebra":
        return alg
    if kind == "rota-baxter":
        return corpus.rota_baxter_doc(alg, corpus.annihilator_map(rng, n, n))
    # regular and dual bimodules alternate
    if k % 2 == 0:
        l, r = corpus.left_ops(c), corpus.right_ops(c)
    else:
        l, r = corpus.dual_actions(c, Q)
    if kind == "bimodule":
        return corpus.bimodule_doc(alg, l, r)
    return corpus.o_operator_doc(alg, l, r, corpus.annihilator_map(rng, n, n))


def verify_sparse(lib, rng: random.Random, workdir):
    ops, warmups = [], []
    for kind, dims in SPARSE_DIMS.items():
        for k, n in enumerate(dims):
            path = _write(workdir / f"{kind}-{k}.json", _sparse_doc(rng, kind, n, k))
            op = _verify_op(lib, kind, path, list)  # valid by construction
            ops.append(op)
            if k == 0:
                warmups.append(op)
    rng.shuffle(ops)
    return ops, warmups


# ---------------------------------------------------------------------------
# verify_dense: dense random tables that fail almost everywhere; the full
# violation list is compared with the benchmark's own evaluators.

# Five large documents lead; the 90th percentile then falls among about
# twenty that cost alike (dim-6 Rota-Baxter, dim-5 algebras, dim-4 dendriform).
DENSE_DIMS = {
    "algebra": (4,) * 18 + (5,) * 8 + (6,) + (8,),
    "bimodule": (4,) * 22,
    "dendriform": (4,) * 8 + (5,) * 2,
    "rota-baxter": (4,) * 14 + (6,) * 4 + (8,),
    "o-operator": (4,) * 21,
}
DENSE_MODULE_DIM = 3


def _dense_case(rng: random.Random, kind: str, n: int):
    """(document, thunk giving the expected violations)."""
    if kind == "dendriform":
        prec, succ = corpus.dense_tensor(rng, n), corpus.dense_tensor(rng, n)
        doc = corpus.dendriform_doc(prec, succ, Q, sparse=False)
        return doc, lambda: oracle.dendriform_axioms(prec, succ, Q)
    c = corpus.dense_tensor(rng, n)
    alg = corpus.algebra_doc(c, Q, sparse=False)
    if kind == "algebra":
        return alg, lambda: oracle.q_law(c, Q)
    if kind == "rota-baxter":
        tau = corpus.dense_matrix(rng, n, n)
        return corpus.rota_baxter_doc(alg, tau), lambda: oracle.rota_baxter(c, tau)
    m = DENSE_MODULE_DIM
    l = [corpus.dense_matrix(rng, m, m) for _ in range(n)]
    r = [corpus.dense_matrix(rng, m, m) for _ in range(n)]
    if kind == "bimodule":
        return corpus.bimodule_doc(alg, l, r), lambda: oracle.bimodule_laws(c, Q, l, r)
    t = corpus.dense_matrix(rng, n, m)
    return corpus.o_operator_doc(alg, l, r, t), lambda: oracle.o_operator(c, l, r, t)


def verify_dense(lib, rng: random.Random, workdir):
    ops, warmups = [], []
    for kind, dims in DENSE_DIMS.items():
        for k, n in enumerate(dims):
            doc, expected = _dense_case(rng, kind, n)
            path = _write(workdir / f"{kind}-{k}.json", doc)
            op = _verify_op(lib, kind, path, expected)
            ops.append(op)
            if k == 0:
                warmups.append(op)
    rng.shuffle(ops)
    return ops, warmups


# ---------------------------------------------------------------------------
# doubles: the paper's constructions on (nilpotent, zero) pairs, valid by
# construction, and on dense random pairs, which fail their preconditions.
# Builder and criterion verdicts must agree (a theorem).

# (half-dim, valid by construction)
DOUBLE_PAIRS = ((2, True),) * 10 + ((2, False),) * 9 + ((3, True),)

# Cases I and II fail on the stored data, as documented; the rest reproduce.
FIXTURE_PASSES = {
    "case1.json": False,
    "case2.json": False,
    "case3a_lambda0.json": True,
    "case3b_lambda_half.json": True,
    "case3c_lambda1.json": True,
    "case4.json": True,
}


def _pair_ops(lib, halves: dict, expect_q, expect_d) -> list[Op]:
    """Five operations on one pair; each criterion op follows its builder.

    ``expect_q`` is the known verdict of both builders and the dual
    criterion, ``expect_d`` that of the two dendriform checks (None when
    the oracle cannot decide it).
    """
    A, As, DA, DAs = halves["A"], halves["Astar"], halves["DA"], halves["DAstar"]
    verdicts: dict = {}

    def check(want, builder=None, criterion=None):
        def run_check(result) -> str:
            passed = result.report.passed if builder else result.passed
            if builder:
                verdicts[builder] = passed
            if criterion and verdicts.get(criterion) is not passed:
                return "criterion verdict differs from builder verdict"
            if want is not None and passed is not want:
                return f"verdict {passed}, expected {want}"
            return "ok"
        return run_check

    d = lib.doubles
    return [
        Op("build_quadratic_double", lambda: d.build_quadratic_double(A, As),
           check(expect_q, builder="quadratic")),
        Op("check_dual_matched_pair_criterion", lambda: d.check_dual_matched_pair_criterion(A, As),
           check(expect_q, criterion="quadratic")),
        Op("build_symplectic_double", lambda: d.build_symplectic_double(DA, DAs),
           check(expect_q, builder="symplectic")),
        Op("check_symplectic_criterion", lambda: d.check_symplectic_criterion(DA, DAs),
           check(expect_d, criterion="symplectic")),
        Op("check_dendriform_matched_pair",
           lambda: lib.dendriform.check_dendriform_matched_pair(
               d.octuple_from_symplectic_pair(DA, DAs)),
           check(expect_d)),
    ]


def _fixtures_op(lib) -> Op:
    def check(result) -> str:
        rc, out = result
        cases = {c["source"]: c["passed"] for c in json.loads(out)["cases"]}
        if rc != 1:
            return f"exit code {rc}"
        if cases != FIXTURE_PASSES:
            return f"fixture outcomes {cases}"
        return "ok"

    return Op("paper fixtures", lambda: run_cli(lib, ["paper", "fixtures", "--json"]), check)


def doubles(lib, rng: random.Random, workdir):
    pairs = []
    for k, (n, valid) in enumerate(DOUBLE_PAIRS):
        if valid:
            prec, succ = corpus.nilpotent_tensor(rng, n), corpus.nilpotent_tensor(rng, n)
            prec2 = succ2 = corpus.zeros3(n)
        else:
            prec, succ = corpus.dense_tensor(rng, n), corpus.dense_tensor(rng, n)
            prec2, succ2 = corpus.dense_tensor(rng, n), corpus.dense_tensor(rng, n)
        a, a2 = corpus.tensor_sum(prec, succ), corpus.tensor_sum(prec2, succ2)
        paths = {
            "A": _write(workdir / f"pair{k}-A.json", corpus.algebra_doc(a, Q, sparse=False)),
            "Astar": _write(workdir / f"pair{k}-Astar.json", corpus.algebra_doc(a2, Q, sparse=False)),
            "DA": _write(workdir / f"pair{k}-DA.json", corpus.dendriform_doc(prec, succ, Q, sparse=False)),
            "DAstar": _write(workdir / f"pair{k}-DAstar.json",
                             corpus.dendriform_doc(prec2, succ2, Q, sparse=False)),
        }
        if valid:
            expect_q = expect_d = True
        else:
            # A failed precondition forces a failed verdict; if the random
            # halves happen to satisfy it, only builder == criterion is checked.
            q_fails = bool(oracle.q_law(a, Q) or oracle.q_law(a2, Q))
            d_fails = bool(oracle.dendriform_axioms(prec, succ, Q)
                           or oracle.dendriform_axioms(prec2, succ2, Q))
            expect_q = False if q_fails else None
            expect_d = False if d_fails else None
        pairs.append((n, paths, expect_q, expect_d))

    def load(paths: dict) -> dict:
        return {
            "A": lib.io.load_algebra(paths["A"]),
            "Astar": lib.io.load_algebra(paths["Astar"]),
            "DA": lib.io.load_dendriform(paths["DA"]),
            "DAstar": lib.io.load_dendriform(paths["DAstar"]),
        }

    rng.shuffle(pairs)
    groups = [_pair_ops(lib, load(paths), eq, ed) for _, paths, eq, ed in pairs]
    ops = [op for group in groups for op in group] + [_fixtures_op(lib)]
    smallest_valid = next(k for k, (n, _, eq, _) in enumerate(pairs) if eq and n == 2)
    return ops, groups[smallest_valid]


# ---------------------------------------------------------------------------
# classify_dim2: one full classify command plus isomorphism queries.  A
# yes-query compares X (e1.e1 = e2 transported by p1 over {-1,0,1}) with
# its image Y under p2 from the audit grid; a no-query compares Y with the
# zero algebra.  Forward queries (X, Y) always have p2 as a grid witness.
# Backward queries (Y, X) are drawn in fixed numbers with and without a
# grid witness, decided by the benchmark's own scan, so every seed asks the
# grid search for the same amount of exhaustive work.  Most of the top
# decile of a pass are these exhaustive searches, so op_p90_ms falls inside
# them rather than on their edge.

AUDIT_GRID = tuple(Fraction(x) for x in ("-2", "-1", "-1/2", "0", "1/2", "1", "2"))
SMALL_GRID = (Fraction(-1), Fraction(0), Fraction(1))
FORWARD_QUERIES = 4
BACKWARD_QUERIES = {True: 4, False: 20}  # by whether the grid holds a witness
NO_QUERIES = 72
E1E1_E2 = [[[Fraction(0), Fraction(1)], [Fraction(0)] * 2], [[Fraction(0)] * 2, [Fraction(0)] * 2]]


def _classify_op(lib) -> Op:
    def check(result) -> str:
        rc, out = result
        doc = json.loads(out)
        audit = doc["audit"]
        if rc != 0:
            return f"exit code {rc}"
        if (len(doc["solutions"]), len(doc["classes"])) != (9, 2):
            return "expected 9 solutions in 2 classes over {-1,0,1}"
        # e2.e1=e2 is not antiassociative: (e2 e1) e1 = e2 but -e2 (e1 e1) = 0
        if [t["passed"] for t in audit["tables"]] != [True, True, False, True]:
            return "audit verdicts differ"
        if audit["distinct_valid_classes"] != 2:
            return "expected 2 classes among the listed tables"
        return "ok"

    return Op("classify dim2", lambda: run_cli(lib, ["classify", "dim2", "--json"]), check)


def _query_op(lib, first, second, c_first, c_second, iso: bool) -> Op:
    grid = [str(x) for x in AUDIT_GRID]

    def check(verdict) -> str:
        if verdict.status == "unknown":
            return "undecided"
        if verdict.status != ("yes" if iso else "no"):
            return f"answered {verdict.status}"
        if iso:
            phi = [list(row) for row in verdict.witness.entries]
            if not oracle.is_isomorphism2(c_first, c_second, phi):
                return "witness is not an isomorphism"
        return "ok"

    return Op("are_isomorphic_dim2",
              lambda: lib.classify2d.are_isomorphic_dim2(first, second, grid), check, query=True)


def _query_specs(rng: random.Random) -> list:
    """[((c_first, c_second), isomorphic)] in the stratified numbers above."""
    zero = corpus.zeros3(2)
    forward, no, backward = [], [], {True: [], False: []}
    while (len(forward) < FORWARD_QUERIES or len(no) < NO_QUERIES
           or any(len(backward[k]) < n for k, n in BACKWARD_QUERIES.items())):
        p1 = corpus.random_invertible2(rng, SMALL_GRID)
        p2 = corpus.random_invertible2(rng, AUDIT_GRID)
        base = corpus.transport(E1E1_E2, p1)
        image = corpus.transport(base, p2)
        if len(forward) < FORWARD_QUERIES:
            forward.append(((base, image), True))
        elif len(no) < NO_QUERIES:
            no.append(((zero, image) if rng.random() < 0.5 else (image, zero), False))
        else:
            if all(x in AUDIT_GRID for row in corpus.mat2_inverse(p2) for x in row):
                found = True  # p2^-1 is a witness Y -> X
            elif len(backward[False]) < BACKWARD_QUERIES[False]:
                found = oracle.grid_witness_exists(p1, p2, AUDIT_GRID)
            else:
                continue  # scan no more than needed: its cost is set-up time
            if len(backward[found]) < BACKWARD_QUERIES[found]:
                backward[found].append(((image, base), True))
    return forward + no + backward[True] + backward[False]


def classify_dim2(lib, rng: random.Random, workdir):
    ops = [_classify_op(lib)]
    for k, ((c1, c2), iso) in enumerate(_query_specs(rng)):
        p1 = _write(workdir / f"query{k}-1.json", corpus.algebra_doc(c1, Q, sparse=False))
        p2 = _write(workdir / f"query{k}-2.json", corpus.algebra_doc(c2, Q, sparse=False))
        ops.append(_query_op(lib, lib.io.load_algebra(p1), lib.io.load_algebra(p2), c1, c2, iso))
    rng.shuffle(ops)
    # warm up on fixed inputs, so set-up cost does not depend on the seed
    e_path = _write(workdir / "e1e1_e2.json", corpus.algebra_doc(E1E1_E2, Q, sparse=False))
    z_path = _write(workdir / "zero.json", corpus.algebra_doc(corpus.zeros3(2), Q, sparse=False))
    e, z = lib.io.load_algebra(e_path), lib.io.load_algebra(z_path)
    warmups = [_query_op(lib, e, e, E1E1_E2, E1E1_E2, True),
               _query_op(lib, z, e, corpus.zeros3(2), E1E1_E2, False)]
    return ops, warmups


WORKLOADS = {
    "verify_sparse": verify_sparse,
    "verify_dense": verify_dense,
    "doubles": doubles,
    "classify_dim2": classify_dim2,
}
