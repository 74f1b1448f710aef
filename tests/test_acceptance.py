"""Acceptance gate: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s -q` to watch the lines as they
print.  Every check is exact rational arithmetic; the only tolerances
anywhere are the stated wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

from antiassoc import (
    DendriformStructure,
    StructureAlgebra,
    anticommutator_algebra,
    basis_product,
    build_quadratic_double,
    build_symplectic_double,
    check_bimodule,
    check_dendriform_matched_pair,
    check_mock_lie,
    check_q_associative,
    check_q_dendriform,
    check_quartic_vanishing,
    check_rota_baxter,
    check_symplectic,
    check_symplectic_criterion,
    dendriform_from_symplectic,
    dual_bimodule,
    enumerate_2d_antiassociative,
    induced_dendriform_on_module,
    multiply,
    octuple_from_symplectic_pair,
    regular_bimodule,
    semidirect_product,
    verify_algebra_isomorphism,
    verify_paper_classification,
)
from antiassoc import cli
from antiassoc.classify2d import partition_into_classes
from antiassoc.linalg import Matrix, basis_vec

from .support import (
    case3_dendriform,
    case4_dendriform,
    perturb_bimodule,
    perturb_dendriform,
    random_bimodule,
    valid_algebra,
    valid_bimodules,
)

E1E1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
ZERO_D = DendriformStructure.zero(2, -1)


def _line(n: int, ok: bool, desc: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def _nonzero_products(total) -> dict:
    out = {}
    for i in range(total.dim):
        for j in range(total.dim):
            p = basis_product(total, i, j)
            if any(x != 0 for x in p):
                out[(i, j)] = p
    return out


def test_criterion_01_published_table_verdicts():
    start = time.monotonic()
    tables = {
        "zero": {},
        "e1e1": {(1, 1): {2: 1}},
        "e2e1": {(2, 1): {2: 1}},
        "e2e2": {(2, 2): {1: 1}},
    }
    algs = {k: StructureAlgebra.from_products(2, -1, t) for k, t in tables.items()}
    verdicts = {k: check_q_associative(a) for k, a in algs.items()}
    ok = (
        verdicts["zero"].passed
        and verdicts["e1e1"].passed
        and verdicts["e2e2"].passed
        and not verdicts["e2e1"].passed
    )
    bad = verdicts["e2e1"].violations
    ok = ok and len(bad) == 1 and bad[0].indices == (2, 1, 1)
    ok = ok and bad[0].residual == [Fraction(0), Fraction(1)]

    # independent oracle: walk all 8 triples of the failing table by hand
    def raw_mul(u, v):
        # table e2.e1 = e2, everything else zero
        return [Fraction(0), u[1] * v[0]]

    seen = []
    e = [basis_vec(2, 0), basis_vec(2, 1)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lhs = raw_mul(raw_mul(e[i], e[j]), e[k])
                rhs = raw_mul(e[i], raw_mul(e[j], e[k]))
                res = [a + b for a, b in zip(lhs, rhs)]
                if any(x != 0 for x in res):
                    seen.append(((i + 1, j + 1, k + 1), res))
    ok = ok and seen == [((2, 1, 1), [Fraction(0), Fraction(1)])]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _line(1, ok, f"dimension-2 table verdicts with oracle, {elapsed:.3f}s")


def test_criterion_02_quartic_and_mock_lie_chain():
    start = time.monotonic()
    sols = enumerate_2d_antiassociative(["-1", "0", "1"])
    ok = len(sols) == 9
    for a in sols:
        ok = ok and check_quartic_vanishing(a).passed
        ok = ok and check_mock_lie(anticommutator_algebra(a)).passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _line(2, ok, f"quartic + mock-Lie on all {len(sols)} grid solutions, {elapsed:.1f}s")


def test_criterion_03_semidirect_iff():
    rng = random.Random(987)
    qs = [Fraction(1), Fraction(-1), Fraction(2)]
    total = agreements = valid_seen = invalid_seen = 0
    while total < 210:
        q = qs[total % 3]
        A = valid_algebra(rng, q)
        pick = rng.random()
        if pick < 0.35:
            M = rng.choice(valid_bimodules(A))
        elif pick < 0.7:
            M = perturb_bimodule(rng, rng.choice(valid_bimodules(A)))
        else:
            M = random_bimodule(rng, A, rng.randrange(1, 3))
        left = check_bimodule(A, M).passed
        right = check_q_associative(semidirect_product(A, M)).passed
        total += 1
        agreements += left == right
        valid_seen += left
        invalid_seen += not left
    ok = agreements == total and valid_seen > 20 and invalid_seen > 20
    _line(
        3,
        ok,
        f"semidirect iff on {total} instances "
        f"({valid_seen} valid, {invalid_seen} invalid)",
    )


def test_criterion_04_dual_bimodule_involution():
    rng = random.Random(988)
    qs = [Fraction(1), Fraction(-1), Fraction(2)]
    duals_checked = involutions = 0
    ok = True
    for k in range(200):
        q = qs[k % 3]
        A = valid_algebra(rng, q)
        for M in valid_bimodules(A):
            ok = ok and check_bimodule(A, dual_bimodule(A, M)).passed
            duals_checked += 1
        M = random_bimodule(rng, A, rng.randrange(1, 4))
        DD = dual_bimodule(A, dual_bimodule(A, M))
        ok = ok and DD.l == M.l and DD.r == M.r
        involutions += 1
    _line(
        4,
        ok,
        f"dual validity on {duals_checked} bimodules, "
        f"double-dual exact on {involutions} more",
    )


def test_criterion_05_one_parameter_double_family():
    start = time.monotonic()
    ok = True
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        D = build_symplectic_double(case3_dendriform(lam), ZERO_D)
        ok = ok and D.report.passed
        ok = ok and check_q_associative(D.total).passed
        ok = ok and check_symplectic(D.total, D.form).passed
        expected = {(0, 0): [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]}
        if lam != 0:
            expected[(0, 3)] = [Fraction(0), Fraction(0), lam, Fraction(0)]
        if lam != 1:
            expected[(3, 0)] = [Fraction(0), Fraction(0), 1 - lam, Fraction(0)]
        ok = ok and _nonzero_products(D.total) == expected
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _line(5, ok, f"one-parameter doubles exact for three values, {elapsed:.3f}s")


def test_criterion_06_sign_split_double():
    D = build_symplectic_double(case4_dendriform(), ZERO_D)
    ok = D.report.passed
    expected = {
        (2, 1): [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
        (1, 2): [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)],
    }
    ok = ok and _nonzero_products(D.total) == expected
    _line(6, ok, "sign-split double reproduces its two displayed products")


def test_criterion_07_rota_baxter_fixture():
    tau = Matrix([["1", "0"], ["0", "1/2"]])
    ok = check_rota_baxter(E1E1, tau).passed
    reg = regular_bimodule(E1E1)
    D = induced_dendriform_on_module(E1E1, reg, tau)
    ok = ok and D.q == Fraction(-1)
    ok = ok and check_q_dendriform(D).passed
    # hand oracle: the single nonzero case
    e1 = basis_vec(2, 0)
    ok = ok and D.succ(e1, e1) == [Fraction(0), Fraction(1)]
    ok = ok and D.prec(e1, e1) == [Fraction(0), Fraction(1)]
    ok = ok and tau.apply(D.star(e1, e1)) == [Fraction(0), Fraction(1)]
    ok = ok and multiply(E1E1, tau.apply(e1), tau.apply(e1)) == [Fraction(0), Fraction(1)]
    for i in range(2):
        for j in range(2):
            u, v = basis_vec(2, i), basis_vec(2, j)
            ok = ok and multiply(E1E1, tau.apply(u), tau.apply(v)) == tau.apply(D.star(u, v))
    _line(7, ok, "diagonal weight-zero operator, induced split, homomorphism")


def test_criterion_08_symplectic_round_trip():
    ok = True
    halves = [
        case3_dendriform(Fraction(0)),
        case3_dendriform(Fraction(1, 2)),
        case3_dendriform(Fraction(1)),
        case4_dendriform(),
    ]
    for half in halves:
        double = build_symplectic_double(half, ZERO_D)
        total, w = double.total, double.form
        D = dendriform_from_symplectic(total, w)
        ok = ok and check_q_dendriform(D).passed
        n = total.dim
        e = [basis_vec(n, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                s = D.succ(e[i], e[j])
                p = D.prec(e[i], e[j])
                for k in range(n):
                    ok = ok and w.value(s, e[k]) == w.value(
                        e[j], multiply(total, e[k], e[i])
                    )
                    ok = ok and w.value(p, e[k]) == w.value(
                        e[i], multiply(total, e[j], e[k])
                    )
                    ok = ok and (
                        D.c_prec.entries[i][j][k] + D.c_succ.entries[i][j][k]
                        == total.c.entries[i][j][k]
                    )
    _line(8, ok, "form-defined splits recover all four doubles exactly")


def test_criterion_09_three_way_equivalence():
    rng = random.Random(990)
    halves = [
        case3_dendriform(Fraction(0)),
        case3_dendriform(Fraction(1, 2)),
        case3_dendriform(Fraction(1)),
        case4_dendriform(),
        ZERO_D,
    ]
    pairs = [(h, ZERO_D) for h in halves] + [(ZERO_D, h) for h in halves]
    ok = True
    valid_seen = invalid_seen = attempts = 0

    def verdicts(DA, DB):
        built = build_symplectic_double(DA, DB)
        a = not any(
            v.identity_id.startswith("matched_pair:")
            for v in built.report.violations
        )
        b = check_symplectic_criterion(DA, DB).passed
        c = check_dendriform_matched_pair(
            octuple_from_symplectic_pair(DA, DB)
        ).passed
        return a, b, c

    for DA, DB in pairs:
        a, b, c = verdicts(DA, DB)
        ok = ok and a == b == c
        valid_seen += a
    while invalid_seen < 50 and attempts < 600:
        attempts += 1
        base = rng.choice(halves)
        DA, DB = (
            (perturb_dendriform(rng, base), rng.choice(halves))
            if rng.random() < 0.5
            else (rng.choice(halves), perturb_dendriform(rng, base))
        )
        a, b, c = verdicts(DA, DB)
        ok = ok and a == b == c
        if not a:
            invalid_seen += 1
    ok = ok and valid_seen == len(pairs) and invalid_seen >= 50
    _line(
        9,
        ok,
        f"three checkers agree on {len(pairs)} valid pairs and "
        f"{invalid_seen} perturbed invalid ones",
    )


def test_criterion_10_classification_audit():
    start = time.monotonic()
    sols = enumerate_2d_antiassociative(["-1", "0", "1"])
    classes = partition_into_classes(sols)
    ok = len(classes) == 2
    audit = verify_paper_classification()
    ok = ok and audit["distinct_valid_classes"] == 2
    ok = ok and audit["enumeration"]["classes"] == 2
    swaps = [p for p in audit["pairwise"] if p["status"] == "yes"]
    ok = ok and len(swaps) == 1
    if ok:
        w = Matrix([[Fraction(x) for x in row] for row in swaps[0]["witness"]])
        A1 = StructureAlgebra.from_products(2, -1, {(1, 1): {2: 1}})
        A2 = StructureAlgebra.from_products(2, -1, {(2, 2): {1: 1}})
        ok = verify_algebra_isomorphism(A1, A2, w)
    ok = ok and len(audit["discrepancies"]) > 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _line(10, ok, f"2 classes, swap witness re-verified, report emitted, {elapsed:.1f}s")


def test_criterion_11_quadratic_double_invariance():
    D = build_quadratic_double(E1E1, StructureAlgebra.zero(2, -1))
    ok = D.report.passed
    ok = ok and not any(
        v.identity_id.startswith("matched_pair:") for v in D.report.violations
    )
    total, B = D.total, D.form
    e = [basis_vec(4, i) for i in range(4)]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                lhs = B.value(multiply(total, e[i], e[j]), e[k])
                rhs = B.value(e[i], multiply(total, e[j], e[k]))
                ok = ok and lhs == rhs
    _line(11, ok, "pairing invariant on all 64 triples, matched pair holds")


def test_criterion_12_fixture_json_determinism(capsys):
    code1 = cli.run(["paper", "fixtures", "--json"])
    first = capsys.readouterr().out
    code2 = cli.run(["paper", "fixtures", "--json"])
    second = capsys.readouterr().out
    ok = first == second and code1 == code2
    doc = json.loads(first)
    ok = ok and len(doc["cases"]) == 6
    _line(12, ok, f"fixtures --json byte-identical across runs ({len(first)} bytes)")
