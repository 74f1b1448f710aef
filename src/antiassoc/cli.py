"""Command-line interface.

Exit codes: 0 when every check in the run passed, 1 when a verification
failed (reports are still emitted), 2 for malformed input (bad JSON,
bad shapes, bad flags).
"""

from __future__ import annotations

import argparse
import functools
import os
import pathlib
import signal
import sys
from dataclasses import replace
from fractions import Fraction
from importlib import resources

from . import io as aio
from .algebra import (
    StructureAlgebra,
    anticommutator_algebra,
    check_mock_lie,
    check_q_associative,
    fingerprint,
)
from .bimodules import check_bimodule, dual_bimodule, semidirect_product
from .classify2d import (
    ENUM_GRID,
    describe_products,
    enumerate_2d_antiassociative,
    partition_into_classes,
    verify_paper_classification,
)
from .dendriform import DendriformStructure, associated_algebra, check_q_dendriform
from .doubles import (
    audit_paper_fixture,
    build_quadratic_double,
    build_symplectic_double,
)
from .forms import check_invariant_symmetric, check_symplectic
from .linalg import SingularError, exact_str
from .matched import bowtie, check_matched_pair
from .operators import (
    check_o_operator,
    check_rota_baxter,
    compatible_dendriform_from_o_operator,
    dendriform_from_symplectic,
)

def _rational_arg(text: str) -> Fraction:
    """A flag's rational; a refused one is named as a ParseError names its
    token, by its ends and length when it is long."""
    if not aio._RATIONAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a rational: {aio._shown(text)}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {aio._shown(text)}") from None
    except ValueError:  # a numerator or denominator past the int-string limit
        raise argparse.ArgumentTypeError(
            f"{aio._too_long()} (token {aio._shown(text)})") from None


def _q_arg(text: str) -> Fraction:
    """The value of --q: a rational, refused here when zero, so the error
    line names the flag."""
    q = _rational_arg(text)
    if not q:
        raise argparse.ArgumentTypeError(f"q must be nonzero: {aio._shown(text)}")
    return q


def _grid_arg(text: str) -> list[Fraction]:
    grid = [_rational_arg(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not grid:
        raise argparse.ArgumentTypeError(f"empty grid: {text!r}")
    return grid


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Turn ['--q', '-1'] into ['--q=-1'] so negative values survive."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--q", "--grid") and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _fmt_residual(residual, names=None) -> str:
    if names is not None and len(residual) == len(names):
        return aio.format_element(residual, names)
    if len(residual) <= 8:
        return aio.format_element(residual)
    return "[" + ", ".join(map(exact_str, residual)) + "]"


def _print_report(title: str, rep, names=None, total=None, unit="identities") -> None:
    verdict = "pass" if rep.passed else "FAIL"
    if total is not None:
        good = total - len({(v.identity_id, v.indices) for v in rep.violations})
        print(f"{title}: {verdict} ({good}/{total} {unit})")
    else:
        print(f"{title}: {verdict}")
    ids = {v.identity_id for v in rep.violations}
    for v in rep.violations:
        where = f"violation {v.identity_id} at" if len(ids) > 1 else "violation at"
        print(f"{where} {v.indices}: residual {_fmt_residual(v.residual, names)}")


def _verify_done(ns, rep, title: str, *text_args, extra=None) -> int:
    """Emit a verify report, as JSON with ``extra`` keys under --json or else
    through _print_report(title, rep, *text_args), and give the exit code."""
    if ns.json:
        doc = {"command": f"verify-{ns.target}", "input": ns.file,
               "passed": rep.passed, "report": rep, **(extra or {})}
        sys.stdout.write(aio.dump_json(doc))
    else:
        _print_report(title, rep, *text_args)
    return 0 if rep.passed else 1


def _emit_doc(doc: dict, ns, passed: bool) -> int:
    """Write ``doc`` to -o or stdout, and give the exit code of ``passed``."""
    text = aio.dump_json(doc)
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {ns.out}")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _emit_built(ns, key: str, doc: dict, rep) -> int:
    """Emit a one-file build: the construction under ``key`` with its report."""
    return _emit_doc({key: doc, "report": rep}, ns, rep.passed)


def _override_q(A: StructureAlgebra, q) -> StructureAlgebra:
    return A if q is None else StructureAlgebra(A.dim, q, A.c)


# ---------------------------------------------------------------------------
# verify

def cmd_verify_algebra(ns) -> int:
    A = _override_q(aio.load_algebra(ns.file), ns.q)
    rep = check_q_associative(A)
    extra = {"fingerprint": fingerprint(A).as_dict()} if ns.json else None
    return _verify_done(ns, rep, "q-associative",
                        aio.basis_names(A.dim), A.dim ** 3, "triples", extra=extra)


def cmd_verify_bimodule(ns) -> int:
    A, M = aio.load_bimodule(ns.file)
    A = _override_q(A, ns.q)
    rep = check_bimodule(A, M)
    return _verify_done(ns, rep, "bimodule laws", None, 3 * A.dim * A.dim, "pairs")


def cmd_verify_matched_pair(ns) -> int:
    data = aio.load_matched_pair(ns.file)
    data = replace(data, A=_override_q(data.A, ns.q), B=_override_q(data.B, ns.q))
    rep = check_matched_pair(data)
    na, nb = data.A.dim, data.B.dim
    total = 3 * na * nb * nb + 3 * nb * na * na
    return _verify_done(ns, rep, "matched pair", None, None if not rep.passed else total)


def cmd_verify_dendriform(ns) -> int:
    D = aio.load_dendriform(ns.file)
    if ns.q is not None:
        D = DendriformStructure(D.dim, ns.q, D.c_prec, D.c_succ)
    rep = check_q_dendriform(D)
    return _verify_done(ns, rep, "q-dendriform",
                        aio.basis_names(D.dim), 3 * D.dim ** 3, "triples")


def cmd_verify_form(ns) -> int:
    A, w = aio.load_form(ns.file)
    A = _override_q(A, ns.q)
    if w.kind == "symmetric":
        title, rep = "invariant symmetric form", check_invariant_symmetric(A, w)
    elif w.kind == "antisymmetric":
        title, rep = "symplectic form", check_symplectic(A, w)
    else:
        raise ValueError(f"{ns.file}: form.kind must be symmetric or antisymmetric to verify")
    code = _verify_done(ns, rep, title, aio.basis_names(A.dim))
    if not ns.json:
        print(f"rank {rep.info['rank']}")
    return code


def cmd_verify_o_operator(ns) -> int:
    A, M, T = aio.load_o_operator(ns.file)
    A = _override_q(A, ns.q)
    rep = check_o_operator(A, M, T)
    return _verify_done(ns, rep, "o-operator",
                        aio.basis_names(A.dim), M.module_dim ** 2, "pairs")


def cmd_verify_rota_baxter(ns) -> int:
    A, tau = aio.load_rota_baxter(ns.file)
    A = _override_q(A, ns.q)
    rep = check_rota_baxter(A, tau)
    return _verify_done(ns, rep, "rota-baxter",
                        aio.basis_names(A.dim), A.dim ** 2, "pairs")


# ---------------------------------------------------------------------------
# build

def cmd_build_semidirect(ns) -> int:
    S = semidirect_product(*aio.load_bimodule(ns.file))
    return _emit_built(ns, "algebra", aio.algebra_to_doc(S), check_q_associative(S))


def cmd_build_bowtie(ns) -> int:
    total = bowtie(aio.load_matched_pair(ns.file))
    rep = check_q_associative(total)
    return _emit_built(ns, "algebra", aio.algebra_to_doc(total), rep)


def cmd_build_dual_bimodule(ns) -> int:
    A, M = aio.load_bimodule(ns.file)
    D = dual_bimodule(A, M)
    return _emit_built(ns, "bimodule", aio.bimodule_to_doc(A, D), check_bimodule(A, D))


def cmd_build_anticommutator(ns) -> int:
    out = anticommutator_algebra(aio.load_algebra(ns.file))
    return _emit_built(ns, "algebra", aio.algebra_to_doc(out), check_mock_lie(out))


def cmd_build_associated(ns) -> int:
    out = associated_algebra(aio.load_dendriform(ns.file))
    return _emit_built(ns, "algebra", aio.algebra_to_doc(out), check_q_associative(out))


def _build_double(ns, load, build) -> int:
    """Load the halves from ns.a and ns.astar, refuse halves of two
    dimensions (naming both files) or a half whose q is not -1 (naming its
    file), then emit the double."""
    X, Y = load(ns.a), load(ns.astar)
    if X.dim != Y.dim:
        raise ValueError(f"{ns.a} (dim {X.dim}) and {ns.astar} (dim {Y.dim}): "
                         "the two halves must have equal dimension")
    for path, H in ((ns.a, X), (ns.astar, Y)):
        if H.q != -1:
            raise ValueError(f"{path}: q = {H.q}, but double constructions are defined at q = -1")
    d = build(X, Y)
    return _emit_doc(aio.double_to_doc(d), ns, d.report.passed)


def cmd_build_double_quadratic(ns) -> int:
    return _build_double(ns, aio.load_algebra, build_quadratic_double)


def cmd_build_double_symplectic(ns) -> int:
    return _build_double(ns, aio.load_dendriform, build_symplectic_double)


def _build_dendriform_split(ns, title: str, inverted: str, check, construct, *data) -> int:
    """Check the precondition on ``data`` (algebra first), refuse unless it
    passes or --force is given, then emit the dendriform split with both
    reports.  A refusal to invert the file's value ``inverted`` names both."""
    rep_pre = check(*data)
    if not rep_pre.passed and not ns.force:
        _print_report(title, rep_pre, aio.basis_names(data[0].dim))
        return 1
    try:
        D = construct(*data, force=True)
    except SingularError as exc:
        raise ValueError(f"{ns.file}: {inverted}: {exc}") from exc
    rep_out = check_q_dendriform(D)
    doc = {
        "dendriform": aio.dendriform_to_doc(D),
        "precondition": rep_pre,
        "report": rep_out,
    }
    return _emit_doc(doc, ns, rep_pre.passed and rep_out.passed)


def cmd_build_dendriform_from_omega(ns) -> int:
    return _build_dendriform_split(
        ns, "symplectic form", "form.gram", check_symplectic, dendriform_from_symplectic,
        *aio.load_form(ns.file),
    )


def cmd_build_dendriform_from_o_operator(ns) -> int:
    return _build_dendriform_split(
        ns, "o-operator", "T", check_o_operator, compatible_dendriform_from_o_operator,
        *aio.load_o_operator(ns.file),
    )


# ---------------------------------------------------------------------------
# classify

def cmd_classify_dim2(ns) -> int:
    enum_grid = [Fraction(g) for g in ENUM_GRID]
    grid = sorted(set(ns.grid)) if ns.grid else enum_grid
    solutions = enumerate_2d_antiassociative(grid)
    classes = partition_into_classes(solutions)
    # the audit enumerates and partitions ENUM_GRID; on that grid it reuses
    # these solutions and classes
    if grid == enum_grid:
        audit = verify_paper_classification(solutions, classes)
    else:
        audit = verify_paper_classification()
    if ns.json:
        doc = {
            "grid": [str(g) for g in grid],
            "solutions": [
                {
                    "index": k + 1,
                    "products": describe_products(s),
                    "fingerprint": fingerprint(s).as_dict(),
                }
                for k, s in enumerate(solutions)
            ],
            "classes": [
                {
                    "members": [k + 1 for k in cls],
                    "representative": describe_products(solutions[cls[0]]),
                }
                for cls in classes
            ],
            "audit": audit,
        }
        sys.stdout.write(aio.dump_json(doc))
        return 0
    gtxt = ",".join(str(g) for g in grid)
    print(f"{len(solutions)} antiassociative tables over grid {{{gtxt}}}")
    for k, s in enumerate(solutions):
        print(f"  [{k + 1}] {describe_products(s)}")
    print(f"{len(classes)} isomorphism classes")
    for num, cls in enumerate(classes, start=1):
        members = ", ".join(str(k + 1) for k in cls)
        print(f"  class {num}: [{members}]  rep: {describe_products(solutions[cls[0]])}")
    print("audit of the published table:")
    for entry in audit["tables"]:
        verdict = "pass" if entry["passed"] else "FAIL"
        print(f"  {entry['label']}: antiassociative {verdict}")
        for v in entry["violations"]:
            res = [Fraction(x) for x in v["residual"]]
            print(f"    violation at {tuple(v['indices'])}: "
                  f"residual {aio.format_element(res)}")
    for pair in audit["pairwise"]:
        print(f"  {pair['first']} vs {pair['second']}: {pair['status']} ({pair['detail']})")
    for line in audit["discrepancies"]:
        print(f"  note: {line}")
    return 0


# ---------------------------------------------------------------------------
# paper fixtures

def paper_fixtures() -> dict:
    """Audit every fixture file, in name order, of $ANTIASSOC_FIXTURES or
    else of the bundled fixture directory."""
    env = os.environ.get("ANTIASSOC_FIXTURES")
    base = pathlib.Path(env) if env else resources.files("antiassoc") / "fixtures"
    names = sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))
    cases = [
        dict(audit_paper_fixture(aio.load_fixture(str(base / name))), source=name)
        for name in names
    ]
    return {"cases": cases, "all_passed": all(c["passed"] for c in cases)}


def cmd_paper_fixtures(ns) -> int:
    report = paper_fixtures()
    if ns.json:
        sys.stdout.write(aio.dump_json(report))
        return 0 if report["all_passed"] else 1
    for case in report["cases"]:
        print(f"{case['label']} ({case['kind']})")
        for cond in case["conditions"]:
            verdict = "pass" if cond["passed"] else "FAIL"
            print(f"  {cond['name']:<16} {verdict}")
        good = sum(1 for row in case["table"] if row["match"])
        print(f"  displayed table  {good}/{len(case['table'])} lines match")
        for row in case["table"]:
            if not row["match"]:
                print(
                    f"    ({row['left']}) * ({row['right']}): "
                    f"displayed {row['displayed']}, recomputed {row['recomputed']}"
                )
        for extra in case["undisplayed_nonzero"]:
            print(
                f"    undisplayed nonzero: {extra['left']} * {extra['right']}"
                f" = {extra['product']}"
            )
    fully = sum(1 for c in report["cases"] if c["passed"])
    print(f"{fully}/{len(report['cases'])} cases fully reproduced")
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# wiring

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args returns a fresh
    Namespace on every call, so no value carries over between runs."""
    parser = argparse.ArgumentParser(prog="antiassoc")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a checker on a JSON document")
    vsub = verify.add_subparsers(dest="target", required=True)
    for target, fn in (
        ("algebra", cmd_verify_algebra),
        ("bimodule", cmd_verify_bimodule),
        ("matched-pair", cmd_verify_matched_pair),
        ("dendriform", cmd_verify_dendriform),
        ("form", cmd_verify_form),
        ("o-operator", cmd_verify_o_operator),
        ("rota-baxter", cmd_verify_rota_baxter),
    ):
        p = vsub.add_parser(target)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        p.add_argument("--q", type=_q_arg, default=None,
                       help="override the document's q before checking")
        p.set_defaults(func=fn)

    build = sub.add_parser("build", help="assemble a construction and emit JSON")
    bsub = build.add_subparsers(dest="target", required=True)
    one_file = (
        ("semidirect", cmd_build_semidirect),
        ("bowtie", cmd_build_bowtie),
        ("dual-bimodule", cmd_build_dual_bimodule),
        ("anticommutator", cmd_build_anticommutator),
        ("associated", cmd_build_associated),
        ("dendriform-from-omega", cmd_build_dendriform_from_omega),
        ("dendriform-from-o-operator", cmd_build_dendriform_from_o_operator),
    )
    for target, fn in one_file:
        p = bsub.add_parser(target)
        p.add_argument("file")
        p.add_argument("-o", dest="out", default=None)
        if target.startswith("dendriform-from"):
            p.add_argument("--force", action="store_true",
                           help="assemble even when the precondition check fails")
        p.set_defaults(func=fn)
    for target, fn in (
        ("double-quadratic", cmd_build_double_quadratic),
        ("double-symplectic", cmd_build_double_symplectic),
    ):
        p = bsub.add_parser(target)
        p.add_argument("a")
        p.add_argument("astar")
        p.add_argument("-o", dest="out", default=None)
        p.set_defaults(func=fn)

    classify = sub.add_parser("classify", help="enumerate small antiassociative algebras")
    csub = classify.add_subparsers(dest="target", required=True)
    p = csub.add_parser("dim2")
    p.add_argument("--grid", type=_grid_arg, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify_dim2)

    paper = sub.add_parser("paper", help="audit the bundled double-construction fixtures")
    psub = paper.add_subparsers(dest="target", required=True)
    p = psub.add_parser("fixtures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_paper_fixtures)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(_merge_value_flags(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except BrokenPipeError:  # the reader went away: not an input error
        raise
    except (ValueError, OSError) as exc:
        # ParseError, SingularError and DimensionMismatch are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if hasattr(signal, "SIGPIPE"):  # end as a Unix filter does when its reader goes away
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
