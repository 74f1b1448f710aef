"""Golden CLI output: every command of the CLI, both doubles, ``paper
fixtures``, ``classify dim2`` on three grids, sparse, nilpotent and
fractional documents, a q of 3000 digits and five refused documents must
keep their exact bytes, in process and under ``python -O`` and hash seeds
0, 1 and random.

Each case's digest is the sha256 of its exit code, stdout and stderr (and,
for a build with ``-o``, the file it writes), kept in ``golden_cli.json``
next to this file.  The documents are written inline or copied from
``fixtures/`` into a temporary directory, which is the working directory of
every run, and are named by relative paths, so no absolute path reaches the
output.  After a change that is meant to alter the output, rerun this file
as a script to record the manifest again:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest

from antiassoc import cli

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "golden_cli.json"

# the left and right multiplication tables of e1e1_e2.json (e1.e1 = e2), row-major
REGULAR = {"l": [[["0", "0"], ["1", "0"]], [["0", "0"], ["0", "0"]]],
           "r": [[["0", "0"], ["1", "0"]], [["0", "0"], ["0", "0"]]]}

# a 3-dim module of a 2-dim algebra, asymmetric entries, failing laws
BIMODULE_FAIL = {
    "algebra": "e1e1_e2.json",
    "module_dim": 3,
    "l": [[["1", "2", "0"], ["0", "-1/2", "3"], ["1", "0", "0"]],
          [["0", "0", "1"], ["2/3", "0", "0"], ["0", "1", "-1"]]],
    "r": [[["0", "1", "0"], ["0", "0", "0"], ["-1", "0", "1/2"]],
          [["1", "0", "0"], ["0", "0", "2"], ["0", "0", "0"]]],
}

DOCS = {
    "bimodule_pass.json": {"algebra": "e1e1_e2.json", "module_dim": 2, **REGULAR},
    "bimodule_fail.json": BIMODULE_FAIL,
    # A (dim 2) and B (dim 1) with zero actions: both algebras are antiassociative
    "matched_pass.json": {
        "A": "e1e1_e2.json",
        "B": {"dim": 1, "q": "-1", "products": []},
        "lA": [[["0"]], [["0"]]], "rA": [[["0"]], [["0"]]],
        "lB": [[["0", "0"], ["0", "0"]]], "rB": [[["0", "0"], ["0", "0"]]],
    },
    "matched_fail.json": {
        "A": "e1e1_e2.json",
        "B": {"dim": 1, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"1": "1/2"}}]},
        "lA": [[["1"]], [["-2"]]], "rA": [[["0"]], [["1/3"]]],
        "lB": [[["0", "1"], ["2", "0"]]], "rB": [[["1", "0"], ["0", "-1"]]],
    },
    "dendriform_pass.json": {
        "dim": 2, "q": "-1",
        "prec_products": [{"i": 1, "j": 1, "out": {"2": "1/2"}}],
        "succ_products": [{"i": 1, "j": 1, "out": {"2": "1/2"}}],
    },
    "dendriform_fail.json": {
        "dim": 2, "q": "-1",
        "prec_products": [{"i": 1, "j": 1, "out": {"1": "1", "2": "1/2"}}],
        "succ_products": [{"i": 2, "j": 1, "out": {"2": "-1"}}],
    },
    "dendriform_zero.json": {"dim": 2, "q": "-1", "prec_products": []},
    "form_symmetric.json": {
        "algebra": "e1e1_e2.json",
        "form": {"dim": 2, "kind": "symmetric", "gram": [["0", "1"], ["1", "0"]]},
    },
    "form_antisymmetric.json": {
        "algebra": "e1e1_e2.json",
        "form": {"dim": 2, "kind": "antisymmetric", "gram": [["0", "1"], ["-1", "0"]]},
    },
    # degenerate, kernel [3/2, -1/2, 1]: its nondegenerate violation, made of
    # Fractions, reaches the report writer and the text printer after the
    # kernel's cyclic ones
    "form_degenerate.json": {
        "algebra": {"dim": 3, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"3": "1"}},
                                                      {"i": 1, "j": 2, "out": {"3": "1/2"}}]},
        "form": {"dim": 3, "kind": "antisymmetric",
                 "gram": [["0", "2", "1"], ["-2", "0", "3"], ["-1", "-3", "0"]]},
    },
    # tau = diag(1, 1/2) is a Rota-Baxter operator of E1E1, so an
    # O-operator for its regular bimodule; the identity is not
    "o_operator_pass.json": {
        "algebra": "e1e1_e2.json",
        "bimodule": {"module_dim": 2, **REGULAR},
        "T": [["1", "0"], ["0", "1/2"]],
    },
    "o_operator_fail.json": {
        "algebra": "e1e1_e2.json",
        "bimodule": {"module_dim": 2, **REGULAR},
        "T": [["1", "0"], ["0", "1"]],
    },
    "o_operator_wide.json": {
        "algebra": "e1e1_e2.json",
        "bimodule": {k: v for k, v in BIMODULE_FAIL.items() if k != "algebra"},
        "T": [["1", "0", "2"], ["0", "1", "-1"]],
    },
    # 2-step nilpotent, so valid: products of e1..e4 land in e5, e6; its
    # fingerprint has dim A^2 = 2 and left and right annihilators of 3 and 2
    "nilpotent6.json": {
        "dim": 6, "q": "-1",
        "products": [
            {"i": 1, "j": 2, "out": {"5": "1"}},
            {"i": 2, "j": 1, "out": {"5": "-1", "6": "1/2"}},
            {"i": 3, "j": 3, "out": {"6": "2"}},
            {"i": 1, "j": 4, "out": {"5": "3"}},
            {"i": 2, "j": 2, "out": {"5": "-2/3"}},
        ],
    },
    # dense with denominators 1 to 3: every triple fails, and the left
    # annihilator is a line
    "dense4.json": {
        "dim": 4, "q": "-1",
        "c": [[[f"{(3 * i + 5 * j + 7 * k) % 9 - 4}/{(i + 2 * j + k) % 3 + 1}" for k in range(4)]
               for j in range(4)] for i in range(4)],
    },
    # failing, with fractional actions: its matrix residuals reach the report writer
    "bimodule_fractions.json": {
        "algebra": {"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"2": "1"}}]},
        "module_dim": 2, "l": [[["1", "1/2"], ["0", "1"]], [["0", "0"], ["2", "0"]]],
        "r": [[["0", "1"], ["-1", "0"]], [["0", "0"], ["0", "1/3"]]],
    },
    # failing: its prefixed ids reach the report writer
    "matched_fractions.json": {
        "A": {"dim": 2, "q": "-1", "products": [{"i": 2, "j": 1, "out": {"2": "1"}}]},
        "B": {"dim": 1, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"1": "1"}}]},
        "lA": [[["1"]], [["0"]]], "rA": [[["0"]], [["-1"]]],
        "lB": [[["0", "1"], ["1/2", "0"]]], "rB": [[["1", "0"], ["0", "0"]]],
    },
    # sparse and valid: the loader's compiled form drops the zero value and sorts out keys
    "nilpotent4.json": {
        "dim": 4, "q": "-1",
        "products": [
            {"i": 1, "j": 1, "out": {"4": "-2/3", "3": "1/2"}},
            {"i": 1, "j": 2, "out": {"4": "5/7"}},
            {"i": 2, "j": 1, "out": {"3": "-1", "4": "0"}},
            {"i": 2, "j": 2, "out": {"4": "3/1000000"}},
        ],
    },
    # sparse and failing: star is the sum of the compiled prec and succ in integers
    "dendriform_sparse.json": {
        "dim": 2, "q": "-1",
        "prec_products": [{"i": 1, "j": 1, "out": {"2": "0", "1": "1/2"}}],
        "succ_products": [{"i": 1, "j": 2, "out": {"2": "1/3", "1": "1"}},
                          {"i": 2, "j": 1, "out": {"1": "-7/6"}}],
    },
    # nilpotent with one bumped entry: the route body reaches some tuples and not
    # others, collects them from a set and sorts them
    "matched_nilpotent.json": {
        "A": {"dim": 3, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"3": "1"}},
                                                {"i": 1, "j": 2, "out": {"3": "-2"}},
                                                {"i": 2, "j": 1, "out": {"3": "1/2"}}]},
        "B": {"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"2": "3"}}]},
        "lA": [[["0", "0"], ["1", "0"]], [["0", "0"], ["-1", "0"]], [["0", "0"], ["0", "0"]]],
        "rA": [[["0", "0"], ["2", "0"]], [["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        "lB": [[["0", "0", "0"], ["0", "0", "0"], ["1", "1", "0"]],
               [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]],
        "rB": [[["0", "0", "0"], ["0", "0", "0"], ["0", "-1", "0"]],
               [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]],
    },
    # q has 3000 digits, so the dual's entry q^2 is past the int-string limit:
    # the document spells it whole, and the failed check exits 1, not 2
    "bimodule_long_q.json": {
        "algebra": {"dim": 1, "q": "-" + "7" * 3000, "products": []},
        "module_dim": 1, "l": [[["1"]]], "r": [[["1"]]],
    },
}

# documents refused with exit 2, each with the verify target that reads it
# and its exact bytes; each error line gives the refused value's own byte,
# where an equal, earlier token once stood in for it.  B's q is "0"; B
# lacks q; A and B, written after the actions, have two values of q; a zero
# denominator spells its 1 as an escape; and B repeats the pair (1, 1).
_ACTIONS = '"lA": [[["0"]]], "rA": [[["0"]]], "lB": [[["0"]]], "rB": [[["0"]]]'
_A = '"A": {"dim": 1, "q": "-1", "products": []}'
_PAIR = '{"i": 1, "j": 1, "out": {}}'
REFUSED = {
    "refused_q_zero.json":
        ("matched-pair", f'{{{_A}, "B": {{"dim": 1, "q": "0", "products": []}}, {_ACTIONS}}}'),
    "refused_missing_q.json":
        ("matched-pair", f'{{{_A}, "B": {{"dim": 1, "products": []}}, {_ACTIONS}}}'),
    "refused_two_q.json":
        ("matched-pair", f'{{{_ACTIONS}, {_A}, "B": {{"dim": 1, "q": "2", "products": []}}}}'),
    "refused_escaped_digit.json":
        ("algebra", '{"dim": 2, "q": "-1", "products": '
                    '[{"i": 1, "j": 1, "out": {"2": "\\u0031/0"}}]}'),
    "refused_repeated_pair.json":
        ("matched-pair",
         f'{{{_A}, "B": {{"dim": 1, "q": "-1", "products": [{_PAIR}, {_PAIR}]}}, {_ACTIONS}}}'),
}

# (case name, argv); a case whose argv holds "-o" also digests the file written
CASES = [
    ("verify_algebra_pass", ["verify", "algebra", "e1e1_e2.json", "--json"]),
    ("verify_algebra_fail", ["verify", "algebra", "e2e1_e2.json", "--json"]),
    ("verify_algebra_q2", ["verify", "algebra", "e2e1_e2.json", "--q", "2"]),
    ("verify_bimodule_pass", ["verify", "bimodule", "bimodule_pass.json", "--json"]),
    ("verify_bimodule_fail", ["verify", "bimodule", "bimodule_fail.json", "--json"]),
    ("verify_bimodule_fail_text", ["verify", "bimodule", "bimodule_fail.json", "--q", "-1/2"]),
    ("verify_bimodule_fractions", ["verify", "bimodule", "bimodule_fractions.json", "--json"]),
    ("verify_matched_pass", ["verify", "matched-pair", "matched_pass.json", "--json"]),
    ("verify_matched_fail", ["verify", "matched-pair", "matched_fail.json", "--json"]),
    ("verify_matched_fail_text", ["verify", "matched-pair", "matched_fail.json", "--q", "2"]),
    ("verify_matched_fractions", ["verify", "matched-pair", "matched_fractions.json", "--json"]),
    ("verify_matched_nilpotent", ["verify", "matched-pair", "matched_nilpotent.json", "--json"]),
    ("verify_dendriform_pass", ["verify", "dendriform", "dendriform_pass.json", "--json"]),
    ("verify_dendriform_fail", ["verify", "dendriform", "dendriform_fail.json", "--json"]),
    ("verify_dendriform_sparse", ["verify", "dendriform", "dendriform_sparse.json", "--json"]),
    ("verify_form_symmetric", ["verify", "form", "form_symmetric.json", "--json"]),
    ("verify_form_antisymmetric", ["verify", "form", "form_antisymmetric.json", "--json"]),
    ("verify_form_degenerate", ["verify", "form", "form_degenerate.json", "--json"]),
    ("verify_form_degenerate_text", ["verify", "form", "form_degenerate.json"]),
    ("verify_o_operator_pass", ["verify", "o-operator", "o_operator_pass.json", "--json"]),
    ("verify_o_operator_fail", ["verify", "o-operator", "o_operator_fail.json", "--json"]),
    ("verify_o_operator_wide", ["verify", "o-operator", "o_operator_wide.json", "--json"]),
    ("verify_rota_baxter", ["verify", "rota-baxter", "rb_diag.json", "--json"]),
    ("verify_algebra_nilpotent6", ["verify", "algebra", "nilpotent6.json", "--json"]),
    ("verify_algebra_dense4", ["verify", "algebra", "dense4.json", "--json"]),
    ("verify_algebra_nilpotent4", ["verify", "algebra", "nilpotent4.json", "--json"]),
    ("build_semidirect", ["build", "semidirect", "bimodule_fail.json"]),
    ("build_semidirect_out", ["build", "semidirect", "bimodule_pass.json", "-o", "out.json"]),
    ("build_semidirect_fractions", ["build", "semidirect", "bimodule_fractions.json"]),
    ("build_bowtie", ["build", "bowtie", "matched_fail.json"]),
    ("build_bowtie_fractions", ["build", "bowtie", "matched_fractions.json"]),
    ("build_dual_bimodule", ["build", "dual-bimodule", "bimodule_fail.json"]),
    ("build_dual_bimodule_out", ["build", "dual-bimodule", "bimodule_pass.json",
                                 "-o", "dual.json"]),
    ("build_dual_bimodule_long_q", ["build", "dual-bimodule", "bimodule_long_q.json"]),
    ("build_anticommutator", ["build", "anticommutator", "e2e1_e2.json"]),
    ("build_associated", ["build", "associated", "dendriform_fail.json"]),
    ("build_from_omega", ["build", "dendriform-from-omega", "form_antisymmetric.json",
                          "--force"]),
    ("build_from_omega_refused", ["build", "dendriform-from-omega",
                                  "form_antisymmetric.json"]),
    ("build_from_o_operator", ["build", "dendriform-from-o-operator", "o_operator_fail.json",
                               "--force"]),
    ("build_from_o_operator_pass", ["build", "dendriform-from-o-operator",
                                    "o_operator_pass.json"]),
    ("build_double_quadratic", ["build", "double-quadratic", "e1e1_e2.json", "e2e1_e2.json"]),
    ("build_double_symplectic", ["build", "double-symplectic", "dendriform_pass.json",
                                 "dendriform_zero.json"]),
    ("build_double_symplectic_fail", ["build", "double-symplectic", "dendriform_fail.json",
                                      "dendriform_pass.json"]),
    ("paper_fixtures", ["paper", "fixtures", "--json"]),
    ("classify_dim2", ["classify", "dim2"]),
    ("classify_dim2_json", ["classify", "dim2", "--json"]),
    ("classify_dim2_scaled", ["classify", "dim2", "--grid", "0,1,5"]),
    ("classify_dim2_fractions", ["classify", "dim2", "--grid", "-1/2,0,1/3", "--json"]),
] + [(name[:-5], ["verify", target, name]) for name, (target, _) in REFUSED.items()]


def write_documents(directory: pathlib.Path) -> None:
    """The inline documents and the files of ``fixtures/``, in ``directory``."""
    for src in sorted((ROOT / "fixtures").glob("*.json")):
        shutil.copy(src, directory / src.name)
    for name, doc in DOCS.items():
        (directory / name).write_text(json.dumps(doc, indent=2) + "\n")
    for name, (_, text) in REFUSED.items():
        (directory / name).write_text(text)


def digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()


def run_case(argv: list[str]) -> str:
    """Run one command in the current directory and digest its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    parts = [rc, out.getvalue(), err.getvalue()]
    if "-o" in argv:
        parts.append(pathlib.Path(argv[argv.index("-o") + 1]).read_text())
    return digest(*parts)


def demo_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_documents(directory)
    return directory


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def test_manifest_covers_every_case(manifest):
    assert sorted(manifest["cli"]) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_bytes_match_the_manifest(name, argv, documents, manifest, monkeypatch):
    monkeypatch.chdir(documents)
    monkeypatch.delenv("ANTIASSOC_FIXTURES", raising=False)
    assert run_case(argv) == manifest["cli"][name]


def cli_digests() -> dict:
    """Every case's digest, each run in process in one fresh temporary
    directory of the documents, without ``$ANTIASSOC_FIXTURES``."""
    previous = os.getcwd()
    os.environ.pop("ANTIASSOC_FIXTURES", None)
    with tempfile.TemporaryDirectory() as work:
        write_documents(pathlib.Path(work))
        os.chdir(work)
        try:
            return {name: run_case(argv) for name, argv in CASES}
        finally:
            os.chdir(previous)


# each interpreter mode a child process runs the whole corpus in: -O strips
# every assert and __debug__ branch, and each hash seed orders every set of
# strings its own way
MODES = {
    "-O, PYTHONHASHSEED=random": (["-O"], "random"),
    "PYTHONHASHSEED=0": ([], "0"),
    "PYTHONHASHSEED=1": ([], "1"),
}
_CHILD = ("import json, sys; from tests.test_cli_golden import cli_digests; "
          "json.dump(cli_digests(), sys.stdout)")


def test_every_interpreter_mode_prints_the_recorded_bytes(tmp_path, manifest):
    """Three children, started together, each run every case in process;
    every (mode, case) whose digest is not the manifest's is named."""
    env = {k: v for k, v in os.environ.items() if k != "ANTIASSOC_FIXTURES"}
    path = [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")]
    # the children import from the checkout, and must leave no bytecode in it
    env.update(PYTHONPATH=os.pathsep.join(filter(None, path)), PYTHONDONTWRITEBYTECODE="1")
    with contextlib.ExitStack() as stack:
        procs = {
            mode: stack.enter_context(subprocess.Popen(
                [sys.executable, *flags, "-c", _CHILD], cwd=tmp_path,
                env=dict(env, PYTHONHASHSEED=seed), text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
            for mode, (flags, seed) in MODES.items()
        }
        try:
            runs = {mode: proc.communicate(timeout=120) for mode, proc in procs.items()}
        except subprocess.TimeoutExpired:
            for proc in procs.values():
                proc.kill()
            raise
    for mode, proc in procs.items():
        assert proc.returncode == 0, f"{mode}: {runs[mode][1]}"
    differ = [(mode, name) for mode, (out, _) in runs.items()
              for name, got in json.loads(out).items() if got != manifest["cli"][name]]
    assert differ == []


def _commands(parser, prefix=()):
    """Every leaf command of ``parser``, as the tuple of words naming it."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix
    for action in subs:
        for word, child in action.choices.items():
            yield from _commands(child, prefix + (word,))


def test_every_command_has_a_golden_case():
    missing = [words for words in _commands(cli._build_parser())
               if not any(tuple(argv[:len(words)]) == words for _, argv in CASES)]
    assert missing == []


def record() -> dict:
    """Digests of every case and every demo's stdout, from this checkout."""
    demos = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], env=demo_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        demos[demo.name] = digest(proc.stdout)
    return {"cli": cli_digests(), "demos": demos}


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST.relative_to(ROOT)}")
