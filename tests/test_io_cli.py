import json
import os
from fractions import Fraction

import pytest

from antiassoc import cli, operators
from antiassoc import io as aio
from antiassoc.io import (
    ParseError,
    algebra_to_doc,
    basis_names,
    double_basis_names,
    dump_json,
    format_element,
    load_algebra,
    load_bimodule,
    load_dendriform,
    load_form,
    load_rota_baxter,
)

E1E1_DOC = {"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"2": "1"}}]}
E2E1_DOC = {"dim": 2, "q": "-1", "products": [{"i": 2, "j": 1, "out": {"2": "1"}}]}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(dump_json(doc) if isinstance(doc, dict) else doc)
    return str(p)


def test_sparse_and_dense_agree(tmp_path):
    sparse = write(tmp_path, "s.json", E1E1_DOC)
    A = load_algebra(sparse)
    dense = write(tmp_path, "d.json", algebra_to_doc(A))
    B = load_algebra(dense)
    assert A.c == B.c
    assert A.q == B.q == Fraction(-1)


def test_algebra_file_reference(tmp_path):
    alg = write(tmp_path, "alg.json", E1E1_DOC)
    bim = write(
        tmp_path,
        "bim.json",
        {
            "algebra": "alg.json",
            "module_dim": 1,
            "l": [[["0"]], [["0"]]],
            "r": [[["0"]], [["0"]]],
        },
    )
    A, M = load_bimodule(bim)
    assert A.dim == 2
    assert M.module_dim == 1
    del alg


def test_parse_error_reports_byte_offset(tmp_path):
    p = write(tmp_path, "bad.json", '{"dim": 2, "q": }')
    with pytest.raises(ParseError) as exc:
        load_algebra(p)
    assert exc.value.offset is not None
    assert "bad.json" in str(exc.value)


def test_zero_denominator_is_rejected(tmp_path):
    doc = {"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"2": "1/0"}}]}
    p = write(tmp_path, "z.json", doc)
    with pytest.raises(ParseError) as exc:
        load_algebra(p)
    assert exc.value.token == "1/0"
    # the offset counts UTF-8 bytes, also after non-ASCII text
    raw = json.dumps({"note": "ééé", **doc}, ensure_ascii=False).encode("utf-8")
    (tmp_path / "z8.json").write_bytes(raw)
    with pytest.raises(ParseError) as exc:
        load_algebra(str(tmp_path / "z8.json"))
    assert exc.value.offset == raw.index(b"1/0")


@pytest.mark.parametrize("literal", ["true", "null"])
def test_json_literal_token_is_located(tmp_path, literal):
    raw = '{"dim": 2, "q": %s, "products": []}' % literal
    p = write(tmp_path, "lit.json", raw)
    with pytest.raises(ParseError) as exc:
        load_algebra(p)
    assert exc.value.token == literal
    assert exc.value.offset == 16


@pytest.mark.parametrize("bad", [0.5, True, "0.5", "1 /2", "", "two"])
def test_nonrational_values_are_rejected(tmp_path, bad):
    doc = {"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"2": bad}}]}
    p = tmp_path / "nr.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_algebra(str(p))


@pytest.mark.parametrize(
    "out, token",
    [({"2": "\u0661"}, "\u0661"), ({"\u00b2": "1"}, "\u00b2")],
    ids=["value", "out_key"],
)
def test_non_ascii_digits_are_located(tmp_path, capsys, out, token):
    """An Arabic-Indic one as a value and a superscript two as an out key
    are not ASCII digits, so each is a ParseError at its own byte."""
    doc = {"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": out}]}
    raw = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    p = tmp_path / "digits.json"
    p.write_bytes(raw)
    with pytest.raises(ParseError) as exc:
        load_algebra(str(p))
    assert exc.value.token == token
    assert exc.value.offset == raw.index(token.encode("utf-8"))
    assert cli.run(["verify", "algebra", str(p)]) == 2
    assert f"{p}: byte {exc.value.offset}: " in capsys.readouterr().err
    ok = write(tmp_path, "ok.json", E1E1_DOC)
    assert cli.run(["verify", "algebra", ok, "--q", "\u0661"]) == 2
    capsys.readouterr()


def test_q_zero_is_rejected(tmp_path):
    p = write(tmp_path, "q0.json", {"dim": 2, "q": "0", "products": []})
    with pytest.raises(ParseError):
        load_algebra(p)


@pytest.mark.parametrize(
    "command, load, products",
    [
        ("algebra", load_algebra, "products"),
        ("dendriform", load_dendriform, "prec_products"),
    ],
)
def test_dim_above_bound_is_rejected(tmp_path, capsys, command, load, products):
    p = write(tmp_path, "big.json", {"dim": aio.MAX_DIM + 1, "q": "-1", products: []})
    with pytest.raises(ParseError):
        load(p)
    assert cli.run(["verify", command, p]) == 2
    assert f"dim must be at most {aio.MAX_DIM}" in capsys.readouterr().err


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_algebra(str(tmp_path / "absent.json"))


def test_unknown_form_kind(tmp_path):
    alg = write(tmp_path, "a.json", E1E1_DOC)
    p = write(
        tmp_path,
        "f.json",
        {
            "algebra": "a.json",
            "form": {"dim": 2, "kind": "hermitian", "gram": [["0", "1"], ["1", "0"]]},
        },
    )
    with pytest.raises(ParseError):
        load_form(p)
    del alg


def test_rational_str_and_format_element():
    v = [Fraction(1), Fraction(0), Fraction(-2)]
    assert format_element(v) == "e1 - 2*e3"
    assert format_element([Fraction(0)] * 2) == "0"
    assert format_element([Fraction(-1), Fraction(1, 2)]) == "-e1 + 1/2*e2"


def test_basis_names():
    assert basis_names(3) == ["e1", "e2", "e3"]
    assert double_basis_names(2) == ["e1", "e2", "e1*", "e2*"]


def test_dump_json_is_deterministic():
    a = dump_json({"b": 1, "a": [2, 3]})
    b = dump_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_cli_verify_algebra_pass(tmp_path, capsys):
    p = write(tmp_path, "ok.json", E1E1_DOC)
    assert cli.run(["verify", "algebra", p]) == 0
    out = capsys.readouterr().out
    assert "q-associative: pass (8/8 triples)" in out


def test_cli_verify_algebra_fail(tmp_path, capsys):
    p = write(tmp_path, "bad.json", E2E1_DOC)
    assert cli.run(["verify", "algebra", p]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "violation at (2, 1, 1): residual e2" in out


def test_cli_verify_algebra_json(tmp_path, capsys):
    p = write(tmp_path, "ok.json", E1E1_DOC)
    assert cli.run(["verify", "algebra", p, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["command"] == "verify-algebra"
    assert "fingerprint" in doc


def test_cli_q_override(tmp_path, capsys):
    p = write(tmp_path, "ok.json", E1E1_DOC)
    assert cli.run(["verify", "algebra", p, "--q", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["info"]["q"] == "2"


def test_cli_matched_pair_q_override(tmp_path, capsys):
    # e1.e1 = e1 is associative (q = 1) but not antiassociative (q = -1)
    zero_action = [[["0"]]]
    p = write(tmp_path, "mp.json", {
        "A": {"dim": 1, "q": "1", "products": [{"i": 1, "j": 1, "out": {"1": "1"}}]},
        "B": {"dim": 1, "q": "1", "products": []},
        "lA": zero_action, "rA": zero_action, "lB": zero_action, "rB": zero_action,
    })
    assert cli.run(["verify", "matched-pair", p]) == 0
    assert cli.run(["verify", "matched-pair", p, "--q", "-1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    p = write(tmp_path, "broken.json", "{nope")
    assert cli.run(["verify", "algebra", p]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_exit_code(tmp_path, capsys):
    assert cli.run(["verify", "algebra", str(tmp_path / "no.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, document",
    [
        ("algebra", '"self.json"'),
        ("dendriform", '"self.json"'),
        ("bimodule", {"algebra": "self.json", "module_dim": 1, "l": [], "r": []}),
    ],
)
def test_cli_self_reference_is_a_parse_error(tmp_path, capsys, command, document):
    """A file naming itself as its own content exits 2 instead of recursing."""
    write(tmp_path, "self.json", '"self.json"')
    doc = write(tmp_path, "doc.json", document)
    assert cli.run(["verify", command, doc]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "self.json" in err


def test_cli_reference_cycle_is_a_parse_error(tmp_path, capsys):
    a = write(tmp_path, "a.json", '"b.json"')
    write(tmp_path, "b.json", '"a.json"')
    assert cli.run(["verify", "algebra", a]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "circular file reference" in err


def test_reference_chain_without_cycle_resolves(tmp_path):
    write(tmp_path, "alg.json", E1E1_DOC)
    write(tmp_path, "link.json", '"alg.json"')
    A = load_algebra(write(tmp_path, "top.json", '"link.json"'))
    assert A.dim == 2


def test_cli_usage_error_exit_code(capsys):
    assert cli.run(["verify", "algebra"]) == 2
    capsys.readouterr()


def test_cli_verify_form_general_is_rejected(tmp_path, capsys):
    alg = write(tmp_path, "a.json", E1E1_DOC)
    f = write(
        tmp_path,
        "f.json",
        {
            "algebra": "a.json",
            "form": {"dim": 2, "kind": "general", "gram": [["0", "1"], ["1", "0"]]},
        },
    )
    assert cli.run(["verify", "form", f]) == 2
    capsys.readouterr()
    del alg


def test_cli_verify_rota_baxter(tmp_path, capsys):
    alg = write(tmp_path, "a.json", E1E1_DOC)
    rb = write(
        tmp_path,
        "rb.json",
        {"algebra": "a.json", "tau": [["1", "0"], ["0", "1/2"]]},
    )
    assert cli.run(["verify", "rota-baxter", rb]) == 0
    out = capsys.readouterr().out
    assert "pass (4/4 pairs)" in out
    del alg


def test_cli_build_semidirect_writes_output(tmp_path, capsys):
    alg = write(tmp_path, "a.json", E1E1_DOC)
    bim = write(
        tmp_path,
        "bim.json",
        {
            "algebra": "a.json",
            "module_dim": 1,
            "l": [[["0"]], [["0"]]],
            "r": [[["0"]], [["0"]]],
        },
    )
    out_path = str(tmp_path / "out.json")
    assert cli.run(["build", "semidirect", bim, "-o", out_path]) == 0
    assert "wrote" in capsys.readouterr().out
    with open(out_path) as fh:
        doc = json.load(fh)
    assert doc["algebra"]["dim"] == 3
    assert doc["report"]["passed"] is True
    inner = write(tmp_path, "inner.json", doc["algebra"])
    assert load_algebra(inner).dim == 3
    del alg


def test_cli_build_anticommutator(tmp_path, capsys):
    p = write(tmp_path, "a.json", E1E1_DOC)
    assert cli.run(["build", "anticommutator", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebra"]["dim"] == 2


def test_cli_build_dendriform_from_omega_refusal(tmp_path, capsys):
    # cyclicity fails for this pairing on e1.e1=e2, so the build is refused
    alg = write(tmp_path, "a.json", E1E1_DOC)
    f = write(
        tmp_path,
        "w.json",
        {
            "algebra": "a.json",
            "form": {
                "dim": 2,
                "kind": "antisymmetric",
                "gram": [["0", "1"], ["-1", "0"]],
            },
        },
    )
    assert cli.run(["build", "dendriform-from-omega", f]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert cli.run(["build", "dendriform-from-omega", f, "--force"]) == 1
    capsys.readouterr()
    del alg


ZERO_ACTIONS = [[["0", "0"], ["0", "0"]]] * 2


@pytest.mark.parametrize("target, check, data", [
    ("dendriform-from-omega", "check_symplectic",
     {"form": {"dim": 2, "kind": "antisymmetric", "gram": [["0", "1"], ["-1", "0"]]}}),
    ("dendriform-from-o-operator", "check_o_operator",
     {"bimodule": {"module_dim": 2, "l": ZERO_ACTIONS, "r": ZERO_ACTIONS},
      "T": [["1", "0"], ["0", "1"]]}),
], ids=["omega", "o-operator"])
@pytest.mark.parametrize("algebra, flags", [
    ({"dim": 2, "q": "-1", "products": []}, []),  # precondition holds
    (E1E1_DOC, ["--force"]),  # precondition fails
], ids=["holds", "forced"])
def test_cli_dendriform_build_checks_precondition_once(
    tmp_path, monkeypatch, capsys, target, check, data, algebra, flags
):
    calls = []
    real = getattr(operators, check)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, check, counted)
    monkeypatch.setattr(operators, check, counted)
    f = write(tmp_path, "in.json", {"algebra": algebra, **data})
    cli.run(["build", target, f] + flags)
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_classify_small_grid(tmp_path, capsys):
    assert cli.run(["classify", "dim2", "--grid", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "3 antiassociative tables over grid {0,1}" in out
    assert "audit of the published table:" in out
    assert "e2.e1=e2: antiassociative FAIL" in out


def test_cli_classify_merges_scaled_tables(capsys):
    # e2.e2 = e1 and e2.e2 = 5*e1 are isomorphic; the witness holds 1/5
    assert cli.run(["classify", "dim2", "--grid", "0,1,5"]) == 0
    assert "\n2 isomorphism classes\n" in capsys.readouterr().out


def test_cli_classify_json(capsys):
    assert cli.run(["classify", "dim2", "--grid", "0,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["solutions"]) == 3
    assert doc["audit"]["distinct_valid_classes"] == 2


def test_cli_classify_rejects_junk_grid(capsys):
    assert cli.run(["classify", "dim2", "--grid", "0,banana"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--grid", ","], ["--grid="], ["--grid", " , "]])
def test_cli_classify_rejects_empty_grid(capsys, argv):
    assert cli.run(["classify", "dim2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty grid" in captured.err


def test_cli_paper_fixtures_honest_failure(capsys):
    code = cli.run(["paper", "fixtures"])
    out = capsys.readouterr().out
    assert code == 1
    assert "4/6 cases fully reproduced" in out
    assert "Case I" in out and "Case IV" in out


def test_cli_paper_fixtures_json_deterministic(capsys):
    assert cli.run(["paper", "fixtures", "--json"]) == 1
    first = capsys.readouterr().out
    assert cli.run(["paper", "fixtures", "--json"]) == 1
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["all_passed"] is False
    assert [c["passed"] for c in doc["cases"]] == [False, False, True, True, True, True]


def test_cli_fixture_dir_override(tmp_path, capsys, monkeypatch):
    import importlib.resources

    src = importlib.resources.files("antiassoc") / "fixtures" / "case4.json"
    (tmp_path / "case4.json").write_text(src.read_text())
    monkeypatch.setenv("ANTIASSOC_FIXTURES", str(tmp_path))
    assert cli.run(["paper", "fixtures"]) == 0
    out = capsys.readouterr().out
    assert "1/1 cases fully reproduced" in out


def test_cli_malformed_fixture_exits_2(tmp_path, capsys, monkeypatch):
    import importlib.resources

    src = importlib.resources.files("antiassoc") / "fixtures" / "case4.json"
    doc = json.loads(src.read_text())
    doc["displayed"] = None
    (tmp_path / "case4.json").write_text(json.dumps(doc))
    monkeypatch.setenv("ANTIASSOC_FIXTURES", str(tmp_path))
    assert cli.run(["paper", "fixtures"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "displayed must be a list" in err


def test_cli_load_rota_baxter_repo_fixture():
    # repo-level fixtures double as loader examples, including the
    # relative file reference inside rb_diag.json
    here = os.path.join(os.path.dirname(__file__), "..", "fixtures", "rb_diag.json")
    A, tau = load_rota_baxter(here)
    assert A.dim == 2
    assert tau.m.entries[1][1] == Fraction(1, 2)


def test_load_dendriform_sparse(tmp_path):
    p = write(
        tmp_path,
        "d.json",
        {
            "dim": 2,
            "q": "-1",
            "prec_products": [{"i": 1, "j": 1, "out": {"2": "1/2"}}],
            "succ_products": [{"i": 1, "j": 1, "out": {"2": "1/2"}}],
        },
    )
    D = load_dendriform(p)
    assert D.c_prec.entries[0][0][1] == Fraction(1, 2)
    assert D.q == Fraction(-1)
