import contextlib
import copy
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from io import StringIO
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from antiassoc import CheckReport, Violation, algebra, classify2d, cli, operators
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
from antiassoc.linalg import exact_str

from .test_cli_golden import CASES, DOCS, REFUSED, ROOT, demo_env, write_documents

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


@pytest.mark.parametrize("literal", ["true", "null", '{"a": 1}', '["1"]'])
def test_json_literal_token_is_located(tmp_path, literal):
    """A non-string token is spelled as JSON spells it, so it is found at
    its own byte when the file uses json's default separators."""
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
    "out, token, ensure_ascii",
    [({"2": "\u0661"}, "\u0661", False), ({"\u00b2": "1"}, "\u00b2", False),
     ({"2": "\u0661"}, "\u0661", True), ({"\u00b2": "1"}, "\u00b2", True)],
    ids=["value", "out_key", "value_escaped", "out_key_escaped"],
)
def test_non_ascii_digits_are_located(tmp_path, capsys, out, token, ensure_ascii):
    """An Arabic-Indic one as a value and a superscript two as an out key
    are not ASCII digits, so each is a ParseError at its own byte, also
    where the file spells it with a \\u escape, as ensure_ascii writes it."""
    doc = {"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": out}]}
    raw = json.dumps(doc, ensure_ascii=ensure_ascii).encode("utf-8")
    spelled = json.dumps(token, ensure_ascii=ensure_ascii)[1:-1].encode("utf-8")
    p = tmp_path / "digits.json"
    p.write_bytes(raw)
    with pytest.raises(ParseError) as exc:
        load_algebra(str(p))
    assert exc.value.token == token
    assert exc.value.offset == raw.index(spelled) > 0
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


EMPTY_ALGEBRA = {"dim": 0, "q": "-1", "c": []}
BIG_MODULE = {"module_dim": aio.MAX_DIM + 1, "l": [], "r": []}


@pytest.mark.parametrize(
    "argv, doc, field",
    [
        (["build", "semidirect", "-o", "out.json"], {"algebra": EMPTY_ALGEBRA, **BIG_MODULE},
         "module_dim"),
        (["verify", "bimodule"], {"algebra": EMPTY_ALGEBRA, **BIG_MODULE}, "module_dim"),
        (["verify", "o-operator"], {"algebra": EMPTY_ALGEBRA, "bimodule": BIG_MODULE, "T": []},
         "bimodule.module_dim"),
    ],
    ids=["build-semidirect", "verify-bimodule", "verify-o-operator"],
)
def test_module_dim_above_bound_is_rejected(tmp_path, monkeypatch, capsys, argv, doc, field):
    """A bimodule of a 0-dim algebra has no actions to spell out, so a
    two-line document could otherwise ask for (module_dim)^3 entries."""
    monkeypatch.chdir(tmp_path)
    assert cli.run([*argv, write(tmp_path, "big_module.json", doc)]) == 2
    assert f"{field} must be at most {aio.MAX_DIM}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _cli_in_bounded_child(*argv):
    """The CLI in a child process limited to 1.5 GB of address space and
    60 s, so an endless read fails there instead of stalling the suite."""
    resource = pytest.importorskip("resource")
    limit = 1_500_000_000

    def bound():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "antiassoc.cli", *argv], env=demo_env(), preexec_fn=bound,
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("kind", ["direct", "referenced"])
def test_a_file_that_is_not_regular_is_refused(tmp_path, kind):
    """/dev/zero never ends: it must be refused before it is read, whether
    named on the command line or referenced from a document."""
    if kind == "direct":
        argv = ["verify", "algebra", "/dev/zero"]
    else:
        doc = {"algebra": "/dev/zero", "module_dim": 1, "l": [], "r": []}
        argv = ["verify", "bimodule", write(tmp_path, "refers.json", doc)]
    proc = _cli_in_bounded_child(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "/dev/zero: byte 0: not a regular file" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_stdout_ends_the_cli_as_a_filter():
    """A reader gone away, as in ``antiassoc classify dim2 | head -1``, is
    not bad input: the CLI dies of SIGPIPE as a Unix filter does, with
    nothing on stderr, and does not exit 2 with an error line."""
    read, write = os.pipe()
    os.close(read)  # no reader, before the child writes a byte
    try:
        proc = subprocess.run([sys.executable, "-m", "antiassoc.cli", "classify", "dim2"],
                              env=demo_env(), stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, b"")


class _ClosedOutput(StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_broken_pipe_is_not_reported_as_an_input_error(capsys):
    """In process, where SIGPIPE is ignored, a closed stdout raises out of
    ``run``: it is not printed as an input error with exit 2."""
    with mock.patch("sys.stdout", _ClosedOutput()), pytest.raises(BrokenPipeError):
        cli.run(["classify", "dim2"])
    assert capsys.readouterr().err == ""


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


class _DictSubclass(dict):
    pass


_KEYS = st.text(max_size=4) | st.sampled_from(["", '"', 'a"b', "\\", "\n\t\x00\x1f", "é", "\u2028", "😀"])
_LEAVES = (
    st.none() | st.booleans() | st.sampled_from([0, 1, -1]) | st.integers()
    | st.integers(min_value=2**64) | st.floats() | st.sampled_from([float("inf"), -0.0])
    | st.text(max_size=6) | st.builds(_DictSubclass) | st.just(()) | st.just([]) | st.just({})
)
_FLAT = (
    st.lists(st.text(max_size=4), min_size=1) | st.lists(st.integers(), min_size=1)
    | st.lists(st.booleans() | st.sampled_from([0, 1]), min_size=1)
)
_DOCS = st.recursive(
    _LEAVES | _FLAT,
    lambda kids: (
        st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, kids, max_size=4)
        | st.dictionaries(_KEYS, kids, max_size=3).map(_DictSubclass)
        | st.dictionaries(st.integers(-3, 3) | st.floats(), kids, max_size=3)
    ),
    max_leaves=24,
)


@given(_DOCS)
@settings(max_examples=300, deadline=None)
def test_dump_json_writes_the_bytes_of_json_dumps(doc):
    assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# a residual entry that str refuses to spell
_LONG = Fraction(2 * 10 ** ((sys.get_int_max_str_digits() or 4300) + 1) + 1, 3)
_RESIDUALS = st.lists(
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**6)), max_size=6)
_VIOLATIONS = st.builds(
    Violation,
    st.text(max_size=6) | st.sampled_from(["q_assoc", 'l_"law', "\\", "é", " ", "😀"]),
    st.lists(st.integers(1, 12), min_size=1, max_size=5).map(tuple),
    _RESIDUALS | _RESIDUALS.map(lambda r: r + [_LONG]),
)
# kernel violations: integer numerators over a law's scale, which is negative
# when q is, here with prime factors up to 10^6
_SCALES = st.builds(
    lambda sign, factors: sign * math.prod(factors),
    st.sampled_from([1, -1]),
    st.lists(st.integers(1, 10**6) | st.sampled_from([2, 3, 999_979, 999_983]),
             min_size=1, max_size=3),
)
_NUMERATORS = st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=6)


@st.composite
def _kernel_violations(draw) -> list[Violation]:
    """The violations ``algebra._run_laws`` makes of drawn integer residuals
    at drawn index tuples over one drawn scale."""
    rows = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 11), min_size=1, max_size=5).map(tuple),
        _NUMERATORS | _NUMERATORS.map(lambda r: r + [_LONG.numerator]),
    ), max_size=4))
    residuals = iter([res for _, res in rows])
    law = (draw(st.sampled_from(["q_assoc", "jacobi", "l_law"])), lambda *idx: next(residuals))
    return algebra._run_laws([idx for idx, _ in rows], [law], draw(_SCALES))


_INFO = st.dictionaries(_KEYS, st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=3),
    max_leaves=8,
), max_size=4)
_REPORTS = st.builds(
    CheckReport, st.booleans(),
    st.lists(st.lists(_VIOLATIONS, max_size=3) | _kernel_violations(), max_size=3)
    .map(lambda parts: sum(parts, [])),
    _INFO,
)
_REPORT_DOCS = st.recursive(
    _REPORTS | _LEAVES,
    lambda kids: (
        st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, kids, max_size=3)
        | st.dictionaries(st.integers(-3, 3), kids, max_size=3)
    ),
    max_leaves=6,
)


def _as_dicts(doc):
    """``doc`` with each CheckReport replaced by its ``as_dict()``."""
    if isinstance(doc, CheckReport):
        return doc.as_dict()
    if isinstance(doc, dict):
        return {k: _as_dicts(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_dicts(x) for x in doc]
    return doc


@given(_REPORT_DOCS)
@example(CheckReport(True, [], {}))
@example({"report": CheckReport(False, [Violation("q_assoc", (1, 1, 1), [_LONG])], {"q": "-1"})})
@example([CheckReport(False, [Violation('a"\\é', (2,), [Fraction(10**12 + 1, 10**6)]),
                              Violation("q", (1, 2, 3, 4, 5), [])],
                      {"n": [1, {"a": [None, True]}], "m": {}})])
@example(CheckReport(False, algebra._run_laws(
    [(0, 1, 2), (1, 1, 1)],
    [("q_assoc", lambda i, j, k: [[6, -4, 0], [999_983, 0, -2 * 999_983]][i])],
    -4 * 999_983), {}))
@settings(max_examples=200, deadline=None)
def test_dump_json_writes_a_report_as_its_as_dict(doc):
    """A CheckReport anywhere in a document is written as json.dumps writes
    its ``as_dict()``, a residual past the int-string limit included, for
    violations made from Fractions and for kernel ones made from integers
    over a scale.  The dump comes first, so it reads the integers."""
    assert dump_json(doc) == json.dumps(_as_dicts(doc), sort_keys=True, indent=2) + "\n"


def test_dump_json_spells_a_kernel_numerator_past_the_limit_as_its_as_dict():
    """A kernel entry that str refuses is spelled whole, through
    ``exact_str``; hypothesis cannot print such a violation as an example."""
    rows = [[6, -4, 0], [1, _LONG.numerator, 0]]
    rep = CheckReport(False, algebra._run_laws(
        [(0, 1, 2), (1, 1, 1)], [("q_assoc", lambda i, j, k: rows[i])], -4 * 999_983), {})
    assert [v.scale for v in rep.violations] == [-4 * 999_983] * 2
    assert dump_json(rep) == json.dumps(rep.as_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [
    Fraction(1, 2), {1, 2}, ["1", Fraction(1)], [1, {2}], {"a": {"b": (object(),)}},
    {"a": 1, 2: 3}, {(1, 2): 3},
], ids=["fraction", "set", "str_list", "int_list", "nested", "mixed_keys", "tuple_key"])
def test_dump_json_refuses_what_json_dumps_refuses(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dump_json(bad)


@pytest.mark.parametrize("doc, token, message", [
    ('{"dim": 2, "q": "-1", "c": [[[1, "1"], [1, true]], [[0, 0], [0, 0]]]}',
     "true", 'expected a rational string like "-1/2"'),
    ('{"dim": 2, "q": "1/2", "c": [[["1/2", "1/2"], ["1/0", "0"]], [["0", "0"], ["0", "0"]]]}',
     "1/0", "denominator is zero"),
], ids=["true_after_1", "zero_denominator_after_1_2"])
def test_the_rational_memo_lets_no_token_stand_in_for_another(tmp_path, capsys, doc, token,
                                                               message):
    """A token is refused with its own message and byte after an equal
    number, or a valid token of the same numerator, was read and kept."""
    p = write(tmp_path, "memo.json", doc)
    assert cli.run(["verify", "algebra", p]) == 2
    offset = doc.index(token)
    assert capsys.readouterr().err == f"error: {p}: byte {offset}: {message} (token {token!r})\n"


@pytest.mark.parametrize("text, token, what", [
    ('{"dim": 1, "q": "-1", "c": [[[N]]]}', "N", "c[1][1][1]: "),
    ('{"dim": 1, "q": "-1", "c": [[["N/3"]]]}', "N/3", "c[1][1][1]: "),
    ('{"dim": 1, "q": "3/N", "c": [[["1"]]]}', "3/N", "q: "),
    ('{"dim": 1, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"N": "1"}}]}', "N",
     "products[1].out key: "),
], ids=["json_integer", "numerator", "denominator", "sparse_key"])
def test_an_integer_past_the_int_string_limit_is_located(tmp_path, capsys, text, token, what):
    """Python refuses to convert an integer string of more digits than
    sys.get_int_max_str_digits(); the loader names the file, the value's
    path and the token's byte instead.  N stands for such an integer.  The
    token is spelled by its first and last 20 characters and its length."""
    limit = sys.get_int_max_str_digits()
    text, token = (x.replace("N", "7" * (limit + 1)) for x in (text, token))
    p = write(tmp_path, "long.json", text)
    assert cli.run(["verify", "algebra", p]) == 2
    assert capsys.readouterr().err == (
        f"error: {p}: byte {text.index(token)}: {what}integer has more than {limit} digits "
        f"(token {token[:20]!r}...{token[-20:]!r}, {len(token)} characters)\n"
    )


def test_a_parse_error_spells_a_long_token_by_its_ends():
    """A token of up to 80 characters is spelled whole; a longer one by its
    first and last 20 characters and its length."""
    short = "7" * 80
    assert str(ParseError("f.json", 3, short, "bad")) == f"f.json: byte 3: bad (token {short!r})"
    long = "1" + "0" * 79 + "2"
    assert str(ParseError("f.json", 3, long, "bad")) == (
        "f.json: byte 3: bad (token '10000000000000000000'...'00000000000000000002', "
        "81 characters)"
    )
    assert ParseError("f.json", 3, long, "bad").token == long


def test_a_residual_past_the_int_string_limit_prints(tmp_path, capsys):
    """e1.e1 = 10^z e1 at q = -1 leaves the residual 2 * 10^(2z) e1, with more
    digits than str converts; the report prints in full, as text and as
    JSON, and the check fails with exit 1."""
    z = (sys.get_int_max_str_digits() or 4300) // 2 + 50
    p = write(tmp_path, "big.json", {"dim": 1, "q": "-1", "c": [[["1" + "0" * z]]]})
    residual = "2" + "0" * (2 * z)
    assert cli.run(["verify", "algebra", p]) == 1
    assert capsys.readouterr() == (
        f"q-associative: FAIL (0/1 triples)\nviolation at (1, 1, 1): residual {residual}*e1\n", ""
    )
    assert cli.run(["verify", "algebra", p, "--json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["report"]["violations"] == [
        {"identity_id": "q_assoc", "indices": [1, 1, 1], "residual": [residual]}
    ]


def test_a_built_entry_past_the_int_string_limit_prints(tmp_path, capsys):
    """The dual of a bimodule scales r by q^2, so a q of 3000 digits gives
    an entry of 6000, more than str converts; the built document spells it
    whole and the failing bimodule check exits 1, not 2."""
    q = -int("7" * 3000)
    p = tmp_path / "long_q.json"
    p.write_text(json.dumps({"algebra": {"dim": 1, "q": str(q), "products": []},
                             "module_dim": 1, "l": [[["1"]]], "r": [[["1"]]]}))
    assert cli.run(["build", "dual-bimodule", str(p)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["bimodule"]["r"] == [[[exact_str(Fraction(q * q))]]]
    assert len(doc["report"]["violations"]) == 3


def test_the_rational_memo_keeps_only_validated_tokens_of_one_document(tmp_path):
    p = write(tmp_path, "ok.json", {"dim": 1, "q": "-3/7", "c": [[["1/2"]]]})
    ctx, _ = aio._read(p)
    for bad in ("1/0", "0.5", "x", True, 1.5):
        with pytest.raises(ParseError):
            aio._rational(bad, ctx, (), "q")
    assert aio._rational(1, ctx, (), "q") == 1
    assert ctx.rationals == {}
    assert aio._rational("-3/7", ctx, (), "q") == Fraction(-3, 7)
    assert ctx.rationals == {"-3/7": Fraction(-3, 7)}
    # each document read starts its own memo, and loading one fills nothing
    # that outlives it
    state = {name: copy.copy(value) for name, value in vars(aio).items()
             if isinstance(value, (dict, list, set))}
    A = load_algebra(p)
    assert A.q == Fraction(-3, 7) and A.c[0][0][0] == Fraction(1, 2)
    assert state == {name: value for name, value in vars(aio).items() if name in state}
    assert aio._read(p)[0].rationals == {}


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


def test_cli_runs_share_no_flags(tmp_path, capsys):
    # e1.e1 = e1 is associative (q = 1) and fails the q-law at q = 2
    p = write(tmp_path, "idem.json",
              {"dim": 1, "q": "1", "products": [{"i": 1, "j": 1, "out": {"1": "1"}}]})
    assert cli.run(["verify", "algebra", p, "--json", "--q", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["report"]["info"]["q"] == "2"
    assert cli.run(["verify", "algebra", p]) == 0
    assert capsys.readouterr().out.startswith("q-associative: pass (1/1 triples)")


@pytest.mark.parametrize("kind, load, key", [
    ("algebra", load_algebra, "products"),
    ("dendriform", load_dendriform, "prec_products"),
    ("dendriform", load_dendriform, "succ_products"),
])
def test_repeated_product_pair_is_rejected(tmp_path, capsys, kind, load, key):
    """A second entry for the same (i, j) used to replace the first's
    outputs silently; now it is a ParseError naming both entries."""
    entries = [
        {"i": 2, "j": 2, "out": {}},
        {"i": 1, "j": 1, "out": {"2": "1"}},
        {"i": 1, "j": 1, "out": {"1": "1"}},
    ]
    p = write(tmp_path, "dup.json", {"dim": 2, "q": "-1", key: entries})
    with pytest.raises(ParseError) as exc:
        load(p)
    assert f"{key}[3] repeats the pair (i, j) = (1, 1) of {key}[2]" in str(exc.value)
    assert cli.run(["verify", kind, p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: byte ")


@pytest.mark.parametrize("kind, load, key", [
    ("algebra", load_algebra, "products"),
    ("dendriform", load_dendriform, "prec_products"),
    ("dendriform", load_dendriform, "succ_products"),
])
def test_an_out_index_spelled_twice_is_rejected(tmp_path, capsys, kind, load, key):
    """Two spellings of one output index, "2" and "02", used to be merged
    with the last value kept; now it is a ParseError naming the entry and
    both spellings."""
    entries = [{"i": 2, "j": 2, "out": {}}, {"i": 1, "j": 1, "out": {"2": "1", "02": "5"}}]
    p = write(tmp_path, "dup_out.json", json.dumps({"dim": 2, "q": "-1", key: entries}))
    with pytest.raises(ParseError) as exc:
        load(p)
    assert f"{key}[2].out spells the index 2 twice, as '2' and '02'" in str(exc.value)
    assert exc.value.token == "02"
    assert cli.run(["verify", kind, p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: byte ")


@pytest.mark.parametrize("text, key, at", [
    ('{"dim": 2, "q": "-1", "q": "2", "products": [{"i": 1, "j": 1, "out": {"2": "1"}}]}',
     "q", 'q": "2"'),
    ('{"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"2": "1", "2": "5"}}]}',
     "2", '2": "5"'),
    ('{"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "i": 2, "out": {"2": "1"}}]}',
     "i", 'i": 2'),
    ('{"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": {"2": "1"}},'
     ' {"i": 2, "j": 2, "out": {"1": "1", "1": "1"}, "i": 2}]}', "1", '1": "1"}'),
    ('{"dim": 2, "q": "-1", "products": [{"i": 1, "j": 1, "out": {}}], "\\u0071": "2"}',
     "q", '\\u0071"'),
    ('{"dim": N, "dim": 1, "q": "-1", "c": [[["1"]]]}', "dim", 'dim": 1'),
    ('{"dim": 1, "q": "-1", "q": "-1", "dim": 1, "c": [[["1"]]]}', "q", 'q": "-1", "dim'),
], ids=["top_level_q", "sparse_out_index", "products_entry_i", "inner_object_first",
        "escaped_spelling", "past_the_int_string_limit", "first_of_two_repeats"])
def test_a_key_written_twice_is_refused(tmp_path, capsys, text, key, at):
    """JSON keeps the last value of a repeated key, so such a document used
    to be checked at q = 2, or with e1.e1 = 5 e2, and exit 0.  Now the parse
    refuses it, naming the key, at the byte of its second spelling (``at``)
    in the first object to close with a repeat, and the CLI exits 2.  N stands for
    an integer past the int-string limit: the parse that looks for it
    refuses the repeat, which would drop it from the document."""
    text = text.replace("N", "7" * (sys.get_int_max_str_digits() + 1))
    p = write(tmp_path, "dup.json", text)
    with pytest.raises(ParseError) as exc:
        load_algebra(p)
    assert exc.value.token == key
    assert cli.run(["verify", "algebra", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {p}: byte {text.index(at)}: key {key!r} written twice in one object (token {key!r})\n")


def test_a_key_written_twice_in_a_referenced_file_is_refused(tmp_path, capsys):
    """The refusal is made by the parse of every file read, so it names the
    file the algebra is referenced from, not the bimodule document."""
    alg = write(tmp_path, "alg.json", '{"dim": 1, "q": "-1", "products": [], "dim": 1}')
    p = write(tmp_path, "bim.json", {"algebra": "alg.json", "module_dim": 1,
                                     "l": [[["0"]]], "r": [[["0"]]]})
    with pytest.raises(ParseError) as exc:
        load_bimodule(p)
    assert exc.value.path == alg
    assert "key 'dim' written twice in one object" in str(exc.value)
    assert cli.run(["verify", "bimodule", p]) == 2
    assert capsys.readouterr().err.startswith(f"error: {alg}: byte 39: ")


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
    assert capsys.readouterr().err == (
        f"error: {f}: form.kind must be symmetric or antisymmetric to verify\n"
    )
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


# partitions: the command's solutions and, off the default grid, the
# audit's own enumeration; the audit's listed tables are counted from its
# pairwise verdicts
@pytest.mark.parametrize("flags, enumerations, partitions",
                         [([], 1, 1), (["--grid", "0,1"], 2, 2)],
                         ids=["default", "other-grid"])
def test_cli_classify_enumerates_once_per_grid(
    monkeypatch, capsys, flags, enumerations, partitions
):
    calls = {}

    def counted(name):
        real = getattr(classify2d, name)

        def wrapper(arg):
            calls.setdefault(name, []).append(arg)
            return real(arg)

        monkeypatch.setattr(cli, name, wrapper)
        monkeypatch.setattr(classify2d, name, wrapper)

    counted("enumerate_2d_antiassociative")
    counted("partition_into_classes")
    assert cli.run(["classify", "dim2", *flags, "--json"]) == 0
    enumeration = json.loads(capsys.readouterr().out)["audit"]["enumeration"]
    assert len(calls["enumerate_2d_antiassociative"]) == enumerations
    assert len(calls["partition_into_classes"]) == partitions
    assert enumeration["grid"] == ["-1", "0", "1"]
    assert enumeration["solutions"] == 9


@pytest.mark.parametrize("q", ["0", "-0", "0/7", "00"])
def test_a_zero_q_flag_is_refused_as_the_flag(capsys, q):
    """A zero --q is refused by the parser, before the file is read, on a
    line that names the flag and the value, as a zero denominator is; the
    grid of classify dim2 takes 0 as a coefficient."""
    for target in sorted({argv[1] for _, argv in CASES if argv[0] == "verify"}):
        assert cli.run(["verify", target, "missing.json", "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --q: q must be nonzero: {q!r}\n")
    assert cli.run(["verify", "algebra", "missing.json", "--q", "-1/0"]) == 2
    assert capsys.readouterr().err.endswith("error: argument --q: zero denominator: '-1/0'\n")
    assert cli.run(["classify", "dim2", "--grid", q]) == 0


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
    assert tau.entries[1][1] == Fraction(1, 2)


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


ONE_BY_ONE = [[["0"]]]


def test_repeat_in_a_nested_table_names_its_algebra(tmp_path):
    doc = {
        "A": {"dim": 1, "q": "-1", "products": []},
        "B": {"dim": 1, "q": "-1", "products": [{"i": 1, "j": 1, "out": {}}] * 2},
        **dict.fromkeys(["lA", "rA", "lB", "rB"], ONE_BY_ONE),
    }
    p = write(tmp_path, "mp.json", json.dumps(doc))
    with pytest.raises(ParseError) as exc:
        aio.load_matched_pair(p)
    assert exc.value.message == (
        "B.products[2] repeats the pair (i, j) = (1, 1) of B.products[1]"
    )
    assert exc.value.token == "products"


BAD_ROW_C = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0"]]]


def test_wrong_length_row_is_named_by_its_position(tmp_path):
    raw = json.dumps({"dim": 2, "q": "-1", "c": BAD_ROW_C}, separators=(",", ":"))
    p = write(tmp_path, "c.json", raw)
    with pytest.raises(ParseError) as exc:
        load_algebra(p)
    assert exc.value.message == "c[2][2]: expected a list of 2"
    assert exc.value.token == '["0"]'
    assert exc.value.offset == raw.index('["0"]]]')


def test_path_starts_again_at_a_referenced_file(tmp_path):
    module = {"module_dim": 1, "l": [[["0"]]] * 2, "r": [[["0"]]] * 2}
    algebra = {"dim": 2, "q": "-1", "c": BAD_ROW_C}
    inline = write(tmp_path, "inline.json", {"algebra": algebra, **module})
    write(tmp_path, "alg.json", algebra)
    referring = write(tmp_path, "refers.json", {"algebra": "alg.json", **module})
    with pytest.raises(ParseError) as exc:
        load_bimodule(inline)
    assert exc.value.message == "algebra.c[2][2]: expected a list of 2"
    with pytest.raises(ParseError) as exc:
        load_bimodule(referring)
    assert exc.value.message == "c[2][2]: expected a list of 2"
    assert exc.value.path.endswith("alg.json")


def test_unreadable_referenced_file_is_located_at_the_reference(tmp_path, capsys):
    raw = json.dumps({"algebra": "missing.json", "module_dim": 1, "l": [], "r": []})
    p = write(tmp_path, "refers.json", raw)
    with pytest.raises(ParseError) as exc:
        load_bimodule(p)
    assert exc.value.path == p
    assert exc.value.offset == raw.index("missing.json")
    missing = tmp_path / "missing.json"
    assert exc.value.message.startswith(f"algebra: {missing}: byte 0: cannot read file: ")
    assert cli.run(["verify", "bimodule", p]) == 2
    assert capsys.readouterr().err.startswith(f"error: {p}: byte {exc.value.offset}: algebra: ")


def test_error_inside_a_readable_referenced_file_stays_there(tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_bytes(b'{"dim": 2, "q": "\xff"}')
    p = write(tmp_path, "refers.json", {"algebra": "alg.json", "module_dim": 1, "l": [], "r": []})
    with pytest.raises(ParseError) as exc:
        load_bimodule(p)
    assert (exc.value.path, exc.value.offset, exc.value.message) == (
        f"{tmp_path}{os.sep}alg.json", 17, "invalid UTF-8"
    )


BUNDLED = resources.files("antiassoc") / "fixtures"
CASE4 = json.loads((BUNDLED / "case4.json").read_text())


@pytest.mark.parametrize("load, doc, message", [
    (load_form, {"algebra": E1E1_DOC,
                 "form": {"dim": 2, "kind": "symmetric", "gram": [["0", "1"], ["0", "0"]]}},
     "form.gram: kind is symmetric but the gram matrix is not"),
    (aio.load_matched_pair, {"A": {"dim": 1, "q": "-1", "products": []},
                             "B": {"dim": 1, "q": "2", "products": []},
                             **dict.fromkeys(["lA", "rA", "lB", "rB"], ONE_BY_ONE)},
     "B: matched pair requires a single q on both algebras"),
    (aio.load_fixture, {**CASE4, "DAstar": {**CASE4["DAstar"], "q": "2"}},
     "DA and DAstar must have equal dim and q = -1"),
    (load_dendriform, {"dim": 1, "q": "-1", "prec": [[["1"]]], "succ_products": []},
     "dense 'prec' and sparse 'succ_products' cannot be mixed"),
    (load_dendriform, {"dim": 1, "q": "-1", "prec": [[["1"]]], "succ": [[["1"]]],
                       "succ_products": []},
     "dense 'prec' and sparse 'succ_products' cannot be mixed"),
    (aio.load_matched_pair, {"A": {"dim": 1, "q": "-1", "c": [[["1"]]], "products": []},
                             "B": {"dim": 1, "q": "-1", "products": []},
                             **dict.fromkeys(["lA", "rA", "lB", "rB"], ONE_BY_ONE)},
     "A: dense 'c' and sparse 'products' cannot be mixed"),
], ids=["form-kind", "matched-pair-q", "fixture-halves", "dense-prec-sparse-succ",
        "dense-and-sparse-succ", "dense-and-sparse-c"])
def test_values_that_do_not_fit_together_are_located(tmp_path, load, doc, message):
    """Each value is well formed, but the document as a whole is refused by
    the object it builds; that refusal is a ParseError of the document."""
    p = write(tmp_path, "doc.json", doc)
    with pytest.raises(ParseError) as exc:
        load(p)
    assert (exc.value.path, exc.value.message) == (p, message)


@pytest.mark.parametrize("label", [{"x": [True, None]}, 7], ids=["object", "number"])
def test_a_fixture_label_that_is_not_a_string_is_refused(tmp_path, capsys, monkeypatch, label):
    """A label is read as strictly as kind: one that is not a string exits 2
    at its own byte, and no heading spells it in Python."""
    raw = json.dumps({**CASE4, "label": label})
    p = write(tmp_path, "case4.json", raw)
    with pytest.raises(ParseError) as exc:
        aio.load_fixture(p)
    at = raw.index('"label": ') + len('"label": ')
    assert (exc.value.message, exc.value.offset) == ("label must be a string", at)
    monkeypatch.setenv("ANTIASSOC_FIXTURES", str(tmp_path))
    assert cli.run(["paper", "fixtures"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {p}: byte {at}: label must be a string (token ")


@pytest.mark.parametrize("B, message", [
    ({"dim": 1, "products": []}, "B: missing field 'q'"),
    ([], "B: expected a JSON object"),
], ids=["missing-field", "not-an-object"])
def test_a_refused_nested_object_is_named(tmp_path, capsys, B, message):
    """A's "q" comes first in the file, so the byte offset alone would point
    at A; the message names B."""
    doc = {"A": {"dim": 1, "q": "-1", "products": []}, "B": B,
           **dict.fromkeys(["lA", "rA", "lB", "rB"], ONE_BY_ONE)}
    p = write(tmp_path, "mp.json", json.dumps(doc))
    assert cli.run(["verify", "matched-pair", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: byte ")
    assert f": {message} (token " in err


@pytest.mark.parametrize("name, message, spelling", [
    ("refused_q_zero.json", "B.q must be nonzero", '0", "products": []}, "lA"'),
    ("refused_missing_q.json", "B: missing field 'q'", '{"dim": 1, "products"'),
    ("refused_two_q.json", "B: matched pair requires a single q on both algebras",
     '{"dim": 1, "q": "2"'),
    ("refused_escaped_digit.json", "denominator is zero", "\\u0031"),
    ("refused_repeated_pair.json",
     "B.products[2] repeats the pair (i, j) = (1, 1) of B.products[1]",
     '{"i": 1, "j": 1, "out": {}}]'),
], ids=["q_zero", "missing_q", "two_q", "escaped_digit", "repeated_pair"])
def test_a_refusal_is_located_at_the_value_it_names(tmp_path, name, message, spelling):
    """Each offset once fell on an equal, earlier token: A's "q", the "B"
    inside the key "lB", the 1 past its escape, or the first "products".
    Now it is the byte of the value the message names, the first byte
    inside a string's quote, or an object's "{"."""
    target, raw = REFUSED[name]
    p = write(tmp_path, name, raw)
    load = load_algebra if target == "algebra" else aio.load_matched_pair
    with pytest.raises(ParseError) as exc:
        load(p)
    assert exc.value.message == message
    assert exc.value.offset == raw.index(spelling)


@pytest.mark.parametrize("target, raw, message", [
    ("dendriform", '{"dim": 1, "q": "-1", "prec": [[["1"]]], "succ_products": []}',
     "dense 'prec' and sparse 'succ_products' cannot be mixed"),
    ("bimodule", '{"algebra": {"dim": 1, "q": "-1", "c": [[["1"]]], "products": []}, '
                 '"module_dim": 0, "l": [[]], "r": [[]]}',
     "algebra: dense 'c' and sparse 'products' cannot be mixed"),
], ids=["top-level", "nested"])
def test_a_node_holding_dense_and_sparse_tables_exits_2_at_its_brace(tmp_path, capsys, target,
                                                                    raw, message):
    """Either form alone would drop the other's table without a word, so
    the node is refused where it opens."""
    p = write(tmp_path, "mixed.json", raw)
    assert cli.run(["verify", target, p]) == 2
    at = raw.index('{"dim"')
    assert capsys.readouterr().err.startswith(f"error: {p}: byte {at}: {message} (token ")


def test_a_missing_top_level_field_is_not_prefixed(tmp_path):
    p = write(tmp_path, "mp.json", {"A": {"dim": 1, "q": "-1", "products": []}})
    with pytest.raises(ParseError) as exc:
        aio.load_matched_pair(p)
    assert exc.value.message == "missing field 'B'"


def _onto_zero_space(module_dim):
    return {"algebra": {"dim": 0, "q": "-1", "products": []},
            "bimodule": {"module_dim": module_dim, "l": [], "r": []}, "T": []}


@pytest.mark.parametrize("module_dim", [1, 2])
def test_a_map_onto_the_zero_space_loads(tmp_path, capsys, module_dim):
    """T's matrix has no rows and module_dim columns."""
    p = write(tmp_path, "o.json", _onto_zero_space(module_dim))
    T = aio.load_o_operator(p)[2]
    assert (T.rows, T.cols) == (0, module_dim)
    assert cli.run(["verify", "o-operator", p]) == 0
    pairs = module_dim**2
    assert capsys.readouterr().out == f"o-operator: pass ({pairs}/{pairs} pairs)\n"


def test_a_map_onto_the_zero_space_is_not_invertible(tmp_path, capsys):
    """Its matrix is 0x2, which is not square."""
    p = write(tmp_path, "o.json", _onto_zero_space(2))
    assert cli.run(["build", "dendriform-from-o-operator", p]) == 2
    assert capsys.readouterr().err == (
        f"error: {p}: T: T maps dim 2 to dim 0, so it is not invertible\n"
    )


ZERO_ALGEBRA = {"dim": 1, "q": "-1", "products": []}


@pytest.mark.parametrize("doc, args, message", [
    ({"algebra": ZERO_ALGEBRA, "bimodule": {"module_dim": 1, "l": [[["0"]]], "r": [[["0"]]]},
      "T": [["0"]]}, ["dendriform-from-o-operator"], "T: matrix is singular"),
    ({"algebra": ZERO_ALGEBRA,
      "bimodule": {"module_dim": 2, "l": [ZERO_ACTIONS[0]], "r": [ZERO_ACTIONS[0]]},
      "T": [["1", "0"]]}, ["dendriform-from-o-operator"],
     "T: T maps dim 2 to dim 1, so it is not invertible"),
    ({"algebra": ZERO_ALGEBRA, "form": {"dim": 1, "kind": "antisymmetric", "gram": [["0"]]}},
     ["dendriform-from-omega", "--force"], "form.gram: matrix is singular"),
], ids=["singular_T", "non_square_T", "zero_gram"])
def test_a_split_that_cannot_invert_names_the_file_and_value(tmp_path, capsys, doc, args,
                                                              message):
    p = write(tmp_path, "doc.json", doc)
    assert cli.run(["build", args[0], p, *args[1:]]) == 2
    assert capsys.readouterr().err == f"error: {p}: {message}\n"


@pytest.mark.parametrize("command, half", [
    ("double-quadratic", {"dim": 2, "q": "-1", "products": []}),
    ("double-symplectic", {"dim": 2, "q": "-1", "prec_products": []}),
])
def test_double_builds_name_the_file_they_refuse(tmp_path, capsys, command, half):
    good = write(tmp_path, "good.json", half)
    q2 = write(tmp_path, "q2.json", {**half, "q": "2"})
    dim3 = write(tmp_path, "dim3.json", {**half, "dim": 3})
    for argv in ([good, q2], [q2, good]):
        assert cli.run(["build", command, *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: {q2}: q = 2, but double constructions are defined at q = -1\n"
        )
    assert cli.run(["build", command, good, dim3]) == 2
    assert capsys.readouterr().err == (
        f"error: {good} (dim 2) and {dim3} (dim 3): the two halves must have equal dimension\n"
    )


@pytest.mark.parametrize("command, half", [
    ("double-quadratic", {"dim": 0, "q": "-1", "products": []}),
    ("double-symplectic", {"dim": 0, "q": "-1", "prec_products": []}),
])
def test_the_double_of_two_zero_spaces_passes(tmp_path, capsys, command, half):
    """Two 0-dim halves build the 0-dim double, whose forms are 0x0."""
    zero = write(tmp_path, "zero.json", half)
    assert cli.run(["build", command, zero, zero]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["half_dim"], doc["report"]["passed"], doc["report"]["violations"]) == (0, True, [])
    assert (doc["total"]["dim"], doc["form"]["dim"], doc["form"]["gram"]) == (0, 0, [])


@pytest.mark.parametrize("where", ["top", "note"])
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, where):
    """json's decoder recurses per level, so a deep list is refused as a
    document rather than escaping as a RecursionError (exit 1)."""
    nest = "[" * 100_000 + "]" * 100_000
    raw = nest if where == "top" else '{"note": %s, "dim": 1, "q": "-1", "c": [[["0"]]]}' % nest
    p = write(tmp_path, "deep.json", raw)
    with pytest.raises(ParseError) as exc:
        load_algebra(p)
    assert (exc.value.offset, exc.value.message) == (0, "JSON nested too deeply")
    assert cli.run(["verify", "algebra", p]) == 2
    assert capsys.readouterr().err == f"error: {p}: byte 0: JSON nested too deeply (token '')\n"


def test_nesting_just_below_the_decoders_limit_is_a_parse_error(tmp_path):
    """A list the decoder still reads may be too deep for the encoder that
    spells the token of an error; that error must stay a ParseError.  On
    CPython 3.11 both boundaries fall among these depths, around the
    recursion limit, wherever the caller's stack puts them."""
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit + 100, 3):
        nest = "[" * depth + "]" * depth
        for raw in (nest, '{"dim": 1, "q": %s, "c": []}' % nest):
            p = write(tmp_path, "deep.json", raw)
            with pytest.raises(ParseError):
                load_algebra(p)


def _deepest_json_list() -> int:
    """The largest depth of nested lists json.loads reads from this frame,
    up to twice the recursion limit."""
    low, high = 1, 2 * sys.getrecursionlimit()
    while low < high:
        mid = (low + high + 1) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            low = mid
        except RecursionError:
            high = mid - 1
    return low


def test_a_refusal_in_a_document_nested_near_the_decoders_limit_is_located(tmp_path, capsys):
    """The decoder reads a note nested a little less deep than it can; the
    document's q is zero, and the one error line locates that q exactly:
    the pass that finds its byte keeps its own stack, so it does not
    recurse per level."""
    depth = _deepest_json_list() - 50
    nest = "[" * depth + "]" * depth
    raw = '{"note": %s, "dim": 1, "q": "0", "c": [[["0"]]]}' % nest
    p = write(tmp_path, "deep.json", raw)
    assert cli.run(["verify", "algebra", p]) == 2
    offset = raw.index('0", "c"')
    assert capsys.readouterr().err == f"error: {p}: byte {offset}: q must be nonzero (token 'q')\n"


@pytest.mark.parametrize("text, key, at", [
    ('{"dim": 1, "q": "-1", "c": [[[N]]], "note": {"a": 1, "a": 2}}', "a", 'a": 2'),
    ('{"note": [N, {"b": [], "b": N}], "dim": 1, "q": "-1", "c": [[["0"]]]}', "b", 'b": 7'),
], ids=["repeat_after", "repeat_beside"])
def test_a_key_written_twice_is_refused_before_a_long_integer(tmp_path, capsys, text, key, at):
    """json.loads stops at the first integer past the int-string limit (N),
    before the object with the repeat closes; the repeat is still the
    refusal, at its second spelling."""
    text = text.replace("N", "7" * (sys.get_int_max_str_digits() + 1))
    p = write(tmp_path, "both.json", text)
    assert cli.run(["verify", "algebra", p]) == 2
    assert capsys.readouterr().err == (
        f"error: {p}: byte {text.index(at)}: key {key!r} written twice in one object "
        f"(token {key!r})\n")


@pytest.mark.parametrize("tail, message", [
    ("", "a: integer has more than {limit} digits"),
    (', "c": {"x": 1, "x": 2}', "key 'x' written twice in one object"),
], ids=["long", "repeat"])
def test_a_long_integer_before_deep_nesting_is_refused_in_bounded_memory(tmp_path, tail, message):
    """json.loads stops at the integer (N), so nothing it reads bounds the
    depth of what follows: the pass that reads on keeps one path, not one
    per value, and refuses the document with one line in a child limited
    to 1.5 GB."""
    limit = sys.get_int_max_str_digits()
    depth = 100_000
    text = '{"a": %s, "b": %s%s%s}' % ("7" * (limit + 1), "[" * depth, "]" * depth, tail)
    p = write(tmp_path, "deep_long.json", text)
    done = _cli_in_bounded_child("verify", "algebra", p)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.count("\n") == 1
    assert f": {message.format(limit=limit)} (token " in done.stderr


LONG_REFUSAL =("integer has more than {limit} digits (token ", ")")


@pytest.mark.parametrize("argv, message", [
    (["verify", "algebra", "DOC", "--q", "1/N"], LONG_REFUSAL),
    (["classify", "dim2", "--grid", "1,N"], LONG_REFUSAL),
    (["verify", "algebra", "DOC", "--q", "1/Nx"], ("not a rational: ", "")),
], ids=["q", "grid", "junk"])
def test_a_long_flag_value_is_refused_by_its_ends(tmp_path, capsys, argv, message):
    """A flag's value past the int-string limit is refused as such, and a
    long refused value is named by its ends and length, as a ParseError
    names a long token, not echoed whole."""
    limit = sys.get_int_max_str_digits()
    long = "7" * (limit + 700)
    doc = write(tmp_path, "ok.json", E1E1_DOC)
    argv = [doc if a == "DOC" else a.replace("N", long) for a in argv]
    token = argv[-1].removeprefix("1,")
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    head, tail = message
    assert captured.err.endswith(f": {head.format(limit=limit)}{token[:20]!r}..."
                                 f"{token[-20:]!r}, {len(token)} characters{tail}\n")
    assert long not in captured.err


# ---------------------------------------------------------------------------
# the front end over mutated documents

FUZZ_VALUES = [True, None, 0.5, -1, 65, "1/0", "\u0661", [], {}, "missing.json"]
# each document a verify case of the golden CLI tests reads, with its
# command; the bundled fixtures go through ``paper fixtures``
FUZZ_TARGETS = sorted({(argv[1], argv[2]) for _, argv in CASES
                       if argv[0] == "verify" and argv[2] not in REFUSED}) + [
    ("paper", p.name) for p in sorted(BUNDLED.iterdir(), key=lambda p: p.name)
    if p.name.endswith(".json")
]
ERROR_LINE = re.compile(r"error: [^\n]+: byte [0-9]+: [^\n]*\n")
# the error line's file, byte and message, whose head may name a value by its
# path (a key of it, with " key"), as in B.products[2] or c[1][1][2]; of
# "A and Astar must ...", the value named last
LOCATED = re.compile(r"error: (?P<file>.+?): byte (?P<byte>[0-9]+): (?P<message>.*)\n")
NAMED = re.compile(r"(?:\w+ and )?(?P<path>[A-Za-z_]\w*(?:\.[A-Za-z_]\w*|\[[0-9]+\])*)"
                   r"(?P<key> key)?(?:: | must | repeats )")
SENTINEL = "@@located@@"


def _json_paths(node, at=()):
    """Every path to a value inside ``node``, as tuples of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _json_paths(child, at + (key,))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    write_documents(directory)
    (directory / "fixtures").mkdir()
    return directory


def _path_of(spelled):
    """("B", "products", 1) of "B.products[2]": positions are 1-based there."""
    return tuple(int(k[1:-1]) - 1 if k.startswith("[") else k
                 for k in re.findall(r"\[[0-9]+\]|[^.[]+", spelled))


def _start_of(doc, path, key=False):
    """The byte where the value at ``path`` of ``doc``, or the key ending
    it, starts in json.dumps(doc, indent=2), inside a string's quote: the
    text before it is the same when the value is replaced by a sentinel
    string, or the key renamed to one."""
    marked = copy.deepcopy(doc)
    *parents, last = path
    node = marked
    for k in parents:
        node = node[k]
    value = node[last]
    if key:
        items = list(node.items())
        node.clear()
        node.update((SENTINEL if k == last else k, v) for k, v in items)
    else:
        node[last] = SENTINEL
    start = json.dumps(marked, indent=2).index(f'"{SENTINEL}"')
    return start + 1 if key or isinstance(value, str) else start


_TRICKY = '[]{}",:\\ a1é'  # brackets, quotes and escapes inside strings
JSON_DOCS = st.recursive(
    st.integers() | st.booleans() | st.none() | st.text(_TRICKY, max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(_TRICKY, max_size=3), kids, max_size=4),
    max_leaves=25)


@given(doc=JSON_DOCS)
@settings(max_examples=300, deadline=None)
def test_located_finds_every_value_and_key(doc):
    """The located pass, which skips each container off the way to the
    path it is asked for, finds every value and every key of a document
    whose strings hold brackets, quotes and escapes."""
    text = json.dumps(doc, indent=2)
    for path in _json_paths(doc):
        assert aio._located(text, path) == _start_of(doc, path)
        if isinstance(path[-1], str):
            assert aio._located(text, path, key=True) == _start_of(doc, path, key=True)


def _fuzz_source(command, name):
    if command == "paper":
        return json.loads((BUNDLED / name).read_text())
    if name in DOCS:
        return DOCS[name]
    return json.loads((ROOT / "fixtures" / name).read_text())


@given(seed=st.integers(0, 2**30))
@settings(max_examples=500, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
def test_cli_survives_one_mutated_value(fuzz_dir, seed):
    """One value of a valid document, at a drawn path, replaced by a value
    of the wrong type, range or spelling, or by a file name that does not
    exist: the CLI exits 0, 1 or 2 without an escaping exception, and exit
    2 prints one located error line.  Its byte is where the value its
    message names starts, or, when it names none, the mutated value."""
    rng = random.Random(seed)
    command, name = rng.choice(FUZZ_TARGETS)
    doc = copy.deepcopy(_fuzz_source(command, name))
    *parents, last = rng.choice(list(_json_paths(doc)))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = rng.choice(FUZZ_VALUES)
    if command == "paper":
        target = fuzz_dir / "fixtures" / "case.json"
        argv = ["paper", "fixtures"]
    else:
        target = fuzz_dir / "mutant.json"
        argv = ["verify", command, str(target)]
    target.write_text(json.dumps(doc, indent=2))
    out, err = StringIO(), StringIO()
    env = {"ANTIASSOC_FIXTURES": str(fuzz_dir / "fixtures")}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert ERROR_LINE.fullmatch(err.getvalue()), err.getvalue()
        line = LOCATED.fullmatch(err.getvalue())
        if line["file"] == str(target):
            named = NAMED.match(line["message"])
            if named:
                path, key = _path_of(named["path"]), bool(named["key"])
            else:
                path, key = (*parents, last), False
            assert int(line["byte"]) == _start_of(doc, path, key), err.getvalue()
