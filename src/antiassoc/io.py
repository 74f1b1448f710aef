"""JSON document parsing and serialization for the CLI.

All rationals travel as strings "p" or "p/q" (JSON integers are also
accepted on input).  Parsing is strict: no floats, no booleans, no
denominator zero, no whitespace inside a rational, no integer with more
digits than the interpreter converts to int, and no key written twice in
one object.  Output spells every rational whole (``linalg.exact_str``),
however many digits it has.

Three readers take every document apart: ``_array`` reads a nested list
of rationals of a fixed shape, ``_structure`` an algebra-like node (an
algebra or a dendriform structure, dense or sparse, or the file it
names), and ``_actions`` an (l, r) pair of action lists.  Errors carry
the file path, a byte offset, and the offending token, and each message
names the value by its path from the root of that file, as in
``B.products[2]`` or ``displayed[4].left``.  Offsets for semantic errors
are best-effort: the first occurrence of the token in the file; a key
written twice in one object is located at its second spelling.  Each
file read has its own context, whose memo maps each distinct rational
token, once validated, to its Fraction, so a table parses each distinct
token once.

``dump_json`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` with a small recursive writer over dicts, lists and tuples.
It spells a ``CheckReport`` itself, as the text of its ``as_dict()``
with no dict built per violation, so the CLI's documents hold reports.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebra import CheckReport, StructureAlgebra
from .bimodules import Bimodule
from .dendriform import DendriformStructure
from .forms import BilinearForm
from .linalg import Matrix, Tensor3, exact_str
from .matched import MatchedPairData

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

# Largest dim an algebra or dendriform document, and largest module_dim a
# bimodule, may declare.  A product tensor holds dim^2 fibers of dim
# entries, even when read from a short sparse list, and a semidirect
# product allocates (dim + module_dim)^3 entries, so the bound keeps a
# hostile dimension from exhausting memory.
MAX_DIM = 64


# A token longer than _TOKEN_SHOWN characters, such as an integer past the
# int-string limit, is spelled in a ParseError's message by its first and
# last _TOKEN_ENDS characters and its length, so the line stays readable.
_TOKEN_SHOWN = 80
_TOKEN_ENDS = 20


class ParseError(ValueError):
    def __init__(self, path: str, offset: int, token: str, message: str):
        self.path = path
        self.offset = offset
        self.token = token
        self.message = message
        if len(token) > _TOKEN_SHOWN:
            shown = f"{token[:_TOKEN_ENDS]!r}...{token[-_TOKEN_ENDS:]!r}, {len(token)} characters"
        else:
            shown = repr(token)
        super().__init__(f"{path}: byte {offset}: {message} (token {shown})")


class _Unreadable(ParseError):
    """A file that could not be read at all, as opposed to one read and refused."""


@dataclass
class _Ctx:
    path: str
    text: str
    # each distinct rational token of the document, once validated, and its
    # value: a table of n^3 entries holds few distinct tokens
    rationals: dict[str, Fraction]

    def fail(self, token: object, message: str) -> "ParseError":
        # a non-string token is spelled as JSON spells it: true, null, {"a": 1};
        # one nested too deeply to spell is not searched for
        try:
            tok = token if isinstance(token, str) else json.dumps(token)
        except RecursionError:
            tok = ""
        pos = self.text.find(tok) if tok else 0
        if pos < 0:  # or as json.dumps's ensure_ascii escapes it, e.g. \u0661
            pos = max(self.text.find(json.dumps(tok)[1:-1]), 0)
        return ParseError(self.path, len(self.text[:pos].encode("utf-8")), tok, message)


def _read(path: str) -> tuple[_Ctx, object]:
    try:
        # a device or a pipe may never end, so only a regular file is read
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise _Unreadable(path, 0, "", "not a regular file")
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _Unreadable(path, 0, "", f"cannot read file: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, exc.start, "", "invalid UTF-8") from exc
    ctx = _Ctx(path, text, {})
    return ctx, _parse(ctx)


class _RepeatedKey(Exception):
    """A key written twice in one JSON object, raised by ``_unique``."""


def _unique(pairs: list[tuple[str, object]]) -> dict:
    """The object of ``pairs``, refused when a key repeats: JSON would keep
    the last value and lose the first without a word."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise _RepeatedKey
    return obj


# a JSON string, with the colon that makes it a key, or a brace
_KEY_OR_BRACE_RE = re.compile(r'(?P<string>"(?:[^"\\]|\\.)*")(?P<colon>\s*:)?|[{}]')


def _repeat(text: str) -> tuple[int, str]:
    """The key ``_unique`` refuses and its index in ``text``: the first key
    written twice in the first object to close with a repeat, at its second
    spelling, just inside the quote.  The parse closes objects in this
    order, and the text up to that object is valid JSON."""
    stack: list[tuple[set[str], list[tuple[int, str]]]] = []
    for m in _KEY_OR_BRACE_RE.finditer(text):
        if m["colon"]:
            keys, repeats = stack[-1]
            key = json.loads(m["string"])
            if key in keys:
                repeats.append((m.start() + 1, key))
            keys.add(key)
        elif m[0] == "{":
            stack.append((set(), []))
        elif m[0] == "}" and (repeats := stack.pop()[1]):
            return repeats[0]
    return 0, ""


def _parse(ctx: _Ctx, parse_int=None) -> object:
    """``json.loads`` of ctx's text with no key repeated in an object,
    every failure a ParseError."""
    try:
        return json.loads(ctx.text, parse_int=parse_int, object_pairs_hook=_unique)
    except _RepeatedKey as exc:
        pos, key = _repeat(ctx.text)
        offset = len(ctx.text[:pos].encode("utf-8"))
        raise ParseError(ctx.path, offset, key, f"key {key!r} written twice in one object") from exc
    except json.JSONDecodeError as exc:  # a ValueError too, so caught first
        offset = len(ctx.text[: exc.pos].encode("utf-8"))
        token = ctx.text[exc.pos : exc.pos + 10].strip() or "<end>"
        raise ParseError(ctx.path, offset, token, exc.msg) from exc
    except RecursionError as exc:
        raise ParseError(ctx.path, 0, "", "JSON nested too deeply") from exc
    except ValueError as exc:  # an integer token past the int-string limit
        raise _long_integer(ctx) from exc


def _long_integer(ctx: _Ctx, token: str | None = None) -> ParseError:
    """The refusal of an integer with more digits than the interpreter
    converts (``sys.get_int_max_str_digits``): ``token``, a rational string
    or an object key, or else the first JSON integer that long, named by the
    path of its first occurrence in document order.  The document is parsed
    again with every integer kept as its digits, so a syntax error after
    that integer is raised from here instead."""
    limit = sys.get_int_max_str_digits()
    long = [token] if token else []

    def digits(s: str) -> str:
        if len(s.lstrip("-")) > limit:
            long.append(s)
        return s

    message = f"integer has more than {limit} digits"
    stack = [("", _parse(ctx, digits))]
    while stack:
        where, node = stack.pop()
        if node == long[0]:
            return ctx.fail(node, f"{where}: {message}")
        if isinstance(node, dict):
            if long[0] in node:
                return ctx.fail(long[0], f"{where} key: {message}")
            stack += reversed([(f"{where}.{k}" if where else k, v) for k, v in node.items()])
        elif isinstance(node, list):
            stack += reversed([(f"{where}[{i}]", v) for i, v in enumerate(node, start=1)])
    # a safeguard: with no key repeated, every token read is in the document
    return ctx.fail(long[0], message)


def _rational(node: object, ctx: _Ctx) -> Fraction:
    if type(node) is int:
        return Fraction(node)
    if not isinstance(node, str):
        raise ctx.fail(node, "expected a rational string like \"-1/2\"")
    value = ctx.rationals.get(node)
    if value is None:
        if not _RATIONAL_RE.fullmatch(node):
            raise ctx.fail(node, "malformed rational")
        try:
            value = ctx.rationals[node] = Fraction(node)
        except ZeroDivisionError as exc:
            raise ctx.fail(node, "denominator is zero") from exc
        except ValueError as exc:
            raise _long_integer(ctx, node) from exc
    return value


def _nat(node: object, ctx: _Ctx, what: str, minimum: int = 0, maximum: int | None = None) -> int:
    if type(node) is not int or node < minimum:
        raise ctx.fail(node, f"{what} must be an integer >= {minimum}")
    if maximum is not None and node > maximum:
        raise ctx.fail(node, f"{what} must be at most {maximum}")
    return node


def _field(data: object, key: str, ctx: _Ctx, where: str = "") -> object:
    """data[key], where ``where`` is data's path in its file, empty at the root."""
    if isinstance(data, dict) and key in data:
        return data[key]
    at = f"{where}: " if where else ""
    if not isinstance(data, dict):
        raise ctx.fail(data, f"{at}expected a JSON object")
    raise ctx.fail(key, f"{at}missing field {key!r}")


def _built(ctx: _Ctx, token: str, what: str, cls, *args):
    """cls(*args); a refusal of the constructor is a ParseError at ``token``
    that names the value ``what``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ctx.fail(token, f"{what}: {exc}") from exc


def _array(node: object, shape: tuple[int, ...], ctx: _Ctx, what: str) -> list:
    """The nested list of rationals ``node`` of the given shape.  A list of
    the wrong length is named by its position, as in c[1][2], and its token
    is its length when it holds lists."""
    n, inner = shape[0], shape[1:]
    if not isinstance(node, list) or len(node) != n:
        raise ctx.fail(len(node) if isinstance(node, list) and inner else node,
                       f"{what}: expected a list of {n}")
    if not inner:
        return [_rational(x, ctx) for x in node]
    return [_array(x, inner, ctx, f"{what}[{i}]") for i, x in enumerate(node, start=1)]


def _sparse(node: object, n: int, ctx: _Ctx, prefix: str, key: str) -> Tensor3:
    """A dim-n product tensor from its list ``key`` of {i, j, out} entries,
    built sparse, so it carries its compiled form without a dense scan."""
    what = prefix + key
    if not isinstance(node, list):
        raise ctx.fail(node, f"{what} must be a list")
    fibers: dict[tuple[int, int], dict[int, Fraction]] = {}
    first: dict[tuple[int, int], int] = {}
    for pos, item in enumerate(node, start=1):
        entry = f"{what}[{pos}]"
        i = _nat(_field(item, "i", ctx, entry), ctx, f"{entry}.i", 1)
        j = _nat(_field(item, "j", ctx, entry), ctx, f"{entry}.j", 1)
        out = _field(item, "out", ctx, entry)
        if i > n or j > n:
            raise ctx.fail(max(i, j), f"{entry}: index out of range for dim {n}")
        if (i, j) in first:
            # the bare key is the token: the path is not text of the file
            raise ctx.fail(key, f"{entry} repeats the pair (i, j) = ({i}, {j}) "
                                f"of {what}[{first[i, j]}]")
        first[i, j] = pos
        if not isinstance(out, dict):
            raise ctx.fail(out, f"{entry}.out must map basis index to rational")
        fiber = fibers[i - 1, j - 1] = {}
        for kstr, val in out.items():
            try:
                k = int(kstr) if kstr.isascii() and kstr.isdigit() else 0
            except ValueError as exc:
                raise _long_integer(ctx, kstr) from exc
            if not 1 <= k <= n:
                raise ctx.fail(kstr, f"{entry}.out key out of range for dim {n}")
            if k - 1 in fiber:  # the keys before kstr all read as indices
                earlier = next(s for s in out if int(s) == k)
                raise ctx.fail(kstr, f"{entry}.out spells the index {k} twice, "
                                     f"as {earlier!r} and {kstr!r}")
            fiber[k - 1] = _rational(val, ctx)
    return Tensor3.from_sparse((n, n, n), fibers)


def _resolve(node: object, ctx: _Ctx, prefix: str) -> tuple[object, _Ctx, str]:
    """Follow string file references, each relative to the file holding it,
    to the document they end at; the path prefix starts again at the root
    of each file followed.  A reference back into the chain of files
    already followed, or to a file that cannot be read, is a ParseError at
    the reference, not endless recursion or an error that names no referrer."""
    chain: list[str] = []
    while isinstance(node, str):
        path = os.path.join(os.path.dirname(ctx.path) or ".", node)
        if os.path.realpath(path) in chain:
            raise ctx.fail(node, f"circular file reference to {path}")
        chain.append(os.path.realpath(path))
        try:
            ctx, node = _read(path)
        except _Unreadable as exc:
            field = f"{prefix[:-1]}: " if prefix else ""
            raise ctx.fail(node, f"{field}{exc.path}: byte 0: {exc.message}") from exc
        prefix = ""
    return node, ctx, prefix


def _structure(node: object, ctx: _Ctx, prefix: str, cls, *keys: str):
    """The algebra-like ``node``, or the file it names, as cls(dim, q,
    *tensors) with one product tensor per key of ``keys``.  When the node
    holds any list ``<key>_products`` (``products`` for ``c``) every tensor
    is read sparse from its list, a missing one meaning zero; else each is
    read dense under its key."""
    node, ctx, prefix = _resolve(node, ctx, prefix)
    where = prefix[:-1]
    dim = _nat(_field(node, "dim", ctx, where), ctx, f"{prefix}dim", 0, MAX_DIM)
    q = _rational(_field(node, "q", ctx, where), ctx)
    if q == 0:
        raise ctx.fail("q", f"{prefix}q must be nonzero")
    lists = ["products" if key == "c" else f"{key}_products" for key in keys]
    if any(name in node for name in lists):
        tensors = [_sparse(node.get(name, []), dim, ctx, prefix, name) for name in lists]
    else:
        shape = (dim, dim, dim)
        tensors = [Tensor3(_array(_field(node, key, ctx, where), shape, ctx, prefix + key), shape)
                   for key in keys]
    return cls(dim, q, *tensors)


def _algebra_from(node: object, ctx: _Ctx, prefix: str) -> StructureAlgebra:
    return _structure(node, ctx, prefix, StructureAlgebra, "c")


def _dendriform_from(node: object, ctx: _Ctx, prefix: str) -> DendriformStructure:
    return _structure(node, ctx, prefix, DendriformStructure, "prec", "succ")


def _actions(node: object, keys: tuple[str, str], n: int, m: int, ctx: _Ctx,
             prefix: str) -> Bimodule:
    """The action lists under ``keys`` (l then r) of ``node`` as a bimodule
    of an n-dim algebra on an m-dim space.  Each list holds n row-major
    m x m matrices, one per acting basis vector."""
    shape = (n, m, m)
    l, r = (Tensor3(_array(_field(node, k, ctx, prefix[:-1]), shape, ctx, prefix + k), shape)
            .transposed() for k in keys)
    return Bimodule(n, m, l, r)


def _bimodule_from(node: object, n: int, ctx: _Ctx, prefix: str) -> Bimodule:
    """The fields module_dim, l and r of ``node`` as a bimodule of an n-dim
    algebra."""
    m = _field(node, "module_dim", ctx, prefix[:-1])
    m = _nat(m, ctx, f"{prefix}module_dim", 0, MAX_DIM)
    return _actions(node, ("l", "r"), n, m, ctx, prefix)


def load_algebra(path: str) -> StructureAlgebra:
    ctx, data = _read(path)
    return _algebra_from(data, ctx, "")


def load_bimodule(path: str) -> tuple[StructureAlgebra, Bimodule]:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "algebra", ctx), ctx, "algebra.")
    return A, _bimodule_from(data, A.dim, ctx, "")


def load_matched_pair(path: str) -> MatchedPairData:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "A", ctx), ctx, "A.")
    B = _algebra_from(_field(data, "B", ctx), ctx, "B.")
    on_B = _actions(data, ("lA", "rA"), A.dim, B.dim, ctx, "")
    on_A = _actions(data, ("lB", "rB"), B.dim, A.dim, ctx, "")
    # A and B at two values of q are refused
    return _built(ctx, "B", "B", MatchedPairData, A, B, on_B, on_A)


def load_dendriform(path: str) -> DendriformStructure:
    ctx, data = _read(path)
    return _dendriform_from(data, ctx, "")


def load_form(path: str) -> tuple[StructureAlgebra, BilinearForm]:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "algebra", ctx), ctx, "algebra.")
    fnode = _field(data, "form", ctx)
    dim = _nat(_field(fnode, "dim", ctx, "form"), ctx, "form.dim", 0)
    kind = _field(fnode, "kind", ctx, "form")
    if kind not in ("symmetric", "antisymmetric", "general"):
        raise ctx.fail(kind, "form.kind must be symmetric, antisymmetric, or general")
    shape = (dim, dim)
    gram = Matrix(_array(_field(fnode, "gram", ctx, "form"), shape, ctx, "form.gram"), shape)
    if dim != A.dim:
        raise ctx.fail(dim, "form.dim must match the algebra dimension")
    # a gram matrix that does not have its kind is refused
    return A, _built(ctx, "gram", "form.gram", BilinearForm, dim, gram, kind)


def load_o_operator(path: str) -> tuple[StructureAlgebra, Bimodule, Matrix]:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "algebra", ctx), ctx, "algebra.")
    M = _bimodule_from(_field(data, "bimodule", ctx), A.dim, ctx, "bimodule.")
    shape = (A.dim, M.module_dim)
    return A, M, Matrix(_array(_field(data, "T", ctx), shape, ctx, "T"), shape)


def load_rota_baxter(path: str) -> tuple[StructureAlgebra, Matrix]:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "algebra", ctx), ctx, "algebra.")
    shape = (A.dim, A.dim)
    return A, Matrix(_array(_field(data, "tau", ctx), shape, ctx, "tau"), shape)


@dataclass
class PaperFixture:
    """One bundled double-construction audit input.

    A displayed line records a published product (left * right = result)
    as coordinate vectors over the 2n-dim double basis (e_i then e_i*).
    complete=True asserts the displayed lines are the full nonzero
    product table, so undisplayed basis products must vanish.
    """

    label: str
    kind: str  # "quadratic" | "symplectic"
    A: StructureAlgebra | None
    Astar: StructureAlgebra | None
    DA: DendriformStructure | None
    DAstar: DendriformStructure | None
    displayed: list[dict]
    complete: bool

    @property
    def half_dim(self) -> int:
        return self.A.dim if self.A is not None else self.DA.dim


def load_fixture(path: str) -> PaperFixture:
    ctx, data = _read(path)
    label = _field(data, "label", ctx)
    kind = _field(data, "kind", ctx)
    if kind not in ("quadratic", "symplectic"):
        raise ctx.fail(kind, "kind must be quadratic or symplectic")
    quadratic = kind == "quadratic"
    keys = ("A", "Astar") if quadratic else ("DA", "DAstar")
    read = _algebra_from if quadratic else _dendriform_from
    X, Y = (read(_field(data, k, ctx), ctx, f"{k}.") for k in keys)
    if X.dim != Y.dim or X.q != -1 or Y.q != -1:
        # the audit builds a double, which needs equal halves at q = -1
        raise ctx.fail(keys[1], f"{keys[0]} and {keys[1]} must have equal dim and q = -1")
    A, Astar, DA, DAstar = (X, Y, None, None) if quadratic else (None, None, X, Y)
    half = X.dim
    lines = _field(data, "displayed", ctx)
    if not isinstance(lines, list):
        raise ctx.fail(lines, "displayed must be a list")
    displayed = [
        {k: _array(_field(item, k, ctx, f"displayed[{pos}]"), (2 * half,), ctx,
                   f"displayed[{pos}].{k}")
         for k in ("left", "right", "result")}
        for pos, item in enumerate(lines, start=1)
    ]
    complete = _field(data, "complete", ctx)
    if not isinstance(complete, bool):
        raise ctx.fail(complete, "complete must be true or false")
    return PaperFixture(str(label), kind, A, Astar, DA, DAstar, displayed, complete)


# ---------------------------------------------------------------------------
# serialization

def matrix_doc(m: Matrix) -> list[list[str]]:
    return [[exact_str(x) for x in row] for row in m.entries]


def tensor_doc(t: Tensor3) -> list[list[list[str]]]:
    return [[[exact_str(x) for x in row] for row in slab] for slab in t.entries]


def algebra_to_doc(A: StructureAlgebra) -> dict:
    return {"dim": A.dim, "q": str(A.q), "c": tensor_doc(A.c)}


def bimodule_to_doc(A: StructureAlgebra, M: Bimodule) -> dict:
    return {
        "algebra": algebra_to_doc(A),
        "module_dim": M.module_dim,
        # each table as a list of row-major matrices, one per basis vector
        "l": tensor_doc(M.l.transposed()),
        "r": tensor_doc(M.r.transposed()),
    }


def dendriform_to_doc(D: DendriformStructure) -> dict:
    return {
        "dim": D.dim,
        "q": str(D.q),
        "prec": tensor_doc(D.c_prec),
        "succ": tensor_doc(D.c_succ),
    }


def form_to_doc(f: BilinearForm) -> dict:
    return {"dim": f.dim, "kind": f.kind, "gram": matrix_doc(f.gram)}


def double_to_doc(d) -> dict:
    """The document of a double construction; its report stays a
    CheckReport, which ``dump_json`` writes."""
    return {
        "kind": d.kind,
        "half_dim": d.half_dim,
        "total": algebra_to_doc(d.total),
        "form": form_to_doc(d.form),
        "report": d.report,
    }


_quote = json.encoder.encode_basestring_ascii


def dump_json(obj: object) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, the same bytes,
    where each ``CheckReport`` in ``obj`` stands for its ``as_dict()``.

    ``json.dumps`` with an indent runs the pure-Python encoder, and each call
    leaves a cycle of closures for the garbage collector; this writer builds
    the text itself and hands json.dumps only what it does not write."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_CONTAINERS = (str, dict, list, tuple, CheckReport)


def _write(obj: object, nl: str, out: list[str]) -> None:
    """Append the indent-2 text of ``obj`` to ``out``; ``nl`` is a line break
    followed by the indentation of the line ``obj`` starts on."""
    kind = type(obj)
    if kind not in _CONTAINERS:  # a subclass is written as its base
        kind = next((base for base in _CONTAINERS if isinstance(obj, base)), None)
    if kind is str:
        out.append(_quote(obj))
    elif kind is CheckReport:
        _write_report(obj, nl, out)
    elif kind is None or not obj:
        # a scalar, or an empty list or dict, is spelled the same by the
        # one-line encoder, which is C code
        out.append(json.dumps(obj))
    elif kind is dict:
        if set(map(type, obj)) != {str}:
            # a key that is not a string: json.dumps's own text, its lines
            # indented by a replace, since a JSON text holds no raw line break
            text = json.dumps(obj, sort_keys=True, indent=2, default=_report_dict)
            out.append(text.replace("\n", nl))
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if type(value) is str:
                out.append(f"{sep}{_quote(key)}: {_quote(value)}")
            else:
                out.append(f"{sep}{_quote(key)}: ")
                _write(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        inner = nl + "  "
        # a flat list of strings or of ints, the bulk of a report, is joined whole
        kinds = set(map(type, obj))
        if kinds == {str}:
            out.append(f"[{inner}{(',' + inner).join(map(_quote, obj))}{nl}]")
        elif kinds == {int}:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, obj))}{nl}]")
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _write(x, inner, out)
                sep = "," + inner
            out.append(nl + "]")


def _report_dict(obj: object) -> dict:
    """``json.dumps``'s ``default``: a CheckReport as its ``as_dict()``."""
    if isinstance(obj, CheckReport):
        return obj.as_dict()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_report(rep: CheckReport, nl: str, out: list[str]) -> None:
    """Append the text of ``rep.as_dict()`` without building it: each
    violation is one string, its head made once per identity id, its
    indices joined with ``int.__repr__`` and its residual entries, which
    are rationals, with ``str``.  A violation that this refuses, such as
    one with a residual past the int-string limit, is written from its own
    ``as_dict``, which spells that residual with ``exact_str``."""
    inner = nl + "  "
    out.append(f'{{{inner}"info": ')
    _write(rep.info, inner, out)
    out.append(f',{inner}"passed": ')
    _write(rep.passed, inner, out)
    out.append(f',{inner}"violations": ')
    if not rep.violations:
        out.append("[]")
    else:
        at = inner + "  "  # the line a violation starts on
        field = at + "  "
        item = field + "  "
        ints, strs = "," + item, '",' + item + '"'
        heads: dict[str, str] = {}
        texts = []
        for v in rep.violations:
            try:
                head = heads.get(v.identity_id)
                if head is None:
                    head = heads[v.identity_id] = (
                        f'{{{field}"identity_id": {_quote(v.identity_id)},{field}"indices": ')
                idx = ints.join(map(int.__repr__, v.indices))
                res = strs.join(map(str, v.residual))
            except (TypeError, ValueError):
                sub: list[str] = []
                _write(v.as_dict(), at, sub)
                texts.append("".join(sub))
                continue
            idx = f"[{item}{idx}{field}]" if v.indices else "[]"
            res = f'[{item}"{res}"{field}]' if v.residual else "[]"
            texts.append(f'{head}{idx},{field}"residual": {res}{at}}}')
        out.append(f"[{at}{(',' + at).join(texts)}{inner}]")
    out.append(nl + "}")


def basis_names(n: int) -> list[str]:
    return [f"e{i + 1}" for i in range(n)]


def double_basis_names(half: int) -> list[str]:
    return [f"e{i + 1}" for i in range(half)] + [f"e{i + 1}*" for i in range(half)]


def format_element(v, names: list[str] | None = None) -> str:
    """Human form of a coordinate vector: '0', 'e1 - 2*e3', '1/2*e2*'."""
    if names is None:
        names = basis_names(len(v))
    parts = []
    for x, name in zip(v, names):
        if x == 0:
            continue
        if x == 1:
            parts.append(name)
        elif x == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{exact_str(x)}*{name}")
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out
