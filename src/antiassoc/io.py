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
``B.products[2]`` or ``displayed[4].left``.  The offset, which
``_located`` finds after a refusal, is exact: a string value or a key is
located at the first byte inside its quote, any other value at its first
byte, and a refusal that names an object (a missing field, or values that
do not fit together) at that object's ``{``.  Each file read has its own
context, whose memo maps each distinct rational token, once validated,
to its Fraction, so a table parses each distinct token once.

``dump_json`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` with a small recursive writer over dicts, lists and tuples.
It spells a ``CheckReport`` itself, as the text of its ``as_dict()``
with no dict built per violation and no Fraction made of a violation's
integers over its scale, so the CLI's documents hold reports.
"""

from __future__ import annotations

import json
import math
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
# bimodule, may declare.  A table's compiled form holds one fiber list per
# pair (i, j), dim^2 of them even when read from a short sparse list, a
# check may walk all dim^3 basis triples, and a built table is written from
# its dense view, (dim + module_dim)^3 entries for a semidirect product, so
# the bound keeps a hostile dimension from exhausting memory.
MAX_DIM = 64


def _shown(token: str) -> str:
    """``token`` as an error line spells it: its repr, or, past 80 characters
    (an integer past the int-string limit), its first and last 20 and its
    length, so the line stays readable."""
    if len(token) > 80:
        return f"{token[:20]!r}...{token[-20:]!r}, {len(token)} characters"
    return repr(token)


def _too_long() -> str:
    """The refusal of an integer string that ``int`` will not convert."""
    return f"integer has more than {sys.get_int_max_str_digits()} digits"


class ParseError(ValueError):
    def __init__(self, path: str, offset: int, token: str, message: str):
        self.path = path
        self.offset = offset
        self.token = token
        self.message = message
        super().__init__(f"{path}: byte {offset}: {message} (token {_shown(token)})")


class _Unreadable(ParseError):
    """A file that could not be read at all, as opposed to one read and refused."""


def _spell(path: tuple) -> str:
    """A path as messages name it: ("B", "products", 1) is B.products[2]."""
    return "".join(f"[{k + 1}]" if type(k) is int else f".{k}" for k in path).removeprefix(".")


# a JSON string, with the colon that makes it a key; a bracket; or a number
# or literal.  Commas, and colons after no string, match nothing.
_JSON_TOKEN_RE = re.compile(r'("[^"\\]*(?:\\.[^"\\]*)*")(\s*:)?|[][{}]|[^][{}\s,:"]+')
_BRACKET_RE = re.compile(r"[][{}]")


def _located(text: str, want: tuple | None = None, key: bool = False):
    """With ``want``, a path of keys and 0-based indices: the index in
    ``text`` of the value at that path (of the key ending it, when
    ``key``), or 0.  Without: (index, token, message) of the first key
    written twice in the first object to close with a repeat, else of the
    first integer past the int-string limit.  It reads in one pass, after
    a refusal, with a stack that holds only the path it is at; it skips
    each container off the way to ``want``, and stops at a token it cannot
    place, as past the integer json.loads refused."""
    limit, goal = sys.get_int_max_str_digits(), want or ()
    path: list = []  # per open container: the index (a list) or key (an object) it is at
    objs: list = []  # per open container: None (a list), or [its keys, its first repeat]
    long, pos = None, 0
    try:
        while m := _JSON_TOKEN_RE.search(text, pos):
            token, start, pos = m[0], m.start(), m.end()
            if token in "]}":
                path.pop()
                if (obj := objs.pop()) and obj[1]:
                    return obj[1]
                continue
            d = len(path) - 1
            if m[2]:
                path[d] = name = json.loads(m[1])
                obj = objs[d]
                if name in obj[0] and not obj[1]:
                    obj[1] = start + 1, name, f"key {name!r} written twice in one object"
                obj[0].add(name)
            elif objs and objs[d] is None:
                path[d] += 1
            # every open container is on the way to want, so this entry decides
            here = d < 0 or d < len(goal) and path[d] == goal[d]
            if want is not None and here and d + 1 == len(goal) and key == bool(m[2]):
                return start + (token[0] == '"')
            if token in "[{" and (want is None or here):
                path.append(-1 if token == "[" else None)
                objs.append(None if token == "[" else [set(), None])
            elif token in "[{":  # off the way to want: skip to its close
                depth = 1
                while depth:
                    end = _BRACKET_RE.search(text, pos).end()
                    if text.count('"', pos, end) % 2 or text.find("\\", pos, end) >= 0:
                        end = _JSON_TOKEN_RE.search(text, pos).end()  # it may be in a string
                    depth, pos = depth + (text[end - 1] in "[{") - (text[end - 1] in "]}"), end
            elif not (long or m[2]) and len(digits := token.lstrip("-")) > limit \
                    and digits.isdigit():
                long = start, token, f"{_spell(path)}: {_too_long()}"
    except (IndexError, TypeError, ValueError):
        pass
    return 0 if want is not None else long or (0, "", f": {_too_long()}")


@dataclass
class _Ctx:
    path: str
    text: str
    # each distinct rational token of the document, once validated, and its
    # value: a table of n^3 entries holds few distinct tokens
    rationals: dict[str, Fraction]

    def error(self, pos: int, token: object, message: str) -> ParseError:
        # a non-string token is spelled as JSON spells it: true, null, {"a": 1};
        # one nested too deeply to spell is empty
        try:
            tok = token if isinstance(token, str) else json.dumps(token)
        except RecursionError:
            tok = ""
        return ParseError(self.path, len(self.text[:pos].encode("utf-8")), tok, message)

    def fail(self, at: tuple, token: object, message: str, key: bool = False) -> ParseError:
        """The refusal of the value at path ``at``, or of the key ending it."""
        return self.error(_located(self.text, at, key), token, message)


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


def _parse(ctx: _Ctx) -> object:
    """``json.loads`` of ctx's text with no key repeated in an object, every
    failure a ParseError; a repeated key before a long integer anywhere."""
    try:
        return json.loads(ctx.text, object_pairs_hook=_unique)
    except json.JSONDecodeError as exc:  # a ValueError too, so caught first
        token = ctx.text[exc.pos : exc.pos + 10].strip() or "<end>"
        raise ctx.error(exc.pos, token, exc.msg) from exc
    except RecursionError as exc:
        raise ParseError(ctx.path, 0, "", "JSON nested too deeply") from exc
    except (_RepeatedKey, ValueError) as exc:  # ValueError: a long integer
        raise ctx.error(*_located(ctx.text)) from exc


def _rational(node: object, ctx: _Ctx, at: tuple, key: object) -> Fraction:
    """The rational ``node``, the value under ``key`` of the list or object
    at path ``at``."""
    if type(node) is int:
        return Fraction(node)
    if not isinstance(node, str):
        raise ctx.fail((*at, key), node, "expected a rational string like \"-1/2\"")
    value = ctx.rationals.get(node)
    if value is None:
        if not _RATIONAL_RE.fullmatch(node):
            raise ctx.fail((*at, key), node, "malformed rational")
        try:
            value = ctx.rationals[node] = Fraction(node)
        except ZeroDivisionError as exc:
            raise ctx.fail((*at, key), node, "denominator is zero") from exc
        except ValueError as exc:
            raise ctx.fail((*at, key), node, f"{_spell((*at, key))}: {_too_long()}") from exc
    return value


def _field(data: object, key: str, ctx: _Ctx, at: tuple = ()) -> object:
    """data[key], where ``at`` is data's path in its file, empty at the root."""
    if isinstance(data, dict) and key in data:
        return data[key]
    named = f"{_spell(at)}: " if at else ""
    if not isinstance(data, dict):
        raise ctx.fail(at, data, f"{named}expected a JSON object")
    raise ctx.fail(at, key, f"{named}missing field {key!r}")


def _nat(data: object, key: str, ctx: _Ctx, at: tuple, minimum=0, maximum=None) -> int:
    """The integer data[key], at least ``minimum`` and at most ``maximum``."""
    node = _field(data, key, ctx, at)
    if type(node) is not int or node < minimum:
        raise ctx.fail((*at, key), node, f"{_spell((*at, key))} must be an integer >= {minimum}")
    if maximum is not None and node > maximum:
        raise ctx.fail((*at, key), node, f"{_spell((*at, key))} must be at most {maximum}")
    return node


def _built(ctx: _Ctx, at: tuple, cls, *args):
    """cls(*args); a refusal of the constructor is a ParseError at the
    value at path ``at``, which it names, with its key as the token."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ctx.fail(at, at[-1], f"{_spell(at)}: {exc}") from exc


def _array(node: object, shape: tuple[int, ...], ctx: _Ctx, at: tuple) -> list:
    """The nested list of rationals ``node`` of the given shape.  A list of
    the wrong length is named by its position, as in c[1][2], and its token
    is its length when it holds lists."""
    n, inner = shape[0], shape[1:]
    if not isinstance(node, list) or len(node) != n:
        raise ctx.fail(at, len(node) if isinstance(node, list) and inner else node,
                       f"{_spell(at)}: expected a list of {n}")
    if not inner:
        return [_rational(x, ctx, at, k) for k, x in enumerate(node)]
    return [_array(x, inner, ctx, (*at, k)) for k, x in enumerate(node)]


def _sparse(node: object, n: int, ctx: _Ctx, at: tuple) -> Tensor3:
    """A dim-n product tensor from the list of {i, j, out} entries at path
    ``at``, built sparse: only its nonzero entries become integers."""
    if not isinstance(node, list):
        raise ctx.fail(at, node, f"{_spell(at)} must be a list")
    fibers: dict[tuple[int, int], dict[int, Fraction]] = {}
    first: dict[tuple[int, int], int] = {}
    for pos, item in enumerate(node):
        entry = (*at, pos)
        i = _nat(item, "i", ctx, entry, 1)
        j = _nat(item, "j", ctx, entry, 1)
        out = _field(item, "out", ctx, entry)
        if i > n or j > n:
            raise ctx.fail(entry, max(i, j), f"{_spell(entry)}: index out of range for dim {n}")
        if (i, j) in first:
            # the bare key is the token: the path is not text of the file
            raise ctx.fail(entry, at[-1], f"{_spell(entry)} repeats the pair (i, j) = "
                                          f"({i}, {j}) of {_spell((*at, first[i, j]))}")
        first[i, j] = pos
        out_at = (*entry, "out")
        if not isinstance(out, dict):
            raise ctx.fail(out_at, out, f"{_spell(out_at)} must map basis index to rational")
        fiber = fibers[i - 1, j - 1] = {}
        for kstr, val in out.items():
            try:
                k = int(kstr) if kstr.isascii() and kstr.isdigit() else 0
            except ValueError as exc:
                raise ctx.fail((*out_at, kstr), kstr, f"{_spell(out_at)} key: {_too_long()}",
                               key=True) from exc
            if not 1 <= k <= n:
                raise ctx.fail((*out_at, kstr), kstr,
                               f"{_spell(out_at)} key out of range for dim {n}", key=True)
            if k - 1 in fiber:  # the keys before kstr all read as indices
                earlier = next(s for s in out if int(s) == k)
                raise ctx.fail((*out_at, kstr), kstr, f"{_spell(out_at)} spells the index "
                               f"{k} twice, as {earlier!r} and {kstr!r}", key=True)
            fiber[k - 1] = _rational(val, ctx, out_at, kstr)
    return Tensor3.from_sparse((n, n, n), fibers)


def _resolve(node: object, ctx: _Ctx, at: tuple) -> tuple[object, _Ctx, tuple]:
    """Follow string file references, each relative to the file holding it,
    to the document they end at, whose path starts again at its root.  A
    reference back into the chain of files followed, or to a file that
    cannot be read, is a ParseError at the reference."""
    chain: list[str] = []
    while isinstance(node, str):
        path = os.path.join(os.path.dirname(ctx.path) or ".", node)
        if os.path.realpath(path) in chain:
            raise ctx.fail(at, node, f"circular file reference to {path}")
        chain.append(os.path.realpath(path))
        try:
            ctx, node = _read(path)
        except _Unreadable as exc:
            named = f"{_spell(at)}: " if at else ""
            raise ctx.fail(at, node, f"{named}{exc.path}: byte 0: {exc.message}") from exc
        at = ()
    return node, ctx, at


def _structure(node: object, ctx: _Ctx, at: tuple, cls=StructureAlgebra):
    """The algebra (or, for ``cls`` DendriformStructure, the dendriform
    structure) ``node`` at path ``at``, or the file it names, as cls(dim, q,
    *tensors) with one product tensor per key: c, or prec and succ.  When
    the node holds any list ``<key>_products`` (``products`` for ``c``)
    every tensor is read sparse from its list, a missing one meaning zero;
    else each is read dense under its key.  A node that holds both forms
    is refused at its ``{``, since either reading would drop a table."""
    keys = ("prec", "succ") if cls is DendriformStructure else ("c",)
    node, ctx, at = _resolve(node, ctx, at)
    dim = _nat(node, "dim", ctx, at, 0, MAX_DIM)
    q = _rational(_field(node, "q", ctx, at), ctx, at, "q")
    if q == 0:
        raise ctx.fail((*at, "q"), "q", f"{_spell((*at, 'q'))} must be nonzero")
    lists = ["products" if key == "c" else f"{key}_products" for key in keys]
    dense = [key for key in keys if key in node]
    sparse = [name for name in lists if name in node]
    if dense and sparse:
        named = f"{_spell(at)}: " if at else ""
        raise ctx.fail(at, dense[0], f"{named}dense {dense[0]!r} and sparse {sparse[0]!r} "
                                     "cannot be mixed")
    if sparse:
        tensors = [_sparse(node.get(name, []), dim, ctx, (*at, name)) for name in lists]
    else:
        shape = (dim, dim, dim)
        tensors = [Tensor3(_array(_field(node, key, ctx, at), shape, ctx, (*at, key)), shape)
                   for key in keys]
    return cls(dim, q, *tensors)


def _actions(node: object, keys: tuple[str, str], n: int, m: int, ctx: _Ctx,
             at: tuple) -> Bimodule:
    """The action lists under ``keys`` (l then r) of ``node`` as a bimodule
    of an n-dim algebra on an m-dim space.  Each list holds n row-major
    m x m matrices, one per acting basis vector."""
    shape = (n, m, m)
    l, r = (Tensor3(_array(_field(node, k, ctx, at), shape, ctx, (*at, k)), shape)
            .transposed() for k in keys)
    return Bimodule(n, m, l, r)


def _bimodule_from(node: object, n: int, ctx: _Ctx, at: tuple) -> Bimodule:
    """The fields module_dim, l and r of ``node`` as a bimodule of an n-dim
    algebra."""
    m = _nat(node, "module_dim", ctx, at, 0, MAX_DIM)
    return _actions(node, ("l", "r"), n, m, ctx, at)


def load_algebra(path: str) -> StructureAlgebra:
    ctx, data = _read(path)
    return _structure(data, ctx, ())


def load_bimodule(path: str) -> tuple[StructureAlgebra, Bimodule]:
    ctx, data = _read(path)
    A = _structure(_field(data, "algebra", ctx), ctx, ("algebra",))
    return A, _bimodule_from(data, A.dim, ctx, ())


def load_matched_pair(path: str) -> MatchedPairData:
    ctx, data = _read(path)
    A = _structure(_field(data, "A", ctx), ctx, ("A",))
    B = _structure(_field(data, "B", ctx), ctx, ("B",))
    on_B = _actions(data, ("lA", "rA"), A.dim, B.dim, ctx, ())
    on_A = _actions(data, ("lB", "rB"), B.dim, A.dim, ctx, ())
    # A and B at two values of q are refused
    return _built(ctx, ("B",), MatchedPairData, A, B, on_B, on_A)


def load_dendriform(path: str) -> DendriformStructure:
    ctx, data = _read(path)
    return _structure(data, ctx, (), DendriformStructure)


def load_form(path: str) -> tuple[StructureAlgebra, BilinearForm]:
    ctx, data = _read(path)
    A = _structure(_field(data, "algebra", ctx), ctx, ("algebra",))
    fnode = _field(data, "form", ctx)
    dim = _nat(fnode, "dim", ctx, ("form",))
    kind = _field(fnode, "kind", ctx, ("form",))
    if kind not in ("symmetric", "antisymmetric", "general"):
        raise ctx.fail(("form", "kind"), kind,
                       "form.kind must be symmetric, antisymmetric, or general")
    shape = (dim, dim)
    gram = Matrix(_array(_field(fnode, "gram", ctx, ("form",)), shape, ctx, ("form", "gram")),
                  shape)
    if dim != A.dim:
        raise ctx.fail(("form", "dim"), dim, "form.dim must match the algebra dimension")
    # a gram matrix that does not have its kind is refused
    return A, _built(ctx, ("form", "gram"), BilinearForm, dim, gram, kind)


def load_o_operator(path: str) -> tuple[StructureAlgebra, Bimodule, Matrix]:
    ctx, data = _read(path)
    A = _structure(_field(data, "algebra", ctx), ctx, ("algebra",))
    M = _bimodule_from(_field(data, "bimodule", ctx), A.dim, ctx, ("bimodule",))
    shape = (A.dim, M.module_dim)
    return A, M, Matrix(_array(_field(data, "T", ctx), shape, ctx, ("T",)), shape)


def load_rota_baxter(path: str) -> tuple[StructureAlgebra, Matrix]:
    ctx, data = _read(path)
    A = _structure(_field(data, "algebra", ctx), ctx, ("algebra",))
    shape = (A.dim, A.dim)
    return A, Matrix(_array(_field(data, "tau", ctx), shape, ctx, ("tau",)), shape)


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
    # (A, Astar), two StructureAlgebras, when quadratic; (DA, DAstar), two
    # DendriformStructures, when symplectic
    halves: tuple
    displayed: list[dict]
    complete: bool


def load_fixture(path: str) -> PaperFixture:
    ctx, data = _read(path)
    label = _field(data, "label", ctx)
    if not isinstance(label, str):
        raise ctx.fail(("label",), label, "label must be a string")
    kind = _field(data, "kind", ctx)
    if kind not in ("quadratic", "symplectic"):
        raise ctx.fail(("kind",), kind, "kind must be quadratic or symplectic")
    quadratic = kind == "quadratic"
    keys = ("A", "Astar") if quadratic else ("DA", "DAstar")
    cls = StructureAlgebra if quadratic else DendriformStructure
    X, Y = (_structure(_field(data, k, ctx), ctx, (k,), cls) for k in keys)
    if X.dim != Y.dim or X.q != -1 or Y.q != -1:
        # the audit builds a double, which needs equal halves at q = -1
        raise ctx.fail(keys[1:], keys[1],
                       f"{keys[0]} and {keys[1]} must have equal dim and q = -1")
    half = X.dim
    lines = _field(data, "displayed", ctx)
    if not isinstance(lines, list):
        raise ctx.fail(("displayed",), lines, "displayed must be a list")
    displayed = [
        {k: _array(_field(item, k, ctx, ("displayed", pos)), (2 * half,), ctx,
                   ("displayed", pos, k))
         for k in ("left", "right", "result")}
        for pos, item in enumerate(lines)
    ]
    complete = _field(data, "complete", ctx)
    if not isinstance(complete, bool):
        raise ctx.fail(("complete",), complete, "complete must be true or false")
    return PaperFixture(label, kind, (X, Y), displayed, complete)


# ---------------------------------------------------------------------------
# serialization

def matrix_doc(m: Matrix) -> list[list[str]]:
    return [[exact_str(x) for x in row] for row in m.entries]


def tensor_doc(t: Tensor3) -> list[list[list[str]]]:
    return [[[exact_str(x) for x in row] for row in slab] for slab in t.entries]


def algebra_to_doc(A: StructureAlgebra) -> dict:
    return {"dim": A.dim, "q": exact_str(A.q), "c": tensor_doc(A.c)}


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
        "q": exact_str(D.q),
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


class _Spelled(dict):
    """The text of each integer a over one ``scale``, as ``exact_str``
    spells ``Fraction(a, scale)``: made on the first lookup of a, with one
    gcd and the sign taken off the scale, which is negative when q is."""

    __slots__ = ("scale",)

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, a: int) -> str:
        g = math.gcd(a, self.scale)
        n, d = a // g, self.scale // g
        if d < 0:
            n, d = -n, -d
        text = self[a] = exact_str(n) if d == 1 else f"{exact_str(n)}/{exact_str(d)}"
        return text


def _write_report(rep: CheckReport, nl: str, out: list[str]) -> None:
    """Append the text of ``rep.as_dict()`` without building it: each
    violation is one string, its head made once per identity id, its
    indices joined with ``int.__repr__`` and its residual entries, integers
    over the violation's scale, looked up in one memo per scale
    (``_Spelled``), keyed by the int, so each distinct value is spelled
    once and no Fraction is made."""
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
        spelled: dict[int, _Spelled] = {}
        texts = []
        for v in rep.violations:
            head = heads.get(v.identity_id)
            if head is None:
                head = heads[v.identity_id] = (
                    f'{{{field}"identity_id": {_quote(v.identity_id)},{field}"indices": ')
            idx = ints.join(map(int.__repr__, v.indices))
            memo = spelled.get(v.scale)
            if memo is None:
                memo = spelled[v.scale] = _Spelled(v.scale)
            res = strs.join(map(memo.__getitem__, v.entries))
            idx = f"[{item}{idx}{field}]" if v.indices else "[]"
            res = f'[{item}"{res}"{field}]' if v.entries else "[]"
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
