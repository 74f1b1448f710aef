"""JSON document parsing and serialization for the CLI.

All rationals travel as strings "p" or "p/q" (JSON integers are also
accepted on input).  Parsing is strict: no floats, no booleans, no
denominator zero, no whitespace inside a rational.  Errors carry the
file path, a byte offset, and the offending token; offsets for semantic
errors are best-effort (first occurrence of the token in the file).
"""

from __future__ import annotations

import json
import os
import re
import stat
from dataclasses import dataclass
from fractions import Fraction

from .algebra import StructureAlgebra
from .bimodules import Bimodule
from .dendriform import DendriformStructure
from .forms import BilinearForm
from .linalg import Matrix, Tensor3
from .matched import MatchedPairData
from .operators import LinearMap

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

# Largest dim an algebra or dendriform document, and largest module_dim a
# bimodule, may declare.  Product tensors are allocated dense, dim^3
# Fractions, before their entries are read, and a semidirect product
# allocates (dim + module_dim)^3, so the bound keeps a hostile dimension
# from exhausting memory.
MAX_DIM = 64


class ParseError(ValueError):
    def __init__(self, path: str, offset: int, token: str, message: str):
        self.path = path
        self.offset = offset
        self.token = token
        self.message = message
        super().__init__(f"{path}: byte {offset}: {message} (token {token!r})")


@dataclass
class _Ctx:
    path: str
    text: str

    def fail(self, token: object, message: str) -> "ParseError":
        # a non-string token is spelled as JSON spells it: true, null, {"a": 1}
        tok = token if isinstance(token, str) else json.dumps(token)
        pos = max(self.text.find(tok), 0) if tok else 0
        return ParseError(self.path, len(self.text[:pos].encode("utf-8")), tok, message)


def _read(path: str) -> tuple[_Ctx, object]:
    try:
        # a device or a pipe may never end, so only a regular file is read
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ParseError(path, 0, "", "not a regular file")
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(path, 0, "", f"cannot read file: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, exc.start, "", "invalid UTF-8") from exc
    ctx = _Ctx(path, text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        token = text[exc.pos : exc.pos + 10].strip() or "<end>"
        raise ParseError(path, offset, token, exc.msg) from exc
    return ctx, data


def _rational(node: object, ctx: _Ctx) -> Fraction:
    if type(node) is int:
        return Fraction(node)
    if not isinstance(node, str):
        raise ctx.fail(node, "expected a rational string like \"-1/2\"")
    if not _RATIONAL_RE.fullmatch(node):
        raise ctx.fail(node, "malformed rational")
    if "/" in node and int(node.split("/", 1)[1]) == 0:
        raise ctx.fail(node, "denominator is zero")
    return Fraction(node)


def _nat(node: object, ctx: _Ctx, what: str, minimum: int = 0) -> int:
    if type(node) is not int or node < minimum:
        raise ctx.fail(node, f"{what} must be an integer >= {minimum}")
    return node


def _field(data: object, key: str, ctx: _Ctx) -> object:
    if not isinstance(data, dict):
        raise ctx.fail(data, "expected a JSON object")
    if key not in data:
        raise ctx.fail(key, f"missing field {key!r}")
    return data[key]


def _matrix(node: object, rows: int, cols: int, ctx: _Ctx, what: str) -> Matrix:
    if not isinstance(node, list) or len(node) != rows:
        raise ctx.fail(node if not isinstance(node, list) else len(node),
                       f"{what}: expected {rows} rows")
    entries = []
    for row in node:
        if not isinstance(row, list) or len(row) != cols:
            raise ctx.fail(row, f"{what}: expected rows of length {cols}")
        entries.append([_rational(x, ctx) for x in row])
    return Matrix(entries)


def _tensor(node: object, n: int, ctx: _Ctx, what: str) -> Tensor3:
    if not isinstance(node, list) or len(node) != n:
        raise ctx.fail(node if not isinstance(node, list) else len(node),
                       f"{what}: expected {n} slices")
    t = Tensor3.zeros(n, n, n)
    for i, slab in enumerate(node):
        if not isinstance(slab, list) or len(slab) != n:
            raise ctx.fail(slab, f"{what}: slice {i + 1} must hold {n} rows")
        for j, row in enumerate(slab):
            if not isinstance(row, list) or len(row) != n:
                raise ctx.fail(row, f"{what}: row ({i + 1},{j + 1}) must hold {n} values")
            t.entries[i][j] = [_rational(x, ctx) for x in row]
    return t


def _products_into(t: Tensor3, node: object, ctx: _Ctx, what: str) -> None:
    n = t.d1
    if not isinstance(node, list):
        raise ctx.fail(node, f"{what} must be a list")
    first: dict[tuple[int, int], int] = {}
    for pos, item in enumerate(node, start=1):
        i = _nat(_field(item, "i", ctx), ctx, f"{what}.i", 1)
        j = _nat(_field(item, "j", ctx), ctx, f"{what}.j", 1)
        out = _field(item, "out", ctx)
        if i > n or j > n:
            raise ctx.fail(max(i, j), f"{what}: index out of range for dim {n}")
        if (i, j) in first:
            raise ctx.fail(what, f"{what}[{pos}] repeats the pair (i, j) = ({i}, {j}) "
                                 f"of {what}[{first[i, j]}]")
        first[i, j] = pos
        if not isinstance(out, dict):
            raise ctx.fail(out, f"{what}.out must map basis index to rational")
        for kstr, val in out.items():
            if not (kstr.isascii() and kstr.isdigit()) or not 1 <= int(kstr) <= n:
                raise ctx.fail(kstr, f"{what}.out key out of range for dim {n}")
            t.entries[i - 1][j - 1][int(kstr) - 1] = _rational(val, ctx)


def _resolve(node: object, ctx: _Ctx) -> tuple[object, _Ctx]:
    """Follow string file references, each relative to the file holding it,
    to the document they end at.  A reference back into the chain of files
    already followed is a ParseError, not endless recursion."""
    chain: list[str] = []
    while isinstance(node, str):
        path = os.path.join(os.path.dirname(ctx.path) or ".", node)
        if os.path.realpath(path) in chain:
            raise ctx.fail(node, f"circular file reference to {path}")
        chain.append(os.path.realpath(path))
        ctx, node = _read(path)
    return node, ctx


def _dim_and_q(node: object, ctx: _Ctx) -> tuple[int, Fraction]:
    dim = _nat(_field(node, "dim", ctx), ctx, "dim", 0)
    if dim > MAX_DIM:
        raise ctx.fail(dim, f"dim must be at most {MAX_DIM}")
    q = _rational(_field(node, "q", ctx), ctx)
    if q == 0:
        raise ctx.fail("q", "q must be nonzero")
    return dim, q


def _algebra_from(node: object, ctx: _Ctx) -> StructureAlgebra:
    node, ctx = _resolve(node, ctx)
    dim, q = _dim_and_q(node, ctx)
    if "products" in node:
        t = Tensor3.zeros(dim, dim, dim)
        _products_into(t, node["products"], ctx, "products")
    else:
        t = _tensor(_field(node, "c", ctx), dim, ctx, "c")
    return StructureAlgebra(dim, q, t)


def _action_list(node: object, count: int, m: int, ctx: _Ctx, what: str) -> Tensor3:
    """An action table from its document form, a list of ``count`` row-major
    m x m matrices, one per acting basis vector."""
    if not isinstance(node, list) or len(node) != count:
        raise ctx.fail(node if not isinstance(node, list) else len(node),
                       f"{what}: expected {count} matrices")
    mats = [_matrix(mat, m, m, ctx, f"{what}[{k + 1}]") for k, mat in enumerate(node)]
    return Tensor3([mat.entries for mat in mats]).transposed()


def load_algebra(path: str) -> StructureAlgebra:
    ctx, data = _read(path)
    return _algebra_from(data, ctx)


def _bimodule_from(node: object, n: int, ctx: _Ctx, prefix: str) -> Bimodule:
    """The fields module_dim, l and r of ``node``, named ``prefix + field``
    in errors, as a bimodule of an n-dim algebra."""
    m = _nat(_field(node, "module_dim", ctx), ctx, f"{prefix}module_dim", 0)
    if m > MAX_DIM:
        raise ctx.fail(m, f"{prefix}module_dim must be at most {MAX_DIM}")
    l = _action_list(_field(node, "l", ctx), n, m, ctx, f"{prefix}l")
    r = _action_list(_field(node, "r", ctx), n, m, ctx, f"{prefix}r")
    return Bimodule(n, m, l, r)


def load_bimodule(path: str) -> tuple[StructureAlgebra, Bimodule]:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "algebra", ctx), ctx)
    return A, _bimodule_from(data, A.dim, ctx, "")


def load_matched_pair(path: str) -> MatchedPairData:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "A", ctx), ctx)
    B = _algebra_from(_field(data, "B", ctx), ctx)

    def side(keys: tuple[str, str], n: int, m: int) -> Bimodule:
        l, r = (_action_list(_field(data, k, ctx), n, m, ctx, k) for k in keys)
        return Bimodule(n, m, l, r)

    return MatchedPairData(
        A, B, side(("lA", "rA"), A.dim, B.dim), side(("lB", "rB"), B.dim, A.dim)
    )


def _dendriform_from(node: object, ctx: _Ctx) -> DendriformStructure:
    node, ctx = _resolve(node, ctx)
    dim, q = _dim_and_q(node, ctx)
    if "prec_products" in node or "succ_products" in node:
        prec = Tensor3.zeros(dim, dim, dim)
        succ = Tensor3.zeros(dim, dim, dim)
        _products_into(prec, node.get("prec_products", []), ctx, "prec_products")
        _products_into(succ, node.get("succ_products", []), ctx, "succ_products")
    else:
        prec = _tensor(_field(node, "prec", ctx), dim, ctx, "prec")
        succ = _tensor(_field(node, "succ", ctx), dim, ctx, "succ")
    return DendriformStructure(dim, q, prec, succ)


def load_dendriform(path: str) -> DendriformStructure:
    ctx, data = _read(path)
    return _dendriform_from(data, ctx)


def load_form(path: str) -> tuple[StructureAlgebra, BilinearForm]:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "algebra", ctx), ctx)
    fnode = _field(data, "form", ctx)
    dim = _nat(_field(fnode, "dim", ctx), ctx, "form.dim", 0)
    kind = _field(fnode, "kind", ctx)
    if kind not in ("symmetric", "antisymmetric", "general"):
        raise ctx.fail(kind, "form.kind must be symmetric, antisymmetric, or general")
    gram = _matrix(_field(fnode, "gram", ctx), dim, dim, ctx, "form.gram")
    if dim != A.dim:
        raise ctx.fail(dim, "form.dim must match the algebra dimension")
    return A, BilinearForm(dim, gram, kind)


def load_o_operator(path: str) -> tuple[StructureAlgebra, Bimodule, LinearMap]:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "algebra", ctx), ctx)
    M = _bimodule_from(_field(data, "bimodule", ctx), A.dim, ctx, "bimodule.")
    T = _matrix(_field(data, "T", ctx), A.dim, M.module_dim, ctx, "T")
    return A, M, LinearMap(M.module_dim, A.dim, T)


def load_rota_baxter(path: str) -> tuple[StructureAlgebra, LinearMap]:
    ctx, data = _read(path)
    A = _algebra_from(_field(data, "algebra", ctx), ctx)
    tau = _matrix(_field(data, "tau", ctx), A.dim, A.dim, ctx, "tau")
    return A, LinearMap(A.dim, A.dim, tau)


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


def _fraction_vector(node: object, length: int, ctx: _Ctx, what: str) -> list[Fraction]:
    if not isinstance(node, list) or len(node) != length:
        raise ctx.fail(node, f"{what}: expected a vector of length {length}")
    return [_rational(x, ctx) for x in node]


def load_fixture(path: str) -> PaperFixture:
    ctx, data = _read(path)
    label = _field(data, "label", ctx)
    kind = _field(data, "kind", ctx)
    if kind not in ("quadratic", "symplectic"):
        raise ctx.fail(kind, "kind must be quadratic or symplectic")
    A = Astar = DA = DAstar = None
    if kind == "quadratic":
        A = _algebra_from(_field(data, "A", ctx), ctx)
        Astar = _algebra_from(_field(data, "Astar", ctx), ctx)
        half = A.dim
    else:
        DA = _dendriform_from(_field(data, "DA", ctx), ctx)
        DAstar = _dendriform_from(_field(data, "DAstar", ctx), ctx)
        half = DA.dim
    lines = _field(data, "displayed", ctx)
    if not isinstance(lines, list):
        raise ctx.fail(lines, "displayed must be a list")
    displayed = [
        {k: _fraction_vector(_field(item, k, ctx), 2 * half, ctx, k)
         for k in ("left", "right", "result")}
        for item in lines
    ]
    complete = _field(data, "complete", ctx)
    if not isinstance(complete, bool):
        raise ctx.fail(complete, "complete must be true or false")
    return PaperFixture(str(label), kind, A, Astar, DA, DAstar, displayed, complete)


# ---------------------------------------------------------------------------
# serialization

def matrix_doc(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


def tensor_doc(t: Tensor3) -> list[list[list[str]]]:
    return [[[str(x) for x in row] for row in slab] for slab in t.entries]


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
    return {
        "kind": d.kind,
        "half_dim": d.half_dim,
        "total": algebra_to_doc(d.total),
        "form": form_to_doc(d.form),
        "report": d.report.as_dict(),
    }


def dump_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
            parts.append(f"{x}*{name}")
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out
