"""Known answers, computed without the code under test.

Each evaluator expands one family of laws straight from its definition
over nested lists of ``Fraction`` (the layout of ``corpus``) and returns
the violations as ``(identity_id, indices, residual strings)`` in the
order antiassoc reports them: basis tuples in lexicographic order, and
within a tuple the identities in their documented order.  Indices are
1-based and a matrix residual is flattened row-major.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from corpus import mat2_inverse

ZERO = Fraction(0)


def _violation(identity: str, idx: tuple, res: list):
    if any(res):
        return [(identity, idx, tuple(str(x) for x in res))]
    return []


def _lin(coeffs: list, vectors: list) -> list:
    """sum_a coeffs[a] * vectors[a]."""
    out = [ZERO] * len(vectors[0])
    for a, f in enumerate(coeffs):
        if f:
            for k, x in enumerate(vectors[a]):
                if x:
                    out[k] += f * x
    return out


def _mul(c: list, x: list, y: list) -> list:
    n = len(c)
    out = [ZERO] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    for k, ck in enumerate(c[i][j]):
                        if ck:
                            out[k] += xi * yj * ck
    return out


def _matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols] for row in a]


def _matlin(coeffs: list, mats: list) -> list:
    rows, cols = len(mats[0]), len(mats[0][0])
    out = [[ZERO] * cols for _ in range(rows)]
    for f, m in zip(coeffs, mats):
        if f:
            for r in range(rows):
                for s in range(cols):
                    out[r][s] += f * m[r][s]
    return out


def _apply(m: list, v: list) -> list:
    return [sum((a * b for a, b in zip(row, v)), ZERO) for row in m]


def _column(m: list, j: int) -> list:
    return [row[j] for row in m]


def _sub(a: list, s: Fraction, b: list) -> list:
    """a - s * b, flattened when a and b are matrices."""
    if a and isinstance(a[0], list):
        return [x - s * y for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    return [x - s * y for x, y in zip(a, b)]


def q_law(c: list, q: Fraction) -> list:
    """(e_i e_j) e_k - q e_i (e_j e_k) over all triples."""
    n = len(c)
    right = [[[c[a][k][t] for t in range(n)] for a in range(n)] for k in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = _lin(c[i][j], right[k])
                rhs = _lin(c[j][k], c[i])
                out += _violation("q_assoc", (i + 1, j + 1, k + 1), _sub(lhs, q, rhs))
    return out


def bimodule_laws(c: list, q: Fraction, l: list, r: list) -> list:
    """l(e_i e_j) = q l_i l_j, r(e_i e_j) = q^-1 r_j r_i, l_i r_j = q^-1 r_j l_i."""
    n = len(c)
    qi = 1 / q
    out = []
    for i in range(n):
        for j in range(n):
            idx = (i + 1, j + 1)
            prod = c[i][j]
            out += _violation("l_law", idx, _sub(_matlin(prod, l), q, _matmul(l[i], l[j])))
            out += _violation("r_law", idx, _sub(_matlin(prod, r), qi, _matmul(r[j], r[i])))
            out += _violation("lr_law", idx, _sub(_matmul(l[i], r[j]), qi, _matmul(r[j], l[i])))
    return out


def dendriform_axioms(prec: list, succ: list, q: Fraction) -> list:
    """(x<y)<z = q x<(y*z), (x>y)<z = q x>(y<z), x>(y>z) = q^-1 (x*y)>z."""
    n = len(prec)
    qi = 1 / q
    star = [[[a + b for a, b in zip(fp, fs)] for fp, fs in zip(pp, ps)] for pp, ps in zip(prec, succ)]
    prec_right = [[prec[a][k] for a in range(n)] for k in range(n)]  # (v < e_k) = sum_a v_a prec[a][k]
    succ_right = [[succ[a][k] for a in range(n)] for k in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                idx = (i + 1, j + 1, k + 1)
                r1 = _sub(_lin(prec[i][j], prec_right[k]), q, _lin(star[j][k], prec[i]))
                r2 = _sub(_lin(succ[i][j], prec_right[k]), q, _lin(prec[j][k], succ[i]))
                r3 = _sub(_lin(succ[j][k], succ[i]), qi, _lin(star[i][j], succ_right[k]))
                out += _violation("axiom1", idx, r1)
                out += _violation("axiom2", idx, r2)
                out += _violation("axiom3", idx, r3)
    return out


def rota_baxter(c: list, tau: list) -> list:
    """tau(x) tau(y) = tau(tau(x) y + x tau(y)) on basis pairs."""
    n = len(c)
    e = [[Fraction(int(a == b)) for a in range(n)] for b in range(n)]
    out = []
    for i in range(n):
        tx = _column(tau, i)
        for j in range(n):
            ty = _column(tau, j)
            inner = [a + b for a, b in zip(_mul(c, tx, e[j]), _mul(c, e[i], ty))]
            res = [a - b for a, b in zip(_mul(c, tx, ty), _apply(tau, inner))]
            out += _violation("rota_baxter", (i + 1, j + 1), res)
    return out


def o_operator(c: list, l: list, r: list, t: list) -> list:
    """T(u) T(v) = T(l(Tu) v + r(Tv) u) on module basis pairs."""
    m = len(l[0])
    out = []
    for i in range(m):
        tu = _column(t, i)
        lu = _matlin(tu, l)
        for j in range(m):
            tv = _column(t, j)
            inner = [a + b for a, b in zip(_column(lu, j), _column(_matlin(tv, r), i))]
            res = [a - b for a, b in zip(_mul(c, tu, tv), _apply(t, inner))]
            out += _violation("o_operator", (i + 1, j + 1), res)
    return out


def is_isomorphism2(c1: list, c2: list, phi: list) -> bool:
    """Dimension 2: phi invertible and phi(x .1 y) = phi(x) .2 phi(y) on basis pairs."""
    if phi[0][0] * phi[1][1] == phi[0][1] * phi[1][0]:
        return False
    cols = [_column(phi, j) for j in range(2)]
    return all(
        _apply(phi, c1[i][j]) == _mul(c2, cols[i], cols[j]) for i in range(2) for j in range(2)
    )


def grid_witness_exists(p1: list, p2: list, grid: tuple) -> bool:
    """Whether some isomorphism Y -> X has every entry in ``grid``, where
    X is E = (e1.e1 = e2) transported by p1 and Y is X transported by p2.

    The isomorphisms Y -> X are p1 a p1^-1 p2^-1 for a in
    Aut(E) = {[[s, 0], [t, s^2]] : s != 0}, so phi is one exactly when
    n = p1^-1 phi p2 p1 has n01 = 0, n00 != 0 and n11 = n00^2.  Each n_rs
    is linear in phi; n01 = 0 fixes the last entry from the other three.
    """
    left = mat2_inverse(p1)
    right = [[sum(p2[r][k] * p1[k][s] for k in range(2)) for s in range(2)] for r in range(2)]

    def coeffs(r: int, s: int) -> list:  # n_rs = sum coeffs[2i+j] * phi[i][j]
        return [left[r][i] * right[j][s] for i in range(2) for j in range(2)]

    w00, w01, w11 = coeffs(0, 0), coeffs(0, 1), coeffs(1, 1)
    allowed = set(grid)
    for abc in itertools.product(grid, repeat=3):
        partial = sum(w * x for w, x in zip(w01, abc))
        if w01[3]:
            last = -partial / w01[3]
            candidates = (last,) if last in allowed else ()
        else:
            candidates = () if partial else grid
        for d in candidates:
            phi = abc + (d,)
            n00 = sum(w * x for w, x in zip(w00, phi))
            if n00 and sum(w * x for w, x in zip(w11, phi)) == n00 * n00:
                return True
    return False
