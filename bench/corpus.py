"""Seeded input generators for the benchmark.

These are the benchmark's own copies of the generator tricks: they do not
import the test suite, so a change to the tests cannot change the inputs.

Structures are held as nested lists of ``Fraction`` (0-based, ``c[i][j][k]``
is the e_k coordinate of e_i.e_j; a matrix ``m[row][col]`` acts on column
vectors).  ``*_doc`` functions turn them into the JSON documents that
``antiassoc`` reads, with every rational written as a string.

The 2-step nilpotent trick: the basis splits into s generators followed by
an annihilator block Z, and products of generators land in Z.  Every
product of three elements then vanishes in any bracketing, so the q-law,
the dendriform axioms, the regular and dual bimodule laws, and the
Rota-Baxter and O-operator identities for maps with image in Z all hold,
for every q.
"""

from __future__ import annotations

import random
from fractions import Fraction

NONZERO = tuple(Fraction(x) for x in ("-2", "-1", "-1/2", "1/2", "1", "2"))
DENSE = NONZERO + (Fraction(0),)


def zeros3(n: int) -> list:
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def split_of(n: int) -> int:
    """Generator count of the nilpotent structures; fixed so cost does not depend on the seed."""
    return max(1, n // 2)


def nilpotent_tensor(rng: random.Random, n: int) -> list:
    s = split_of(n)
    c = zeros3(n)
    for i in range(s):
        for j in range(s):
            for k in range(s, n):
                c[i][j][k] = rng.choice(NONZERO)
    return c


def dense_tensor(rng: random.Random, n: int) -> list:
    return [[[rng.choice(DENSE) for _ in range(n)] for _ in range(n)] for _ in range(n)]


def dense_matrix(rng: random.Random, rows: int, cols: int) -> list:
    return [[rng.choice(DENSE) for _ in range(cols)] for _ in range(rows)]


def annihilator_map(rng: random.Random, n: int, cols: int) -> list:
    """An n x cols matrix whose image lies in the annihilator block."""
    m = [[Fraction(0)] * cols for _ in range(n)]
    for i in range(split_of(n), n):
        for j in range(cols):
            m[i][j] = rng.choice(NONZERO)
    return m


def left_ops(c: list) -> list:
    """L[i][k][j] = c[i][j][k]: matrix of left multiplication by e_i."""
    n = len(c)
    return [[[c[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]


def right_ops(c: list) -> list:
    """R[j][k][i] = c[i][j][k]: matrix of right multiplication by e_j."""
    n = len(c)
    return [[[c[i][j][k] for i in range(n)] for k in range(n)] for j in range(n)]


def transpose(m: list) -> list:
    return [list(col) for col in zip(*m)]


def scale(s: Fraction, m: list) -> list:
    return [[s * x for x in row] for row in m]


def dual_actions(c: list, q: Fraction) -> tuple[list, list]:
    """Contragredient of the regular bimodule: (q^-2 R^T, q^2 L^T)."""
    q2 = q * q
    return (
        [scale(1 / q2, transpose(m)) for m in right_ops(c)],
        [scale(q2, transpose(m)) for m in left_ops(c)],
    )


def tensor_sum(a: list, b: list) -> list:
    return [[[x + y for x, y in zip(fa, fb)] for fa, fb in zip(pa, pb)] for pa, pb in zip(a, b)]


# ---------------------------------------------------------------------------
# 2x2 transports for the dim-2 isomorphism queries


def mat2_inverse(p: list) -> list:
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    return [[p[1][1] / det, -p[0][1] / det], [-p[1][0] / det, p[0][0] / det]]


def mat_vec(m: list, v: list) -> list:
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def bilinear(c: list, x: list, y: list) -> list:
    n = len(c)
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    f = xi * yj
                    for k, ck in enumerate(c[i][j]):
                        if ck:
                            out[k] += f * ck
    return out


def transport(c: list, p: list) -> list:
    """Structure constants of the algebra with p as an isomorphism onto it:
    x .' y = p((p^-1 x) . (p^-1 y)).
    """
    n = len(c)
    pinv = mat2_inverse(p)
    cols = [[pinv[r][j] for r in range(n)] for j in range(n)]
    return [[mat_vec(p, bilinear(c, cols[i], cols[j])) for j in range(n)] for i in range(n)]


def random_invertible2(rng: random.Random, grid: tuple) -> list:
    while True:
        p = [[rng.choice(grid) for _ in range(2)] for _ in range(2)]
        if p[0][0] * p[1][1] != p[0][1] * p[1][0]:
            return p


# ---------------------------------------------------------------------------
# JSON documents


def _s2(m: list) -> list:
    return [[str(x) for x in row] for row in m]


def _s3(c: list) -> list:
    return [_s2(plane) for plane in c]


def _products(c: list) -> list:
    """Sparse 1-based product list for the nonzero basis products."""
    out = []
    n = len(c)
    for i in range(n):
        for j in range(n):
            fiber = {str(k + 1): str(x) for k, x in enumerate(c[i][j]) if x}
            if fiber:
                out.append({"i": i + 1, "j": j + 1, "out": fiber})
    return out


def algebra_doc(c: list, q: Fraction, sparse: bool) -> dict:
    doc = {"dim": len(c), "q": str(q)}
    if sparse:
        doc["products"] = _products(c)
    else:
        doc["c"] = _s3(c)
    return doc


def dendriform_doc(prec: list, succ: list, q: Fraction, sparse: bool) -> dict:
    doc = {"dim": len(prec), "q": str(q)}
    if sparse:
        doc["prec_products"] = _products(prec)
        doc["succ_products"] = _products(succ)
    else:
        doc["prec"] = _s3(prec)
        doc["succ"] = _s3(succ)
    return doc


def bimodule_doc(algebra: dict, l: list, r: list) -> dict:
    return {
        "algebra": algebra,
        "module_dim": len(l[0]),
        "l": [_s2(m) for m in l],
        "r": [_s2(m) for m in r],
    }


def o_operator_doc(algebra: dict, l: list, r: list, t: list) -> dict:
    return {
        "algebra": algebra,
        "bimodule": {"module_dim": len(l[0]), "l": [_s2(m) for m in l], "r": [_s2(m) for m in r]},
        "T": _s2(t),
    }


def rota_baxter_doc(algebra: dict, tau: list) -> dict:
    return {"algebra": algebra, "tau": _s2(tau)}
