"""The Fraction reference for the checks that run on the integer kernel.

Each function here evaluates one check's laws tuple by tuple in Fraction
arithmetic, through the public products and matrix operations, and
returns a CheckReport with the same ids, indices, residual order and info
as the library check of the same name.  tests/test_kernel.py compares the
two exactly; nothing in the library imports this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from antiassoc import (
    BilinearForm,
    Bimodule,
    CheckReport,
    DendriformStructure,
    LinearMap,
    StructureAlgebra,
    Violation,
    associated_algebra,
    multiply,
)
from antiassoc.bimodules import action_of
from antiassoc.linalg import basis_vec, vec_add, vec_sub


def _run(tuples, residual) -> list[Violation]:
    out = []
    for idx in tuples:
        for identity_id, res in residual(*idx):
            if any(x != 0 for x in res):
                out.append(Violation(identity_id, tuple(i + 1 for i in idx), list(res)))
    return out


def _flat(m) -> list[Fraction]:
    return [x for row in m.entries for x in row]


def _basis(n):
    return [basis_vec(n, i) for i in range(n)]


def check_q_associative(A: StructureAlgebra) -> CheckReport:
    n, c, e = A.dim, A.c.entries, _basis(A.dim)

    def residual(i, j, k):
        lhs = multiply(A, c[i][j], e[k])
        rhs = multiply(A, e[i], c[j][k])
        yield "q_assoc", [u - A.q * v for u, v in zip(lhs, rhs)]

    violations = _run(itertools.product(range(n), repeat=3), residual)
    return CheckReport.from_violations(violations, q=str(A.q), triples=n**3)


def check_mock_lie(A: StructureAlgebra) -> CheckReport:
    n, c, e = A.dim, A.c.entries, _basis(A.dim)

    def commutator(i, j):
        yield "commutative", vec_sub(c[i][j], c[j][i])

    def jacobi(i, j, k):
        terms = (
            multiply(A, c[i][j], e[k]),
            multiply(A, c[k][i], e[j]),
            multiply(A, c[j][k], e[i]),
        )
        yield "jacobi", [sum(t, Fraction(0)) for t in zip(*terms)]

    violations = _run(itertools.combinations(range(n), 2), commutator)
    violations += _run(itertools.product(range(n), repeat=3), jacobi)
    return CheckReport.from_violations(violations)


def check_quartic_vanishing(A: StructureAlgebra) -> CheckReport:
    n, c, e = A.dim, A.c.entries, _basis(A.dim)
    mul = lambda u, v: multiply(A, u, v)  # noqa: E731
    parenthesizations = (
        lambda i, j, k, l: mul(mul(c[i][j], e[k]), e[l]),
        lambda i, j, k, l: mul(mul(e[i], c[j][k]), e[l]),
        lambda i, j, k, l: mul(c[i][j], c[k][l]),
        lambda i, j, k, l: mul(e[i], mul(c[j][k], e[l])),
        lambda i, j, k, l: mul(e[i], mul(e[j], c[k][l])),
    )

    def residual(p, i, j, k, l):
        yield "quartic", parenthesizations[p](i, j, k, l)

    quintuples = (
        (p, *ijkl) for ijkl in itertools.product(range(n), repeat=4) for p in range(5)
    )
    return CheckReport.from_violations(_run(quintuples, residual), quadruples=n**4)


def check_bimodule(A: StructureAlgebra, M: Bimodule) -> CheckReport:
    q, qinv, c = A.q, 1 / A.q, A.c.entries
    l, r = M.l, M.r

    def residual(i, j):
        yield "l_law", _flat(action_of(l, c[i][j]) - (l[i] * l[j]).scale(q))
        yield "r_law", _flat(action_of(r, c[i][j]) - (r[j] * r[i]).scale(qinv))
        yield "lr_law", _flat(l[i] * r[j] - (r[j] * l[i]).scale(qinv))

    violations = _run(itertools.product(range(A.dim), repeat=2), residual)
    return CheckReport.from_violations(violations, q=str(q))


def check_rota_baxter(A: StructureAlgebra, tau: LinearMap) -> CheckReport:
    n, e = A.dim, _basis(A.dim)
    te = [tau(x) for x in e]

    def residual(i, j):
        inner = vec_add(multiply(A, te[i], e[j]), multiply(A, e[i], te[j]))
        yield "rota_baxter", vec_sub(multiply(A, te[i], te[j]), tau(inner))

    violations = _run(itertools.product(range(n), repeat=2), residual)
    return CheckReport.from_violations(violations, q=str(A.q))


def check_o_operator(A: StructureAlgebra, M: Bimodule, T: LinearMap) -> CheckReport:
    m = M.module_dim
    e = _basis(m)
    Te = [T.m.column(i) for i in range(m)]

    def residual(i, j):
        induced = vec_add(action_of(M.l, Te[i]).apply(e[j]), action_of(M.r, Te[j]).apply(e[i]))
        yield "o_operator", vec_sub(multiply(A, Te[i], Te[j]), T(induced))

    violations = _run(itertools.product(range(m), repeat=2), residual)
    return CheckReport.from_violations(violations, q=str(A.q))


def check_q_dendriform(D: DendriformStructure) -> CheckReport:
    n, q = D.dim, D.q
    qi = 1 / q
    e = _basis(n)
    p, s = D.c_prec.entries, D.c_succ.entries
    star = associated_algebra(D).c.entries

    def residual(i, j, k):
        lhs, rhs = D.prec(p[i][j], e[k]), D.prec(e[i], star[j][k])
        yield "axiom1", [u - q * v for u, v in zip(lhs, rhs)]
        lhs, rhs = D.prec(s[i][j], e[k]), D.succ(e[i], p[j][k])
        yield "axiom2", [u - q * v for u, v in zip(lhs, rhs)]
        lhs, rhs = D.succ(e[i], s[j][k]), D.succ(star[i][j], e[k])
        yield "axiom3", [u - qi * v for u, v in zip(lhs, rhs)]

    violations = _run(itertools.product(range(n), repeat=3), residual)
    return CheckReport.from_violations(violations, q=str(q), triples=n**3)


def check_invariant_symmetric(A: StructureAlgebra, B: BilinearForm) -> CheckReport:
    n, g, c, e = A.dim, B.gram.entries, A.c.entries, _basis(A.dim)

    def symmetric(i, j):
        yield "symmetric", [g[i][j] - g[j][i]]

    def invariance(i, j, k):
        yield "invariance", [B.value(c[i][j], e[k]) - B.value(e[i], c[j][k])]

    violations = _run(itertools.combinations(range(n), 2), symmetric)
    violations += _run(itertools.product(range(n), repeat=3), invariance)
    rank = len(B.gram.rref()[1])
    return CheckReport.from_violations(violations, rank=rank, nondegenerate=rank == n)


def check_symplectic(A: StructureAlgebra, w: BilinearForm) -> CheckReport:
    n, g, c, e = A.dim, w.gram.entries, A.c.entries, _basis(A.dim)

    def antisymmetric(i, j):
        yield "antisymmetric", [g[i][j] + g[j][i]]

    def cyclic(i, j, k):
        yield "cyclic", [
            w.value(c[i][j], e[k]) + w.value(c[j][k], e[i]) + w.value(c[k][i], e[j])
        ]

    violations = _run(itertools.combinations_with_replacement(range(n), 2), antisymmetric)
    violations += _run(itertools.product(range(n), repeat=3), cyclic)
    kernel = w.gram.kernel_basis()
    if kernel:
        violations.append(Violation("nondegenerate", (), kernel[0]))
    return CheckReport.from_violations(violations, rank=n - len(kernel))
