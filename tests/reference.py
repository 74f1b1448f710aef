"""The Fraction reference for the checks that run on the integer kernel.

Each function here evaluates one check's laws tuple by tuple in Fraction
arithmetic, through the public products and matrix operations, and
returns a CheckReport with the same ids, indices, residual order and info
as the library check of the same name.  An action table is read as the
matrices of its basis vectors' actions and, for any other element,
through ``action_of``.  tests/test_kernel.py compares the
two exactly; nothing in the library imports this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from antiassoc import (
    BilinearForm,
    Bimodule,
    CheckReport,
    DendriformBimodule,
    DendriformMatchedPairData,
    DendriformStructure,
    LinearMap,
    MatchedPairData,
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


def _prefixed(tag, rep: CheckReport) -> list[Violation]:
    return [Violation(f"{tag}:{v.identity_id}", v.indices, v.residual) for v in rep.violations]


def _flat(m) -> list[Fraction]:
    return [x for row in m.entries for x in row]


def _basis(n):
    return [basis_vec(n, i) for i in range(n)]


def _matrices(table):
    """The matrix of each basis vector's action."""
    return [action_of(table, e) for e in _basis(table.d1)]


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
    l, r = _matrices(M.l), _matrices(M.r)

    def residual(i, j):
        yield "l_law", _flat(action_of(M.l, c[i][j]) - (l[i] * l[j]).scale(q))
        yield "r_law", _flat(action_of(M.r, c[i][j]) - (r[j] * r[i]).scale(qinv))
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


def _matched_half(Y: StructureAlgebra, by_X: Bimodule, by_Y: Bimodule, ids) -> list[Violation]:
    q = Y.q
    qi = 1 / q
    n, m = by_X.algebra_dim, Y.dim
    eX, eY = _basis(n), _basis(m)
    lX, rX, lY, rY = (_matrices(t) for t in (by_X.l, by_X.r, by_Y.l, by_Y.r))
    mulY = lambda u, v: multiply(Y, u, v)  # noqa: E731

    def residual(ix, ia, ib):
        x, a, b = eX[ix], eY[ia], eY[ib]
        ab = Y.c.entries[ia][ib]
        lx, rx = lX[ix], rX[ix]
        rhs1 = zip(action_of(by_X.l, rY[ia].apply(x)).apply(b), mulY(lx.apply(a), b))
        yield ids[0], vec_sub(lx.apply(ab), [qi * (u + v) for u, v in rhs1])
        rhs2 = zip(action_of(by_X.r, lY[ib].apply(x)).apply(a), mulY(a, rx.apply(b)))
        yield ids[1], vec_sub(rx.apply(ab), [q * (u + v) for u, v in rhs2])
        t5 = action_of(by_X.l, lY[ia].apply(x)).apply(b)
        t5 = [u + v for u, v in zip(t5, mulY(rx.apply(a), b))]
        t5 = [u - q * v for u, v in zip(t5, action_of(by_X.r, rY[ib].apply(x)).apply(a))]
        t5 = [u - q * v for u, v in zip(t5, mulY(a, lx.apply(b)))]
        yield ids[2], t5

    return _run(itertools.product(range(n), range(m), range(m)), residual)


def check_matched_pair(P: MatchedPairData) -> CheckReport:
    violations = (
        _prefixed("precondition:q_assoc:A", check_q_associative(P.A))
        + _prefixed("precondition:q_assoc:B", check_q_associative(P.B))
        + _prefixed("precondition:bimodule:A_on_B", check_bimodule(P.A, P.on_B))
        + _prefixed("precondition:bimodule:B_on_A", check_bimodule(P.B, P.on_A))
        + _matched_half(P.B, P.on_B, P.on_A, ("eq1", "eq2", "eq5"))
        + _matched_half(P.A, P.on_A, P.on_B, ("eq3", "eq4", "eq6"))
    )
    return CheckReport.from_violations(violations, q=str(P.A.q))


def check_dendriform_bimodule(D: DendriformStructure, M: DendriformBimodule) -> CheckReport:
    q = D.q
    ls, rs, lp, rp = (_matrices(t) for t in (M.l_succ, M.r_succ, M.l_prec, M.r_prec))
    summed = M.sum_actions()
    lstar, rstar = _matrices(summed.l), _matrices(summed.r)
    p, s = D.c_prec.entries, D.c_succ.entries
    star = associated_algebra(D).c.entries

    def residual(i, j):
        for law, res in (
            ("law1", action_of(M.l_prec, p[i][j]) - (lp[i] * lstar[j]).scale(q)),
            ("law2", rp[i] * lp[j] - (lp[j] * rstar[i]).scale(q)),
            ("law3", rp[i] * rp[j] - action_of(M.r_prec, star[j][i]).scale(q)),
            ("law4", action_of(M.l_prec, s[i][j]) - (ls[i] * lp[j]).scale(q)),
            ("law5", rp[i] * ls[j] - (ls[j] * rp[i]).scale(q)),
            ("law6", rp[i] * rs[j] - action_of(M.r_succ, p[j][i]).scale(q)),
            ("law7", action_of(M.l_succ, star[i][j]) - (ls[i] * ls[j]).scale(q)),
            ("law8", rs[i] * lstar[j] - (ls[j] * rs[i]).scale(q)),
            ("law9", rs[i] * rstar[j] - action_of(M.r_succ, s[j][i]).scale(q)),
        ):
            yield law, _flat(res)

    violations = _run(itertools.product(range(D.dim), repeat=2), residual)
    return CheckReport.from_violations(violations, q=str(q))


def _halfside(DY: DendriformStructure, by_X, by_Y, first_id: int) -> list[Violation]:
    q = DY.q
    qi = 1 / q
    n, m = by_X.algebra_dim, DY.dim
    eX, eY = _basis(n), _basis(m)
    ids = [str(first_id + k) for k in range(9)]
    lx_s, rx_s, lx_p, rx_p = (
        _matrices(t) for t in (by_X.l_succ, by_X.r_succ, by_X.l_prec, by_X.r_prec)
    )
    ly_s, ry_s, ly_p, ry_p = (
        _matrices(t) for t in (by_Y.l_succ, by_Y.r_succ, by_Y.l_prec, by_Y.r_prec)
    )
    sum_X, sum_Y = by_X.sum_actions(), by_Y.sum_actions()
    lx, rx, ly, ry = (_matrices(t) for t in (sum_X.l, sum_X.r, sum_Y.l, sum_Y.r))
    p, s = DY.c_prec.entries, DY.c_succ.entries
    star = associated_algebra(DY).c.entries
    one = Fraction(1)

    def comb(*terms):
        out = list(terms[0])
        for coeff, vecv in terms[1:]:
            out = [u + coeff * v for u, v in zip(out, vecv)]
        return out

    def residual(ix, ia, ib):
        x, a, b = eX[ix], eY[ia], eY[ib]
        Ls, Rs, Lp, Rp = lx_s[ix], rx_s[ix], lx_p[ix], rx_p[ix]
        L, R = lx[ix], rx[ix]
        terms = (
            (
                Rp.apply(p[ia][ib]),
                (-q, DY.prec(a, R.apply(b))),
                (-q, action_of(by_X.r_prec, ly[ib].apply(x)).apply(a)),
            ),
            (
                action_of(by_X.l_prec, ly_p[ia].apply(x)).apply(b),
                (one, DY.prec(Rp.apply(a), b)),
                (-q, DY.prec(a, L.apply(b))),
                (-q, action_of(by_X.r_prec, ry[ib].apply(x)).apply(a)),
            ),
            (
                Lp.apply(star[ia][ib]),
                (-qi, DY.prec(Lp.apply(a), b)),
                (-qi, action_of(by_X.l_prec, ry_p[ia].apply(x)).apply(b)),
            ),
            (
                Rp.apply(s[ia][ib]),
                (-q, action_of(by_X.r_succ, ly_p[ib].apply(x)).apply(a)),
                (-q, DY.succ(a, Rp.apply(b))),
            ),
            (
                action_of(by_X.l_prec, ly_s[ia].apply(x)).apply(b),
                (one, DY.prec(Rs.apply(a), b)),
                (-q, DY.succ(a, Lp.apply(b))),
                (-q, action_of(by_X.r_succ, ry_p[ib].apply(x)).apply(a)),
            ),
            (
                Ls.apply(p[ia][ib]),
                (-qi, DY.prec(Ls.apply(a), b)),
                (-qi, action_of(by_X.l_prec, ry_s[ia].apply(x)).apply(b)),
            ),
            (
                Rs.apply(star[ia][ib]),
                (-q, DY.succ(a, Rs.apply(b))),
                (-q, action_of(by_X.r_succ, ly_s[ib].apply(x)).apply(a)),
            ),
            (
                DY.succ(a, Ls.apply(b)),
                (one, action_of(by_X.r_succ, ry_s[ib].apply(x)).apply(a)),
                (-qi, action_of(by_X.l_succ, ly[ia].apply(x)).apply(b)),
                (-qi, DY.succ(R.apply(a), b)),
            ),
            (
                Ls.apply(s[ia][ib]),
                (-qi, DY.succ(L.apply(a), b)),
                (-qi, action_of(by_X.l_succ, ry[ia].apply(x)).apply(b)),
            ),
        )
        for identity_id, t in zip(ids, terms):
            yield identity_id, comb(*t)

    return _run(itertools.product(range(n), range(m), range(m)), residual)


def check_dendriform_matched_pair(P: DendriformMatchedPairData) -> CheckReport:
    violations = (
        _prefixed("precondition:dendriform:A", check_q_dendriform(P.D_A))
        + _prefixed("precondition:dendriform:B", check_q_dendriform(P.D_B))
        + _prefixed("precondition:bimodule:A_on_B", check_dendriform_bimodule(P.D_A, P.on_B))
        + _prefixed("precondition:bimodule:B_on_A", check_dendriform_bimodule(P.D_B, P.on_A))
        + _halfside(P.D_B, P.on_B, P.on_A, 35)
        + _halfside(P.D_A, P.on_A, P.on_B, 44)
    )
    return CheckReport.from_violations(violations, q=str(P.D_A.q))
