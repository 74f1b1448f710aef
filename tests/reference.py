"""The Fraction reference for the checks that run on the integer kernel.

Each function here evaluates one check's laws tuple by tuple in Fraction
arithmetic, through the public products and matrix operations, and
returns a CheckReport with the same ids, indices, residual order and info
as the library check of the same name.  An action table is read as the
matrices of its basis vectors' actions and, for any other element,
through ``action_of``.  tests/test_kernel.py compares the
two exactly; nothing in the library imports this module.

The module also keeps the dense Fraction form of the two independent
criteria of doubles.py, ``dual_matched_pair_criterion`` and
``symplectic_criterion`` (the library's sum sparse integer fibers over
their own D, and test_kernel.py compares the two the same way), the
Fraction Gauss-Jordan elimination behind ``rref``, ``kernel_basis``,
``invert`` and ``det``, which test_linalg.py compares with Matrix's, and
``fingerprint`` on Fraction matrices ranked by that elimination, which
test_kernel.py compares with the integer one.
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
    Fingerprint,
    MatchedPairData,
    StructureAlgebra,
    Violation,
    associated_algebra,
    dendriform_mult_operators,
    mult_operators,
    multiply,
)
from antiassoc.bimodules import action_of
from antiassoc.doubles import _require_halves
from antiassoc.linalg import Matrix, SingularError, basis_vec, vec_add, vec_is_zero, vec_sub


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


def check_rota_baxter(A: StructureAlgebra, tau: Matrix) -> CheckReport:
    n, e = A.dim, _basis(A.dim)
    te = [tau.apply(x) for x in e]

    def residual(i, j):
        inner = vec_add(multiply(A, te[i], e[j]), multiply(A, e[i], te[j]))
        yield "rota_baxter", vec_sub(multiply(A, te[i], te[j]), tau.apply(inner))

    violations = _run(itertools.product(range(n), repeat=2), residual)
    return CheckReport.from_violations(violations, q=str(A.q))


def check_o_operator(A: StructureAlgebra, M: Bimodule, T: Matrix) -> CheckReport:
    m = M.module_dim
    e = _basis(m)
    Te = [T.column(i) for i in range(m)]

    def residual(i, j):
        induced = vec_add(action_of(M.l, Te[i]).apply(e[j]), action_of(M.r, Te[j]).apply(e[i]))
        yield "o_operator", vec_sub(multiply(A, Te[i], Te[j]), T.apply(induced))

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


# ---------------------------------------------------------------------------
# the dense form of the two criteria in doubles.py, as they stood before the
# criteria read their tables as sparse fibers: every action is a Matrix
# built by ``action_of`` and applied through Fraction dot products.  Here
# the preconditions resolve to this module's Fraction checks.


def dual_matched_pair_criterion(
    A: StructureAlgebra, Astar: StructureAlgebra
) -> CheckReport:
    """The two-equation criterion for the quadratic double, namely

        R^T(x)(a o b) + R^T(L_o^T(a) x) b + (R^T(x)a) o b = 0
        R^T(R_o^T(a)x)b + (L^T(x)a) o b + L^T(L_o^T(b)x)a + a o (R^T(x)b) = 0

    over all (x, a, b), with antiassociativity of both halves reported
    as preconditions.  The verdict provably coincides with the full
    six-equation matched-pair check on the quadratic-double data; the
    two are implemented independently so tests can confirm that.
    """
    _require_halves(A, Astar)
    n = A.dim
    violations = []
    for tag, rep in (
        ("A", check_q_associative(A)),
        ("B", check_q_associative(Astar)),
    ):
        violations += _prefixed(f"precondition:q_assoc:{tag}", rep)

    LA, RA = mult_operators(A)
    LB, RB = mult_operators(Astar)
    RstarA, LstarA = RA.transposed(), LA.transposed()
    RstarB, LstarB = RB.transposed(), LB.transposed()
    e = [basis_vec(n, i) for i in range(n)]

    for ix in range(n):
        x = e[ix]
        # the actions that depend on x alone, and on x and b
        RAx, LAx = action_of(RstarA, x), action_of(LstarA, x)
        RAx_e = [RAx.apply(v) for v in e]
        LA_LBx = [action_of(LstarA, action_of(LstarB, b).apply(x)) for b in e]
        for ia in range(n):
            a = e[ia]
            RA_LBa = action_of(RstarA, action_of(LstarB, a).apply(x))
            RA_RBa = action_of(RstarA, action_of(RstarB, a).apply(x))
            LAx_a = LAx.apply(a)
            for ib in range(n):
                b = e[ib]
                idx = (ix + 1, ia + 1, ib + 1)
                ab = multiply(Astar, a, b)
                r1 = RAx.apply(ab)
                t = RA_LBa.apply(b)
                r1 = [u + v for u, v in zip(r1, t)]
                t = multiply(Astar, RAx_e[ia], b)
                r1 = [u + v for u, v in zip(r1, t)]
                if not vec_is_zero(r1):
                    violations.append(Violation("dual1", idx, r1))

                r2 = RA_RBa.apply(b)
                t = multiply(Astar, LAx_a, b)
                r2 = [u + v for u, v in zip(r2, t)]
                t = LA_LBx[ib].apply(a)
                r2 = [u + v for u, v in zip(r2, t)]
                t = multiply(Astar, a, RAx_e[ib])
                r2 = [u + v for u, v in zip(r2, t)]
                if not vec_is_zero(r2):
                    violations.append(Violation("dual2", idx, r2))
    return CheckReport.from_violations(violations)


def symplectic_criterion(
    D_A: DendriformStructure, D_Astar: DendriformStructure
) -> CheckReport:
    """The six-equation criterion behind the symplectic double, written
    directly in terms of the two dendriform halves (ids eq1..eq6), with
    both q-dendriform checks reported as preconditions.  Independent of
    the builder's generic matched-pair path; the verdicts must agree.

    Equations eq1, eq2, eq5 live in the dual half and are indexed
    (i_x, i_a, i_b); eq3, eq4, eq6 live in the primal half and are
    indexed (i_a, i_x, i_y).
    """
    _require_halves(D_A, D_Astar)
    n = D_A.dim
    violations = []
    for tag, rep in (
        ("A", check_q_dendriform(D_A)),
        ("B", check_q_dendriform(D_Astar)),
    ):
        violations += _prefixed(f"precondition:dendriform:{tag}", rep)

    A = associated_algebra(D_A)
    B = associated_algebra(D_Astar)
    ls_a, _, _, rp_a = dendriform_mult_operators(D_A)
    ls_b, _, _, rp_b = dendriform_mult_operators(D_Astar)
    Ra = rp_a.transposed()  # R_prec_A^T  : A* -> A*
    La = ls_a.transposed()  # L_succ_A^T  : A* -> A*
    Rb = rp_b.transposed()  # R_prec_B^T  : A  -> A
    Lb = ls_b.transposed()  # L_succ_B^T  : A  -> A
    e = [basis_vec(n, i) for i in range(n)]

    def acc(*vecs):
        out = list(vecs[0])
        for v in vecs[1:]:
            out = [u + w for u, w in zip(out, v)]
        return out

    for i1 in range(n):
        # the actions that depend on the outer basis vector alone: x in the
        # dual-half equations and a2 in the primal-half ones are both e[i1]
        x = a2 = e[i1]
        Ra_x, La_x = action_of(Ra, x), action_of(La, x)
        Rb_a2, Lb_a2 = action_of(Rb, a2), action_of(Lb, a2)
        Ra_x_e = [Ra_x.apply(v) for v in e]
        La_x_e = [La_x.apply(v) for v in e]
        Rb_a2_e = [Rb_a2.apply(v) for v in e]
        Lb_a2_e = [Lb_a2.apply(v) for v in e]
        # the nested actions that depend on e[i1] and one more basis vector
        Ra_Lb = [action_of(Ra, action_of(Lb, v).apply(x)) for v in e]
        La_Rb = [action_of(La, action_of(Rb, v).apply(x)) for v in e]
        Ra_Rb = [action_of(Ra, action_of(Rb, v).apply(x)) for v in e]
        La_Lb = [action_of(La, action_of(Lb, v).apply(x)) for v in e]
        Rb_La = [action_of(Rb, action_of(La, v).apply(a2)) for v in e]
        Lb_Ra = [action_of(Lb, action_of(Ra, v).apply(a2)) for v in e]
        Rb_Ra = [action_of(Rb, action_of(Ra, v).apply(a2)) for v in e]
        Lb_La = [action_of(Lb, action_of(La, v).apply(a2)) for v in e]
        for i2 in range(n):
            for i3 in range(n):
                a, b = e[i2], e[i3]
                idx = (i1 + 1, i2 + 1, i3 + 1)
                ab = multiply(B, a, b)
                r = acc(
                    Ra_x.apply(ab),
                    Ra_Lb[i2].apply(b),
                    multiply(B, Ra_x_e[i2], b),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq1", idx, r))
                r = acc(
                    La_x.apply(ab),
                    La_Rb[i3].apply(a),
                    multiply(B, a, La_x_e[i3]),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq2", idx, r))
                r = acc(
                    Ra_Rb[i2].apply(b),
                    multiply(B, La_x_e[i2], b),
                    La_Lb[i3].apply(a),
                    multiply(B, a, Ra_x_e[i3]),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq5", idx, r))

                # primal-half equations; rename the loop triple (a, x, y)
                x2, y2 = e[i2], e[i3]
                xy = multiply(A, x2, y2)
                r = acc(
                    Rb_a2.apply(xy),
                    Rb_La[i2].apply(y2),
                    multiply(A, Rb_a2_e[i2], y2),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq3", idx, r))
                r = acc(
                    Lb_a2.apply(xy),
                    Lb_Ra[i3].apply(x2),
                    multiply(A, x2, Lb_a2_e[i3]),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq4", idx, r))
                r = acc(
                    Rb_Ra[i2].apply(y2),
                    multiply(A, Lb_a2_e[i2], y2),
                    Lb_La[i3].apply(x2),
                    multiply(A, x2, Rb_a2_e[i3]),
                )
                if not vec_is_zero(r):
                    violations.append(Violation("eq6", idx, r))
    return CheckReport.from_violations(violations)


# ---------------------------------------------------------------------------
# Fraction elimination: the reference for linalg.Matrix, whose queries all
# read one fraction-free integer echelon.  tests/test_linalg.py compares them.


def rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over Fractions: (rows, pivot columns)."""
    rows = [row[:] for row in m.entries]
    pivots: list[int] = []
    r = 0
    for col in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == m.rows:
            break
    return rows, pivots


def kernel_basis(m: Matrix) -> list[list[Fraction]]:
    """One kernel vector per free column j of the rref: e_j minus column j
    of the rref placed at the pivot columns."""
    rows, pivots = rref(m)
    basis = []
    for j in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(int(k == j)) for k in range(m.cols)]
        for r, p in enumerate(pivots):
            v[p] = -rows[r][j]
        basis.append(v)
    return basis


def invert(m: Matrix) -> Matrix:
    """The right half of the rref of [m | I]; SingularError when the left
    half is not the identity."""
    n = m.rows
    aug = Matrix([row + basis_vec(n, i) for i, row in enumerate(m.entries)], (n, 2 * n))
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularError("matrix is singular")
    return Matrix([row[n:] for row in rows], (n, n))


def det(m: Matrix) -> Fraction:
    """Gaussian elimination over Fractions, negated at each row swap."""
    rows = [row[:] for row in m.entries]
    d = Fraction(1)
    for col in range(m.rows):
        pivot_row = next((i for i in range(col, m.rows) if rows[i][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            d = -d
        d *= rows[col][col]
        for i in range(col + 1, m.rows):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return d


# ---------------------------------------------------------------------------
# Fingerprint: the reference for algebra.fingerprint, which reads its three
# ranks off the compiled integer fibers.  The ranks here are those of
# Fraction matrices, taken by the Gauss-Jordan rref above.


def fingerprint(A: StructureAlgebra) -> Fingerprint:
    n = A.dim
    c, r = A.c.entries, range(n)

    def rank(m: Matrix) -> int:
        return len(rref(m)[1])

    dim_square = rank(Matrix.from_columns([c[i][j] for i in r for j in r]))
    # x is a left annihilator iff x*e_j = sum_i x_i c[i][j] = 0 for every j,
    # and a right one iff e_i*x = sum_j x_j c[i][j] = 0 for every i
    dim_left = n - rank(Matrix([[c[i][j][k] for i in r] for j in r for k in r], (n * n, n)))
    dim_right = n - rank(Matrix([[c[i][j][k] for j in r] for i in r for k in r], (n * n, n)))
    commutative = all(c[i][j] == c[j][i] for i in r for j in range(i))
    return Fingerprint(n, dim_square, dim_left, dim_right, commutative)
