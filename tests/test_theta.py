import functools
import itertools
import os

import mpmath as mp
import pytest
from mpmath.libmp import libelefun, mpf_shift

from g2heights import cli, cmperiod, siegel, theta
from g2heights.prec import PrecisionContext
from g2heights.siegel import SymplecticMatrix
from g2heights.theta import (EVEN_CHARS, Chi10NearZeroError, PeriodMatrix,
                             ThetaCharacteristic, ThetaWalk, _ellipsoid_rows, _im_doubles,
                             _locus_bits, _row_starts, _walk_constants, _walk_plan,
                             archimedean_term, chi10, theta_all, theta_big, theta_squares)


def theta1d(a, b, tau, R=40):
    # independent genus-1 oracle: direct summation
    s = mp.mpc(0)
    for n in range(-R, R + 1):
        x = n + mp.mpf(a) / 2
        s += mp.expjpi(x * x * tau + 2 * x * mp.mpf(b) / 2)
    return s


def iI():
    return PeriodMatrix(mp.mpc(0, 1), mp.mpc(0, 0.0), mp.mpc(0, 1))


def test_posdef_required():
    # y11 < 0, det Im Z < 0, and det Im Z = 0 on y11 > 0
    for entries in ((mp.mpc(0, -1), 0, mp.mpc(0, 1)),
                    (mp.mpc(0, 1), mp.mpc(0, 2), mp.mpc(0, 1)),
                    (mp.mpc("0.1", 2), mp.mpc("0.2", 1), mp.mpc("-0.3", "0.5"))):
        with pytest.raises(ValueError, match="Im Z is not positive definite"):
            PeriodMatrix(*entries)
        # the unchecked matrix of siegel.act fails the same check
        with pytest.raises(ValueError, match="Im Z is not positive definite"):
            PeriodMatrix._of(*(mp.mpc(z) for z in entries)).check_im_positive()


def test_theta00_iI(ctx):
    with ctx.work():
        v = theta_all(iI(), ctx)[EVEN_CHARS.index(ThetaCharacteristic(0, 0, 0, 0))]
        oracle = theta1d(0, 0, mp.mpc(0, 1)) ** 2
        assert abs(v - oracle) < ctx.tol
        assert abs(v - mp.mpf("1.180340599016096226")) < 1e-15


def test_theta_half0_iI(ctx):
    with ctx.work():
        v = theta_all(iI(), ctx)[EVEN_CHARS.index(ThetaCharacteristic(1, 0, 0, 0))]
        oracle = theta1d(1, 0, mp.mpc(0, 1)) * theta1d(0, 0, mp.mpc(0, 1))
        assert abs(v - oracle) < ctx.tol


def test_diagonal_factorization_all(ctx):
    # every even characteristic factorizes over a diagonal matrix
    with ctx.work():
        Z = PeriodMatrix(mp.mpc("0.3", "1.1"), 0, mp.mpc("-0.2", "1.7"))
        vals = theta_all(Z, ctx)
        for ch, v in zip(EVEN_CHARS, vals):
            oracle = (theta1d(ch.a1, ch.b1, Z.z11) * theta1d(ch.a2, ch.b2, Z.z22))
            assert abs(v - oracle) < ctx.tol, ch


def test_chi10_diagonal_zero(ctx):
    with ctx.work():
        assert abs(chi10(iI(), ctx)) < ctx.tol
        assert abs(theta_big(iI(), ctx)) < ctx.tol


def test_arch_term_diagonal_raises(ctx):
    with pytest.raises(Chi10NearZeroError):
        archimedean_term(iI(), ctx)


def _example1_Z(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        return cmperiod.period_matrix(s5 * zeta, -s5 * zeta ** 3, 5, ctx)


def test_example1_det_im(ctx):
    with ctx.work():
        Z = _example1_Z(ctx)
        assert abs(Z.det_im() - mp.sqrt(5) / 4) < ctx.tol


def test_example1_arch(ctx):
    with ctx.work():
        Z = _example1_Z(ctx)
        bare = archimedean_term(Z, ctx, bare=True)
        assert abs(bare - mp.mpf("0.246738390651711")) < 1e-12
        full = archimedean_term(Z, ctx)
        offset = mp.log(mp.mpf(2) ** (mp.mpf(4) / 5) * ctx.pi)
        assert abs(full - (bare - offset)) < ctx.tol


def test_theta_big_is_chi10_fourth(ctx):
    with ctx.work():
        Z = _example1_Z(ctx)
        c = chi10(Z, ctx)
        assert abs(theta_big(Z, ctx) - c ** 4) < ctx.tol * abs(c) ** 4


def _box_oracle(Z, bits):
    """The ten theta constants from a square box |m_i| <= M, built from
    exponentials taken per row, at `bits` bits with a tail below 2^-bits:
    m^T Y m >= lambda_min |m|_inf^2, so the tail is at most
    sum_{k > M} 8k e^(-a k^2), a = pi lambda_min / 4, which is below twice
    its first term once consecutive terms shrink by half."""
    with mp.workprec(bits + 16):
        y11, y12, y22 = Z.im_entries()
        lambda_min = (y11 + y22) / 2 - mp.sqrt(((y11 - y22) / 2) ** 2 + y12 * y12)
        a = mp.pi * lambda_min / 4
        M = 1
        while (16 * (M + 1) * mp.exp(-a * (M + 1) ** 2) >= mp.mpf(2) ** -bits
               or (M + 2) * mp.exp(-a * (2 * M + 3)) > (M + 1) / 2):
            M += 1
    return _box_sum(Z, bits, M, M)


def _box_sum(Z, bits, M1, M2):
    """The ten theta constants summed over the box |m1| <= M1, |m2| <= M2
    of m = 2n + a, at bits + 16 bits, from exponentials taken per row."""
    with mp.workprec(bits + 16):
        S = [[mp.mpc(0)] * 4 for _ in range(4)]
        W = [mp.expjpi(k * k * Z.z22 / 4) for k in range(M2 + 1)]
        for m1 in range(-M1, M1 + 1):
            um = mp.expjpi(m1 * m1 * Z.z11 / 4)
            vm = mp.expjpi(m1 * Z.z12 / 2)
            vpow = mp.expjpi(-M2 * m1 * Z.z12 / 2)  # v^(m1 m2) at m2 = -M2
            for m2 in range(-M2, M2 + 1):
                S[m1 % 4][m2 % 4] += um * W[abs(m2)] * vpow
                vpow *= vm
        return [mp.fsum(mp.expjpi(mp.mpf(r1 * ch.b1 + r2 * ch.b2) / 2) * S[r1][r2]
                        for r1 in range(ch.a1, 4, 2) for r2 in range(ch.a2, 4, 2))
                for ch in EVEN_CHARS]


def _truncation_cases(ctx):
    with ctx.work():
        Z = _example1_Z(ctx)  # the period matrix itself, before reduction
        return {"ex1": siegel.reduce(Z, ctx)[1],
                "im z22 = 60": PeriodMatrix(mp.mpc("0.1", "1.1"), mp.mpc("0.2", "0.3"),
                                            mp.mpc("-0.3", "60")),
                "im z22 = 35": PeriodMatrix(mp.mpc("0.3", "0.98"), mp.mpc("-0.1", "0.4"),
                                            mp.mpc("0.45", "35")),
                # row peaks m2 = -Im z12 m1 / Im z22 far from m2 = 0, where
                # the fixed-point walk must start each row at its peak: ex1
                # unreduced (ratio -0.36), and a matrix moved by the Sp4(Z)
                # word T(1, 0, -1) diag(A, A^-T), A = (1 1; 0 1) (ratio 1.2)
                "ex1 unreduced": Z,
                "scrambled": siegel.act(
                    SymplecticMatrix.translation(1, 0, -1)
                    * SymplecticMatrix.embed_gl2([[1, 1], [0, 1]]),
                    PeriodMatrix(mp.mpc("0.1", "1.1"), mp.mpc("0.2", "0.3"),
                                 mp.mpc("-0.3", "1.5")))}


def _walk_cases(ctx):
    # the truncation cases, and Im z22 = 95, where the THETA2 squares are
    # as small as 2^-217
    return {**_truncation_cases(ctx),
            "im z22 = 95": PeriodMatrix(mp.mpc("-0.2", "1.05"), mp.mpc("0.35", "0.25"),
                                        mp.mpc("0.15", "95"))}


def _sign_cases(ctx):
    # the walk cases, and two diagonal matrices, where theta[11;11] = 0
    return {**_walk_cases(ctx), "iI": iI(),
            "diagonal": PeriodMatrix(mp.mpc("0.3", "1.1"), 0, mp.mpc("-0.2", "1.7"))}


@functools.lru_cache(maxsize=None)
def _oracle(name, prec_bits):
    """(Z, the box oracle's ten constants) for a sign case at prec_bits: the
    tail is below 2^-(workbits + 64 + k), where 2^-k is below the leading
    term of every square, so each square is known to 2^-(workbits + 64)
    relative."""
    ctx = PrecisionContext(prec_bits)
    Z = _sign_cases(ctx)[name]
    y11, y12, y22 = Z.im_entries()
    k = int(mp.pi * (y11 + y22 + 2 * abs(y12)) / (2 * mp.ln2)) + 1
    return Z, _box_oracle(Z, ctx.workbits + 64 + k)


def test_truncation_soundness():
    # the ellipsoid against a box whose tail is below 2^-(workbits + 64); on
    # the cases with far row peaks this is also the absolute error of the
    # fixed-point walk
    for bits in (256, 1024):
        ctx = PrecisionContext(bits)
        for name in _truncation_cases(ctx):
            Z, ref = _oracle(name, bits)
            vals = theta_all(Z, ctx)
            with mp.workprec(ctx.workbits + 64):
                for ch, x, y in zip(EVEN_CHARS, vals, ref):
                    assert abs(x - y) < mp.mpf(2) ** (-ctx.workbits + 8), (bits, name, ch)


@pytest.mark.parametrize("name", ["ex1", "im z22 = 95", "ex1 unreduced", "scrambled"],
                         ids=["ex1", "im_z22_95", "ex1_unreduced", "scrambled"])
def test_ellipsoid_rows(ctx, name):
    # the rows and their mirrors, planned on doubles, are exactly the lattice
    # points of the ellipsoid of 2Z at the working precision: at Im z22 = 95,
    # where e and so the radius are largest, and on the unreduced matrices,
    # where det(Im Z) can cancel and lambda_min is smallest; on ex1 they are
    # at most a fifth of the 55 x 55 box that the square truncation summed
    Z = _walk_cases(ctx)[name]
    R2, _, rows = _ellipsoid_rows(_im_doubles(Z, ctx), ctx.workbits)
    half = {(m1, m2) for m1, lo, hi in rows for m2 in range(lo, hi + 1)}
    assert len(half) <= 3025 // 5
    with ctx.work():
        y11, y12, y22 = (2 * y for y in Z.im_entries())
        box = [(m1, m2) for m1 in range(-40, 41) for m2 in range(-40, 41)]
        inside = {(m1, m2) for m1, m2 in box
                  if ctx.pi * (y11 * m1 * m1 + 2 * y12 * m1 * m2 + y22 * m2 * m2) <= 4 * R2}
    assert max(max(abs(m1), abs(m2)) for m1, m2 in inside) < 40
    assert half | {(-m1, -m2) for m1, m2 in half} == inside
    assert len(half) == (len(inside) + 1) // 2


@pytest.mark.parametrize("bits", [256, 1024])
def test_fixed_point_walk_relative_error(bits):
    # every square keeps workbits - 8 bits relative to its own size, down to
    # the 2^-217 of the THETA2 squares at Im z22 = 95, whether the walk runs
    # over 2Z or at any level k up to 5 with k - 1 root steps: the tail
    # target and the scale both carry the e of the deepest level
    ctx = PrecisionContext(bits)
    for name in _walk_cases(ctx):
        Z, ref = _oracle(name, bits)
        for k in range(1, 6):
            squares = ThetaWalk(Z, ctx, level=k).squares()
            with mp.workprec(ctx.workbits + 64):
                for ch, x, y in zip(EVEN_CHARS, squares, ref):
                    assert abs(x - y * y) <= mp.mpf(2) ** (-ctx.workbits + 8) * abs(y * y), \
                        (bits, name, k, ch)


def _walk_matrix(plan):
    """2^(k-1) Z, the matrix that the plan walks at, k its level: each part
    of the plan's Z shifted exactly."""
    return [mp.make_mpc(tuple(mpf_shift(x, plan.level - 1) for x in z._mpc_))
            for z in plan.Z.entries()]


@pytest.mark.parametrize("bits", [256, 1024])
def test_chain_start_terms(bits):
    # each row's start term s = t(m1, p), carried from row to row on block
    # floats, is within 3 N^2 2^-prec of itself relative, N the products of
    # the chain so far, and within two units of 2^-W more from the shift to
    # the walk's scale (the module docstring's bound); on the cases with the
    # longest chains, walked at 2Z, as an input that stays at level 1 walks
    # them, and at the level the plan chooses
    ctx = PrecisionContext(bits)
    cases = _truncation_cases(ctx)
    for name in ("ex1 unreduced", "scrambled"):
        for plan in (_walk_plan(cases[name], ctx, 1), _walk_plan(cases[name], ctx, None)):
            (z11, z12, z22), prec, W = _walk_matrix(plan), plan.prec, plan.W
            N = last_m1 = last_p = 0
            for m1, p, (tr, ti), *_ in _row_starts(plan):
                N += m1 - last_m1 + abs(p - last_p)
                last_m1, last_p = m1, p
                with mp.workprec(ctx.workbits + 64):
                    # t(m1, p) in units of 2^-W
                    s = mp.expjpi((m1 * m1 * z11 + 2 * m1 * p * z12 + p * p * z22) / 2) \
                        * 2 ** W
                    assert abs(mp.mpc(tr, ti) - s) <= mp.ldexp(3 * N * N * abs(s), -prec) + 2, \
                        (bits, name, plan.level, m1)


def _job_Z(name, ctx):
    """The Siegel-reduced period matrix of jobs/<name>.job."""
    job = cli.parse_job(os.path.join(os.path.dirname(__file__), "..", "jobs", f"{name}.job"))
    with ctx.work():
        return siegel.reduce(cli.job_periods(job, ctx)[0], ctx)[1]


@pytest.mark.parametrize("bits", [256, 1024, 4096])
def test_walk_constants(bits, monkeypatch):
    # u, v, w are within 2^(2 - P) of exp(i pi z) relative, P = plan.prec +
    # 8, and u^2, v^-1, w^2, w^-2 within 2^(4 - P) (the module docstring's
    # bound), against mpmath.expjpi at plan.prec + 64.  On ex1-ex3 the real
    # parts 2^shift Re z leave remainders on both sides of their nearest
    # half-integer, ex3's v below it by more than 1/8, exact half-integers,
    # and at 1024 bits remainders near 2^-1050.  cos_sin_basecase, where
    # mpmath sizes the bits of a cosine and a sine, never runs above
    # plan.prec + 64 bits during theta_squares
    ctx = PrecisionContext(bits)
    precs, basecase = [], libelefun.cos_sin_basecase

    def recorded(x, prec):
        precs.append(prec)
        return basecase(x, prec)
    monkeypatch.setattr(libelefun, "cos_sin_basecase", recorded)
    remainders = {}
    for name in ("ex1", "ex2", "ex3"):
        Z = _job_Z(name, ctx)
        plan = _walk_plan(Z, ctx, None)
        precs.clear()
        theta_squares(Z, ctx)
        assert max(precs, default=0) <= plan.prec + 64, (name, precs)
        P = plan.prec + 8
        z11, z12, z22 = _walk_matrix(plan)
        with mp.workprec(plan.prec + 64):
            args = (z11 / 2, z12, z22 / 2, z11, -z12, z22, -z22)
            for k, ((re, im, E), x) in enumerate(zip(_walk_constants(plan), args)):
                ref = mp.expjpi(x)
                assert abs(mp.mpc(mp.ldexp(re, E), mp.ldexp(im, E)) - ref) \
                    <= mp.ldexp(abs(ref), (2 if k < 3 else 4) - P), (name, k)
            remainders[name] = [2 * x.real - mp.nint(2 * x.real) for x in args[:3]]
    assert remainders["ex3"][1] < -mp.mpf(1) / 4
    assert 0 in remainders["ex2"]
    if bits == 1024:
        assert 0 < abs(remainders["ex1"][1]) < mp.mpf(2) ** -1000


@pytest.mark.parametrize("bits", [256, 1024, 4096])
def test_chi10_int_product(bits):
    # chi10, the int product of the ten squares cut back to workbits + 8
    # bits per factor and rounded once, is within 2^(1 - workbits) of the
    # mpc product of the ten squares, the int pairs that theta_squares
    # rounds, taken at workbits + 64 (the module docstring's bound); on
    # ex1-ex3 and on the matrix with log2|chi10| = -539 of
    # test_arch_term_tiny_chi10.  A walk takes its chi10 once
    ctx = PrecisionContext(bits)
    cases = {name: _job_Z(name, ctx) for name in ("ex1", "ex2", "ex3")}
    cases["im z22 = 60"] = _truncation_cases(ctx)["im z22 = 60"]
    for name, Z in cases.items():
        walk = ThetaWalk(Z, ctx)
        c, W = walk.chi10, walk.plan.W
        assert walk.chi10 is c
        with mp.workprec(ctx.workbits + 64):
            ref = mp.fprod(mp.mpc(mp.ldexp(sr, -2 * W), mp.ldexp(si, -2 * W))
                           for sr, si in walk.pairs)
            assert abs(c - ref) <= mp.ldexp(abs(ref), 1 - ctx.workbits), (bits, name)
            if name == "im z22 = 60":
                assert -540 < mp.log(abs(ref), 2) < -539


@pytest.mark.parametrize("bits", [256, 1024])
def test_theta_squares_mpc_products(bits, monkeypatch):
    # the walk constants, the chain from row to row and the squares run on
    # ints: one theta_squares makes no mpc product or quotient at any
    # precision and however many rows it walks
    ctx = PrecisionContext(bits)
    cases = {name: _job_Z(name, ctx) for name in ("ex1", "ex2", "ex3")}
    cases["im z22 = 95"] = _walk_cases(ctx)["im z22 = 95"]
    calls = []
    for op in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(mp.mpc, op, functools.partialmethod(
            lambda x, y, f: calls.append(1) or f(x, y), f=getattr(mp.mpc, op)))
    counts = []
    for Z in cases.values():
        calls.clear()
        theta_squares(Z, ctx)
        counts.append(len(calls))
    assert counts == [0] * len(cases), counts


def test_arch_term_tiny_chi10(ctx):
    # log2|chi10| = -539.3 here, far below 2^-prec but far above its own
    # error: the term is returned, and it is the box oracle's
    Z, ref = _oracle("im z22 = 60", ctx.prec)
    arch = archimedean_term(Z, ctx)
    with mp.workprec(ctx.workbits + 64):
        c = mp.fprod(y * y for y in ref)
        assert -540 < mp.log(abs(c), 2) < -539
        oracle = -(mp.log(2 ** 8 * mp.pi ** 10 * abs(c)) + 5 * mp.log(Z.det_im())) / 10
        assert abs(arch - oracle) < ctx.tol
        assert abs(arch - mp.mpf("33.586606725826124")) < 1e-14


@pytest.mark.parametrize("bits", [256, 1024])
def test_arch_term_mpmath_logs(bits, monkeypatch):
    # warm: one log, of 2^16 pi^20 |chi10|^2 det(Im Z)^10, also with a new
    # context built in the counted region, as cli.job_ctx builds one per
    # job.  Its bits are those of the expression
    c = PrecisionContext(bits)
    with c.work():
        Z = _example1_Z(c)
        archimedean_term(Z, c)
        ch = chi10(Z, c)
        x = (ch.real ** 2 + ch.imag ** 2) * Z.det_im() ** 10 * mp.ldexp(c.pi ** 20, 16)
        expected = -mp.log(x) / 20
    calls, log = [], mp.log

    def counted(*args, **kwargs):
        calls.append(args)
        return log(*args, **kwargs)

    monkeypatch.setattr(mp, "log", counted)
    arch = archimedean_term(Z, PrecisionContext(bits))
    assert len(calls) <= 1
    assert arch == expected


@pytest.mark.parametrize("bits", [256, 1024])
def test_theta_all_signs(bits):
    # the signed roots match the box oracle, sign included, to ctx.tol; on
    # the diagonal cases z12 = 0, so theta[11;11]^2 is 0 by the theorem,
    # theta_squares gives 0 and theta_all gives 0 with no sign to choose
    ctx = PrecisionContext(bits)
    for name in _sign_cases(ctx):
        Z, ref = _oracle(name, bits)
        vals = theta_all(Z, ctx)
        with mp.workprec(ctx.workbits + 64):
            for ch, x, y in zip(EVEN_CHARS, vals, ref):
                assert abs(x - y) < ctx.tol, (bits, name, ch)
    with ctx.work():
        assert theta_squares(iI(), ctx)[EVEN_CHARS.index(ThetaCharacteristic(1, 1, 1, 1))] == 0


def test_theta_all_undecided_sign_raises(ctx, monkeypatch):
    # a sign that the leading terms do not decide is an error, not a guess:
    # here every L of level 0 is turned by a right angle, and the constants
    # of iI are real, so L is orthogonal to them; the root steps' L are not
    # turned, and the name of level 0 is pinned, so that no root step can
    # raise in its place
    def turned(Z, im, j, *args):
        L = leading(Z, im, j, *args)
        return [1j * x for x in L] if j == 0 else L
    leading = theta._leading
    monkeypatch.setattr(theta, "_leading", turned)
    with pytest.raises(ArithmeticError, match=r"theta\[..;..\]: the sign"):
        theta_all(iI(), ctx)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_roots_one_exponential_per_point(ctx, name, monkeypatch):
    # the ten signs of theta_all come from one cmath.exp per point of the
    # level-0 ellipsoid of _leading, shared by every b of a class a
    Z = _job_Z(name, ctx)
    walk = ThetaWalk(Z, ctx)
    points = theta._terms(_ellipsoid_rows(_im_doubles(Z, ctx), theta.LEADING_BITS, -1)[2])
    exp, calls = theta.cmath.exp, []

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(theta.cmath, "exp", counted)
    walk.roots()
    assert len(calls) == points


def test_no_mp_sqrt(ctx, monkeypatch):
    # every root, level 0 included, is _isqrt of an exact int square: neither
    # theta_all nor the theta report takes an mpmath square root
    path = os.path.join(os.path.dirname(__file__), "..", "jobs", "ex3.job")
    periods, Z = cli.job_periods(cli.parse_job(path), ctx), _job_Z("ex3", ctx)
    # the period matrix itself takes square roots (cmperiod), so it is
    # built before the count
    monkeypatch.setattr(cli, "job_periods", lambda job, ctx: periods)
    calls, sqrt = [], mp.sqrt
    monkeypatch.setattr(mp, "sqrt", lambda *args: calls.append(args) or sqrt(*args))
    theta_all(Z, ctx)
    assert cli.main(["theta", path]) == 0
    assert calls == []


def test_theta_big_subsets_are_the_even_characteristics():
    # the construction of Theta: T -> m_(T o {1,3,5}) on the ten 3-subsets T
    # of {1..5}, m_S the sum mod 2 of the doubled base characteristics m_i,
    # i in S, gives each even characteristic once, so theta_big is the
    # fourth power of the product of the ten squares
    base = [(1, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 1, 1), (0, 0, 1, 1)]
    chars = []
    for T in itertools.combinations(range(1, 6), 3):
        q = [0, 0, 0, 0]
        for i in set(T) ^ {1, 3, 5}:
            q = [(x + y) % 2 for x, y in zip(q, base[i - 1])]
        chars.append(ThetaCharacteristic(*q))
    assert sorted(chars, key=EVEN_CHARS.index) == EVEN_CHARS


def test_period_matrix_keeps_its_bits(ctx):
    # entries of 300 bits, given at the ambient 53, keep their bits: the
    # squares are those of the matrix of the same entries that _of builds,
    # bit for bit, and an mpf and an int keep all of their bits as well.  A
    # str, whose value hangs on the ambient precision, is refused
    with mp.workprec(300):
        entries = (mp.mpc(mp.mpf(1) / 3, mp.mpf(8) / 7), mp.mpc(mp.mpf(1) / 5, mp.mpf(2) / 7),
                   mp.mpc(-mp.mpf(2) / 7, mp.mpf(11) / 7))
    with mp.workprec(53):
        Z = PeriodMatrix(*entries)
        assert PeriodMatrix(mp.mpc(0, 1), entries[0].real, 1j).z12.real == entries[0].real
        assert PeriodMatrix(mp.mpc(0, 1), 3 ** 60, 1j).z12.real == 3 ** 60
        with pytest.raises(TypeError):
            PeriodMatrix("0.1+1.1j", *entries[1:])
    assert Z.entries() == entries
    assert theta_squares(Z, ctx) == theta_squares(PeriodMatrix._of(*entries), ctx)


@pytest.mark.parametrize("name", ["ex2", "ex3"])
def test_theta_all_signs_at_4096_bits(ctx, name):
    # the ten signed constants at 4096 bits agree with those at 256 bits to
    # 2^-250, so every sign of level 0 and of the root steps is the same at
    # both.  ex1 is left out: its Z_red changes with the precision (the
    # Re z12 = +-1/2 tie of the Siegel reduction), and at 4096 bits its
    # constants come out permuted
    hi = PrecisionContext(4096)
    vals = theta_all(_job_Z(name, hi), hi)
    with mp.workprec(300):
        for ch, x, y in zip(EVEN_CHARS, vals, theta_all(_job_Z(name, ctx), ctx)):
            assert abs(x - y) < mp.mpf(2) ** -250, ch


def test_root_step_undecided_sign_raises(ctx, monkeypatch):
    # a root step's sign that the leading terms do not decide is an error,
    # not a guess: here every L is turned by a right angle
    Z = _job_Z("ex1", ctx)
    leading = theta._leading
    monkeypatch.setattr(theta, "_leading", lambda *args: [1j * L for L in leading(*args)])
    with pytest.raises(ArithmeticError, match=r"theta\[..;00\]\(2\^1 Z\): the sign"):
        ThetaWalk(Z, ctx, level=2)


@pytest.mark.parametrize("bits", [256, 1024])
def test_walk_level(bits):
    # the least level whose ellipsoid holds at most WALK_POINTS_MAX points:
    # ex1 261 -> 134 -> 73 points at 256 bits, 878 -> 448 -> 230 -> 121 at
    # 1024; ex2 and ex3 172 and 181 -> 89 and 100, and 563 and 608 -> ... ->
    # 79 and 85.  Im z22 = 95 walks 40 and 96 points, and stays at 2Z
    ctx = PrecisionContext(bits)
    levels = [_walk_plan(_job_Z(name, ctx), ctx, None).level for name in ("ex1", "ex2", "ex3")]
    assert levels == ([3, 2, 2] if bits == 256 else [4, 4, 4])
    assert _walk_plan(_walk_cases(ctx)["im z22 = 95"], ctx, None).level == 1


@pytest.mark.parametrize("z12, level", [("0.5", 1), ("0.25", 2)])
def test_walk_level_stays_below_a_vanishing_theta(z12, level):
    # at Im z12 = 0, theta[11;0](2^j Z) = 0 where 2^j Re z12 is odd: the
    # terms m and (m1, -m2) cancel.  Its root would carry no bits, so the
    # walk stops below that level, here at 2Z and 4Z where 655 points would
    # take it to 16Z, and the squares keep workbits - 8 bits
    ctx = PrecisionContext(1024)
    Z = PeriodMatrix(mp.mpc("0.1", "1.1"), mp.mpc(z12), mp.mpc("-0.3", "1.3"))
    walk = ThetaWalk(Z, ctx)
    assert walk.plan.level == level
    assert abs(_walk_plan(Z, ctx, level + 1).leading[level - 1][3]) < 1e-12
    ref = _box_oracle(Z, ctx.workbits + 64 + 12)
    with mp.workprec(ctx.workbits + 64):
        for ch, x, y in zip(EVEN_CHARS, walk.squares(), ref):
            assert abs(x - y * y) <= mp.mpf(2) ** (-ctx.workbits + 8) * abs(y * y), ch


# the k of the near-locus family that each precision takes
LOCUS_FAMILY = {256: (20, 40, 80, 150), 512: (20, 40, 80, 150), 1024: (20, 150)}


def _near_locus(k):
    """(0.1 + 1.1i, 10^-k (1 + i), -0.3 + 1.2i), in F2 for every k: as k
    grows, z12 goes to 0 and theta[11;11] with it, like pi |z12|."""
    return PeriodMatrix(mp.mpc("0.1", "1.1"), mp.mpf(10) ** -k * mp.mpc(1, 1),
                        mp.mpc("-0.3", "1.2"))


@functools.lru_cache(maxsize=None)
def _locus_oracle(k):
    """(Z, the box oracle's ten constants) for _near_locus(k), for every
    precision of LOCUS_FAMILY that takes k: as _oracle, the tail is below
    2^-(workbits + 64 + k_e), 2^-k_e below the leading term of every square,
    and below that by the locus bits 2 log2(1 / (pi |z12|)) as well, by
    which theta[11;11]^2 falls below its leading term (the lemma of
    bounds.theta_lb), so each square is known to 2^-(workbits + 64)
    relative at the largest of those precisions."""
    ctx = PrecisionContext(max(bits for bits, ks in LOCUS_FAMILY.items() if k in ks))
    Z = _near_locus(k)
    y11, y12, y22 = Z.im_entries()
    k_e = int(mp.pi * (y11 + y22 + 2 * abs(y12)) / (2 * mp.ln2)) + 1
    locus = int(-2 * mp.log(mp.pi * abs(Z.z12), 2)) + 1
    return Z, _box_oracle(Z, ctx.workbits + 64 + k_e + locus)


def _assert_within_tol(Z, ref, ctx, label):
    """archimedean_term within ctx.tol of the one of the oracle's constants
    ref, and each of theta_squares and theta_all, sign included, within
    ctx.tol of the oracle's relative to its own size."""
    arch, squares, roots = archimedean_term(Z, ctx), theta_squares(Z, ctx), theta_all(Z, ctx)
    with mp.workprec(4 * ctx.workbits):
        c = mp.fprod(y * y for y in ref)
        oracle = -(mp.log(2 ** 8 * mp.pi ** 10 * abs(c)) + 5 * mp.log(Z.det_im())) / 10
        assert abs(arch - oracle) < ctx.tol, label
        for ch, x, r, y in zip(EVEN_CHARS, squares, roots, ref):
            assert abs(x - y * y) < ctx.tol * abs(y * y), (label, ch)
            assert abs(r - y) < ctx.tol * abs(y), (label, ch)


@pytest.mark.parametrize("bits", sorted(LOCUS_FAMILY))
def test_near_product_locus(bits):
    # near the product locus: as z12 -> 0 on F2, theta[11;11] cancels its
    # leading terms like pi |z12|, down to 2^-498 at k = 150; the plan
    # carries those bits, so the term, the squares and the signed roots keep
    # their accuracy and nothing raises.  The root's sign comes from the
    # paired leading sum of _leading: the plain sum on doubles cancels as
    # the value does
    ctx = PrecisionContext(bits)
    for k in LOCUS_FAMILY[bits]:
        Z, ref = _locus_oracle(k)
        assert siegel.in_fundamental_domain(Z, ctx)
        _assert_within_tol(Z, ref, ctx, (bits, k))


def test_on_product_locus_raises(ctx):
    # z12 = 0 exactly, and only there on F2, chi10 is 0: theta[11;11]^2 is
    # 0 by the theorem, and the term raises, naming the locus
    Z = PeriodMatrix(mp.mpc("0.1", "1.1"), 0, mp.mpc("-0.3", "1.2"))
    assert siegel.in_fundamental_domain(Z, ctx)
    walk = ThetaWalk(Z, ctx)
    assert walk.pairs[EVEN_CHARS.index(ThetaCharacteristic(1, 1, 1, 1))] == (0, 0)
    assert walk.chi10 == 0
    with pytest.raises(Chi10NearZeroError, match="product-of-elliptic-curves locus") as err:
        archimedean_term(Z, ctx)
    assert "raise precision" not in str(err.value)


def test_locus_bits():
    # ceil(2 log2(1 / min(1, pi |z12|))) from the raw parts of z12 on
    # doubles, against mpmath: 0 at z12 = 0 and at the reduced ex1-ex3
    # (pi |z12| >= 1.3), whose plans stay those of workbits, and parts far
    # below the doubles' range, as at z12 = 10^-400 (1 + i), do not underflow
    ctx = PrecisionContext(256)
    assert _locus_bits(mp.mpc(0)) == 0
    assert [_locus_bits(_job_Z(name, ctx).z12) for name in ("ex1", "ex2", "ex3")] == [0, 0, 0]
    for z12 in [mp.mpf(10) ** -k * mp.mpc(1, 1) for k in (1, 20, 150, 400)] + [
            mp.mpc("0.3", 0), mp.mpc(0, "1e-500"), mp.mpc("-2e-600", "1e-650")]:
        with mp.workprec(64):
            exact = -2 * mp.log(mp.pi * abs(z12), 2)
        assert _locus_bits(z12) == max(0, int(mp.ceil(exact))), z12


def _cusp_oracle(Z, bits):
    """The ten theta constants of a Z in F2 with delta = det(Im Z) / y11 >=
    999, each within 2^-bits of itself relative, from the box |m1| <= M,
    |m2| <= 2.  The terms have modulus e^(-pi delta m2^2 / 4) e^(-a (m1 +
    r m2)^2), a = pi y11 / 4, r = y12 / y11 in [0, 1/2].  The rows
    |m2| >= 3 are below e^(-2 pi delta) < 2^-9000 of each class's largest
    term.  In a row |m2| <= 2, |r m2| <= 1, so the row's largest term of a
    parity of m1 is at least e^(-a) of its factor e^(-pi delta m2^2 / 4),
    and the terms |m1| > M, where |m1 + r m2| >= M, sum to at most
    4 e^(-a M^2) of it: 4 e^(-a (M^2 - 1)) of the largest, and for the at
    most three rows of a class 12 e^(-a (M^2 - 1)) of the class's largest.
    On F2 the lemmas of bounds.theta_lb keep each |theta| above a quarter
    of its largest term at the cusp family's z12, so M^2 >= 1 + ((bits + 2)
    log 2 + log 12) / a makes the box within 2^-bits relative."""
    with mp.workprec(bits + 16):
        y11, y12, y22 = Z.im_entries()
        assert (y11 * y22 - y12 * y12) / y11 >= 999
        a = mp.pi * y11 / 4
        M = int(mp.sqrt(1 + ((bits + 2) * mp.ln2 + mp.log(12)) / a)) + 1
    return _box_sum(Z, bits, M, 2)


@pytest.mark.parametrize("y", [10 ** 3, 10 ** 4])
def test_toward_the_cusp(y):
    # toward the cusp: Im z22 / Im z11 up to 10^4, where the squares with
    # a2 = 1/2 fall to about 2^-22660; accuracy only, since the walk's cost
    # grows about like y^2 here, at every class's scale 2^-W
    ctx = PrecisionContext(256)
    Z = PeriodMatrix(mp.mpc("0.1", "1.1"), mp.mpc("0.2", "0.3"), mp.mpc("-0.3", y))
    assert siegel.in_fundamental_domain(Z, ctx)
    _assert_within_tol(Z, _cusp_oracle(Z, ctx.workbits + 64), ctx, y)
