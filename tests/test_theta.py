import functools

import mpmath as mp
import pytest

from g2heights import cmperiod, siegel, theta
from g2heights.prec import PrecisionContext
from g2heights.siegel import SymplecticMatrix
from g2heights.theta import (EVEN_CHARS, Chi10NearZeroError, PeriodMatrix,
                             ThetaCharacteristic, _ellipsoid_rows,
                             archimedean_term, chi10, theta_all, theta_big,
                             theta_squares)


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
    with pytest.raises(ValueError):
        PeriodMatrix(mp.mpc(0, -1), 0, mp.mpc(0, 1))
    with pytest.raises(ValueError):
        PeriodMatrix(mp.mpc(0, 1), mp.mpc(0, 2), mp.mpc(0, 1))


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
        a = mp.pi * Z.lambda_min() / 4
        M = 1
        while (16 * (M + 1) * mp.exp(-a * (M + 1) ** 2) >= mp.mpf(2) ** -bits
               or (M + 2) * mp.exp(-a * (2 * M + 3)) > (M + 1) / 2):
            M += 1
        S = [[mp.mpc(0)] * 4 for _ in range(4)]
        W = [mp.expjpi(k * k * Z.z22 / 4) for k in range(M + 1)]
        for m1 in range(-M, M + 1):
            um = mp.expjpi(m1 * m1 * Z.z11 / 4)
            vm = mp.expjpi(m1 * Z.z12 / 2)
            vpow = mp.expjpi(-M * m1 * Z.z12 / 2)  # v^(m1 m2) at m2 = -M
            for m2 in range(-M, M + 1):
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


def test_ellipsoid_rows_ex1(ctx):
    # the rows and their mirrors are exactly the lattice points of the
    # ellipsoid of 2Z, and on ex1 they are at most a fifth of the 55 x 55
    # box that the square truncation summed
    Z = _truncation_cases(ctx)["ex1"]
    R2, _, rows = _ellipsoid_rows(Z, ctx)
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
    # every square from the walk over 2Z keeps workbits - 8 bits relative
    # to its own size, down to the 2^-217 of the THETA2 squares at
    # Im z22 = 95: the tail target and the scale both carry 2Z's e
    ctx = PrecisionContext(bits)
    for name in _walk_cases(ctx):
        Z, ref = _oracle(name, bits)
        squares = theta_squares(Z, ctx)
        with mp.workprec(ctx.workbits + 64):
            for ch, x, y in zip(EVEN_CHARS, squares, ref):
                assert abs(x - y * y) <= mp.mpf(2) ** (-ctx.workbits + 8) * abs(y * y), \
                    (bits, name, ch)


@pytest.mark.parametrize("bits", [256, 1024])
def test_theta_all_signs(bits):
    # the signed roots match the box oracle, sign included, to ctx.tol; on
    # the diagonal cases theta[11;11]^2 is within its error of 0, so
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
    # here L is made orthogonal to every root
    def orthogonal(ch, z11, z12, z22):
        return 1j * complex(roots[EVEN_CHARS.index(ch)])
    roots = theta_all(iI(), ctx)
    monkeypatch.setattr(theta, "_box_leading", orthogonal)
    with pytest.raises(ArithmeticError, match="sign"):
        theta_all(iI(), ctx)
