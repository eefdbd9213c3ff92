import mpmath as mp
import pytest

from g2heights import bounds, theta
from g2heights.bounds import (check_bounds, sample_fundamental_domain, theta_lb,
                              verify_bounds)
from g2heights.prec import PrecisionContext
from g2heights.theta import EVEN_CHARS, PeriodMatrix, ThetaCharacteristic, theta_squares


def iI():
    return PeriodMatrix(mp.mpc(0, 1), 0, mp.mpc(0, 1))


def theta_check(ch, Z, ctx):
    return check_bounds(Z, ctx)[EVEN_CHARS.index(ch)]


def test_theta_lb_a0_iI(ctx):
    r = theta_check(ThetaCharacteristic(0, 0, 0, 0), iI(), ctx)
    with ctx.work():
        assert r.rule == "a=0"
        assert abs(r.bound - mp.mpf("0.44")) < ctx.tol
        assert abs(r.value - mp.mpf("1.18034")) < 1e-4
        assert r.passed


def test_theta_lb_half_iI(ctx):
    r = theta_check(ThetaCharacteristic(1, 0, 0, 0), iI(), ctx)
    with ctx.work():
        assert abs(r.bound - mp.mpf("0.75") * mp.exp(-ctx.pi / 4)) < ctx.tol
        assert abs(r.value - mp.mpf("0.9925")) < 1e-3
        assert r.passed


def test_theta_lb_1100_diagonal_equality(ctx):
    # nu = 0 characteristic on a diagonal matrix: bound 0, value 0
    r = theta_check(ThetaCharacteristic(1, 1, 1, 1), iI(), ctx)
    with ctx.work():
        assert r.bound < ctx.tol
        assert r.value < ctx.tol
        assert r.passed


def test_theta_lb_requires_f2(ctx):
    bad = PeriodMatrix(mp.mpc(5, 1), 0, mp.mpc(0, 1))
    with pytest.raises(ValueError):
        check_bounds(bad, ctx)


def test_chi10_lb_iI(ctx):
    sharp, weak = check_bounds(iI(), ctx)[-2:]
    with ctx.work():
        assert sharp.bound < ctx.tol and sharp.passed
        assert weak.bound < ctx.tol and weak.passed


def test_chi10_lb_sampled(ctx128):
    for Z in sample_fundamental_domain(5, 42, ctx128):
        sharp, weak = check_bounds(Z, ctx128)[-2:]
        assert sharp.passed and weak.passed
        assert weak.bound <= sharp.bound + ctx128.tol


@pytest.mark.parametrize("bits", [256, 1024])
def test_chi10_lb_within_a_few_units_of_the_oracle(bits):
    # the ten theta bounds and both chi10 bounds keep workbits bits at every
    # precision: c0 = 8e-5 is rounded at the working precision, not once at
    # import, and the exponents' rounding moves them by less than an ulp
    # however large Im Z.  Against mpmath at 64 more bits, on samples of F2
    # and on an anisotropic matrix, where at workbits alone the "a half"
    # and "a=(1/2,1/2)" bounds were off by up to 2^4.8 ulps
    c = PrecisionContext(bits)
    with c.work():
        Zs = sample_fundamental_domain(12, 3, c) + [
            PeriodMatrix(mp.mpc("0.1", "1.1"), mp.mpc("0.2", "0.3"), mp.mpc("-0.3", "60"))]
    for Z in Zs:
        got = [theta_lb(ch, Z, c)[0] for ch in EVEN_CHARS] + list(bounds.chi10_lb(Z, c))
        with mp.workprec(c.workbits + 64):
            y11, y12, y22 = Z.im_entries()
            want = []
            for ch in EVEN_CHARS:
                a1, a2 = mp.mpf(ch.a1) / 2, mp.mpf(ch.a2) / 2
                quad = a1 * a1 * y11 + 2 * a1 * a2 * y12 + a2 * a2 * y22
                if (ch.a1, ch.a2) == (0, 0):
                    want.append(mp.mpf("0.44"))
                elif (ch.a1, ch.a2) != (1, 1):
                    want.append(mp.mpf("0.75") * mp.exp(-mp.pi * quad))
                else:
                    want.append(mp.mpf("1.12") * abs(1 + (-1) ** ch.b1 * mp.expjpi(Z.z12))
                                * mp.exp(-mp.pi * (quad - y12)))
            pref = mp.mpf(8) / 10 ** 5 * min(1, mp.pi * abs(Z.z12)) ** 2
            want += [pref * mp.exp(-2 * mp.pi * (y11 + y22 - y12)),
                     pref * mp.exp(-2 * mp.pi * (y11 + y22))]
            for k, (g, w) in enumerate(zip(got, want)):
                assert abs(g / w - 1) < mp.mpf(2) ** (1 - c.workbits), (k, Z)


def test_check_bounds_order_and_one_theta_sum(monkeypatch, ctx128):
    Z = sample_fundamental_domain(1, 42, ctx128)[0]
    calls, walk = [], theta._walk

    def counted(*args):
        calls.append(args)
        return walk(*args)
    # the ten squares and chi10 come from one walk
    monkeypatch.setattr(theta, "_walk", counted)
    results = check_bounds(Z, ctx128)
    assert len(calls) == 1
    assert [r.rule for r in results] == (
        [theta_lb(ch, Z, ctx128)[1] for ch in EVEN_CHARS] + ["chi10 sharp", "chi10 weak"])
    with ctx128.work():
        squares = theta_squares(Z, ctx128)
        assert [r.value for r in results[:10]] == [mp.sqrt(abs(s)) for s in squares]
        assert [r.bound for r in results[:10]] == [theta_lb(ch, Z, ctx128)[0]
                                                   for ch in EVEN_CHARS]
        assert all(r.passed for r in results)


def test_sampling_membership_and_determinism(ctx128):
    a = sample_fundamental_domain(4, 7, ctx128)
    b = sample_fundamental_domain(4, 7, ctx128)
    assert len(a) == 4
    for x, y in zip(a, b):
        assert x.z11 == y.z11 and x.z12 == y.z12 and x.z22 == y.z22
    with pytest.raises(ValueError):
        sample_fundamental_domain(0, 1, ctx128)


def test_sampling_raises_a_failing_reduction(monkeypatch, ctx128):
    # a sample whose reduction raises stops the sampling with its error: a
    # reduction bug must not vanish from verify-bounds by a redraw, and a
    # reduce that always raised would make a redraw loop spin forever
    reduce, calls = bounds.siegel.reduce, []

    def failing_once(Z, ctx):
        calls.append(Z)
        if len(calls) == 1:
            raise ArithmeticError("reduction failed")
        return reduce(Z, ctx)
    monkeypatch.setattr(bounds.siegel, "reduce", failing_once)
    with pytest.raises(ArithmeticError, match="reduction failed"):
        sample_fundamental_domain(3, 1, ctx128)


def test_verify_bounds_small(ctx128):
    failures, checks = verify_bounds(10, 3, ctx128)
    assert failures == []
    assert checks == 10 * 12


def test_verify_bounds_flags_swapped_chi10_bounds(monkeypatch):
    # the weak chi10 bound above the sharp one is caught relative to their
    # size: at 64 bits the sharp bound is below ctx.tol on almost every
    # sample, where an absolute check could not fire
    ctx = PrecisionContext(64)
    chi10_lb = bounds.chi10_lb
    monkeypatch.setattr(bounds, "chi10_lb", lambda Z, ctx: chi10_lb(Z, ctx)[::-1])
    failures, _ = verify_bounds(20, 1, ctx)
    # one entry per sample
    assert [d for d, _ in failures] == ["weak bound exceeds sharp bound"] * 20
