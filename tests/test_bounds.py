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
