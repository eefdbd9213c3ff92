import random
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import NoConvergence

from g2heights.exact import IntPolynomial
from g2heights.prec import PrecisionContext, log_gamma, poly_roots

# frozen from an independent oracle at 60 dps
LG_1_5 = "1.5240638224307845248810564939263021925659337374064"
LG_1_2 = "0.57236494292470008707171367567652935582364740645766"


def test_log_gamma_half(ctx):
    with ctx.work():
        v = log_gamma(mp.mpf(1) / 2, ctx)
        assert abs(v - mp.mpf(LG_1_2)) < mp.mpf(10) ** -48
        assert abs(v - mp.log(ctx.pi) / 2) < ctx.tol


def test_log_gamma_one(ctx):
    with ctx.work():
        assert log_gamma(mp.mpf(1), ctx) == 0


def test_log_gamma_fifth(ctx):
    with ctx.work():
        assert abs(log_gamma(mp.mpf(1) / 5, ctx) - mp.mpf(LG_1_5)) < mp.mpf(10) ** -48


def test_log_gamma_domain(ctx):
    with pytest.raises(ValueError):
        log_gamma(mp.mpf(2), ctx)
    with pytest.raises(ValueError):
        log_gamma(mp.mpf(0), ctx)


def test_log_gamma_reflection(ctx):
    rng = random.Random(17)
    with ctx.work():
        for _ in range(20):
            x = mp.mpf(rng.randint(1, 9999)) / 10000
            lhs = log_gamma(x, ctx) + log_gamma(1 - x, ctx)
            rhs = mp.log(ctx.pi) - mp.log(mp.sin(ctx.pi * x))
            assert abs(lhs - rhs) < ctx.tol


def test_log_gamma_precision_consistency():
    a = PrecisionContext(128)
    b = PrecisionContext(256)
    with b.work():
        x = mp.mpf(3) / 7
        va = log_gamma(x, a)
        vb = log_gamma(x, b)
        assert abs(va - vb) < a.tol


def test_roots_quadratic(ctx):
    roots = poly_roots(IntPolynomial([1, 0, 1]), ctx)
    with ctx.work():
        assert abs(roots[0] + mp.mpc(0, 1)) < ctx.tol
        assert abs(roots[1] - mp.mpc(0, 1)) < ctx.tol


def test_roots_biquadratic(ctx):
    # x^4 + 32x^2 + 128: roots +-i sqrt(16 -+ 8 sqrt 2)
    roots = poly_roots(IntPolynomial([128, 0, 32, 0, 1]), ctx)
    with ctx.work():
        s2 = mp.sqrt(2)
        expect = sorted([mp.sqrt(16 - 8 * s2), mp.sqrt(16 + 8 * s2),
                         -mp.sqrt(16 - 8 * s2), -mp.sqrt(16 + 8 * s2)])
        got = sorted(mp.im(r) for r in roots)
        for g, e in zip(got, expect):
            assert abs(g - e) < ctx.tol
        assert all(abs(mp.re(r)) < ctx.tol for r in roots)


def test_roots_example2_quartic(ctx):
    roots = poly_roots(IntPolynomial([889319, -137677, 6039, -61, 1]), ctx)
    upper = [r for r in roots if mp.im(r) > 0]
    assert len(upper) == 2


def test_roots_sum_product(ctx):
    rng = random.Random(23)
    with ctx.work():
        for _ in range(10):
            cs = [rng.randint(-9, 9) for _ in range(5)] + [rng.randint(1, 5)]
            p = IntPolynomial(cs, 5)
            if p.gcd_degree_with_derivative() != 0:
                continue
            roots = poly_roots(p, ctx)
            s = mp.fsum(mp.re(r) for r in roots) + mp.mpc(0, 1) * mp.fsum(
                mp.im(r) for r in roots)
            assert abs(s + mp.mpf(cs[4]) / cs[5]) < mp.mpf(2) ** (-200)
            prod = mp.mpc(1)
            for r in roots:
                prod *= r
            assert abs(prod - (-1) ** 5 * mp.mpf(cs[0]) / cs[5]) < mp.mpf(2) ** (-190)


def _close_pair(e):
    # (x - 1)(x - 1 - 2^-e)(x^2 + 1)
    a = 1 + Fraction(1, 2 ** e)
    return (IntPolynomial([-1, 1]) * IntPolynomial([-a, 1])
            * IntPolynomial([1, 0, 1]))


def test_roots_close_pair_resolved(ctx):
    roots = poly_roots(_close_pair(60), ctx)
    assert len(roots) == 4
    with ctx.work():
        expect = [mp.mpc(1), 1 + mp.mpf(2) ** -60, mp.mpc(0, 1), mp.mpc(0, -1)]
        for e in expect:
            assert min(abs(r - e) for r in roots) < ctx.tol


def test_roots_collapsed_pair_raises(ctx):
    with pytest.raises(ArithmeticError):
        poly_roots(_close_pair(200), ctx)


def test_roots_coincident_seeds_raise(ctx, monkeypatch):
    # both seeds polish to i: the coincidence check must catch it
    monkeypatch.setattr(mp, "polyroots",
                        lambda coeffs, **kw: [mp.mpc(0, 1), mp.mpc("0.01", 1)])
    with pytest.raises(ArithmeticError, match="coincide"):
        poly_roots(IntPolynomial([1, 0, 1]), ctx)


def test_roots_seeding_failure_is_arithmetic_error(ctx, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise NoConvergence("no convergence")
    monkeypatch.setattr(mp, "polyroots", no_convergence)
    with pytest.raises(ArithmeticError, match="seeding"):
        poly_roots(IntPolynomial([1, 0, 1]), ctx)


def test_roots_nonsquarefree(ctx):
    with pytest.raises(ValueError):
        poly_roots(IntPolynomial([0, 0, 1]), ctx)  # x^2


def test_context_minimum():
    with pytest.raises(ValueError):
        PrecisionContext(32)
