import random
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import NoConvergence

from g2heights.exact import IntPolynomial, resultant
from g2heights.prec import (SERIES_BITS, PrecisionContext, log_gamma, poly_roots,
                            stirling_plan)

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
    assert log_gamma(Fraction(1), ctx) == 0


def test_log_gamma_fifth(ctx):
    with ctx.work():
        assert abs(log_gamma(mp.mpf(1) / 5, ctx) - mp.mpf(LG_1_5)) < mp.mpf(10) ** -48


def test_log_gamma_domain(ctx):
    with pytest.raises(ValueError):
        log_gamma(mp.mpf(2), ctx)
    with pytest.raises(ValueError):
        log_gamma(mp.mpf(0), ctx)
    for x in (Fraction(0), Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(ValueError):
            log_gamma(x, ctx)


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


def _oracle_log_gamma(x, ctx):
    with mp.workprec(ctx.workbits + 96):
        if isinstance(x, Fraction):
            x = mp.mpf(x.numerator) / x.denominator
        return mp.loggamma(x)


def _log_gamma_args():
    """Every m/f for f in {5, 16, 61}, and seeded random rationals near 0,
    1/2 and 1."""
    xs = [Fraction(m, f) for f in (5, 16, 61) for m in range(1, f + 1)]
    rng = random.Random(31)
    for _ in range(6):
        d = Fraction(1, rng.randint(2, 10 ** rng.randint(3, 40)))
        xs += [d, Fraction(1, 2) - d / 2, Fraction(1, 2) + d / 2, 1 - d]
    return xs


@pytest.mark.parametrize("bits", [256, 1024])
def test_log_gamma_against_oracle(bits):
    ctx = PrecisionContext(bits)
    for x in _log_gamma_args():
        ref = _oracle_log_gamma(x, ctx)
        with ctx.work():
            x_mpf = mp.mpf(x.numerator) / x.denominator
        for v in (log_gamma(x, ctx), log_gamma(x_mpf, ctx)):
            with mp.workprec(ctx.workbits + 96):
                assert abs(v - ref) < mp.mpf(2) ** (8 - ctx.workbits) * max(1, abs(ref)), x


@pytest.mark.parametrize("bits", [64, 256, 1024, 4096])
def test_stirling_plan_first_omitted_term(bits):
    # |B_2n| / (2n (2n-1) N^(2n-1)) is the n-th term at z = N, exactly
    def term(n, shift):
        num, den = mp.bernfrac(2 * n)
        return Fraction(abs(num), den * 2 * n * (2 * n - 1) * shift ** (2 * n - 1))

    ctx = PrecisionContext(bits)
    plan = stirling_plan(ctx)
    K, N = plan.terms, plan.shift
    cut = Fraction(1, 2 ** (ctx.workbits + SERIES_BITS))
    assert term(K + 1, N) < term(K, N) < cut
    assert term(K - 1, N) >= cut  # K is the first term below the cut


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
            if resultant(p.coeffs, p.derivative().coeffs) == 0:
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


@pytest.mark.parametrize("k", [60, 100, 120])
def test_roots_close_nondyadic_pair(ctx, k):
    # (3x - 1)(3x - 1 - 3 2^-k)(x^2 + 1): the pair 1/3, 1/3 + 2^-k is not
    # dyadic, so the monic coefficients would not be exact
    p = (IntPolynomial([-1, 3]) * IntPolynomial([-1 - Fraction(3, 2 ** k), 3])
         * IntPolynomial([1, 0, 1]))
    roots = poly_roots(p, ctx)
    assert len(roots) == 4
    with mp.workprec(3 * ctx.workbits):
        third = mp.mpf(1) / 3
        expect = [third, third + mp.mpf(2) ** -k, mp.mpc(0, 1), mp.mpc(0, -1)]
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


def test_roots_unconverged_polish_raises(ctx, monkeypatch):
    # seeds 2^-130 outside the pair 1, 1 + 2^-140: near a close pair Newton
    # only halves its distance per step, so it uses up its log2(workbits) + 6
    # steps about 2^-163 from a root, where the residual check still passes
    p = IntPolynomial([-1, 1]) * IntPolynomial([-1 - Fraction(1, 2 ** 140), 1])
    monkeypatch.setattr(mp, "polyroots", lambda coeffs, **kw: [
        1 - mp.mpf(2) ** -130, 1 + mp.mpf(2) ** -140 + mp.mpf(2) ** -130])
    with pytest.raises(ArithmeticError, match="did not converge"):
        poly_roots(p, ctx)


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
