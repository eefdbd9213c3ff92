import random
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_int, mpf_div, round_nearest

from g2heights.exact import IntPolynomial
from g2heights.prec import (SERIES_BITS, PrecisionContext, _euler_maclaurin_counts,
                            _shift_bits, bernoulli_numbers, log_gamma, nint_ratio,
                            poly_roots, round_quotient, taylor_plan)

# frozen from an independent oracle at 60 dps
LG_1_5 = "1.5240638224307845248810564939263021925659337374064"
LG_1_2 = "0.57236494292470008707171367567652935582364740645766"


def test_log_gamma_half(ctx):
    with ctx.work():
        v = log_gamma([Fraction(1, 2)], ctx)
        assert abs(v - mp.mpf(LG_1_2)) < mp.mpf(10) ** -48
        assert abs(v - mp.log(ctx.pi) / 2) < ctx.tol


def test_log_gamma_one(ctx):
    assert log_gamma([Fraction(1)], ctx) == 0
    assert log_gamma([1], ctx) == 0


def test_log_gamma_fifth(ctx):
    with ctx.work():
        assert abs(log_gamma([Fraction(1, 5)], ctx) - mp.mpf(LG_1_5)) < mp.mpf(10) ** -48


def test_log_gamma_domain(ctx):
    for x in (2, 0, Fraction(0), Fraction(-1, 3), Fraction(4, 3)):
        with pytest.raises(ValueError):
            log_gamma([x], ctx)


def test_log_gamma_rejects_non_rationals(ctx):
    # a float is a binary number, not the rational it was written as
    for x in (0.5, 0.1, mp.mpf(1) / 3, True):
        with pytest.raises(TypeError, match="takes a Fraction or an int"):
            log_gamma([x], ctx)


def test_log_gamma_reflection(ctx):
    rng = random.Random(17)
    with ctx.work():
        for _ in range(20):
            k = rng.randint(1, 9999)
            x = Fraction(k, 10000)
            lhs = log_gamma([x], ctx) + log_gamma([1 - x], ctx)
            rhs = mp.log(ctx.pi) - mp.log(mp.sin(ctx.pi * k / 10000))
            assert abs(lhs - rhs) < ctx.tol


def test_log_gamma_sequences(ctx):
    for xs in ([], [Fraction(1, 5), Fraction(2, 7)], [Fraction(1, 2), 1]):
        with pytest.raises(ValueError):
            log_gamma(xs, ctx)
    for xs in ([Fraction(1, 5), 0.4], [True], [Fraction(1, 3), mp.mpf(1) / 3]):
        with pytest.raises(TypeError, match="takes a Fraction or an int"):
            log_gamma(xs, ctx)


@pytest.mark.parametrize("bits", [256, 1024, 4096])
def test_log_gamma_group_is_sum_of_singles(bits):
    # ex2's groups: chi(2^j) = i^j mod 61, the residues m < 61/2 by j mod 4
    ctx = PrecisionContext(bits)
    for k in range(4):
        xs = sorted(Fraction(m, 61) for j in range(k, 60, 4) if (m := pow(2, j, 61)) < 31)
        group = log_gamma(xs, ctx)
        singles = [log_gamma([x], ctx) for x in xs]
        with mp.workprec(ctx.workbits + 96):
            assert abs(group - mp.fsum(singles)) < mp.mpf(2) ** (12 - ctx.workbits)


# the chi-value groups of the residues m < f/2 on ex1-ex3 (chi(2^j) = i^j
# mod 61 on ex2) and the weights 2 Re(i^k conj(w)), w = sum_m chi(m) m, that
# colmez_height gives them: |c| = 122 on ex2
WEIGHTED_GROUPS = {
    "ex1": (5, [[1], [2]], [-6, -2]),
    "ex2": (61, [sorted(m for j in range(k, 60, 4) if (m := pow(2, j, 61)) < 31)
                 for k in range(4)], [-122, 122, 122, -122]),
    "ex3": (16, [[1, 7], [3, 5]], [-32, -32]),
}


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_log_gamma_weighted(name, bits):
    # sum_c c log_gamma(group_c) and the mpmath.loggamma oracle, within the
    # docstring's C 2^-workbits / 8, C = sum |c_x|, each unit-weight group
    # within n_c 2^-workbits / 8; with colmez_height's weights and with
    # mixed signs and a weight 0, which drops its group
    ctx = PrecisionContext(bits)
    f, groups, colmez_weights = WEIGHTED_GROUPS[name]
    xs = [Fraction(m, f) for g in groups for m in g]
    for cs in (colmez_weights, [3, -1, 0, 2][:len(groups)]):
        weights = [c for c, g in zip(cs, groups) for _ in g]
        v = log_gamma(xs, ctx, weights)
        with mp.workprec(ctx.workbits + 96):
            parts = mp.fsum(c * log_gamma([Fraction(m, f) for m in g], ctx)
                            for c, g in zip(cs, groups))
            ref = mp.fsum(c * mp.loggamma(mp.mpf(x.numerator) / f)
                          for c, x in zip(weights, xs))
            bound = sum(map(abs, weights)) * mp.mpf(2) ** -ctx.workbits / 8
            assert abs(v - ref) < bound
            assert abs(v - parts) < 2 * bound


def test_log_gamma_weights_rejected(ctx):
    xs = [Fraction(1, 5), Fraction(2, 5)]
    for weights in ([1, 1.0], [Fraction(1), 1], [True, 1], [mp.mpf(2), 1]):
        with pytest.raises(TypeError, match="takes int weights"):
            log_gamma(xs, ctx, weights)
    for weights in ([], [1], [1, 2, 3]):
        with pytest.raises(ValueError, match="one weight per x"):
            log_gamma(xs, ctx, weights)
    assert log_gamma(xs, ctx, [0, 0]) == 0


def test_log_gamma_precision_consistency():
    a = PrecisionContext(128)
    b = PrecisionContext(256)
    with b.work():
        x = Fraction(3, 7)
        va = log_gamma([x], a)
        vb = log_gamma([x], b)
        assert abs(va - vb) < a.tol


def _oracle_log_gamma(x, ctx):
    with mp.workprec(ctx.workbits + 96):
        return mp.loggamma(mp.mpf(x.numerator) / x.denominator)


def _near_ends(d):
    """The rationals d, 1/2 - d/2, 1/2 + d/2 and 1 - d."""
    return [d, Fraction(1, 2) - d / 2, Fraction(1, 2) + d / 2, 1 - d]


# f near 10^40 makes 1/z^2 = f^2/(m + N f)^2 a ratio of integers near 2^270
TINY = Fraction(1, 10 ** 40)


def _log_gamma_args():
    """Every m/f for f in {5, 16, 61}, and seeded random rationals near 0,
    1/2 and 1, and the same at distance 10^-40."""
    xs = [Fraction(m, f) for f in (5, 16, 61) for m in range(1, f + 1)]
    rng = random.Random(31)
    for _ in range(6):
        xs += _near_ends(Fraction(1, rng.randint(2, 10 ** rng.randint(3, 40))))
    return xs + _near_ends(TINY)


@pytest.mark.parametrize("bits,args", [
    (64, _log_gamma_args()),
    (256, _log_gamma_args()),
    (1024, _log_gamma_args()),
    # 376 Taylor terms at N = 2048; m/61 as ex2 uses them
    (4096, [Fraction(m, 61) for m in range(1, 31)] + _near_ends(TINY)),
], ids=["64", "256", "1024", "4096"])
def test_log_gamma_against_oracle(bits, args):
    ctx = PrecisionContext(bits)
    for x in args:
        ref = _oracle_log_gamma(x, ctx)
        v = log_gamma([x], ctx)
        with mp.workprec(ctx.workbits + 96):
            assert abs(v - ref) < mp.mpf(2) ** (8 - ctx.workbits) * max(1, abs(ref)), x


def test_log_gamma_denominator_past_a_double():
    # f = 2^1100 + 1 overflows a double; each x takes its Taylor cut from
    # logs of ints
    ctx = PrecisionContext(64)
    f = 2 ** 1100 + 1
    for m in (1, 2 ** 1099, f - 1):
        x = Fraction(m, f)
        ref = _oracle_log_gamma(x, ctx)
        v = log_gamma([x], ctx)
        with mp.workprec(ctx.workbits + 96):
            assert abs(v - ref) < mp.mpf(2) ** (8 - ctx.workbits) * max(1, abs(ref)), m


@pytest.mark.parametrize("bits", [64, 256, 1024, 4096])
def test_taylor_plan_coefficients(bits):
    # each T_i within 1 of t_i 2^W, t_1 = psi(N) and t_i = (-1)^i zeta(i, N)/i
    # (Hurwitz), taken by mpmath at W + 64 bits, as taylor_plan's docstring
    # bounds them; the first omitted term is below 2^-W at x <= 1, and the
    # last one kept is not.  At 4096 bits, where mpmath takes 0.07 s per
    # zeta, the first eight, every 16th and the last
    ctx = PrecisionContext(bits)
    plan = taylor_plan(ctx)
    N, W, I = plan.shift, ctx.workbits + SERIES_BITS, plan.terms
    checked = (range(1, I + 1) if bits < 4096
               else sorted({*range(1, 9), *range(1, I + 1, 16), I}))
    with mp.workprec(W + 64):
        for i in checked:
            ref = mp.digamma(N) if i == 1 else (-1) ** i * mp.zeta(i, N) / i
            assert abs(plan.coeffs[i - 1] - mp.ldexp(ref, W)) < 1, i
        assert mp.ldexp(mp.zeta(I + 1, N) / (I + 1), W) < 1
        assert abs(plan.coeffs[-1]) >= 1


def test_shift_keeps_the_bernoulli_count_below_0_85_shift():
    # taylor_plan's error bound on its Euler-Maclaurin columns takes
    # K_1 < 0.85 N, for N = 2^a from the shift rule
    for wb in range(96, 8200, 13):
        a = _shift_bits(wb)
        assert _euler_maclaurin_counts(wb + SERIES_BITS, a, 1)[0] < 0.85 * (1 << a), wb


def test_bernoulli_numbers_are_mpmaths():
    # every B_2k the plans use, up to the 4096-bit plan's count, against
    # mpmath.bernfrac as exact fractions
    wb = PrecisionContext(4096).workbits
    K = _euler_maclaurin_counts(wb + SERIES_BITS, _shift_bits(wb), 1)[0]
    assert [Fraction(*mp.bernfrac(2 * n)) for n in range(1, K + 1)] == bernoulli_numbers(K)


def test_roots_quadratic(ctx):
    # only a quartic splits as two conjugate pairs
    with pytest.raises(ValueError, match="takes a quartic, not degree 2"):
        poly_roots(IntPolynomial([1, 0, 1]), ctx)


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


# the tau quartics of jobs/ex1.job, ex2.job and ex3.job
TAU_QUARTICS = [[25, -25, 15, -5, 1], [889319, -137677, 6039, -61, 1],
                [128, 0, 32, 0, 1]]


def test_roots_sum_product(ctx):
    # Vieta: the elementary symmetric functions of the roots are
    # (-1)^k c_(4-k) / c_4; ex2's quartic at -x pairs T and N the other way
    for cs in TAU_QUARTICS + [[889319, 137677, 6039, 61, 1]]:
        roots = poly_roots(IntPolynomial(cs), ctx)
        with ctx.work():
            e = [mp.mpc(1), 0, 0, 0, 0]
            for r in roots:
                e = [e[0]] + [e[k] + e[k - 1] * r for k in range(1, 5)]
            for k in range(1, 5):
                expect = (-1) ** k * mp.mpf(cs[4 - k]) / cs[4]
                assert abs(e[k] - expect) < ctx.tol * max(1, abs(expect)), (cs, k)


@pytest.mark.parametrize("bits", [256, 1024, 4096])
@pytest.mark.parametrize("cs", TAU_QUARTICS, ids=["ex1", "ex2", "ex3"])
def test_roots_conjugate_pairs_exact(bits, cs):
    # each root comes with its exact conjugate, and none is real
    ctx = PrecisionContext(bits)
    roots = poly_roots(IntPolynomial(cs), ctx)
    assert len(roots) == 4
    with ctx.work():
        for z in roots:
            assert abs(mp.im(z)) > ctx.tol
            assert roots.count(mp.conj(z)) == 1, z


def test_roots_close_pair_resolved(ctx):
    # (x^2 + 1)(x^2 + 2^-60 x + 1): two roots in H 2^-61 apart, told apart
    # and ordered by the exact split, T = -2^-60 before T = 0
    p = IntPolynomial([1, 0, 1]) * IntPolynomial([1, Fraction(1, 2 ** 60), 1])
    roots = poly_roots(p, ctx)
    with ctx.work():
        h = mp.mpf(2) ** -61
        near = mp.mpc(-h, mp.sqrt(1 - h * h))
        for z, e in zip(roots, (mp.conj(near), near, mp.mpc(0, -1), mp.mpc(0, 1))):
            assert abs(z - e) < ctx.tol


def test_roots_after_cancellation(ctx):
    # the roots (R -+ sqrt 2)/2 + i, R = 10^40, and their conjugates: w = 4
    # is a sum of terms near 2^134, and Im is still known to ctx.tol
    R = 10 ** 40
    p = IntPolynomial([Fraction(R ** 4 + 4 * R ** 2 + 36, 16), Fraction(-R * (R * R + 2), 2),
                       Fraction(3 * R * R + 2, 2), -2 * R, 1])
    roots = poly_roots(p, ctx)
    with ctx.work():
        s2 = mp.sqrt(2)
        for z, re, im in zip(roots, ((R - s2) / 2, (R - s2) / 2, (R + s2) / 2, (R + s2) / 2),
                             (-1, 1, -1, 1)):
            assert abs(mp.re(z) - re) < ctx.tol * re
            assert abs(mp.im(z) - im) < ctx.tol
    # y^4 - R y^3 + (R^2 - 1) y^2 - R y + 1, R = 3^200: the roots T_i e^(+-i pi/3)
    # with T1 T2 = 1 and T1 + T2 = R, so T1 = (R - sqrt(R^2 - 4)) / 2 cancels
    # 634 bits, and each root is still known relative to its size
    R = 3 ** 200
    roots = poly_roots(IntPolynomial([1, -R, R * R - 1, -R, 1]), ctx)
    with mp.workprec(4 * ctx.workbits + 2000):
        t1 = (R - mp.sqrt(R * R - 4)) / 2
        z = mp.expjpi(mp.mpf(1) / 3)
        for got, ref in zip(roots, (t1 * mp.conj(z), t1 * z, (R - t1) * mp.conj(z), (R - t1) * z)):
            assert abs(got - ref) < ctx.tol * abs(ref)


def test_roots_huge_constant_term(ctx):
    # (x^2 + 10^400)(x^2 + 1): the coefficients overflow a double
    roots = poly_roots(IntPolynomial([10 ** 400, 0, 10 ** 400 + 1, 0, 1]), ctx)
    with ctx.work():
        r = mp.mpf(10) ** 200
        for z, e in zip(roots, (-r, -1, 1, r)):
            assert abs(z - mp.mpc(0, e)) < ctx.tol * abs(e)


def test_poly_roots_takes_no_mpmath_sqrt(ctx, monkeypatch):
    # the square roots are math.isqrt on ints, and each part of a root is
    # one mpf division
    calls, sqrt = [], mp.sqrt

    def counted(*args, **kwargs):
        calls.append(args)
        return sqrt(*args, **kwargs)

    monkeypatch.setattr(mp, "sqrt", counted)
    for cs in TAU_QUARTICS:
        poly_roots(IntPolynomial(cs), ctx)
    assert calls == []


# a3 = 2^40, s = a3^2, dT = a3^2 + 4: T1 T2 = -1, so T1 = (sqrt(dT) - a3) / 2
# cancels about 80 bits, while pi / sigma keeps w from cancelling
_A3 = 2 ** 40
_CANCEL_T = [(_A3 ** 4 - _A3 ** 2 - 4) // 4, (_A3 ** 3 + _A3 ** 2 + 4) // 2,
             _A3 ** 2 - 1, _A3, 1]
ROUNDED_CASES = {
    "ex1": TAU_QUARTICS[0], "ex2": TAU_QUARTICS[1], "ex3": TAU_QUARTICS[2],
    # test_roots_close_pair_resolved's (x^2 + 1)(x^2 + 2^-60 x + 1)
    "close-pair": [1, Fraction(1, 2 ** 60), 2, Fraction(1, 2 ** 60), 1],
    # test_roots_huge_constant_term's (x^2 + 10^400)(x^2 + 1)
    "1e400": [10 ** 400, 0, 10 ** 400 + 1, 0, 1],
    "cancel-T": _CANCEL_T,
}


@pytest.mark.parametrize("bits", [64, 256, 1024, 4096])
@pytest.mark.parametrize("name", ROUNDED_CASES)
def test_poly_roots_exactly_rounded(bits, name):
    # each part of each root is mpmath.polyroots' root rounded once to
    # workbits.  It is taken at workbits + 256 bits and as many more as the
    # coefficients span, so that the coefficients enter exactly and the
    # iteration converges on 10^400
    ctx = PrecisionContext(bits)
    cs = [Fraction(c) for c in ROUNDED_CASES[name]]
    roots = poly_roots(IntPolynomial(cs), ctx)
    span = max(abs(c.numerator).bit_length() + c.denominator.bit_length() for c in cs)
    with mp.workprec(ctx.workbits + 256 + span):
        ref, err = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in reversed(cs)],
                                maxsteps=400, extraprec=64, error=True)
        assert err < mp.ldexp(1, -(ctx.workbits + 200)) * max(abs(r) for r in ref)
    with ctx.work():
        ref = sorted((+r for r in ref), key=lambda z: (z.real, z.imag))
    assert roots == ref


def test_nint_ratio_rounds_ties_to_even():
    # the nearest int to n / d, ties to even, as mp.nint and Python's round
    # of a Fraction: at the ties of both parities and both signs, off them,
    # and on ints far beyond doubles
    big = 3 ** 700
    for n, d in [(5, 2), (7, 2), (-5, 2), (-7, 2), (1, 2), (-1, 2), (0, 7), (9, 4),
                 (-9, 4), (11, 4), (2 * big + 1, 2), (big, 3 ** 699 + 1), (-big, 7)]:
        assert nint_ratio(n, d) == round(Fraction(n, d)), (n, d)


@pytest.mark.parametrize("bits", [64, 256, 4096])
def test_round_quotient_at_its_ties(bits):
    # round_quotient is mpmath's correctly rounded division of the two ints,
    # ties to even.  The midpoints x0 = (2k + 1) 2^-bits in [1, 2) are
    # written n / d with d = D 2^(bits + s), D = 3 or an odd D of bits + 100
    # bits (which round_quotient cuts to its top bits), and n = D ((2k + 1)
    # 2^s + o): o = 0 is x0 itself, for an even k (it rounds down) and an
    # odd k (up), and o = +-1 puts n / d at 2^-(bits + s) either side of it.
    # The top-bits quotient t has bits + 66 or bits + 67 bits here, so the
    # ulp of x0 at bits bits is 2^66 or 2^67 units of t, and 2^-(bits + s)
    # is 2^(65 - s) or 2^(66 - s) units: 32 or 64 at s = 60, where t alone
    # decides; 4 or 8 at s = 63, where t lies within 16 units of the
    # midpoint and the full division with a sticky bit decides; and at most
    # 2^-4 at s = 70, where t can be the midpoint itself and only the
    # sticky bit tells the side.  Negative n, n = 0 and a power-of-two d
    # complete it
    rng = random.Random(bits)
    ks = [1 << bits - 1, (1 << bits - 1) + 1, rng.getrandbits(bits - 1) | 1 << bits - 1]
    cases = [(0, 3), (0, 1 << bits)] + [(2 * k + 1, 1 << bits) for k in ks]
    for D in (3, rng.getrandbits(bits + 100) | 1 << bits + 99 | 1):
        for k in ks:
            cases.append((D * (2 * k + 1), D << bits))
            for s in (60, 63, 70):
                cases += [(D * (((2 * k + 1) << s) + o), D << bits + s) for o in (-1, 1)]
    for n, d in cases:
        for m in (n, -n):
            assert round_quotient(m, d, bits) == mpf_div(from_int(m), from_int(d), bits,
                                                         round_nearest), (m, d)


def test_roots_nonsquarefree(ctx):
    with pytest.raises(ValueError, match="not squarefree"):
        poly_roots(IntPolynomial([1, 0, 2, 0, 1]), ctx)  # (x^2 + 1)^2


def test_context_minimum():
    with pytest.raises(ValueError):
        PrecisionContext(32)


@pytest.mark.parametrize("bits", [256.0, 300.5, True, "256", mp.mpf(256)])
def test_context_takes_an_int(bits):
    # a float would give a float workbits, which the integer scales of the
    # engines cannot shift by
    with pytest.raises(TypeError, match=f"not {type(bits).__name__}"):
        PrecisionContext(bits)
