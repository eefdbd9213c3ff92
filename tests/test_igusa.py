import random
from fractions import Fraction as F
from math import comb, factorial

import mpmath as mp
import pytest

from g2heights.exact import (PSI13, IntPolynomial, binary_form, disc_n, is_prime,
                             partials, resultant)
from g2heights.igusa import (SingularCurveError, WeierstrassEquation,
                             _factor_trial, _igusa_clebsch, discriminant,
                             finite_height_part, igusa_invariants, iota,
                             minimal_disc_order)

EX1 = WeierstrassEquation(IntPolynomial([-1, 0, 0, 0, 0, 1]), IntPolynomial([0]))
EX2 = WeierstrassEquation(
    IntPolynomial([-40824, -103680, 67608, 197944, 17574, -41271, -103615]),
    IntPolynomial([0]))
EX3 = WeierstrassEquation(IntPolynomial([1, -3, -6, 2, 3, -1]), IntPolynomial([0]))
# the J6 and J8 ratio denominators of this curve hold 18518681089^3
BIG = WeierstrassEquation(IntPolynomial([6, -4, -9, -8, 3, 3, -8]),
                          IntPolynomial([-2, -3, 1]))


def curves(seed, n):
    """n smooth curves with P coefficients in [-10, 10], Q in [-3, 3]."""
    rng = random.Random(seed)
    while n:
        cs = [rng.randint(-10, 10) for _ in range(7)]
        qs = [rng.randint(-3, 3) for _ in range(4)]
        try:
            eq = WeierstrassEquation(IntPolynomial(cs), IntPolynomial(qs))
        except (SingularCurveError, ValueError):
            continue
        yield eq
        n -= 1


def _shift(p, c):
    """p(x + c), by Horner's rule in x + c."""
    out = IntPolynomial([0])
    for a in reversed(p.coeffs):
        out = out * IntPolynomial([c, 1]) + IntPolynomial([a])
    return out


def corpus(seed, n):
    """The invariants of curves(seed, n)."""
    return (igusa_invariants(eq) for eq in curves(seed, n))


def test_discriminant_restricted():
    assert discriminant(EX1) == 2 ** 8 * 3125


def test_discriminant_singular():
    with pytest.raises(SingularCurveError):
        WeierstrassEquation(IntPolynomial([0, 0, 0, 0, 0, 1]), IntPolynomial([0]))


def test_discriminant_shift_invariance():
    eq = WeierstrassEquation(IntPolynomial([-1, 0, 0, 0, 0, 1]),
                             IntPolynomial([0, 0, 0, 1]))
    shifted = WeierstrassEquation(_shift(eq.P, 1), _shift(eq.Q, 1))
    assert discriminant(eq) == discriminant(shifted)


def test_discriminant_scaling():
    # (x, y) -> (u^2 x, u^5 y): P(x) -> u^-10 P(u^2 x), Q -> u^-5 Q(u^2 x)
    # leaves the curve; Delta_E transforms by a known unit power, and the
    # Igusa ratios are untouched.  Check the exact x -> x + c family instead
    # plus the u-rescaling of the sextic on the invariant level.
    inv = igusa_invariants(EX3)
    u = F(3, 2)
    scaled = WeierstrassEquation(EX3.P.scale(u * u), EX3.Q.scale(u))
    inv_s = igusa_invariants(scaled)
    # sextic scales by u^2: J_n scales by u^(2n)
    assert inv_s.J2 == inv.J2 * u ** 4
    assert inv_s.J10 == inv.J10 * u ** 20
    assert inv_s.J2 ** 5 / inv_s.J10 == inv.J2 ** 5 / inv.J10


def test_example1_invariants():
    inv = igusa_invariants(EX1)
    assert (inv.J2, inv.J4, inv.J6, inv.J8) == (0, 0, 0, 0)
    assert inv.J10 == F(5 ** 5, 2 ** 12)


def test_j10_is_discriminant_over_2_20():
    # J10 = 2^-12 disc_6(P + Q^2/4) and Delta_E = 2^-12 disc_6(4P + Q^2);
    # disc_6 has degree 10, so scaling the sextic by 4 gives 4^10 = 2^20
    for eq in (EX1, EX2, EX3, BIG):
        assert igusa_invariants(eq).J10 * 2 ** 20 == discriminant(eq)


def test_example2_ratios():
    inv = igusa_invariants(EX2)
    assert inv.J2 ** 5 / inv.J10 == -F(2 ** 25 * 7 ** 15 * 39079 ** 5,
                                       3 ** 19 * 5 ** 12 * 41 ** 12)
    assert inv.J6 ** 5 / inv.J10 ** 3 == F(
        2 ** 25 * 7 ** 5 * 487 ** 5 * 3449 ** 5 * 3467 ** 5 * 42488533591199 ** 5,
        3 ** 72 * 5 ** 36 * 41 ** 36)
    assert inv.J8 ** 5 / inv.J10 ** 4 == -F(
        2 ** 40 * 643 ** 5 * 1871 ** 5 * 19780292330676250264630993 ** 5,
        3 ** 91 * 5 ** 48 * 41 ** 48)


def test_example3_ratios():
    inv = igusa_invariants(EX3)
    assert inv.J2 ** 5 / inv.J10 == 2 ** 4 * 3 ** 15
    assert inv.J6 ** 5 / inv.J10 ** 3 == F(3 ** 5 * 47 ** 5, 2 ** 8)
    assert inv.J8 ** 5 / inv.J10 ** 4 == -F(3 ** 10 * 2029 ** 5, 2 ** 24)


def test_iota():
    assert iota(2) == 4
    assert iota(3) == 3
    assert iota(41) == 1
    with pytest.raises(ValueError):
        iota(6)


def test_prime_at_or_above_psi13_is_taken():
    # iota depends only on whether p is 2, 3 or larger, and a prime with no
    # primality proof is still a prime: only a proven composite is refused
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(PSI13)
    assert iota(p) == 1
    assert minimal_disc_order(igusa_invariants(EX3), p) == 0
    for q in (1, 4, 9):
        with pytest.raises(ValueError, match=f"{q} is not prime"):
            minimal_disc_order(igusa_invariants(EX3), q)


def test_minimal_disc_order():
    assert minimal_disc_order(igusa_invariants(EX3), 2) == 6
    inv2 = igusa_invariants(EX2)
    assert minimal_disc_order(inv2, 3) == 24
    assert minimal_disc_order(inv2, 7) == 0


def test_finite_parts(ctx):
    with ctx.work():
        f1, led1 = finite_height_part(igusa_invariants(EX1), ctx)
        assert f1 == 0 and led1 == []
        f2, led2 = finite_height_part(igusa_invariants(EX2), ctx)
        target2 = (mp.mpf(2) / 5 * mp.log(3) + mp.log(5) / 5 + mp.log(41) / 5)
        assert abs(f2 - target2) < mp.mpf(1e-15)
        assert [(l.p, l.ord_min_disc) for l in led2] == [(3, 24), (5, 12), (41, 12)]
        f3, led3 = finite_height_part(igusa_invariants(EX3), ctx)
        assert abs(f3 - mp.log(2) / 10) < mp.mpf(1e-15)
        assert [(l.p, l.ord_min_disc) for l in led3] == [(2, 6)]


def test_j8_relation_corpus():
    for inv in corpus(41, 50):
        assert inv.J8 == (inv.J2 * inv.J6 - inv.J4 ** 2) / 4


def test_unit_scaling_preserves_order():
    # y -> u y with u a p-adic unit at p = 5: ord_5-level data unchanged
    inv = igusa_invariants(EX2)
    u = F(3, 7)
    scaled = WeierstrassEquation(EX2.P.scale(u * u), EX2.Q.scale(u))
    inv_s = igusa_invariants(scaled)
    assert minimal_disc_order(inv_s, 5) == minimal_disc_order(inv, 5)
    assert minimal_disc_order(inv_s, 41) == minimal_disc_order(inv, 41)


def test_finite_part_large_cofactor(ctx):
    f, led = finite_height_part(igusa_invariants(BIG), ctx)
    assert [(l.p, l.ord_min_disc) for l in led] == \
        [(13, 1), (53, 1), (353, 1), (18518681089, 1)]
    with ctx.work():
        target = mp.fsum(mp.log(p) for p in (13, 53, 353, 18518681089)) / 60
        assert abs(f - target) < ctx.tol


def test_factor_best_effort():
    assert _factor_trial(18518681089 ** 3) == {18518681089: 3}
    assert _factor_trial(2 ** 8 * 10007 ** 2 * 10009) == {2: 8, 10007: 2, 10009: 1}
    # two primes of 27 and 33 digits: rho gives up and keeps the product
    hard = (2 ** 89 - 1) * (2 ** 107 - 1)
    assert _factor_trial(hard) == {hard: 1}
    # psi_12 (OEIS A014233) is a strong pseudoprime to the bases 2..37, so it
    # must not be taken for a prime
    psi12 = 318665857834031151167461
    assert _factor_trial(psi12) == {399165290221: 1, 798330580441: 1}


def test_finite_part_corpus(ctx):
    done = 0
    for inv in corpus(7, 200):
        try:
            f, led = finite_height_part(inv, ctx)
        except ArithmeticError as exc:
            assert str(exc).startswith(
                ("non-integral minimal discriminant order at p=2:",
                 "non-integral minimal discriminant order at p=3:"))
            continue
        assert all(is_prime(l.p) for l in led)
        with ctx.work():
            assert abs(f - mp.fsum(l.height_term for l in led)) < ctx.tol
        done += 1
    assert done >= 100


def test_finite_part_matches_per_prime_definition(ctx):
    sympy = pytest.importorskip("sympy")
    curves = [igusa_invariants(c) for c in (EX2, EX3, BIG)] + list(corpus(7, 200))
    checked = 0
    for inv in curves:
        primes = {2, 3}
        for Ji, i in ((inv.J2, 1), (inv.J6, 3), (inv.J8, 4)):
            if Ji != 0:
                primes.update(sympy.factorint((Ji ** 5 / inv.J10 ** i).denominator))
        try:
            orders = {p: minimal_disc_order(inv, p) for p in sorted(primes)}
        except ArithmeticError:
            continue
        f, led = finite_height_part(inv, ctx)
        assert [(l.p, l.ord_min_disc) for l in led] == \
            [(p, m) for p, m in orders.items() if m]
        with ctx.work():
            target = mp.fsum(m * mp.log(p) for p, m in orders.items()) / 60
            assert abs(f - target) < ctx.tol
        checked += 1
    assert checked >= 100


# ---- the integer kernels against a Fraction transcription -----------------

def _frac_transvectant(f, g, k):
    """(f, g)_k of binary forms given as Fraction lists, f[i] the
    coefficient of x^(m-i) y^i, straight from the definition."""
    def dx(c):
        return [(len(c) - 1 - i) * v for i, v in enumerate(c[:-1])]

    def dy(c):
        return [(i + 1) * v for i, v in enumerate(c[1:])]

    m, n = len(f) - 1, len(g) - 1
    total = [F(0)] * (m + n - 2 * k + 1)
    for j in range(k + 1):
        df, dg = f, g
        for _ in range(k - j):
            df, dg = dx(df), dy(dg)
        for _ in range(j):
            df, dg = dy(df), dx(dg)
        for s, u in enumerate(df):
            for t, v in enumerate(dg):
                total[s + t] += (-1) ** j * comb(k, j) * u * v
    pre = F(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    return [pre * v for v in total]


def _frac_igusa_clebsch(sextic):
    f = (list(sextic.coeffs) + [F(0)] * (7 - len(sextic.coeffs)))[::-1]
    A = _frac_transvectant(f, f, 6)[0]
    i = _frac_transvectant(f, f, 4)
    B = _frac_transvectant(i, i, 4)[0]
    C = _frac_transvectant(i, _frac_transvectant(i, i, 2), 4)[0]
    return (-120 * A, -720 * A ** 2 + 6750 * B,
            8640 * A ** 3 - 108000 * A * B + 202500 * C)


def _frac_resultant(p, q):
    """The determinant of the Sylvester matrix by Gaussian elimination over
    the rationals; p and q lowest degree first, at degrees len - 1."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    p, q = [F(c) for c in p[::-1]], [F(c) for c in q[::-1]]
    mat = [[F(0)] * row + p + [F(0)] * (n - 1 - row) for row in range(n)]
    mat += [[F(0)] * row + q + [F(0)] * (m - 1 - row) for row in range(m)]
    det = F(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, size):
            f = mat[r][col] / mat[col][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def test_integer_kernels_match_fraction_transcription():
    # rational coefficients exercise the common denominators; EX1's sparse
    # Sylvester matrix needs four row swaps
    rational = [WeierstrassEquation(IntPolynomial([F(1, 3), F(-5, 2), 0, F(7, 4), 1, 0,
                                                   F(2, 3)]),
                                    IntPolynomial([F(1, 2), F(-2, 3)])),
                WeierstrassEquation(IntPolynomial([F(-2, 9), 0, F(5, 7), 0, 0, F(3, 5)]),
                                    IntPolynomial([0]))]
    for eq in [EX1, EX2, EX3, BIG] + rational + list(curves(3, 100)):
        f = eq.sextic
        assert _igusa_clebsch(f) == _frac_igusa_clebsch(f), f.coeffs
        Fx, Fy = (partials(binary_form(f, 6)[0], a, 1 - a) for a in (1, 0))
        assert resultant(Fx, Fy) == _frac_resultant(Fx[::-1], Fy[::-1])


def _disc_oracle(p, n):
    """disc_n(p, n) from the polynomial p: (-1)^(d(d-1)/2) Res(p, p') / a at
    the actual degree d and leading coefficient a, times a^2 for one root
    at infinity, and 0 for two or more."""
    d, a = p.degree, p.coeffs[-1]
    if d < n - 1:
        return F(0)
    dp = [k * c for k, c in enumerate(p.coeffs)][1:]
    disc = (-1) ** (d * (d - 1) // 2) * _frac_resultant(p.coeffs, dp) / a
    return disc * a ** 2 if d == n - 1 else disc


@pytest.mark.parametrize("n", [5, 6])
def test_disc_n_matches_polynomial_resultant(n):
    # rational p with 0 to 3 roots at infinity, a third of them with a
    # forced repeated root (x - r)^2
    rng = random.Random(n)
    nonzero = 0
    for _ in range(300):
        deg = n - rng.randint(0, 3)
        cs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
        p = IntPolynomial(cs + [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))])
        if rng.random() < 1 / 3:
            r = F(rng.randint(-3, 3), rng.randint(1, 3))
            p = IntPolynomial(p.coeffs[2:]) * IntPolynomial([r * r, -2 * r, 1])
        assert p.degree == deg
        disc = disc_n(p, n)
        assert disc == _disc_oracle(p, n), (n, p.coeffs)
        nonzero += disc != 0
    assert nonzero >= 75
