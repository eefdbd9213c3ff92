"""High-precision kernel: precision contexts, log-Gamma on (0,1], and the
roots of a CM quartic.

mpmath supplies the big-float substrate (mpf/mpc arithmetic, exp, log, pi,
sqrt).  log_gamma, its Bernoulli numbers and the roots are implemented here
so their error behaviour is under our control.

The roots need no root finder: a quartic whose roots are two conjugate
pairs splits over its resolvent cubic into two real quadratics, decided in
integers (exact.cubic_integer_roots), and each pair then takes two square
roots of sums whose cancellation is bounded in advance.

log_gamma takes rationals m/f that share one denominator f and returns
the sum of their log Gamma, with one mpmath log per call; colmez.colmez_height
calls it once per value of its character.  Its callers halve the work by the
reflection log Gamma(1-x) = log pi - log sin(pi x) - log Gamma(x)
(colmez_height evaluates only m/f < 1/2).  Each x = m/f is shifted to
z = x + N = D/f, D = m + N f, where the Stirling series is summed; the shift
N = workbits // 5 and the term count K are planned once per working
precision so that the first omitted term, which for real z > 0 bounds the
remainder, is below 2^-W, W = workbits + 16.  A smaller N makes the shift
product shorter and the Stirling series longer (K is about 0.7 N); the
exact B_2n it needs come from the tangent numbers, on Python ints, by the
recurrence of Brent and Harvey (bernoulli_numbers).  With log z = log N +
log(D/(N f)), the N log N in (z - 1/2) log z and in the log of the shift
prod_{j<N} (m + j f) / f^N cancel in closed form, leaving (x - 1/2) log N.
Every other part is a ratio of small integers, and is summed on Python
ints at the scale 2^-W (Brent and Zimmermann, Modern Computer Arithmetic,
ch. 4): log(D/(N f)) is 2 atanh(m/(2 N f + m)), a series in a square below
1/(4 N^2), and the Stirling series is a Horner in u = (N f/D)^2 < 1 on the
coefficients c_n / N^(2n-2), which fall with n as the terms do, so the ints
shrink as the Horner runs.  What is left is one log of the product of the
group's shift products over (N f)^(N n), n residues, a number near
e^(-N n).  Its size, about N n, against the 2^-W of the rest, is the
log2 N bits that cancel between it and the -z of each residue; SERIES_BITS
= 16 covers them and the few ulps of the int sums (see log_gamma).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

from .exact import IntPolynomial, binary_form, cubic_integer_roots

GUARD_BITS = 32


class PrecisionContext:
    """Immutable working-precision handle.  All numeric routines take one.

    prec is the target precision in bits; computations run at prec + guard
    bits and results are trusted to ~2^(-prec + guard).
    """

    def __init__(self, prec_bits: int = 256):
        if prec_bits < 64:
            raise ValueError("precision below 64 bits not supported")
        self.prec = prec_bits
        self.guard = GUARD_BITS
        self.workbits = prec_bits + GUARD_BITS
        with mp.workprec(self.workbits):
            self.pi = +mp.pi
            self.log2 = mp.log(2)

    def work(self):
        """Context manager setting mpmath to the working precision."""
        return mp.workprec(self.workbits)

    @property
    def tol(self):
        with mp.workprec(self.workbits):
            return mp.mpf(2) ** (-self.prec + self.guard)

    def __repr__(self):
        return f"PrecisionContext(prec_bits={self.prec})"


# bits beyond workbits at which the Stirling series is evaluated
SERIES_BITS = 16


class StirlingPlan(NamedTuple):
    """The Stirling series for one workbits, as integers at the scale 2^-W,
    W = workbits + SERIES_BITS, each rounded to nearest: the argument
    shift N, the term count K and the normalised coefficients
    c_n / N^(2n-2), c_n = B_2n / (2n (2n-1)), n = 1..K; the coefficients
    1/(2k+1) of atanh(t)/t for t <= 1/(2N+1); (1/2) log(2 pi), log N and
    log pi."""

    shift: int
    coeffs: tuple
    atanh_coeffs: tuple
    half_log_2pi: int
    log_shift: int
    log_pi: int

    @property
    def terms(self) -> int:
        return len(self.coeffs)


_plans: dict[int, StirlingPlan] = {}


def stirling_plan(ctx: PrecisionContext) -> StirlingPlan:
    """The plan for ctx.workbits, built once.  N = workbits // 5 and K is
    the first n whose term c_n / N^(2n-1) is below 2^-W; the atanh series
    stops at the first k whose term t^(2k) / (2k+1) at t = 1/(2N+1) is
    below 2^-W.  Both comparisons are made in integers, the first on the
    exact B_2n, of which bernoulli_numbers makes as many as
    _stirling_length bounds K by."""
    wb = ctx.workbits
    plan = _plans.get(wb)
    if plan is None:
        W = wb + SERIES_BITS
        shift = wb // 5
        coeffs, npow = [], 1  # npow = N^(2n-2)
        for n, b in enumerate(bernoulli_numbers(_stirling_length(shift, W)), 1):
            d = b.denominator * 2 * n * (2 * n - 1) * npow
            coeffs.append(((b.numerator << (W + 1)) + d) // (2 * d))
            if abs(b.numerator) << W < d * shift:
                break
            npow *= shift * shift
        atanh, t2 = [], (2 * shift + 1) ** 2
        while True:
            k = len(atanh)
            atanh.append(((1 << (W + 1)) + 2 * k + 1) // (4 * k + 2))
            if 1 << W < (2 * k + 3) * t2 ** (k + 1):
                break
        with mp.workprec(W + 8):
            consts = [int(mp.nint(mp.ldexp(v, W))) for v in
                      (mp.log(2 * mp.pi) / 2, mp.log(shift), mp.log(mp.pi))]
        plan = StirlingPlan(shift, tuple(coeffs), tuple(atanh), *consts)
        _plans[wb] = plan
    return plan


def _stirling_length(shift: int, W: int) -> int:
    """The first n at which 4 (2n-2)! / ((2 pi)^(2n) N^(2n-1)), taken in
    doubles, is below 2^-(W+1).  |B_2n| = 2 zeta(2n) (2n)! / (2 pi)^(2n)
    (DLMF 25.6.2) and zeta(2n) < 2, so that is a bound on the term
    c_n / N^(2n-1), which is below 2^-W there, and K <= n; the spare bit
    covers the doubles' rounding."""
    n, cut = 1, -(W + 1) * math.log(2)
    while (math.lgamma(2 * n - 1) + math.log(4) - 2 * n * math.log(2 * math.pi)
           - (2 * n - 1) * math.log(shift)) >= cut:
        n += 1
    return n


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_2, B_4, ..., B_2n, exact.  They come from the tangent numbers,
    T_k = (-1)^(k-1) 4^k (4^k - 1) B_2k / 2k, which are positive integers:
    the recurrence of Brent and Harvey ("Fast computation of Bernoulli,
    Tangent and Secant numbers", 2013, algorithm TangentNumbers) builds
    T_1 .. T_n on Python ints in n^2/2 steps of two small-int products."""
    t = [1]  # t[k-1] = T_k
    for k in range(1, n):
        t.append(k * t[-1])
    for k in range(1, n):
        for j in range(k, n):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction((-1) ** k * (2 * k + 2) * tk, 4 ** (k + 1) * (4 ** (k + 1) - 1))
            for k, tk in enumerate(t)]


def log_gamma(xs, ctx: PrecisionContext):
    """sum_{x in xs} log Gamma(x) for a non-empty sequence of rationals
    x = m/f in (0, 1] that share one denominator f (in lowest terms),
    each a Fraction or an int; any other type, bool and float included,
    raises TypeError, and an empty sequence or two denominators ValueError.

    Per x, with z = x + N = D/f, D = m + N f, and the plan of
    stirling_plan:

        log Gamma(x) = log Gamma(z) - log(prod_{j<N} (m + j f) / f^N),
        log Gamma(z) = (z - 1/2) log z - z + (1/2) log(2 pi) + S(z),
        S(z) = sum_{n<=K} c_n / z^(2n-1) + remainder,

    and with log z = log N + L, L = log(D/(N f)) = 2 atanh(t),
    t = m/(2 N f + m):

        log Gamma(x) = (x - 1/2) log N + (z - 1/2) L - z + (1/2) log(2 pi)
                       + S(z) - log(P / (N f)^N),  P = prod_{j<N} (m + j f).

    All but the last term go into one int acc, at the scale 2^-W and
    times 2f, so that every part is an integer: 2f (1/2) log(2 pi) and
    (2m - f) log N from the plan, -2D exactly, (2D - f) L and 2f S(z).
    acc / 2f is rounded once per call.  The last term is one mpmath log
    per call, of the product of the group's P / (N f)^N.  The errors, in
    ulps of 2^-W per x (an int step rounds down, by less than 1):

    - S(z): for real z > 0 the remainder has the sign of the first
      omitted term and is smaller in size (DLMF 5.11(ii)); the plan puts
      the K-th term at z = N below 2^-W, and the first omitted term,
      c_(K+1) / z^(2K+1), is smaller still at every z >= N: under 1.  The
      sum is (f/D) H(u), H(u) = sum_n c'_n u^(n-1), c'_n = c_n / N^(2n-2),
      u = (N f / D)^2 < 1, by the Horner h <- floor(h u) + c'_n from
      n = K down to 1.  h has about as many bits as c'_n 2^W, which falls
      from W to about bits(N) as n grows, so the early steps are short.
      Each step and its rounded c'_n are off by less than 3/2, and a
      later step multiplies an error by u < 1, so h is off by less than
      3K/2; 2f S(z) = round(2 f^2 h / D), and f/D < 1/N and K < N at
      every precision (K/N is 18/19, 44/57, 149/211 and 572/825 at 64,
      256, 1024 and 4096 bits, peaks at 20/21 at 77 bits and tends to
      about 0.7), so S(z) is off by less than 3K/(2N) + 1/4 + 1 < 11/4.
    - (z - 1/2) L: atanh(t)/t = sum_k t^(2k) / (2k+1) by the Horner
      a <- floor(a t^2) + round(2^W / (2k+1)) over the plan's atanh
      terms.  t <= 1/(2N+1) <= 1/39 (N >= 19 from 64 bits up), so the
      omitted tail is below 1/(1 - t^2), and each step's error, below
      3/2, shrinks by t^2 with each later step: a is off by less than
      (5/2)/(1 - t^2) < 2.51.  (2D - f) L =
      round(2m (2D - f) a / (2N f + m)) multiplies that by less than 2m,
      so after the division by 2f (z - 1/2) L is off by less than
      2.51 m/f + 1/4 < 2.76.
    - (x - 1/2) log N and (1/2) log(2 pi): each plan constant, taken at
      W + 8 bits and rounded, is off by less than 0.57, and the factors
      are at most 1/2 and 1: 0.86 per x.  The division by 2f rounds by
      1/2 per call.
    - The shift: each P is rounded down to W + 8 bits, and so is each
      product of the P's, so their product is off by a factor within
      (1 + 2^-(W+7))^(2n): n/64 on the log.  Its rounding to an mpf at W,
      the power (N f)^(N n) and the quotient add about 2 2^-W relative,
      so 2 per call.  The log of prod_{j<N} (x + j)/N lies in
      [-N - log(N f), 0]: each term is at most 0, the first is at least
      -log(N f), and N^(N-1) / (N-1)! <= e^N.  Rounded at W, the log of
      the group's product is off by at most N + log(N f) per x.

    That last error is the cancellation: the N log N in (z - 1/2) log z
    and in the shift are gone in closed form, but the -z of each x and
    the log of its shift, both about N in size, still cancel down to
    log Gamma(x), so the ulp of the rounded log costs log2(N + log(N f))
    bits.  Per x the other terms add less than 11/4 + 2.76 + 0.86 + 1/64
    < 7, and per call 1/2 + 2 < 3, so the sum is off by less than
    n (N + log(N f) + 7) + 3 ulps of 2^-W.  With N = workbits // 5, below
    13,108 for any workbits below 2^16, and log(N f) below 705 for f below
    2^1000, that is below n 2^16 ulps, that is n 2^-workbits, before the
    final rounding at workbits: SERIES_BITS = 16 covers the cancellation
    and the int sums.
    """
    xs = [_rational(x) for x in xs]
    if not xs:
        raise ValueError("log_gamma takes a non-empty sequence")
    f = xs[0].denominator
    if any(x.denominator != f for x in xs):
        raise ValueError("log_gamma takes rationals with one denominator")
    if not all(0 < x <= 1 for x in xs):
        raise ValueError("log_gamma requires x in (0, 1]")
    if f == 1:
        return mp.mpf(0)
    plan = stirling_plan(ctx)
    N, W, n = plan.shift, ctx.workbits + SERIES_BITS, len(xs)
    Nf = N * f
    Nf2, f2, f3 = Nf * Nf, 2 * f, 3 * f
    M = sum(x.numerator for x in xs)
    acc = (2 * f * n * plan.half_log_2pi + (2 * M - n * f) * plan.log_shift
           - (2 * (M + n * Nf) << W))
    q_man, q_exp = 1, 0  # the product of the P's, rounded down to W + 8 bits
    for x in xs:
        m = x.numerator
        D = m + Nf
        tail = m + N // 4 * 4 * f  # the factors past the last group of four
        P = math.prod([a * (a + f) * (a + f2) * (a + f3) for a in range(m, tail, 4 * f)],
                      start=math.prod(range(tail, D, f)))
        cut = max(P.bit_length() - W - 8, 0)
        q_man, q_exp = q_man * (P >> cut), q_exp + cut
        cut = max(q_man.bit_length() - W - 8, 0)
        q_man, q_exp = q_man >> cut, q_exp + cut
        E = 2 * Nf + m
        E2, m2, a = E * E, m * m, 0
        for r in reversed(plan.atanh_coeffs):
            a = a * m2 // E2 + r
        acc += (4 * m * (2 * D - f) * a + E) // (2 * E)
        D2, h = D * D, 0
        for c in reversed(plan.coeffs):
            h = h * Nf2 // D2 + c
        acc += (4 * f * f * h + D) // (2 * D)
    with mp.workprec(W):
        shifted = mp.mpf((q_man, q_exp)) / mp.mpf(Nf) ** (N * n)
        s = mp.ldexp((acc + f) // (2 * f), -W) - mp.log(shifted)
    with ctx.work():
        return +s


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"log_gamma takes a Fraction or an int, not {type(x).__name__}")
    return Fraction(x)


def poly_roots(p: IntPolynomial, ctx: PrecisionContext):
    """The four roots of a quartic whose roots are two conjugate pairs of
    non-real numbers, sorted by (Re, Im).  Raises ValueError for any other
    polynomial.

    Exact part: with denominators cleared and c4 > 0, y = c4 x turns p into
    the monic integer quartic y^4 + a3 y^3 + a2 y^2 + a1 y + a0, a3 = c3,
    a2 = c2 c4, a1 = c1 c4^2, a0 = c0 c4^3.  Its roots are {t1, t1'} and
    {t2, t2'}, so it factors as (y^2 - T1 y + N1)(y^2 - T2 y + N2) with
    T_i = t_i + t_i' and N_i = t_i t_i' real, and the pairing is stable
    under the Galois group.  So s = N1 + N2 is a rational, hence integer,
    root of the resolvent cubic y^3 - a2 y^2 + (a1 a3 - 4 a0) y
    + 4 a0 a2 - a1^2 - a0 a3^2 (Kappe and Warren, Amer. Math. Monthly 96,
    1989).  The T_i are the roots of t^2 + a3 t + (a2 - s), of discriminant
    dT, the N_i those of n^2 - s n + a0, of discriminant dN, and
    (T1 - T2)(N1 - N2) = 2 a1 - a3 s, whose square is dT dN.  The roots are
    non-real when w_i = 4 N_i - T_i^2 > 0, that is when sigma = w1 + w2
    = 2 (s + a2) - a3^2 and pi = w1 w2 = 16 a0 - 4 (a1 a3 - (a2 - s) s)
    + (a2 - s)^2 are both positive.  Exactly one integer resolvent root s
    gives dT >= 0, dN >= 0, sigma > 0 and pi > 0: real T_i and N_i make
    real factors, and a real factor with non-real roots holds a conjugate
    pair.  dT = dN = 0 makes p a square.  The order is exact: ascending T
    (T1 < T2 when dT > 0), else ascending N.

    Numeric part: w_i = sigma/2 + 2 delta_i sqrt(dN) + eps_i (a3/2) sqrt(dT)
    with eps_i = sign(T_i - T_j) and delta_i = sign(N_i - N_j).  Each term
    is below 2^L, L taken from bit lengths, and w_i = pi / w_j >= pi / sigma,
    so the sum cancels at most e = L + bits(sigma) - bits(pi) + 1 bits.
    T_i = (eps_i sqrt(dT) - a3) / 2 cancels less: where it cancels,
    2^e >~ a3^2 / w_i >= (a3 / 2 t_i)^2.  So at workbits + 32 + e the root
    t_i / c4 in H, (T_i + i sqrt(w_i)) / (2 c4), is known to about
    2^-(workbits+32) of its size and, but for rare ties, rounds to workbits
    as the exact root would; the Siegel reduction, whose word on a boundary
    follows the last bits, then does not depend on how it was computed.
    """
    if p.degree != 4:
        raise ValueError(f"poly_roots takes a quartic, not degree {p.degree}")
    F, _ = binary_form(p, 4)
    c4, c3, c2, c1, c0 = F if F[0] > 0 else [-c for c in F]
    a3, a2, a1, a0 = c3, c2 * c4, c1 * c4 ** 2, c0 * c4 ** 3
    for s in cubic_integer_roots(-a2, a1 * a3 - 4 * a0,
                                 4 * a0 * a2 - a1 * a1 - a0 * a3 * a3):
        dT, dN = a3 * a3 - 4 * (a2 - s), s * s - 4 * a0
        if dT == dN == 0:
            raise ValueError("polynomial is not squarefree")
        sigma = 2 * (s + a2) - a3 * a3
        pi = 16 * a0 - 4 * (a1 * a3 - (a2 - s) * s) + (a2 - s) ** 2
        if dT >= 0 and dN >= 0 and sigma > 0 and pi > 0:
            break
    else:
        raise ValueError("quartic is not two conjugate pairs split over "
                         "its resolvent cubic")
    # the sign of N1 - N2, with T1 <= T2, and N1 < N2 when T1 = T2
    d = 1 if dT and 2 * a1 - a3 * s < 0 else -1
    L = max(sigma.bit_length(), ((4 * dN).bit_length() + 1) // 2,
            ((a3 * a3 * dT).bit_length() + 1) // 2)
    e = L + sigma.bit_length() - pi.bit_length() + 1
    with mp.workprec(ctx.workbits + 32 + e):
        rT, rN = mp.sqrt(dT), mp.sqrt(dN)
        upper = []
        for eps, delta in ((-1, d), (1, -d)):
            w = mp.mpf(sigma) / 2 + 2 * delta * rN + eps * a3 * rT / 2
            upper.append(mp.mpc(eps * rT - a3, 2 * mp.sqrt(w)) / (4 * c4))
        t1, t2 = upper
        roots = ([mp.conj(t1), t1, mp.conj(t2), t2] if dT
                 else [mp.conj(t2), mp.conj(t1), t1, t2])
    with ctx.work():
        return [+z for z in roots]
