"""High-precision kernel: precision contexts, log-Gamma on (0,1], and the
roots of a CM quartic.

mpmath supplies the big-float substrate (mpf/mpc arithmetic, exp, log, pi,
sqrt) and the Bernoulli numbers (mpmath.bernfrac).  log_gamma and the
roots are implemented here so their error behaviour is under our control.

The roots need no root finder: a quartic whose roots are two conjugate
pairs splits over its resolvent cubic into two real quadratics, decided in
integers (exact.cubic_integer_roots), and each pair then takes two square
roots of sums whose cancellation is bounded in advance.

log_gamma takes a rational x = m/f and is the Stirling series at z = x + N.
Its callers halve the work by the reflection log Gamma(1-x) = log pi -
log sin(pi x) - log Gamma(x) (colmez.colmez_height evaluates only
m/f < 1/2).  The shift back from z to x is one log of the exact integer
prod_{j<N} (m + j f) over f^N.  The shift N and the term count K are planned
once per working precision so that the first omitted term, which for real
z > 0 bounds the remainder, is below 2^-(workbits+16).  Since z = (m + N f)/f
is a ratio of small integers, the series is summed by Horner in
1/z^2 = f^2/(m + N f)^2 on Python ints at the fixed scale 2^-(workbits+16):
each step is a product and a quotient by small integers, not a
full-precision product (Brent and Zimmermann, Modern Computer Arithmetic,
ch. 4).
"""

from __future__ import annotations

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
    """The Stirling series for one workbits: the argument shift N, the term
    count K and the coefficients c_n = B_2n / (2n (2n-1)), n = 1..K, as
    integers at the scale 2^-W, W = workbits + SERIES_BITS, each rounded to
    nearest."""

    shift: int
    coeffs: tuple
    half_log_2pi: mp.mpf

    @property
    def terms(self) -> int:
        return len(self.coeffs)


_plans: dict[int, StirlingPlan] = {}


def stirling_plan(ctx: PrecisionContext) -> StirlingPlan:
    """The plan for ctx.workbits, built once.  N = workbits/2 + 8 and K is
    the first n whose term c_n / N^(2n-1) is below 2^-W; the comparison is
    made in integers on the exact B_2n."""
    wb = ctx.workbits
    plan = _plans.get(wb)
    if plan is None:
        W = wb + SERIES_BITS
        shift = wb // 2 + 8
        coeffs = []
        while True:
            n = len(coeffs) + 1
            num, den = mp.bernfrac(2 * n)
            den *= 2 * n * (2 * n - 1)
            coeffs.append(((num << (W + 1)) + den) // (2 * den))
            if abs(num) << W < den * shift ** (2 * n - 1):
                break
        with mp.workprec(W):
            plan = StirlingPlan(shift, tuple(coeffs), mp.log(2 * mp.pi) / 2)
        _plans[wb] = plan
    return plan


def log_gamma(x, ctx: PrecisionContext):
    """log Gamma(x) for a rational x = m/f in (0, 1], a Fraction or an int;
    any other type, bool and float included, raises TypeError.

    Shift: Gamma(x) = Gamma(z) / (x (x+1) ... (x+N-1)) with z = x + N, and
    the shift costs one log of one product, the exact integer
    prod_j (m + j f) over f^N.

    Series: log Gamma(z) = (z - 1/2) log z - z + (1/2) log(2 pi)
    + sum_{n<=K} c_n / z^(2n-1) with the plan of stirling_plan.  For real
    z > 0 the remainder of the series has the sign of the first omitted
    term and is smaller in size (DLMF 5.11(ii)).  The plan puts the K-th
    term at z = N below 2^-W, W = workbits + 16, and the first omitted term,
    c_(K+1) / z^(2K+1), is smaller still at every z >= N.

    The sum is a Horner in 1/z^2 = f^2 / D^2, D = m + N f, on integers at
    the scale 2^-W: acc <- round(acc f^2 / D^2) + c_n from n = K down to 1,
    then round(acc f / D) is the sum times 2^W.  Each rounding, of a step
    or of a coefficient, is at most 1/2 ulp of 2^-W, and every later step
    multiplies an error by f^2 / D^2 <= 1/N^2, so the error before the last
    division is below (1/(1 - 1/N^2)) ulp, and after it, with 1/z <= 1/N
    and its own rounding, below 2 ulps: 2^-(workbits+15), inside
    SERIES_BITS with the truncation.  The rest of the formula is evaluated
    in mpf at workbits + 16.
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"log_gamma takes a Fraction or an int, not {type(x).__name__}")
    plan = stirling_plan(ctx)
    N = plan.shift
    x = Fraction(x)
    if not (0 < x <= 1):
        raise ValueError("log_gamma requires x in (0, 1]")
    if x == 1:
        return mp.mpf(0)
    m, f = x.numerator, x.denominator
    prod = 1
    for j in range(N):
        prod *= m + j * f
    D = m + N * f
    f2, D2 = f * f, D * D
    acc = 0
    for c in reversed(plan.coeffs):
        acc = (2 * acc * f2 + D2) // (2 * D2) + c
    W = ctx.workbits + SERIES_BITS
    with mp.workprec(W):
        log_shift = mp.log(mp.mpf(prod) / mp.mpf(f ** N))
        z = mp.mpf(D) / f
        series = mp.ldexp((2 * acc * f + D) // (2 * D), -W)
        s = (z - mp.mpf(1) / 2) * mp.log(z) - z + plan.half_log_2pi + series
        s -= log_shift
    with ctx.work():
        return +s


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
