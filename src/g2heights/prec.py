"""High-precision kernel: precision contexts, log-Gamma on (0,1], and
complex polynomial roots.

mpmath supplies the big-float substrate (mpf/mpc arithmetic, exp, log, pi)
and the Bernoulli numbers (mpmath.bernfrac).  log_gamma, the seeds of the
roots, their Newton lift and polish, their residual check and the check that
no two roots coincide are implemented here so their error behaviour is under
our control.

The roots are decided on doubles, else at the working precision: an
Aberth-Ehrlich iteration in Python complex numbers seeds them to about 40
bits of the root scale, and Newton's method lifts each seed at doubling
precisions to the polish precision (the MPSolve scheme of Bini and
Fiorentino, Numer. Algorithms 23, 2000); of a conjugate pair, only the seed
above the real axis.  Where the doubles cannot decide, for a close pair of
roots or an iteration that does not converge, mpmath.polyroots at the
working precision gives the seeds instead.

log_gamma takes a rational x = m/f and is the Stirling series at z = x + N.
Its callers halve the work by the reflection log Gamma(1-x) = log pi -
log sin(pi x) - log Gamma(x) (colmez.colmez_height evaluates only
m/f < 1/2).  The shift back from z to x is one log of the exact integer
prod_{j<N} (m + j f) over f^N.  The shift N and the term count K are planned
once per working precision so that the first omitted term, which for real
z > 0 bounds the remainder, is below 2^-(workbits+16).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import ceil, lcm
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import NoConvergence

from .exact import IntPolynomial, resultant

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
    count K and the coefficients c_n = B_2n / (2n (2n-1)), n = 1..K."""

    shift: int
    coeffs: tuple
    half_log_2pi: mp.mpf

    @property
    def terms(self) -> int:
        return len(self.coeffs)


_plans: dict[int, StirlingPlan] = {}


def stirling_plan(ctx: PrecisionContext) -> StirlingPlan:
    """The plan for ctx.workbits, built once.  N = workbits/2 + 8 and K is
    the first n whose term c_n / N^(2n-1) is below 2^-(workbits+16); the
    comparison is made in integers on the exact B_2n."""
    wb = ctx.workbits
    plan = _plans.get(wb)
    if plan is None:
        shift = wb // 2 + 8
        coeffs = []
        with mp.workprec(wb + SERIES_BITS):
            while True:
                n = len(coeffs) + 1
                num, den = mp.bernfrac(2 * n)
                den *= 2 * n * (2 * n - 1)
                coeffs.append(mp.mpf(num) / den)
                if abs(num) << (wb + SERIES_BITS) < den * shift ** (2 * n - 1):
                    break
            plan = StirlingPlan(shift, tuple(coeffs), mp.log(2 * mp.pi) / 2)
        _plans[wb] = plan
    return plan


def log_gamma(x, ctx: PrecisionContext):
    """log Gamma(x) for a rational x = m/f in (0, 1], a Fraction or an int.

    Shift: Gamma(x) = Gamma(z) / (x (x+1) ... (x+N-1)) with z = x + N, and
    the shift costs one log of one product, the exact integer
    prod_j (m + j f) over f^N.

    Series: log Gamma(z) = (z - 1/2) log z - z + (1/2) log(2 pi)
    + sum_{n<=K} c_n / z^(2n-1), summed by Horner in 1/z^2 at
    workbits + 16 with the plan of stirling_plan.  For real z > 0 the
    remainder of the series has the sign of the first omitted term and is
    smaller in size (DLMF 5.11(ii)).  The plan puts the K-th term at z = N
    below 2^-(workbits+16), and the first omitted term, c_(K+1) / z^(2K+1),
    is smaller still at every z >= N.
    """
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
    with mp.workprec(ctx.workbits + SERIES_BITS):
        log_shift = mp.log(mp.mpf(prod) / mp.mpf(f ** N))
        z = mp.mpf(m + N * f) / f
        w = 1 / (z * z)
        series = mp.mpf(0)
        for c in reversed(plan.coeffs):
            series = series * w + c
        s = (z - mp.mpf(1) / 2) * mp.log(z) - z + plan.half_log_2pi + series / z
        s -= log_shift
    with ctx.work():
        return +s


# The double seeds of poly_roots (see _double_seeds): at most SEED_STEPS
# Aberth-Ehrlich sweeps, converged when every correction is below SEED_TOL,
# and no two seeds within SEED_GAP, both in units of the root scale 2^s.  A
# converged seed is trusted to SEED_BITS bits of that scale.
SEED_STEPS = 100
SEED_TOL = 2.0 ** -40
SEED_GAP = 2.0 ** -20
SEED_BITS = 40


def _double_seeds(cs):
    """Starting values for the roots of sum_k cs[k] x^k, integers lowest
    degree first, as mpc values of doubles in descending Im, and the number
    m of conjugate pairs: the first m seeds are above the real axis and the
    last m below.  None when the doubles do not decide them.

    With x = 2^s y and 2^s at least the Fujiwara bound
    2 max_k |cs[n-k] / cs[n]|^(1/k), taken from bit lengths, every
    coefficient of the monic q(y) = p(2^s y) / (cs[n] 2^(sn)) is at most 1/2
    in modulus, so all roots of q lie in |y| <= 1.  Each coefficient is one
    division of integers, correctly rounded, and none overflows.  The
    Aberth-Ehrlich sweeps start on the unit circle about the centroid of the
    roots, turned off the real axis.  None when an iterate is not finite or
    a division by zero occurs, when SEED_STEPS sweeps do not bring every
    correction below SEED_TOL, when two seeds are within SEED_GAP, or when
    the seeds SEED_GAP/2 or more above the real axis and those as far
    below it differ in number.  A seed nearer the axis is a real root's: a non-real root would have its
    conjugate's seed as near.
    """
    n = len(cs) - 1
    lead = cs[-1]
    lb = abs(lead).bit_length()
    # |cs[n-k] / lead| < 2^e with e = bits(cs[n-k]) - bits(lead) + 1, and
    # 2^(s k) >= 2^(k + e) for s = 1 + ceil(e / k) = 1 - floor(-e / k)
    s = max((1 - (lb - 1 - abs(c).bit_length()) // k
             for k, c in enumerate(reversed(cs[:-1]), 1) if c), default=0)
    q = [c / (lead << e) if e >= 0 else (c << -e) / lead
         for c, e in ((c, s * (n - k)) for k, c in enumerate(cs))]
    ys = [-q[n - 1] / n + cmath.rect(1, 2 * cmath.pi * k / n + 0.4)
          for k in range(n)]
    try:
        for _ in range(SEED_STEPS):
            worst = 0.0
            for i, y in enumerate(ys):
                v, dv = 1.0, 0.0
                for c in reversed(q[:-1]):
                    dv = dv * y + v
                    v = v * y + c
                ratio = v / dv
                corr = ratio / (1 - ratio * sum(1 / (y - w) for j, w in enumerate(ys)
                                                if j != i))
                if not cmath.isfinite(corr):
                    return None
                ys[i] = y - corr
                worst = max(worst, abs(corr))
            if worst < SEED_TOL:
                break
        else:
            return None
        if min((abs(a - b) for i, a in enumerate(ys) for b in ys[i + 1:]),
               default=1) < SEED_GAP:
            return None
    except (ZeroDivisionError, OverflowError):
        return None
    ys.sort(key=lambda y: -y.imag)
    pairs = sum(y.imag >= SEED_GAP / 2 for y in ys)
    if pairs != sum(y.imag <= -SEED_GAP / 2 for y in ys):
        return None
    return [mp.mpc(mp.ldexp(y.real, s), mp.ldexp(y.imag, s)) for y in ys], pairs


def poly_roots(p: IntPolynomial, ctx: PrecisionContext):
    """All complex roots of a squarefree polynomial, sorted by (Re, Im).

    Seeds: _double_seeds, an Aberth-Ehrlich iteration in complex doubles on
    the integer coefficients scaled to put every root in the unit disk, gives
    starting values to about SEED_BITS bits of the root scale.  Each is
    lifted by one Newton step at each of the doubling precisions below the
    polish precision.  When the doubles do not decide (an iterate not
    finite, no convergence in SEED_STEPS sweeps, two seeds within SEED_GAP
    of the root scale: a close pair, or unpaired seeds off the real axis),
    mpmath.polyroots gives the starting values instead, to half the working
    precision, computing at workbits + 32 so that a close pair of roots
    stays apart.  Of a conjugate pair of double seeds only the upper one is
    lifted and polished, and its root is returned with its exact conjugate:
    with real coefficients, rounding to nearest commutes with conjugation,
    so the lower seed's Newton steps and residual would be the conjugates.

    Polish: Newton's method at workbits + 32 + log2(1/gap), gap the smallest
    distance between two seeds: a root of a pair that close is known to
    about 2^-precision / gap.  Horner runs on the exact integer
    coefficients.  Raises ValueError if Res(p, p') = 0, and ArithmeticError
    if the mpmath seeding fails, a Newton polish uses up its
    log2(workbits) + 6 steps before a step falls below 2^-workbits |z|, a
    residual is too large, or two polished roots coincide to within
    2^-(workbits/2) |z|.
    """
    if resultant(p.coeffs, p.derivative().coeffs) == 0:
        raise ValueError("polynomial is not squarefree")
    deg = p.degree
    if deg == 0:
        return []
    den = lcm(*(c.denominator for c in p.coeffs))
    cs = [int(c * den) for c in p.coeffs]  # ascending
    dcs = [i * c for i, c in enumerate(cs)][1:]

    def horner(coeffs, z):
        r = mp.mpc(0)
        for c in reversed(coeffs):
            r = r * z + c
        return r

    half = ctx.workbits // 2
    seeds, pairs = _double_seeds(cs) or (None, 0)
    lifted = seeds is not None
    if not lifted:
        # cleanup=False: a seed rounded onto the real axis would keep the
        # real Newton iteration there.  Durand-Kerner needs more than
        # mpmath's default 50 steps to separate a close pair of roots.
        try:
            with mp.workprec(half):
                seeds = mp.polyroots(cs[::-1], maxsteps=200, cleanup=False,
                                     extraprec=ctx.workbits + 32 - half)
        except NoConvergence as exc:
            raise ArithmeticError(f"root seeding did not converge: {exc}") from exc
    # a pair closer than 2^-half fails the coincidence check below anyway
    with mp.workprec(half):
        gap = min((abs(a - b) for i, a in enumerate(seeds) for b in seeds[i + 1:]),
                  default=1)
        extra = half if gap < mp.mpf(2) ** -half else max(0, ceil(-mp.log(gap, 2)))
    top = ctx.workbits + 32 + extra
    # the lift of a double seed: one Newton step at each of the precisions
    # top/2^k, ..., top/4, top/2 that are at least 2 SEED_BITS
    rungs, bits = [], (top + 1) // 2
    while lifted and bits >= 2 * SEED_BITS:
        rungs.append(bits)
        bits = (bits + 1) // 2
    with mp.workprec(top):
        target = mp.mpf(2) ** (-ctx.workbits)
        polished = []
        for z in seeds[:deg - pairs]:
            z = mp.mpc(z)
            for bits in reversed(rungs):
                with mp.workprec(bits):
                    z = z - horner(cs, z) / horner(dcs, z)
            for _ in range(int(mp.log(ctx.workbits, 2)) + 6):
                step = horner(cs, z) / horner(dcs, z)
                z = z - step
                if abs(step) < target * max(1, abs(z)):
                    break
            else:
                raise ArithmeticError(f"Newton polish did not converge near {z}")
            resid = abs(horner(cs, z))
            scale = abs(cs[-1]) * max(abs(z), 1) ** deg
            if resid > mp.mpf(2) ** (-ctx.prec) * scale:
                raise ArithmeticError(f"root residual too large: {resid}")
            polished.append(z)
        polished += [mp.conj(z) for z in polished[:pairs]]
        apart = mp.mpf(2) ** -half
        for i, zi in enumerate(polished):
            for zj in polished[i + 1:]:
                if abs(zi - zj) <= apart * max(1, abs(zi)):
                    raise ArithmeticError(
                        f"two roots coincide to {half} bits near {zi}")
        polished.sort(key=lambda z: (mp.re(z), mp.im(z)))
    with ctx.work():
        return [+z for z in polished]
