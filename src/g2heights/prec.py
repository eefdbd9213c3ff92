"""High-precision kernel: precision contexts, log-Gamma on (0,1], and
complex polynomial roots.

mpmath supplies the big-float substrate (mpf/mpc arithmetic, exp, log, pi),
the Bernoulli numbers (mpmath.bernfrac) and the starting values of the roots
(mpmath.polyroots).  log_gamma, the Newton polish of the roots, their
residual check and the check that no two roots coincide are implemented
here so their error behaviour is under our control.

log_gamma is the Stirling series at z = x + N.  Its callers halve the work
by the reflection log Gamma(1-x) = log pi - log sin(pi x) - log Gamma(x)
(colmez.colmez_height evaluates only m/f < 1/2).  The shift back from z to x
is one log of one product, which for x = m/f is the exact integer
prod_{j<N} (m + j f) over f^N.  The shift N and the term count K are planned
once per working precision so that the first omitted term, which for real
z > 0 bounds the remainder, is below 2^-(workbits+16).
"""

from __future__ import annotations

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
    """log Gamma(x) for real x in (0, 1], given as a Fraction or an mpf.

    Shift: Gamma(x) = Gamma(z) / (x (x+1) ... (x+N-1)) with z = x + N, and
    the shift costs one log of one product.  For x = m/f that product is
    the exact integer prod_j (m + j f) over f^N; for an mpf x it is an mpf
    product at workbits + 16.

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
    with mp.workprec(ctx.workbits + SERIES_BITS):
        exact = isinstance(x, (int, Fraction))
        x = Fraction(x) if exact else mp.mpf(x)
        if not (0 < x <= 1):
            raise ValueError("log_gamma requires x in (0, 1]")
        if x == 1:
            return mp.mpf(0)
        if exact:
            m, f = x.numerator, x.denominator
            prod = 1
            for j in range(N):
                prod *= m + j * f
            log_shift = mp.log(mp.mpf(prod) / mp.mpf(f ** N))
            z = mp.mpf(m + N * f) / f
        else:
            prod = x
            for j in range(1, N):
                prod *= x + j
            log_shift = mp.log(prod)
            z = x + N
        w = 1 / (z * z)
        series = mp.mpf(0)
        for c in reversed(plan.coeffs):
            series = series * w + c
        s = (z - mp.mpf(1) / 2) * mp.log(z) - z + plan.half_log_2pi + series / z
        s -= log_shift
    with ctx.work():
        return +s


def poly_roots(p: IntPolynomial, ctx: PrecisionContext):
    """All complex roots of a squarefree polynomial, sorted by (Re, Im).

    mpmath.polyroots gives starting values to half the working precision,
    computing at workbits + 32 so that a close pair of roots stays apart;
    Newton's method then polishes each one.  Horner runs on the exact
    integer coefficients, and the polish at workbits + 32 + log2(1/gap),
    gap the smallest distance between two seeds: a root of a pair that
    close is known to about 2^-precision / gap.  Raises ValueError if
    Res(p, p') = 0, and ArithmeticError if the seeding fails, a Newton
    polish uses up its log2(workbits) + 6 steps before a step falls below
    2^-workbits |z|, a residual is too large, or two polished roots
    coincide to within 2^-(workbits/2) |z|.
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

    # cleanup=False: a seed rounded onto the real axis would keep the
    # real Newton iteration there.  Durand-Kerner needs more than
    # mpmath's default 50 steps to separate a close pair of roots.
    half = ctx.workbits // 2
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
    with mp.workprec(ctx.workbits + 32 + extra):
        target = mp.mpf(2) ** (-ctx.workbits)
        polished = []
        for z in seeds:
            z = mp.mpc(z)
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
        apart = mp.mpf(2) ** -half
        for i, zi in enumerate(polished):
            for zj in polished[i + 1:]:
                if abs(zi - zj) <= apart * max(1, abs(zi)):
                    raise ArithmeticError(
                        f"two roots coincide to {half} bits near {zi}")
        polished.sort(key=lambda z: (mp.re(z), mp.im(z)))
    with ctx.work():
        return [+z for z in polished]
