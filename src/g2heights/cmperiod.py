"""Period matrices of CM abelian surfaces over a real quadratic field F,
and the numeric norm identity check.

The period matrix for CM type (tau1, tau2) and D = delta_F, the
discriminant of F and the conductor of chi^2 (a job does not state it), is
    Z = (1/D) [[tau1 + tau2,              -tau1 th' - tau2 th],
               [-tau1 th' - tau2 th,  tau1 th'^2 + tau2 th^2]]
with th = (D + sqrt D)/2, th' = (D - sqrt D)/2.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath as mp

from .exact import IntPolynomial
from .prec import PrecisionContext, poly_roots
from .theta import PeriodMatrix


def select_tau(poly: IntPolynomial, ctx: PrecisionContext):
    """The two upper-half-plane roots of a CM quartic (the CM type), whose
    roots are two conjugate pairs.  Canonical order is ascending real part,
    ties broken by imaginary part; poly_roots decides it exactly, from the
    split of the quartic over F.  The local height does not depend on the
    order.  poly_roots rejects any polynomial but such a quartic.
    """
    return tuple(r for r in poly_roots(poly, ctx) if mp.im(r) > 0)


def period_matrix(tau1, tau2, delta: int, ctx: PrecisionContext) -> PeriodMatrix:
    if delta <= 0 or delta % 4 not in (0, 1) or isqrt(delta) ** 2 == delta:
        raise ValueError(f"delta_F = {delta} is not a real quadratic "
                         "discriminant (positive, 0 or 1 mod 4, and not a square)")
    with ctx.work():
        tau1, tau2 = mp.mpc(tau1), mp.mpc(tau2)
        if not (mp.im(tau1) > 0 and mp.im(tau2) > 0):
            raise ValueError("tau values must lie in the upper half plane")
        sd = mp.sqrt(delta)
        th = (delta + sd) / 2
        thp = (delta - sd) / 2
        z11 = (tau1 + tau2) / delta
        z12 = (-tau1 * thp - tau2 * th) / delta
        z22 = (tau1 * thp ** 2 + tau2 * th ** 2) / delta
        return PeriodMatrix(z11, z12, z22)  # raises if Im Z not pos. def.


def check_lemma_easy(norm_omega1, im_taus, ideal_norm: Fraction, delta_K: int,
                     ctx: PrecisionContext):
    """Residual |2^2 N(omega1) prod Im tau - N(A) sqrt(Delta_K)|."""
    with ctx.work():
        lhs = 4 * mp.mpf(norm_omega1)
        for t in im_taus:
            lhs *= mp.mpf(t)
        ideal_norm = Fraction(ideal_norm)
        rhs = (mp.mpf(ideal_norm.numerator) / ideal_norm.denominator
               * mp.sqrt(delta_K))
        return +abs(lhs - rhs)
