"""Period matrices of CM abelian surfaces over a real quadratic field F,
cusp distances, and the numeric norm identity check.

The period matrix for CM type (tau1, tau2) and discriminant D is
    Z = (1/D) [[tau1 + tau2,              -tau1 th' - tau2 th],
               [-tau1 th' - tau2 th,  tau1 th'^2 + tau2 th^2]]
with th = (D + sqrt D)/2, th' = (D - sqrt D)/2.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .exact import IntPolynomial, QuadElement, QuadModule, module_norm
from .prec import PrecisionContext, poly_roots
from .theta import PeriodMatrix


class TauSelectionError(ValueError):
    pass


def select_tau(spec, ctx: PrecisionContext):
    """Resolve a tau specification to the two upper-half-plane values.

    spec: either an IntPolynomial (integer quartic with exactly two roots in
    the upper half plane) or an explicit pair of complex values.  Canonical
    order is ascending real part, ties broken by imaginary part; real parts
    within 2^-(prec/2) count as tied, so root-finder noise cannot decide the
    order.  The local height does not depend on the order.
    """
    with ctx.work():
        if isinstance(spec, IntPolynomial):
            if spec.degree != 4:
                raise TauSelectionError("tau polynomial must be an exact quartic")
            roots = poly_roots(spec, ctx)
            upper = [r for r in roots if mp.im(r) > 0]
            if len(upper) != 2:
                raise TauSelectionError(
                    f"expected exactly 2 upper-half-plane roots, got {len(upper)}"
                )
            gap = abs(mp.re(upper[0]) - mp.re(upper[1]))
            tied = gap <= mp.mpf(2) ** (-(ctx.prec // 2))
            t1, t2 = sorted(upper, key=mp.im if tied else mp.re)
        else:
            t1, t2 = (mp.mpc(spec[0]), mp.mpc(spec[1]))
            if not (mp.im(t1) > 0 and mp.im(t2) > 0):
                raise TauSelectionError("explicit tau values must lie in H")
        return t1, t2


def period_matrix(tau1, tau2, delta: int, ctx: PrecisionContext) -> PeriodMatrix:
    if delta <= 0:
        raise ValueError("delta must be positive")
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


def _quad_mul(x: QuadElement, y: QuadElement) -> QuadElement:
    D = x.delta
    u = x.u * y.u + x.v * y.v * D
    v = x.u * y.v + x.v * y.u
    return QuadElement(u, v, x.w * y.w, D)


def _div_sqrt(x: QuadElement) -> QuadElement:
    # (u + v sqrt D)/(w sqrt D) = (v D + u sqrt D)/(w D)
    return QuadElement(x.v * x.delta, x.u, x.w * x.delta, x.delta)


def cusp_mu(alpha: QuadElement, beta: QuadElement, taus, delta: int,
            ctx: PrecisionContext):
    """mu(eta, tau) = N(alpha O_F + beta d^-1)^2 prod_l Im tau_l
    / prod_l |phi_l(alpha) - phi_l(beta) tau_l|^2, with d the different."""
    if alpha.is_zero() and beta.is_zero():
        raise ValueError("(alpha, beta) must be nonzero")
    theta = QuadElement(delta, 1, 2, delta)  # (D + sqrt D)/2
    gens = []
    for g in (alpha, _div_sqrt(beta) if not beta.is_zero() else beta):
        if not g.is_zero():
            gens.append(g)
            gens.append(_quad_mul(g, theta))
    n = module_norm(QuadModule(gens, delta))
    with ctx.work():
        sd = mp.sqrt(delta)
        num = mp.mpf(n.numerator) / n.denominator
        num = num * num
        for t in taus:
            num *= mp.im(mp.mpc(t))
        den = mp.mpf(1)
        for t, s in zip(taus, (sd, -sd)):
            d = alpha.embed(s) - beta.embed(s) * mp.mpc(t)
            a2 = mp.re(d) ** 2 + mp.im(d) ** 2
            if a2 == 0:
                raise ZeroDivisionError(
                    "boundary degeneracy: tau equals a real ratio alpha/beta"
                )
            den *= a2
        return +(num / den)


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
