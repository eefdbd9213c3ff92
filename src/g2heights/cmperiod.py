"""Period matrices of CM abelian surfaces over a real quadratic field F,
and the exact test that the order of their lattice is O_K.

The period matrix for CM type (tau1, tau2) and D = delta_F, the
discriminant of F and the conductor of chi^2 (a job does not state it), is
    Z = (1/D) [[tau1 + tau2,              -tau1 th' - tau2 th],
               [-tau1 th' - tau2 th,  tau1 th'^2 + tau2 th^2]]
with th = (D + sqrt D)/2, th' = (D - sqrt D)/2.
"""

from __future__ import annotations

from math import gcd, isqrt

import mpmath as mp

from .exact import IntPolynomial, quartic_split
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


def check_order(poly: IntPolynomial, f_K: int, delta: int) -> int:
    """N(c) when the order of tau_poly's period lattice over F = Q(sqrt D),
    D = delta, is O_K, of discriminant Delta_K = f_K^2 D; else ValueError.
    Z = E diag(tau1, tau2) E^T, E the embeddings of the basis
    (1/sqrt D, (1 - sqrt D)/2) of the inverse different, so Z's lattice is
    O_F + O_F t, t = tau/sqrt D.  By exact.quartic_split, t has trace
    T/(c4 sqrt D) and norm N/(c4^2 D) over F, and (t - t')^2 = -w/(c4^2 D).
    Its order O_F + c t, c = {x in O_F : x tr t, x n t in O_F}, has
    discriminant N(c)^2 pi / c4^4, and is O_K exactly when that is Delta_K:
    the paper's lemma 2^2 N(omega1) Im tau1 Im tau2 = N(A) sqrt(Delta_K),
    squared, as 16 (Im tau1 Im tau2)^2 = pi / c4^4.  It holds on every
    Hilbert modular image of tau; it does not prove that Q(tau) is chi's.

    T and N lie in F when 4 dT = D rT^2 and 4 dN = D rN^2.  Then m tr t and
    m n t, m = 4 D c4^2, are u + v sqrt D, (u, v) = (-c4 D rT, -2 c4 a3) and
    (2 s, d rN), and 1 and th = (D + sqrt D)/2 take them to (u - v D, 2 v)
    and (v D (1 - D)/2, u + v D) on O_F's basis (1, th).  c is the kernel mod
    m of that 2 x 4 int matrix, of index prod m / gcd(m, s_i) = m^2 / gcd(m^2,
    m s1, s1 s2) over its Smith invariants s1 | s2: s1 is the gcd of its
    entries, s1 s2 that of its 2 x 2 minors.
    """
    c4, a3, s, dT, dN, _, pi, d = quartic_split(poly)
    fit, disc_K = f"tau_poly does not fit f_K = {f_K}:", f_K ** 2 * delta
    rT, rN = isqrt(4 * dT // delta), isqrt(4 * dN // delta)
    if 4 * dT != delta * rT * rT or 4 * dN != delta * rN * rN:
        raise ValueError(f"{fit} its real subfield is not Q(sqrt {delta}): 4 dT = "
                         f"{4 * dT} and 4 dN = {4 * dN} are not both {delta} times squares")
    a, b, m = [], [], 4 * delta * c4 * c4
    for u, v in ((-c4 * delta * rT, -2 * c4 * a3), (2 * s, d * rN)):
        a += [u - v * delta, 2 * v]
        b += [v * delta * (1 - delta) // 2, u + v * delta]
    minors = (a[i] * b[j] - a[j] * b[i] for j in range(4) for i in range(j))
    n = m * m // gcd(m * m, m * gcd(*a, *b), *minors)
    if n * n * pi != disc_K * c4 ** 4:
        raise ValueError(f"{fit} N(c)^2 pi = {n}^2 * {pi} is not "
                         f"Delta_K c4^4 = {disc_K} * {c4}^4")
    return n
