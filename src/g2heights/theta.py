"""Genus-2 theta constants with even characteristics, chi10, and the
archimedean height term.

theta_ab(0,Z) = sum_{n in Z^2} exp(i pi [(n+a)^T Z (n+a) + 2 (n+a)^T b]).

Characteristics are stored doubled (entries 0/1), so all exponent bookkeeping
stays integral until the final complex exponential.  Substituting m = 2n + 2a
turns the sum into
    sum_{m = 2a mod 2}  u^(m1^2) v^(m1 m2) w^(m2^2) i^(m1*2b1 + m2*2b2)
with u = e^(i pi z11/4), v = e^(i pi z12/2), w = e^(i pi z22/4).  The
lattice part is shared by all ten characteristics, so one pass fills the
sixteen (m1 mod 4, m2 mod 4) accumulators and every theta constant is a short
signed combination of those.  The pass covers the ellipsoid
pi m^T (Im Z) m / 4 <= R^2, with R from the tail bound of Deconinck, Heil,
Bobenko, van Hoeij and Schmies, "Computing Riemann theta functions", Math.
Comp. 73 (2004).  Since the lattice part is even in m, it walks only the half
lattice {m1 > 0} or {m1 = 0, m2 >= 0}, row by row, and credits each term to
the residue class of -m as well.

The walk runs on Python ints at the fixed scale 2^-W: a term is an int pair
(re, im), one step is t = (t g) >> W and g = (g w^2) >> W, and the powers of
i become swaps and negations.  Only the tables (powers of u, v and w), one
start term and two step factors per row are mpc values; each of the ten
constants becomes an mpc once, at the end.  A fixed-point error is absolute,
so each row is walked outward from its peak, the integer nearest
-Im z12 m1 / Im z22 (clamped to the row): every step factor then has modulus
at most 1, and an error carried along the row never grows.  W is the
floating sum precision, workbits + 2 log2(n) + 2 for chains of n rounded
products, plus e bits: with y = max(Im z11, Im z22, Im z11 + Im z22 -
2 |Im z12|), the leading terms of the THETA2 constants are at least
e^(-pi y / 4) > 2^-e in modulus, so those small constants keep the relative
precision of the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import to_fixed

from .prec import PrecisionContext


@dataclass(frozen=True)
class ThetaCharacteristic:
    # doubled entries: a = (a1/2, a2/2), b = (b1/2, b2/2), each in {0,1}
    a1: int
    a2: int
    b1: int
    b2: int

    def is_even(self) -> bool:
        return (self.a1 * self.b1 + self.a2 * self.b2) % 2 == 0


THETA1 = [ThetaCharacteristic(0, 0, 0, 0), ThetaCharacteristic(0, 0, 0, 1),
          ThetaCharacteristic(0, 0, 1, 0), ThetaCharacteristic(0, 0, 1, 1)]
THETA2 = [ThetaCharacteristic(1, 0, 0, 0), ThetaCharacteristic(0, 1, 0, 0),
          ThetaCharacteristic(1, 1, 0, 0), ThetaCharacteristic(0, 1, 1, 0),
          ThetaCharacteristic(1, 0, 0, 1), ThetaCharacteristic(1, 1, 1, 1)]
EVEN_CHARS = THETA1 + THETA2


class PeriodMatrix:
    """Symmetric 2x2 complex matrix with positive-definite imaginary part."""

    def __init__(self, z11, z12, z22):
        self.z11 = mp.mpc(z11)
        self.z12 = mp.mpc(z12)
        self.z22 = mp.mpc(z22)
        y11, y12, y22 = mp.im(self.z11), mp.im(self.z12), mp.im(self.z22)
        if not (y11 > 0 and y11 * y22 - y12 * y12 > 0):
            raise ValueError("Im Z is not positive definite")

    def im_entries(self):
        return mp.im(self.z11), mp.im(self.z12), mp.im(self.z22)

    def det_im(self):
        y11, y12, y22 = self.im_entries()
        return y11 * y22 - y12 * y12

    def lambda_min(self):
        """Smallest eigenvalue of Im Z."""
        y11, y12, y22 = self.im_entries()
        t = (y11 + y22) / 2
        d = mp.sqrt(((y11 - y22) / 2) ** 2 + y12 * y12)
        return t - d

    def entries(self):
        return self.z11, self.z12, self.z22

    def __repr__(self):
        return f"PeriodMatrix({self.z11}, {self.z12}, {self.z22})"


def _ellipsoid_rows(Z: PeriodMatrix, ctx: PrecisionContext):
    """R^2 and the rows (m1, lo, hi) of the half lattice {m1 > 0} or
    {m1 = 0, m2 >= 0} that lie in the ellipsoid pi m^T Y m / 4 <= R^2.

    R is the radius of Deconinck et al. (2004), Theorem 2, at genus 2: the
    terms outside it sum to at most (2/rho)^2 Gamma(1, (R - rho/2)^2)
    = (2/rho)^2 e^-(R - rho/2)^2, and R makes that 2^-(workbits + 16).  The
    theorem holds for any rho up to the shortest nonzero lattice vector, so
    rho^2 = pi lambda_min(Y) / 4 serves every positive-definite Y = Im Z.
    R - rho/2 is kept at least 1, above the theorem's hypothesis
    R >= (sqrt(2) + rho) / 2.
    """
    with ctx.work():
        _, y12, y22 = Z.im_entries()
        det = Z.det_im()
        rho = mp.sqrt(ctx.pi * Z.lambda_min() / 4)
        x = (ctx.workbits + 16) * ctx.log2 + 2 * mp.log(2 / rho)
        R = rho / 2 + mp.sqrt(max(x, 1))
        s = 4 * R * R / ctx.pi  # the ellipsoid is m^T Y m <= s
        rows = []
        for m1 in range(int(mp.sqrt(s * y22 / det)) + 1):
            c = -y12 * m1 / y22
            h = mp.sqrt(max((s - m1 * m1 * det / y22) / y22, 0))
            lo = 0 if m1 == 0 else int(mp.ceil(c - h))
            hi = int(mp.floor(c + h))
            if lo <= hi:
                rows.append((m1, lo, hi))
        return +(R * R), rows


def _power(z, k):
    """z^k for an int k >= 0 by repeated squaring; mpc ** k goes through
    exp and log once k times the precision passes 10^4 bits."""
    r = mp.mpc(1)
    while k:
        if k & 1:
            r *= z
        k >>= 1
        if k:
            z *= z
    return r


def _fixed(z, W):
    """The mpc z as an int pair (re, im) at scale 2^-W, rounded down."""
    return to_fixed(z.real._mpf_, W), to_fixed(z.imag._mpf_, W)


def theta_all(Z: PeriodMatrix, ctx: PrecisionContext):
    """All ten even theta constants in the fixed EVEN_CHARS order."""
    _, rows = _ellipsoid_rows(Z, ctx)
    K = max(max(-lo, hi) for _, lo, hi in rows)  # largest |m2|
    # Terms are built by chains of up to n = m1max + 4K rounded products
    # (the tables, then the walk along a row), whose errors add up to order
    # n^2 ulps, so the sum runs 2 log2(n) + 2 bits above workbits.  The walk
    # is in fixed point, where an error is absolute, so it keeps e more bits:
    # the leading term of each THETA2 constant is above 2^-e in modulus.
    n = rows[-1][0] + 4 * K
    prec = ctx.workbits + 2 * n.bit_length() + 2
    with mp.workprec(prec):
        y11, y12, y22 = Z.im_entries()
        e = int(mp.ceil(mp.pi * max(y11, y22, y11 + y22 - 2 * abs(y12))
                        / (4 * mp.ln2))) + 1
        W = prec + e
        u = mp.expjpi(Z.z11 / 4)
        v = mp.expjpi(Z.z12 / 2)
        w = mp.expjpi(Z.z22 / 4)
        w2 = w * w
        # wodd[K + k] = w^(2k+1) and wsq[k] = w^(k^2), for |k| <= K
        wodd = [w ** (1 - 2 * K)]
        for _ in range(2 * K):
            wodd.append(wodd[-1] * w2)
        wsq = [mp.mpc(1)]
        for k in range(K):
            wsq.append(wsq[-1] * wodd[K + k])
        # half_re[4 r1 + r2] + i half_im[4 r1 + r2] sums the half-lattice
        # terms with m = (r1, r2) mod 4, at scale 2^-W
        half_re, half_im = [0] * 16, [0] * 16
        qr, qi = _fixed(w2, W)
        urow, ustep, u2 = mp.mpc(1), u, u * u  # u^(m1^2), u^(2 m1 + 1)
        vm, vinv, vm_inv = mp.mpc(1), 1 / v, mp.mpc(1)  # v^m1, v^-1, v^-m1
        peak = -y12 / y22
        m1 = 0
        for r, lo, hi in rows:
            while m1 < r:
                urow *= ustep
                ustep *= u2
                vm *= v
                vm_inv *= vinv
                m1 += 1
            # t = u^(m1^2) v^(m1 m2) w^(m2^2) is largest at m2 = -y12 m1 / y22.
            # From the nearest integer p in [lo, hi], the step factors
            # t(m2 + 1) / t(m2) = v^m1 w^(2 m2 + 1) for m2 >= p and
            # t(m2 - 1) / t(m2) = v^-m1 w^(1 - 2 m2) for m2 <= p have modulus
            # at most 1, and each is multiplied by w^2 per step
            p = min(max(int(mp.nint(peak * m1)), lo), hi)
            vp = _power(vm if p > 0 else vm_inv, abs(p))  # v^(m1 p)
            tr, ti = _fixed(urow * wsq[abs(p)] * vp, W)
            base = 4 * (m1 & 3)
            k = base + (p & 3)
            half_re[k] += tr
            half_im[k] += ti
            for sgn, g, stop in ((1, vm * wodd[K + p], hi),
                                 (-1, vm_inv * wodd[K - p], lo)):
                ar, ai = tr, ti
                gr, gi = _fixed(g, W)
                for m2 in range(p + sgn, stop + sgn, sgn):
                    ar, ai = (ar * gr - ai * gi) >> W, (ar * gi + ai * gr) >> W
                    gr, gi = (gr * qr - gi * qi) >> W, (gr * qi + gi * qr) >> W
                    k = base + (m2 & 3)
                    half_re[k] += ar
                    half_im[k] += ai
    # the lattice part is even in m: each term also stands for -m, except
    # the origin, which is its own mirror
    acc = [(half_re[4 * r1 + r2] + half_re[4 * (-r1 % 4) + (-r2 % 4)],
            half_im[4 * r1 + r2] + half_im[4 * (-r1 % 4) + (-r2 % 4)])
           for r1 in range(4) for r2 in range(4)]
    acc[0] = (acc[0][0] - (1 << W), acc[0][1])
    out = []
    with ctx.work():
        for ch in EVEN_CHARS:
            sr = si = 0
            for r1 in range(ch.a1 % 2, 4, 2):
                for r2 in range(ch.a2 % 2, 4, 2):
                    # multiply by i^k: each power of i is a swap and a negation
                    ar, ai = acc[4 * r1 + r2]
                    k = (r1 * ch.b1 + r2 * ch.b2) % 4
                    if k & 1:
                        ar, ai = -ai, ar
                    if k & 2:
                        ar, ai = -ar, -ai
                    sr += ar
                    si += ai
            out.append(mp.mpc(mp.mpf((sr, -W)), mp.mpf((si, -W))))
    return out


def theta_constant(ch: ThetaCharacteristic, Z: PeriodMatrix, ctx: PrecisionContext):
    if not ch.is_even():
        raise ValueError("odd characteristic")
    vals = theta_all(Z, ctx)
    try:
        return vals[EVEN_CHARS.index(ch)]
    except ValueError:
        raise ValueError("characteristic not among the ten even ones") from None


def _chi10_from_thetas(vals):
    """chi10 = prod of theta^2 over the ten even theta constants vals; call
    at the working precision."""
    p = mp.mpc(1)
    for t in vals:
        p *= t * t
    return +p


def chi10(Z: PeriodMatrix, ctx: PrecisionContext):
    """chi10(Z) = prod over the ten even characteristics of theta^2."""
    with ctx.work():
        return _chi10_from_thetas(theta_all(Z, ctx))


# the five base characteristics for the Theta product, doubled [a1,a2,b1,b2]
_M_BASE = [(1, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 1, 1), (0, 0, 1, 1)]
_U_SET = frozenset({1, 3, 5})


def _sym_diff_char(T):
    idx = frozenset(T) ^ _U_SET
    q = [0, 0, 0, 0]
    for i in idx:
        m = _M_BASE[i - 1]
        q = [(a + b) % 2 for a, b in zip(q, m)]
    return ThetaCharacteristic(*q)


def theta_big(Z: PeriodMatrix, ctx: PrecisionContext):
    """Theta(Z) = prod over 3-subsets T of {1..5} of theta_{m_(T o {1,3,5})}^8;
    equals chi10(Z)^4."""
    from itertools import combinations
    with ctx.work():
        vals = theta_all(Z, ctx)
        p = mp.mpc(1)
        for T in combinations(range(1, 6), 3):
            ch = _sym_diff_char(T)
            t = vals[EVEN_CHARS.index(ch)]
            p *= t ** 8
        return +p


class Chi10NearZeroError(ArithmeticError):
    pass


def archimedean_term(Z: PeriodMatrix, ctx: PrecisionContext, bare: bool = False):
    """-(1/10) log(2^8 pi^10 |chi10(Z)| det(Im Z)^5).

    With bare=True the 2^8 pi^10 normalization is dropped (the raw invariant
    -(1/10) log(|chi10| det(Im Z)^5)).
    """
    return _arch_from_chi10(chi10(Z, ctx), Z, ctx, bare)


def _arch_from_chi10(c, Z: PeriodMatrix, ctx: PrecisionContext, bare: bool):
    """archimedean_term(Z, ctx, bare) given c = chi10(Z)."""
    with ctx.work():
        ac = abs(c)
        if ac < mp.mpf(2) ** (-ctx.prec):
            raise Chi10NearZeroError(
                "chi10 indistinguishable from 0: raise precision, or Z is on "
                "the product-of-elliptic-curves locus"
            )
        val = -(mp.log(ac) + 5 * mp.log(Z.det_im())) / 10
        if not bare:
            val -= (8 * ctx.log2 + 10 * mp.log(ctx.pi)) / 10
        return +val
