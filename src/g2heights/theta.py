"""Genus-2 theta constants with even characteristics, chi10, and the
archimedean height term.

theta[a;b](Z) = sum_{n in Z^2} exp(i pi [(n+a)^T Z (n+a) + 2 (n+a)^T b]).

Characteristics are stored doubled (entries 0/1).  chi10, Theta, the
archimedean term and the lemma checks need only the squares, and the
duplication formula (Dupont, thesis, Ecole polytechnique 2006; Labrande and
Thome, ANTS XII 2016)
    theta[a;b](Z)^2 = sum_{c in {0,1}^2} (-1)^(b.c) T_c T_(c+a),
    T_c = theta[c;0](2Z) = sum_{m = c mod 2} u^(m1^2) v^(m1 m2) w^(m2^2),
with u = e^(i pi z11/2), v = e^(i pi z12), w = e^(i pi z22/2), gives all ten
from four second-order constants.  Those are one lattice sum split by
(m1 mod 2, m2 mod 2).  Its terms are exp(-pi m^T Y m / 2) in modulus,
Y = Im Z, where a direct sum over m = 2n + 2a has exp(-pi m^T Y m / 4), so
its ellipsoid holds half the lattice points.  The lattice part is even in m
and -m = m mod 2, so the walk covers the half lattice {m1 > 0} or
{m1 = 0, m2 >= 0}, row by row, and doubles each class at the end (the origin
is its own mirror).  The ellipsoid is pi m^T (Im 2Z) m / 4 <= R^2, with R from
the tail bound of Deconinck, Heil, Bobenko, van Hoeij and Schmies,
"Computing Riemann theta functions", Math. Comp. 73 (2004), run on 2Z.

The walk runs on Python ints at the fixed scale 2^-W: a term is an int pair
(re, im), and one step is t = (t g) >> W and g = (g w^2) >> W.  Only the
tables (powers of u, v and w), one start term and two step factors per row
are mpc values.  A fixed-point error is absolute, so each row is walked
outward from its peak, the integer nearest -Im z12 m1 / Im z22 (clamped to
the row): every step factor then has modulus at most 1, and an error
carried along the row never grows.

Error argument.  Let e = ceil(pi y / (4 log 2)) + 1 with y = max(y11, y22,
y11 + y22 - 2 |y12|) taken on Im 2Z = 2Y: the leading term of each T_c,
c != 0, is at least e^(-pi y / 4) > 2^-e in modulus, and so is the leading
term 2 T_0 T_a of each square with a != 0 (the squares with a = 0 are near
T_0^2, about 1).  The tail target and the scale both go down by e, so that
every square keeps workbits bits relative to its own size:
  - R makes the terms outside the ellipsoid sum to less than
    2^-(workbits + 16 + e);
  - W = workbits + 2 log2(n) + 2 + e for chains of at most n rounded
    products (the tables, then the walk along a row), whose errors add up to
    order n^2 units of 2^-W, so each T_c is within about 2^-(workbits + e);
  - each square is a sum of four products of two such sums, formed exactly
    in ints at the scale 2^-2W and rounded once to working precision, so its
    error is a few times 2^-(workbits + e), about 2^-workbits relative to a
    square above 2^-e.

The signed constants (theta_all) are square roots of the squares.  The sign
of each root is the one with Re(root conj L) > 0, where L sums the terms of
theta[a;b](Z) with |n_i| <= 4 in complex doubles, scaled by their largest
term so that nothing underflows.  The cosine of the angle between the root
and L must be above 1/2 in modulus, or ArithmeticError is raised: a sign is
never guessed.  theta_squares returns 0 for a square below
2^-(workbits + e - 8), which is within 2^8 times its error bound of 0, and
its root is 0: near a zero, the root of a square is known only to about
2^-(workbits + e)/2.
"""

from __future__ import annotations

import cmath
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
    """R^2, e and the rows (m1, lo, hi) of the half lattice {m1 > 0} or
    {m1 = 0, m2 >= 0} that lie in the ellipsoid pi m^T (Im 2Z) m / 4 <= R^2,
    the walk of theta_squares.

    e is the leading-term exponent of 2Z (see the module docstring).  R is
    the radius of Deconinck et al. (2004), Theorem 2, at genus 2 on 2Z: the
    terms outside it sum to at most (2/rho)^2 Gamma(1, (R - rho/2)^2)
    = (2/rho)^2 e^-(R - rho/2)^2, and R makes that 2^-(workbits + 16 + e).
    The theorem holds for any rho up to the shortest nonzero lattice vector,
    so rho^2 = pi lambda_min(Im 2Z) / 4 serves every positive-definite Y.
    R - rho/2 is kept at least 1, above the theorem's hypothesis
    R >= (sqrt(2) + rho) / 2.
    """
    with ctx.work():
        y11, y12, y22 = (2 * y for y in Z.im_entries())
        det = 4 * Z.det_im()
        e = int(mp.ceil(ctx.pi * max(y11, y22, y11 + y22 - 2 * abs(y12))
                        / (4 * ctx.log2))) + 1
        rho = mp.sqrt(ctx.pi * Z.lambda_min() / 2)  # lambda_min(Im 2Z) = 2 lambda_min(Y)
        x = (ctx.workbits + 16 + e) * ctx.log2 + 2 * mp.log(2 / rho)
        R = rho / 2 + mp.sqrt(max(x, 1))
        s = 4 * R * R / ctx.pi  # the ellipsoid is m^T (Im 2Z) m <= s
        rows = []
        for m1 in range(int(mp.sqrt(s * y22 / det)) + 1):
            c = -y12 * m1 / y22
            h = mp.sqrt(max((s - m1 * m1 * det / y22) / y22, 0))
            lo = 0 if m1 == 0 else int(mp.ceil(c - h))
            hi = int(mp.floor(c + h))
            if lo <= hi:
                rows.append((m1, lo, hi))
        return +(R * R), e, rows


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


def theta_squares(Z: PeriodMatrix, ctx: PrecisionContext):
    """The ten theta[a;b](Z)^2 in the fixed EVEN_CHARS order, from the four
    theta[c;0](2Z) of one walk (see the module docstring)."""
    _, e, rows = _ellipsoid_rows(Z, ctx)
    K = max(max(-lo, hi) for _, lo, hi in rows)  # largest |m2|
    n = rows[-1][0] + 4 * K
    prec = ctx.workbits + 2 * n.bit_length() + 2
    W = prec + e
    with mp.workprec(prec):
        _, y12, y22 = Z.im_entries()
        u = mp.expjpi(Z.z11 / 2)
        v = mp.expjpi(Z.z12)
        w = mp.expjpi(Z.z22 / 2)
        w2 = w * w
        # wodd[K + k] = w^(2k+1) and wsq[k] = w^(k^2), for |k| <= K
        wodd = [w ** (1 - 2 * K)]
        for _ in range(2 * K):
            wodd.append(wodd[-1] * w2)
        wsq = [mp.mpc(1)]
        for k in range(K):
            wsq.append(wsq[-1] * wodd[K + k])
        # half_re[2 c1 + c2] + i half_im[2 c1 + c2] sums the half-lattice
        # terms with m = (c1, c2) mod 2, at scale 2^-W
        half_re, half_im = [0] * 4, [0] * 4
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
            base = 2 * (m1 & 1)
            half_re[base + (p & 1)] += tr
            half_im[base + (p & 1)] += ti
            for sgn, g, stop in ((1, vm * wodd[K + p], hi),
                                 (-1, vm_inv * wodd[K - p], lo)):
                ar, ai = tr, ti
                gr, gi = _fixed(g, W)
                for m2 in range(p + sgn, stop + sgn, sgn):
                    ar, ai = (ar * gr - ai * gi) >> W, (ar * gi + ai * gr) >> W
                    gr, gi = (gr * qr - gi * qi) >> W, (gr * qi + gi * qr) >> W
                    k = base + (m2 & 1)
                    half_re[k] += ar
                    half_im[k] += ai
    # theta[c;0](2Z): each half-lattice term also stands for -m, in the same
    # class mod 2, except the origin, which is its own mirror
    th = [(2 * re, 2 * im) for re, im in zip(half_re, half_im)]
    th[0] = (th[0][0] - (1 << W), th[0][1])
    out = []
    with ctx.work():
        for ch in EVEN_CHARS:
            sr = si = 0
            for c1 in range(2):
                for c2 in range(2):
                    (ar, ai), (br, bi) = th[2 * c1 + c2], th[2 * (c1 ^ ch.a1) + (c2 ^ ch.a2)]
                    pr, pi = ar * br - ai * bi, ar * bi + ai * br
                    if (c1 * ch.b1 + c2 * ch.b2) & 1:
                        pr, pi = -pr, -pi
                    sr += pr
                    si += pi
            # a square within 2^8 times its error bound of 0 is 0
            if max(abs(sr), abs(si)) >> (2 * W - ctx.workbits - e + 8) == 0:
                sr = si = 0
            out.append(mp.mpc(mp.mpf((sr, -2 * W)), mp.mpf((si, -2 * W))))
    return out


def _box_leading(ch: ThetaCharacteristic, z11, z12, z22):
    """The sum of the terms of theta[ch](Z) with |n_i| <= 4 on complex
    doubles, divided by the modulus of the largest of them."""
    xs = []
    for n1 in range(-4, 5):
        x1 = n1 + ch.a1 / 2
        for n2 in range(-4, 5):
            x2 = n2 + ch.a2 / 2
            xs.append(1j * cmath.pi * (x1 * x1 * z11 + 2 * x1 * x2 * z12 + x2 * x2 * z22
                                       + x1 * ch.b1 + x2 * ch.b2))
    top = max(x.real for x in xs)
    return sum(cmath.exp(x - top) for x in xs)


def _signed_roots(Z: PeriodMatrix, squares, ctx: PrecisionContext):
    """The ten theta[a;b](Z) from their squares, each sign chosen by the
    double-precision box sum L and checked (see the module docstring)."""
    z11, z12, z22 = (complex(z) for z in Z.entries())
    out = []
    with ctx.work():
        for ch, sq in zip(EVEN_CHARS, squares):
            if not sq:
                out.append(sq)
                continue
            L = _box_leading(ch, z11, z12, z22)
            r = mp.sqrt(sq)
            cos = (complex(r / abs(r)) * L.conjugate()).real / abs(L)
            if not abs(cos) > 0.5:
                raise ArithmeticError(
                    f"theta[{ch.a1}{ch.a2};{ch.b1}{ch.b2}]: the sign of the root is "
                    f"not decided by the leading terms (cosine {cos:.3g})")
            out.append(r if cos > 0 else -r)
    return out


def theta_all(Z: PeriodMatrix, ctx: PrecisionContext):
    """All ten even theta constants in the fixed EVEN_CHARS order: the
    signed square roots of theta_squares."""
    return _signed_roots(Z, theta_squares(Z, ctx), ctx)


def _chi10_from_squares(squares):
    """chi10 = prod of the ten squared even theta constants; call at the
    working precision."""
    p = mp.mpc(1)
    for s in squares:
        p *= s
    return +p


def chi10(Z: PeriodMatrix, ctx: PrecisionContext):
    """chi10(Z) = prod over the ten even characteristics of theta^2."""
    with ctx.work():
        return _chi10_from_squares(theta_squares(Z, ctx))


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
        squares = theta_squares(Z, ctx)
        p = mp.mpc(1)
        for T in combinations(range(1, 6), 3):
            ch = _sym_diff_char(T)
            p *= squares[EVEN_CHARS.index(ch)] ** 4
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
