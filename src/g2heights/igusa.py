"""Igusa invariants of genus-2 Weierstrass equations y^2 + Qy = P over Q,
and the finite-place part of the height.

Invariants are taken of the sextic f = P + Q^2/4.  The Igusa-Clebsch
quadruple (I2, I4, I6, I10) comes from transvectants of f; the constants
below were solved for exactly against the symmetric-function definitions
(sums over pairings of root differences) on random split sextics:
    I2 = -120*(f,f)_6
    I4 = -720*A^2 + 6750*B,   B = (i,i)_4, i = (f,f)_4
    I6 = 8640*A^3 - 108000*A*B + 202500*C,   C = (i,(i,i)_2)_4
I10 is the binary-sextic discriminant a0^10 prod (r_i - r_j)^2, which
exact.disc_n takes as Res(F_x, F_y) on the integer form F the transvectants
use.

Normalisation (Liu, Math. Ann. 295, 1993): the J's are those of f itself,
with J10 = 2^-12 disc_6(f).  The discriminant that `discriminant` returns is
Delta_E = 2^20 J10 = 2^8 disc_6(f), the J10 of the sextic 4f.  The ratios
J_{2i}^5 / J10^i have weight 0, so the finite part does not see this factor.
For y^2 = x^5 - 1 it is why J10 = 5^5/2^12 while Delta_E = 2^8 5^5 = 800000.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

import mpmath as mp

from .exact import (IntPolynomial, binary_form, disc_n, is_prime, partials,
                    proven_not_prime, valuation)
from .prec import PrecisionContext


class SingularCurveError(ValueError):
    pass


class WeierstrassEquation:
    """y^2 + Q(x) y = P(x), deg P <= 6, deg Q <= 3, smooth of genus 2."""

    def __init__(self, P: IntPolynomial, Q: IntPolynomial):
        if P.degree > 6:
            raise ValueError("deg P > 6")
        if Q.degree > 3:
            raise ValueError("deg Q > 3")
        self.P = P
        self.Q = Q
        self.sextic = P + Q * Q.scale(Fraction(1, 4))  # f = P + Q^2/4
        if self.sextic.degree not in (5, 6):
            raise SingularCurveError("P + Q^2/4 must have degree 5 or 6")
        self.disc6 = disc_n(self.sextic, 6)  # disc_6(f)
        if self.disc6 == 0:
            raise SingularCurveError("vanishing discriminant")


@dataclass(frozen=True)
class IgusaInvariants:
    J2: Fraction
    J4: Fraction
    J6: Fraction
    J8: Fraction
    J10: Fraction

    def as_tuple(self):
        return (self.J2, self.J4, self.J6, self.J8, self.J10)

    def ratio(self, iota: int) -> Fraction | None:
        """J_{2 iota}^5 / J10^iota, of weight 0, for iota = 1, 3 or 4; None
        when J_{2 iota} = 0."""
        J = self.as_tuple()[iota - 1]
        return J ** 5 / self.J10 ** iota if J else None


@dataclass
class LocalContribution:
    p: int  # a prime, or a cofactor the ledger could not split
    iota: int
    ord_min_disc: int

    @property
    def height_term(self):
        """(ord_min_disc / 60) log p, at the ambient mpmath precision."""
        return mp.mpf(self.ord_min_disc) / 60 * mp.log(self.p)


# ---- binary sextic transvectants, exact ----------------------------------
# on the integer forms of exact.binary_form

def _transvectant(f, g, k):
    """The k-th transvectant of the forms f and g of orders m and n, times
    m! n! / ((m-k)! (n-k)!): sum_j (-1)^j C(k, j) times the product of
    d^(k-j)/dx d^j/dy f and d^j/dx d^(k-j)/dy g, on integers."""
    out = [0] * (len(f) + len(g) - 1 - 2 * k)
    for j in range(k + 1):
        w = (-1) ** j * comb(k, j)
        dg = partials(g, j, k - j)
        for s, u in enumerate(partials(f, k - j, j)):
            for t, v in enumerate(dg):
                out[s + t] += w * u * v
    return out


def _prefactor(m, n, k):
    """(m-k)! (n-k)! / (m! n!), the factor _transvectant leaves out."""
    return Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))


def _igusa_clebsch(sextic: IntPolynomial):
    """(I2, I4, I6) of the sextic; I10 is its discriminant disc_6.

    The transvectants run on the integer form F = d f, d the common
    denominator; each is bilinear, so every factorial prefactor and power of
    d enters once, as a Fraction, at the end."""
    F, d = binary_form(sextic, 6)
    i4 = _transvectant(F, F, 4)  # i = (f, f)_4 = p4 i4
    p4 = _prefactor(6, 6, 4) / d ** 2
    A = _prefactor(6, 6, 6) / d ** 2 * _transvectant(F, F, 6)[0]
    B = _prefactor(4, 4, 4) * p4 ** 2 * _transvectant(i4, i4, 4)[0]
    # C = (i, (i, i)_2)_4, and (i, i)_2 has order 4 like i
    C = (_prefactor(4, 4, 4) * _prefactor(4, 4, 2) * p4 ** 3
         * _transvectant(i4, _transvectant(i4, i4, 2), 4)[0])
    I2 = -120 * A
    I4 = -720 * A ** 2 + 6750 * B
    I6 = 8640 * A ** 3 - 108000 * A * B + 202500 * C
    return I2, I4, I6


def discriminant(eq: WeierstrassEquation) -> Fraction:
    """Delta_E = 2^8 disc_6(f) = 2^20 J10."""
    return eq.disc6 * 2 ** 8


def igusa_invariants(eq: WeierstrassEquation) -> IgusaInvariants:
    """Invariants of the sextic f = P + Q^2/4, exact; J10 = 2^-12 disc_6(f)."""
    I2, I4, I6 = _igusa_clebsch(eq.sextic)
    J2 = I2 / 8
    J4 = (4 * J2 ** 2 - I4) / 96
    J6 = (8 * J2 ** 3 - 160 * J2 * J4 - I6) / 576
    J8 = (J2 * J6 - J4 ** 2) / 4
    return IgusaInvariants(J2, J4, J6, J8, eq.disc6 / 4096)


def iota(p: int) -> int:
    """4, 3 or 1 as the prime p is 2, 3 or at least 5; p is rejected only
    when it is proven not prime."""
    if proven_not_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 4
    if p == 3:
        return 3
    return 1


def minimal_disc_order(inv: IgusaInvariants, p: int) -> int:
    """(1/iota) max{0, -ord_p(J10^-iota * J_{2iota}^5)}.

    Assumes good reduction of the jacobian at p (caller's hypothesis).
    """
    i = iota(p)
    r = inv.ratio(i)
    # r = 0 has |r|_p = 0, so log max{1, .} = 0
    m = max(0, -valuation(r, p)) if r is not None else 0
    if m % i != 0:
        raise ArithmeticError(
            f"non-integral minimal discriminant order at p={p}: {m}/{i}"
        )
    return m // i


def _rho(n: int) -> int:
    """A proper divisor of the composite n by Pollard-Brent rho, or 1 when
    none shows within about 2^19 steps."""
    for c in (1, 2, 3):
        y, r, g = 2, 1, 1
        while g == 1 and r <= 1 << 18:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g < n:
            return g
    return 1


def _factor_trial(n: int) -> Counter:
    """{p: e} with prod p^e = n > 0 by trial division below 1000, then
    Pollard-Brent rho; a composite that rho cannot split stays one key.
    Trial division stops early once d^2 > n: what is left is then 1 or a
    prime."""
    out = Counter()
    for d in range(2, 1000):
        if d * d > n:
            break
        while n % d == 0:
            n //= d
            out[d] += 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        g = 1 if is_prime(m) else _rho(m)
        if g == 1:
            out[m] += 1
        else:
            stack += [g, m // g]
    return out


def finite_height_part(inv: IgusaInvariants, ctx: PrecisionContext):
    """(1/60) sum_p (1/iota(p)) max{0, -ord_p(J10^-iota J_{2iota}^5)} log p,
    returned with the per-prime ledger.

    iota(p) = 1 for p >= 5, so those terms add up to log D, where D is the
    denominator of the ratio J2^5/J10 with its factors 2 and 3 removed (D = 1
    when J2 = 0): the total is one log of 2^a 3^b D, a and b the orders at
    2 and 3, and none when that is 1, and needs no factoring.  The ledger
    factors D only for display, and a cofactor it cannot split appears as
    one row; its terms are taken when read."""
    orders = {p: minimal_disc_order(inv, p) for p in (2, 3)}
    den = (inv.ratio(1) or 1).denominator
    fac = _factor_trial(den)
    D = den // (2 ** fac.pop(2, 0) * 3 ** fac.pop(3, 0))
    ledger = [LocalContribution(p=p, iota=iota(p) if p < 5 else 1, ord_min_disc=m)
              for p, m in sorted({**orders, **fac}.items()) if m]
    with ctx.work():
        n = 2 ** orders[2] * 3 ** orders[3] * D
        return (mp.log(n) / 60 if n > 1 else mp.mpf(0)), ledger
