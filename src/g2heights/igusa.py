"""Igusa invariants of genus-2 Weierstrass equations y^2 + Qy = P over Q,
and the finite-place part of the height.

Invariants are taken of the sextic f = P + Q^2/4, which WeierstrassEquation
builds once on integers: with P = P'/dP and Q = Q'/dQ held as int
numerators over their denominators, f = (4 dQ^2 P' + dP Q'^2) / (4 dP dQ^2),
and F = d f, d its least common denominator, is the one integer form that
the discriminant and the transvectants share.  The Igusa-Clebsch quadruple
(I2, I4, I6, I10) comes from transvectants of f; the constants below were
solved for exactly against the symmetric-function definitions (sums over
pairings of root differences) on random split sextics:
    I2 = -120*(f,f)_6
    I4 = -720*A^2 + 6750*B,   B = (i,i)_4, i = (f,f)_4
    I6 = 8640*A^3 - 108000*A*B + 202500*C,   C = (i,(i,i)_2)_4
I10 is the binary-sextic discriminant a0^10 prod (r_i - r_j)^2, which
exact.disc_n takes as Res(F_x, F_y) on F.

Normalisation (Liu, Math. Ann. 295, 1993): the J's are those of f itself,
with J10 = 2^-12 disc_6(f).  The discriminant that `discriminant` returns is
Delta_E = 2^20 J10 = 2^8 disc_6(f), the J10 of the sextic 4f.  The ratios
J_{2i}^5 / J10^i have weight 0, so the finite part does not see this factor.
For y^2 = x^5 - 1 it is why J10 = 5^5/2^12 while Delta_E = 2^8 5^5 = 800000.
The finite part reads each order ord_p(J_{2i}^5 / J10^i) as
5 ord_p(J_{2i}) - i ord_p(J10), from the J's numerators and denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb, prod

import mpmath as mp

from .exact import (IntPolynomial, binary_form, disc_n, factor, partials, proven_not_prime,
                    valuation)
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
        q2 = Q * Q
        # f = P + Q^2/4 = (4 dQ^2 P' + dP Q'^2) / (4 dP dQ^2) on the
        # numerators P' = dP P and Q' = dQ Q
        self.sextic = IntPolynomial(
            [4 * q2.den * a + P.den * b
             for a, b in zip_longest(P.num, q2.num, fillvalue=0)],
            den=4 * P.den * q2.den)
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
    d^(k-j)/dx d^j/dy f and d^j/dx d^(k-j)/dy g, on integers.  When g is f
    and k is even, the terms j and k - j are equal, so only j <= k/2 is
    formed, each j < k/2 twice."""
    out = [0] * (len(f) + len(g) - 1 - 2 * k)
    half = g is f and k % 2 == 0
    for j in range(k // 2 + 1 if half else k + 1):
        w = (-1) ** j * comb(k, j) * (2 if half and 2 * j < k else 1)
        dg = partials(g, j, k - j)
        for s, u in enumerate(partials(f, k - j, j)):
            wu = w * u
            for t, v in enumerate(dg):
                out[s + t] += wu * v
    return out


def discriminant(eq: WeierstrassEquation) -> Fraction:
    """Delta_E = 2^8 disc_6(f) = 2^20 J10."""
    return eq.disc6 * 2 ** 8


def igusa_invariants(eq: WeierstrassEquation) -> IgusaInvariants:
    """Invariants of the sextic f = P + Q^2/4, exact; J10 = 2^-12 disc_6(f).

    The transvectants run on the integer form F = d f, and each is bilinear:
    with a = (F,F)_6, i = (F,F)_4, b = (i,i)_4 and c = (i,(i,i)_2)_4, each
    as _transvectant returns it, times m! n! / ((m-k)! (n-k)!),
    A = a / (6!^2 d^2), B = b / (4!^2 (6!^2 / 2!^2)^2 d^4) and
    C = c / (4!^2 (4!^2 / 2!^2) (6!^2 / 2!^2)^3 d^6).  The I's above, put
    into J2 = I2/8, J4 = (4 J2^2 - I4)/96, J6 = (8 J2^3 - 160 J2 J4 - I6)/576
    and J8 = (J2 J6 - J4^2)/4, give the J's below, each one Fraction of an
    int numerator in a, b, c over an int times d^(2k)."""
    F, d = binary_form(eq.sextic, 6)
    i = _transvectant(F, F, 4)
    a = _transvectant(F, F, 6)[0]
    b = _transvectant(i, i, 4)[0]
    c = _transvectant(i, _transvectant(i, i, 2), 4)[0]
    u = d * d
    return IgusaInvariants(
        Fraction(-a, 34560 * u),
        Fraction(216 * a * a - 25 * b, 3439853568000 * u ** 2),
        Fraction((3888 * a * a - 1350 * b) * a - 125 * c, 64195923227443200000 * u ** 3),
        Fraction(((-202176 * a * a + 54000 * b) * a + 2000 * c) * a - 1875 * b * b,
                 141991110831387967488000000 * u ** 4),
        eq.disc6 / 4096)


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
    J = inv.as_tuple()[i - 1]
    # J = 0 has |J^5 / J10^i|_p = 0, so log max{1, .} = 0
    m = max(0, i * valuation(inv.J10, p) - 5 * valuation(J, p)) if J else 0
    if m % i != 0:
        raise ArithmeticError(
            f"non-integral minimal discriminant order at p={p}: {m}/{i}"
        )
    return m // i


def finite_height_part(inv: IgusaInvariants, ctx: PrecisionContext):
    """(1/60) sum_p (1/iota(p)) max{0, -ord_p(J10^-iota J_{2iota}^5)} log p,
    returned with the per-prime ledger.

    iota(p) = 1 for p >= 5, so there ord_min_disc is the order of p in the
    denominator of J2^5/J10, inv.ratio(1) (1 when J2 = 0).  The ledger
    factors that denominator, takes minimal_disc_order at 2 and 3, and
    shows a cofactor that factor cannot split as one row.  The total is one
    log of the product of p^ord_min_disc over the ledger, the same int
    however the denominator splits, and none when that is 1.  The ledger's
    terms are taken when read."""
    orders = {p: minimal_disc_order(inv, p) for p in (2, 3)}
    ratio = inv.ratio(1)
    fac = factor(ratio.denominator if ratio is not None else 1)
    ledger = [LocalContribution(p=p, iota=iota(p) if p < 5 else 1, ord_min_disc=m)
              for p, m in sorted({**fac, **orders}.items()) if m]
    with ctx.work():
        n = prod(c.p ** c.ord_min_disc for c in ledger)
        return (mp.log(n) / 60 if n > 1 else mp.mpf(0)), ledger
