"""Igusa invariants of genus-2 Weierstrass equations y^2 + Qy = P over Q,
and the finite-place part of the height.

Invariants are taken of the sextic f = P + Q^2/4.  The Igusa-Clebsch
quadruple (I2, I4, I6, I10) comes from transvectants of f; the constants
below were solved for exactly against the symmetric-function definitions
(sums over pairings of root differences) on random split sextics:
    I2 = -120*(f,f)_6
    I4 = -720*A^2 + 6750*B,   B = (i,i)_4, i = (f,f)_4
    I6 = 8640*A^3 - 108000*A*B + 202500*C,   C = (i,(i,i)_2)_4
I10 is the binary-sextic discriminant a0^10 prod (r_i - r_j)^2.

Normalisation: J10 = 2^-12 disc_6(P + Q^2/4).  The discriminant Delta_E =
2^-12 disc_6(4P + Q^2) that `discriminant` returns is Liu's J10; since
disc_6 has degree 10 in the coefficients, Delta_E = 2^20 J10.  The ratios
J_{2i}^5 / J10^i have weight 0, so the finite part does not see this factor.
For y^2 = x^5 - 1 it is why J10 = 5^5/2^12 while Delta_E = 2^8 5^5 = 800000.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

import mpmath as mp

from .exact import IntPolynomial, disc_n, is_prime, valuation
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
        f = P.scale(4) + Q * Q
        if f.degree not in (5, 6):
            raise SingularCurveError("4P + Q^2 must have degree 5 or 6")
        self.sextic4 = IntPolynomial(f.coeffs, 6)  # 4P + Q^2 as a binary sextic
        self.disc6 = disc_n(self.sextic4, 6)  # the I10 of 4P + Q^2
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


@dataclass
class LocalContribution:
    p: int  # a prime, or a cofactor the ledger could not split
    iota: int
    ord_min_disc: int
    height_term: object  # mpf


# ---- binary sextic transvectants, exact -----------------------------------

class _BF:
    # coeffs c[k] = coefficient of x^(n-k) y^k
    def __init__(self, coeffs, order):
        self.c = [Fraction(v) for v in coeffs]
        self.n = order

    def dx(self):
        return _BF([(self.n - k) * self.c[k] for k in range(self.n)], self.n - 1)

    def dy(self):
        return _BF([(k + 1) * self.c[k + 1] for k in range(self.n)], self.n - 1)

    def mul(self, other):
        n = self.n + other.n
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return _BF(out, n)


def _transvectant(f: _BF, g: _BF, k: int) -> _BF:
    m, n = f.n, g.n
    pre = Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    total = None
    for j in range(k + 1):
        df = f
        for _ in range(k - j):
            df = df.dx()
        for _ in range(j):
            df = df.dy()
        dg = g
        for _ in range(j):
            dg = dg.dx()
        for _ in range(k - j):
            dg = dg.dy()
        term = df.mul(dg)
        sgn = (-1) ** j * comb(k, j)
        tc = [sgn * v for v in term.c]
        total = tc if total is None else [a + b for a, b in zip(total, tc)]
    return _BF([pre * v for v in total], m + n - 2 * k)


def _igusa_clebsch(sextic: IntPolynomial):
    """(I2, I4, I6) of the sextic; I10 is its discriminant disc_6."""
    # sextic given lowest degree first; _BF wants x-descending
    cs = list(sextic.coeffs) + [Fraction(0)] * (7 - len(sextic.coeffs))
    f = _BF(list(reversed(cs)), 6)
    A = _transvectant(f, f, 6).c[0]
    i4 = _transvectant(f, f, 4)
    B = _transvectant(i4, i4, 4).c[0]
    D2 = _transvectant(i4, i4, 2)
    C = _transvectant(i4, D2, 4).c[0]
    I2 = -120 * A
    I4 = -720 * A ** 2 + 6750 * B
    I6 = 8640 * A ** 3 - 108000 * A * B + 202500 * C
    return I2, I4, I6


def discriminant(eq: WeierstrassEquation) -> Fraction:
    """Delta_E = 2^-12 disc_6(4P + Q^2)."""
    return eq.disc6 / 2 ** 12


def igusa_invariants(eq: WeierstrassEquation) -> IgusaInvariants:
    """Invariants of the sextic f = P + Q^2/4, exact.

    J10 = 2^-12 disc_6(f) = discriminant(eq) / 2^20.
    """
    I2, I4, I6 = _igusa_clebsch(eq.sextic4)
    J2 = I2 / 8
    J4 = (4 * J2 ** 2 - I4) / 96
    J6 = (8 * J2 ** 3 - 160 * J2 * J4 - I6) / 576
    J8 = (J2 * J6 - J4 ** 2) / 4
    J10 = eq.disc6 / 4096
    # 4P + Q^2 = 4f: J_{2k}(uf) = u^(2k) J_{2k}(f), so divide by 4^(2k)
    return IgusaInvariants(J2 / 4 ** 2, J4 / 4 ** 4, J6 / 4 ** 6,
                           J8 / 4 ** 8, J10 / 4 ** 10)


def iota(p: int) -> int:
    if not is_prime(p):
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
    Ji = {1: inv.J2, 3: inv.J6, 4: inv.J8}[i]
    if Ji == 0:
        # |J10^-iota * J_{2iota}^5|_p = 0, so log max{1, .} = 0
        return 0
    e = 5 * valuation(Ji, p) - i * valuation(inv.J10, p)
    m = max(0, -e)
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
    Pollard-Brent rho; a composite that rho cannot split stays one key."""
    out = Counter()
    for d in range(2, 1000):
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
    denominator of J2^5/J10 with its factors 2 and 3 removed (D = 1 when
    J2 = 0): the total needs no factoring.  The ledger factors D only for
    display, and a cofactor it cannot split appears as one row."""
    orders = {p: minimal_disc_order(inv, p) for p in (2, 3)}
    den = (inv.J2 ** 5 / inv.J10).denominator if inv.J2 else 1
    fac = _factor_trial(den)
    D = den // (2 ** fac.pop(2, 0) * 3 ** fac.pop(3, 0))
    with ctx.work():
        total = (orders[2] * mp.log(2) + orders[3] * mp.log(3) + mp.log(D)) / 60
        ledger = [LocalContribution(p=p, iota=iota(p) if p < 5 else 1,
                                    ord_min_disc=m,
                                    height_term=mp.mpf(m) / 60 * mp.log(p))
                  for p, m in sorted({**orders, **fac}.items()) if m]
        return +total, ledger
