"""Exact rational arithmetic: proven primality, p-adic valuations,
polynomials and binary forms.

Everything in this module is exact; no floating point enters.  Rationals are
Python ``fractions.Fraction`` (always stored reduced), integers are unbounded.
An IntPolynomial holds int numerators over one least common denominator; its
constructor is the one place where a polynomial's coefficients become
integers.  Binary forms live here alone: binary_form pads and reverses those
numerators, partials differentiates a form, resultant is its Sylvester
determinant, and the discriminant is Res(F_x, F_y) on the same form.
is_prime says True only where Miller-Rabin is a proof, below PSI13;
valuation rejects p only when proven_not_prime finds a factor or a witness.
factor is the one integer factorizer, for the finite part's ledger and the
primes of a character's modulus: trial division, then Pollard-Brent rho.
quartic_split factors a CM quartic into two real quadratics, in integers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm, perm
from typing import Sequence


# psi_13 (OEIS A014233): the least strong pseudoprime to all thirteen prime
# bases 2..41, 1287836182261 * 2575672364521
PSI13 = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def proven_not_prime(n: int) -> bool:
    """Whether n is proven not to be prime: n < 2, a factor among the
    thirteen prime bases 2..41, or a Miller-Rabin witness among them."""
    if n < 2:
        return True
    for p in _MR_BASES:
        if n % p == 0:
            return n != p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is proven prime.  Miller-Rabin to the thirteen prime bases
    2..41 is a proof below PSI13, the least strong pseudoprime to all of
    them; at or above PSI13 no proof is made, and the answer is False."""
    return n < PSI13 and not proven_not_prime(n)


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


def factor(n: int) -> Counter:
    """{p: e} with prod p^e = n > 0 by trial division below 1000, then
    Pollard-Brent rho; a composite that rho cannot split stays one key.
    Trial division stops at the first d with d^2 > n, or after d = 999.  No
    prime below d, nor d = 999 itself, then divides what is left, so a
    factor of it below (d + 1)^2 is a prime, taken with no primality test."""
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
        g = 1 if m < (d + 1) ** 2 or is_prime(m) else _rho(m)
        if g == 1:
            out[m] += 1
        else:
            stack += [g, m // g]
    return out


def valuation(x: Fraction | int, p: int) -> int:
    """ord_p(x) for a nonzero rational x and a prime p.  p is rejected only
    when it is proven not prime, so a prime at or above PSI13 is taken."""
    if proven_not_prime(p):
        raise ValueError(f"{p} is not prime")
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class IntPolynomial:
    """Polynomial with rational coefficients, lowest degree first: the int
    numerators num over one least common denominator den > 0, so that the
    coefficient of x^k is num[k] / den.

    The constructor takes ints as they are and any other coefficient (a
    Fraction, or a string that Fraction reads) through Fraction, all over
    den; it is the one place where a polynomial's coefficients become
    integers.
    """

    def __init__(self, coeffs: Sequence[Fraction | int | str], *, den: int = 1):
        cs = [c if type(c) is int else Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        num = [c.numerator * (d // c.denominator) for c in cs]
        d *= den
        g = gcd(d, *num)
        if g > 1:
            num, d = [n // g for n in num], d // g
        while len(num) > 1 and num[-1] == 0:
            num.pop()
        self.num, self.den = num, d

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            for j, b in enumerate(other.num):
                out[i + j] += a * b
        return IntPolynomial(out, den=self.den * other.den)


# ---- binary forms, on integers --------------------------------------------
# A binary form of order n is the list c of its integer coefficients,
# c[k] that of x^(n-k) y^k.

def binary_form(p: IntPolynomial, n: int) -> tuple[list[int], int]:
    """(F, d): p, of degree at most n, homogenized to order n over its
    denominator d, F = d p: p's numerators padded and reversed."""
    return [0] * (n + 1 - len(p.num)) + p.num[::-1], p.den


def partials(c, a, b):
    """d^a/dx^a d^b/dy^b of the form c: x^(n-k) y^k goes to
    (n-k)!/(n-k-a)! k!/(k-b)! x^(n-k-a) y^(k-b)."""
    n = len(c) - 1
    return [c[k] * perm(n - k, a) * perm(k, b) for k in range(b, n - a + 1)]


def resultant(P: list[int], Q: list[int]) -> int:
    """Res(P, Q) of two integer binary forms at their orders m and n: the
    determinant of their Sylvester matrix.  It vanishes exactly when P and
    Q share a root on P^1, infinity (both leading coefficients 0)
    included.

    A root at infinity of one form comes out first: with P = (0, P') of
    order m - 1, Res_{m,n}(P, Q) = (-1)^n Q[0] Res_{m-1,n}(P', Q), and with
    Q = (0, Q'), Res_{m,n}(P, Q) = P[0] Res_{m,n-1}(P, Q') (expand the
    Sylvester determinant along its first column).  What is left is the
    resultant of P(x, 1) and Q(x, 1) at their degrees, taken by the
    subresultant sequence (Collins, J. ACM 14, 1967; Brown and Traub,
    J. ACM 18, 1971; Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 3.3.7): O(m n) int steps, each division exact."""
    m, n = len(P) - 1, len(Q) - 1
    scale = 1
    while m and n and not (P[0] and Q[0]):
        if not (P[0] or Q[0]):
            return 0
        if not P[0]:
            P, m, scale = P[1:], m - 1, scale * (-1) ** n * Q[0]
        else:
            Q, n, scale = Q[1:], n - 1, scale * P[0]
    if not (m and n):  # Res_{0,n}(c, Q) = c^n, Res_{m,0}(P, c) = c^m
        return scale * (P[0] ** n if not m else Q[0] ** m)
    return scale * _subresultant(P, Q)


def _subresultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) of two integer polynomials of degree at least 1, highest
    coefficient first and nonzero, at their degrees."""
    s = 1
    if len(a) < len(b):
        a, b = b, a
        s = (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            s = -s
        # the pseudo-remainder: lc(b)^(delta + 1) a = q b + r
        r, lb = list(a), b[0]
        for i in range(delta + 1):
            c = r[i]
            r = [lb * v for v in r]
            for j, v in enumerate(b):
                r[i + j] -= c * v
        r = r[delta + 1:]
        while r and not r[0]:
            r.pop(0)
        if not r:
            return 0
        a, div = b, g * h ** delta
        b = [v // div for v in r]
        g = a[0]
        h = g ** delta // h ** (delta - 1) if delta else h
    return s * (b[0] ** (len(a) - 1) // h ** (len(a) - 2))


def disc_n(p: IntPolynomial, n: int) -> Fraction:
    """Discriminant of p homogenized to a binary form of order n.

    For a form F of order n, Res(F_x, F_y) = (-1)^(n(n-1)/2) n^(n-2) disc(F)
    (Gelfand, Kapranov and Zelevinsky, Discriminants, Resultants and
    Multidimensional Determinants, ch. 12), and on F = d p each partial
    carries a factor d.  At actual degree n, disc = (-1)^(n(n-1)/2) Res(p, p')
    / a; one root at infinity contributes the square of the leading
    coefficient, two make it 0.  So 2^8 disc_5(P) = 2^-12 disc_6(4P) for
    monic quintics P.  Any order n >= 2."""
    if not any(p.num):
        raise ValueError("discriminant of the zero form")
    if p.degree > n:
        raise ValueError("polynomial degree exceeds declared binary-form degree")
    F, d = binary_form(p, n)
    res = resultant(partials(F, 1, 0), partials(F, 0, 1))
    return Fraction((-1) ** (n * (n - 1) // 2) * res, n ** (n - 2) * d ** (2 * n - 2))


def cubic_integer_roots(b2: int, b1: int, b0: int) -> list[int]:
    """The distinct integer roots, ascending, of y^3 + b2 y^2 + b1 y + b0.

    The critical points (-b2 -+ sqrt(b2^2 - 3 b1)) / 3, rounded outward by
    isqrt, cut [-M, M], M = 1 + max |b_k| the Cauchy bound, into pieces on
    which the cubic is monotone; each piece holds at most one root, found by
    bisection on the integers.  With b2^2 < 3 b1 the cubic is monotone."""
    def g(y):
        return ((y + b2) * y + b1) * y + b0

    M = 1 + max(abs(b2), abs(b1), abs(b0))
    d = b2 * b2 - 3 * b1
    if d < 0:
        pieces = [(-M, M)]
    else:
        r = isqrt(d)
        rc = r + (r * r != d)  # ceil(sqrt d)
        pieces = [(-M, (-b2 - rc) // 3), (-((b2 + r) // 3), (r - b2) // 3),
                  (-((b2 - rc) // 3), M)]
    roots = set()
    for lo, hi in pieces:
        if lo > hi:
            continue
        sign = -1 if g(lo) > g(hi) else 1
        if sign * g(hi) < 0:
            continue
        # the least y in [lo, hi] with sign g(y) >= 0
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * g(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if g(lo) == 0:
            roots.add(lo)
    return sorted(roots)


def quartic_split(p: IntPolynomial):
    """(c4, a3, s, dT, dN, sigma, pi, d) for a quartic p whose roots are two
    conjugate pairs of non-real numbers; ValueError for any other p.  With
    denominators cleared and c4 > 0, y = c4 x turns p into the monic
    integer quartic y^4 + a3 y^3 + a2 y^2 + a1 y + a0, a3 = c3,
    a2 = c2 c4, a1 = c1 c4^2, a0 = c0 c4^3.  Its roots are {t1, t1'} and
    {t2, t2'}, so it factors as (y^2 - T1 y + N1)(y^2 - T2 y + N2) with
    T_i = t_i + t_i' and N_i = t_i t_i' real, and the pairing is stable
    under the Galois group.  So s = N1 + N2 is a rational, hence integer,
    root of the resolvent cubic y^3 - a2 y^2 + (a1 a3 - 4 a0) y
    + 4 a0 a2 - a1^2 - a0 a3^2 (Kappe and Warren, Amer. Math. Monthly 96,
    1989).  The T_i are the roots of t^2 + a3 t + (a2 - s), of discriminant
    dT, the N_i those of n^2 - s n + a0, of discriminant dN, and
    (T1 - T2)(N1 - N2) = 2 a1 - a3 s, whose square is dT dN.  The roots are
    non-real when w_i = 4 N_i - T_i^2 > 0, that is when sigma = w1 + w2
    = 2 (s + a2) - a3^2 and pi = w1 w2 = 16 a0 - 4 (a1 a3 - (a2 - s) s)
    + (a2 - s)^2 are both positive.  Exactly one integer resolvent root s
    gives dT >= 0, dN >= 0, sigma > 0 and pi > 0: real T_i and N_i make
    real factors, and a real factor with non-real roots holds a conjugate
    pair.  dT = dN = 0 makes p a square.  The order is exact: ascending T
    (T1 < T2 when dT > 0), else ascending N; d is the sign of N1 - N2, so
    that T1 = (-a3 - sqrt dT) / 2 and N1 = (s + d sqrt dN) / 2.
    """
    if p.degree != 4:
        raise ValueError(f"quartic_split takes a quartic, not degree {p.degree}")
    F, _ = binary_form(p, 4)
    c4, c3, c2, c1, c0 = F if F[0] > 0 else [-c for c in F]
    a3, a2, a1, a0 = c3, c2 * c4, c1 * c4 ** 2, c0 * c4 ** 3
    for s in cubic_integer_roots(-a2, a1 * a3 - 4 * a0,
                                 4 * a0 * a2 - a1 * a1 - a0 * a3 * a3):
        dT, dN = a3 * a3 - 4 * (a2 - s), s * s - 4 * a0
        if dT == dN == 0:
            raise ValueError("polynomial is not squarefree")
        sigma = 2 * (s + a2) - a3 * a3
        pi = 16 * a0 - 4 * (a1 * a3 - (a2 - s) * s) + (a2 - s) ** 2
        if dT >= 0 and dN >= 0 and sigma > 0 and pi > 0:
            break
    else:
        raise ValueError("quartic is not two conjugate pairs split over "
                         "its resolvent cubic")
    d = 1 if dT and 2 * a1 - a3 * s < 0 else -1
    return c4, a3, s, dT, dN, sigma, pi, d
