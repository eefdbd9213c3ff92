"""Exact rational arithmetic: proven primality, p-adic valuations,
polynomials and binary forms.

Everything in this module is exact; no floating point enters.  Rationals are
Python ``fractions.Fraction`` (always stored reduced), integers are unbounded.
Binary forms live here alone: binary_form clears a polynomial to an integer
form, partials differentiates it, resultant is its Sylvester determinant, and
the discriminant is Res(F_x, F_y) on the same form.  is_prime says True only
where Miller-Rabin is a proof, below PSI13; valuation rejects p only when
proven_not_prime finds a factor or a witness.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, perm
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


def valuation(x: Fraction | int, p: int) -> int:
    """ord_p(x) for a nonzero rational x and a prime p.  p is rejected only
    when it is proven not prime, so a prime at or above PSI13 is taken."""
    if proven_not_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class IntPolynomial:
    """Polynomial with rational coefficients, stored lowest degree first.

    max_degree, when given, is checked as a bound on the degree; binary_form
    and disc_n take the order of the binary form as their own argument.
    """

    def __init__(self, coeffs: Sequence[Fraction | int | str], max_degree: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs
        if max_degree is not None and self.degree > max_degree:
            raise ValueError(f"degree {self.degree} above the bound {max_degree}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [Fraction(0)] * (n - len(self.coeffs))
        b = other.coeffs + [Fraction(0)] * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def scale(self, u) -> "IntPolynomial":
        return IntPolynomial([Fraction(u) * c for c in self.coeffs])


# ---- binary forms, on integers --------------------------------------------
# A binary form of order n is the list c of its integer coefficients,
# c[k] that of x^(n-k) y^k.

def binary_form(p: IntPolynomial, n: int) -> tuple[list[int], int]:
    """(F, d): p, of degree at most n, homogenized to order n and cleared to
    integers, F = d p with d > 0 the common denominator of p's coefficients.
    This is the one place where a polynomial's coefficients become integers.
    """
    cs = p.coeffs + [Fraction(0)] * (n + 1 - len(p.coeffs))
    d = lcm(*(c.denominator for c in cs))
    return [int(c * d) for c in reversed(cs)], d


def partials(c, a, b):
    """d^a/dx^a d^b/dy^b of the form c: x^(n-k) y^k goes to
    (n-k)!/(n-k-a)! k!/(k-b)! x^(n-k-a) y^(k-b)."""
    n = len(c) - 1
    return [c[k] * perm(n - k, a) * perm(k, b) for k in range(b, n - a + 1)]


def resultant(P: list[int], Q: list[int]) -> int:
    """Res(P, Q) of two integer binary forms at their orders m and n: the
    determinant of their Sylvester matrix, by fraction-free Bareiss
    elimination.  It vanishes exactly when P and Q share a root on P^1,
    infinity (both leading coefficients 0) included."""
    m, n = len(P) - 1, len(Q) - 1
    size = m + n
    mat = [[0] * row + P + [0] * (n - 1 - row) for row in range(n)]
    mat += [[0] * row + Q + [0] * (m - 1 - row) for row in range(m)]
    # Bareiss: after step k every entry below row k is a k+1 minor, and the
    # division by the previous pivot is exact
    sign, prev = 1, 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            r = next((r for r in range(k + 1, size) if mat[r][k]), None)
            if r is None:
                return 0
            mat[k], mat[r] = mat[r], mat[k]
            sign = -sign
        pivot, top = mat[k][k], mat[k]
        for row in mat[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * mat[-1][-1]


def disc_n(p: IntPolynomial, n: int) -> Fraction:
    """Discriminant of p homogenized to a binary form of order n.

    For a form F of order n, Res(F_x, F_y) = (-1)^(n(n-1)/2) n^(n-2) disc(F)
    (Gelfand, Kapranov and Zelevinsky, Discriminants, Resultants and
    Multidimensional Determinants, ch. 12), and on F = d p each partial
    carries a factor d.  At actual degree n, disc = (-1)^(n(n-1)/2) Res(p, p')
    / a; one root at infinity contributes the square of the leading
    coefficient, two make it 0.  So 2^8 disc_5(P) = 2^-12 disc_6(4P) for
    monic quintics P."""
    if n not in (5, 6):
        raise ValueError("only degree-5 and degree-6 binary forms supported")
    if not any(p.coeffs):
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
