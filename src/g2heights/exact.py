"""Exact rational arithmetic: primality, p-adic valuations, polynomials and
binary-form discriminants.

Everything in this module is exact; no floating point enters.  Rationals are
Python ``fractions.Fraction`` (always stored reduced), integers are unbounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid for n < 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(x: Fraction | int, p: int) -> int:
    """ord_p(x) for a nonzero rational x and a prime p."""
    if not is_prime(p):
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
    """Polynomial with rational coefficients and a declared formal degree.

    Coefficients are stored lowest degree first.  The formal degree may
    exceed the actual degree; it fixes the homogenization used when the
    polynomial is treated as a binary form.
    """

    def __init__(self, coeffs: Sequence[Fraction | int | str], formal_degree: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs
        self.formal_degree = formal_degree if formal_degree is not None else self.degree
        if self.formal_degree < self.degree:
            raise ValueError("formal degree below actual degree")

    @property
    def degree(self) -> int:
        if self.coeffs == [Fraction(0)]:
            return 0
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial([0])
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

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
        return IntPolynomial([Fraction(u) * c for c in self.coeffs], self.formal_degree)

    def shift(self, c) -> "IntPolynomial":
        """p(x + c), same formal degree."""
        c = Fraction(c)
        out = [Fraction(0)] * len(self.coeffs)
        for a in reversed(self.coeffs):
            # multiply accumulated polynomial by (x + c), then add a
            prev = list(out)
            for i in range(len(out) - 1, 0, -1):
                out[i] = prev[i - 1] + c * prev[i]
            out[0] = c * prev[0] + a
        return IntPolynomial(out, self.formal_degree)


def resultant(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """Sylvester resultant of two polynomials given lowest-degree-first,
    taken at their actual degrees.

    The rows are scaled to integers, P = dp p and Q = dq q with dp and dq
    the common denominators, so Res(p, q) = Res(P, Q) / (dp^n dq^m) for
    degrees m and n, and Res(P, Q) is the determinant of an integer matrix
    by fraction-free Bareiss elimination."""
    p = list(p)
    q = list(q)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    m, n = len(p) - 1, len(q) - 1
    if m == 0:
        return Fraction(p[0]) ** n
    if n == 0:
        return Fraction(q[0]) ** m
    dp = lcm(*(Fraction(c).denominator for c in p))
    dq = lcm(*(Fraction(c).denominator for c in q))
    P = [int(c * dp) for c in reversed(p)]
    Q = [int(c * dq) for c in reversed(q)]
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
                return Fraction(0)
            mat[k], mat[r] = mat[r], mat[k]
            sign = -sign
        pivot, top = mat[k][k], mat[k]
        for row in mat[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return Fraction(sign * mat[-1][-1], dp ** n * dq ** m)


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


def disc_n(p: IntPolynomial, n: int) -> Fraction:
    """Discriminant of p homogenized to a binary form of degree n.

    Normalized so that for actual degree n with leading coefficient a,
    disc = (-1)^(n(n-1)/2) Res(p, p') / a, and a degree drop by one
    (root at infinity, allowed for n = 6 only) contributes the square of
    the new leading coefficient.  This fixes 2^8 disc_5(P) = 2^-12 disc_6(4P)
    for monic quintics P.
    """
    if n not in (5, 6):
        raise ValueError("only degree-5 and degree-6 binary forms supported")
    if p.is_zero():
        raise ValueError("discriminant of the zero form")
    d = p.degree
    if d > n:
        raise ValueError("polynomial degree exceeds declared binary-form degree")
    if d == n:
        return _disc_exact(p)
    if d == n - 1:
        # one root at infinity: disc_n(F) = lc^2 * disc_{n-1}(F)
        lead = p.coeffs[-1]
        return lead ** 2 * _disc_exact(p)
    # two or more roots at infinity
    return Fraction(0)


def _disc_exact(p: IntPolynomial) -> Fraction:
    d = p.degree
    lead = p.coeffs[-1]
    res = resultant(p.coeffs, p.derivative().coeffs)
    return Fraction((-1) ** (d * (d - 1) // 2)) * res / lead
