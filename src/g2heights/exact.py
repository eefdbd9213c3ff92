"""Exact rational arithmetic: primality, p-adic valuations, polynomials and
binary-form discriminants.

Everything in this module is exact; no floating point enters.  Rationals are
Python ``fractions.Fraction`` (always stored reduced), integers are unbounded.
"""

from __future__ import annotations

from fractions import Fraction
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

    def __call__(self, x):
        r = 0
        for c in reversed(self.coeffs):
            r = r * x + c
        return r

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
    taken at their actual degrees."""
    p = list(p)
    q = list(q)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    m, n = len(p) - 1, len(q) - 1
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    mat = [[Fraction(0)] * size for _ in range(size)]
    for row in range(n):
        for i, c in enumerate(reversed(p)):
            mat[row][row + i] = c
    for row in range(m):
        for i, c in enumerate(reversed(q)):
            mat[n + row][row + i] = c
    return _det_fraction(mat)


def _det_fraction(mat: list[list[Fraction]]) -> Fraction:
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] == 0:
                continue
            f = mat[r][col] * inv
            for c in range(col, n):
                mat[r][c] -= f * mat[col][c]
    return det


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
