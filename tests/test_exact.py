import random
from fractions import Fraction as F

import pytest

from g2heights.exact import (PSI13, IntPolynomial, binary_form, cubic_integer_roots,
                             disc_n, is_prime, proven_not_prime, valuation)

# OEIS A014233: psi_n, the least strong pseudoprime to the first n prime bases
A014233 = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461,
           3317044064679887385961981]


def test_is_prime_is_a_proof():
    sympy = pytest.importorskip("sympy")
    assert PSI13 == A014233[-1] == 1287836182261 * 2575672364521
    # psi_12 = 399165290221 * 798330580441 passes the twelve bases 2..37
    assert not is_prime(A014233[-2])
    below, above = sympy.prevprime(PSI13), sympy.nextprime(PSI13)
    cases = A014233 + [below, above, PSI13 - 2, PSI13 + 2, 2, 41, 43, 1849]
    rng = random.Random(5)
    cases += [rng.randrange(PSI13 // 2, 2 * PSI13) | 1 for _ in range(200)]
    for n in cases:
        # True exactly for the primes below PSI13; above, no proof is made
        assert is_prime(n) == (sympy.isprime(n) and n < PSI13), n
    assert is_prime(below) and not is_prime(above)


def test_proven_not_prime_is_sound():
    # a factor or a Miller-Rabin witness is a proof of compositeness; below
    # PSI13 its absence is a proof of primality, and PSI13 itself is the
    # first composite it cannot refute
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6)
    cases = A014233 + [0, 1, 4, 9, 1849, sympy.nextprime(PSI13), PSI13 + 2]
    cases += [rng.randrange(2, 2 * PSI13) for _ in range(300)]
    for n in cases:
        if n < PSI13:
            assert proven_not_prime(n) == (not sympy.isprime(n)), n
        elif proven_not_prime(n):
            assert not sympy.isprime(n), n
    assert not proven_not_prime(PSI13)
    assert valuation(F(7, 3) * sympy.nextprime(PSI13) ** 3, sympy.nextprime(PSI13)) == 3


def test_valuation_examples():
    assert valuation(8, 2) == 3
    assert valuation(1, 7) == 0
    # ord_2 of the Example 3 ratio J8^5/J10^4
    assert valuation(-F(3 ** 10 * 2029 ** 5, 2 ** 24), 2) == -24


def test_valuation_errors():
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(5, 4)


def test_valuation_additive():
    rng = random.Random(3)
    for _ in range(30):
        x = F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        y = F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        for p in (2, 3, 7):
            assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def _shift(p, c):
    """p(x + c), by Horner's rule in x + c."""
    out = IntPolynomial([0])
    for a in reversed(p.coeffs):
        out = out * IntPolynomial([c, 1]) + IntPolynomial([a])
    return out


def test_binary_form_homogenizes_and_clears():
    # 1/2 - x^2/3 as a form of order 4: -2 x^2 y^2 + 3 y^4, times 6
    assert binary_form(IntPolynomial([F(1, 2), 0, F(-1, 3)]), 4) == ([0, 0, -2, 0, 3], 6)
    assert binary_form(IntPolynomial([-1, 0, 0, 0, 0, 1]), 6) == ([0, 1, 0, 0, 0, 0, -1], 1)


def test_disc5_quintic():
    assert disc_n(IntPolynomial([-1, 0, 0, 0, 0, 1], 5), 5) == 3125


def test_disc6_degree_drop():
    # disc6 of 4(x^5 - 1): one root at infinity
    assert disc_n(IntPolynomial([-4, 0, 0, 0, 0, 4], 6), 6) == 2 ** 20 * 3125


def test_disc_singular():
    assert disc_n(IntPolynomial([0, 0, 0, 0, 0, 1], 5), 5) == 0


def test_disc_identity_quintics():
    # 2^8 disc5(P) = 2^-12 disc6(4P) on random monic quintics
    rng = random.Random(11)
    for _ in range(50):
        cs = [rng.randint(-8, 8) for _ in range(5)] + [1]
        P = IntPolynomial(cs, 5)
        P4 = IntPolynomial([4 * c for c in cs], 6)
        assert 2 ** 8 * disc_n(P, 5) == F(disc_n(P4, 6), 2 ** 12)


def test_disc_shift_invariance():
    rng = random.Random(5)
    for _ in range(10):
        cs = [rng.randint(-6, 6) for _ in range(6)] + [rng.randint(1, 4)]
        p = IntPolynomial(cs, 6)
        c = rng.randint(-3, 3)
        assert disc_n(_shift(p, c), 6) == disc_n(p, 6)


def test_cubic_integer_roots():
    for b, expect in [
        ((-6, -4, 24), [-2, 2, 6]),    # (y - 6)(y^2 - 4), x^4 + 6x^2 + 1's resolvent
        ((-2, -4, 8), [-2, 2]),        # (y - 2)^2 (y + 2): a root at a critical point
        ((-15, 75, -125), [5]),        # (y - 5)^3: b2^2 = 3 b1
        ((-15, 25, 250), [10]),        # ex1's resolvent
        ((-1, 1, -1), [1]),            # (y - 1)(y^2 + 1): monotone
        ((0, -4, -1), []),             # x^4 + x + 1's resolvent: no rational root
        ((0, 0, -2), []),
        ((-(10 ** 300 + 1), 1, -(10 ** 300 + 1)), [10 ** 300 + 1]),
        ((-1, -(10 ** 600), 10 ** 600), [-(10 ** 300), 1, 10 ** 300]),
    ]:
        assert cubic_integer_roots(*b) == expect, b


def test_cubic_integer_roots_against_search():
    # (y - r)(y^2 + p y + q); every integer root lies within the Cauchy
    # bound 1 + max |b_k|
    rng = random.Random(7)
    for _ in range(300):
        r, p, q = (rng.randint(-20, 20) for _ in range(3))
        b2, b1, b0 = p - r, q - r * p, -r * q
        bound = 1 + max(abs(b2), abs(b1), abs(b0))
        expect = [y for y in range(-bound, bound + 1)
                  if y ** 3 + b2 * y * y + b1 * y + b0 == 0]
        assert cubic_integer_roots(b2, b1, b0) == expect, (b2, b1, b0)
