import random
from fractions import Fraction as F

import pytest

from g2heights.exact import IntPolynomial, disc_n, valuation


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
        assert disc_n(p.shift(c), 6) == disc_n(p, 6)
