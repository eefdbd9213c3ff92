import os
import random
from fractions import Fraction as F

import pytest

from g2heights import exact
from g2heights.cli import job_curve, parse_job
from g2heights.exact import (PSI13, IntPolynomial, binary_form, cubic_integer_roots,
                             disc_n, factor, is_prime, partials, proven_not_prime, resultant,
                             valuation)

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


def test_factor_best_effort():
    assert factor(18518681089 ** 3) == {18518681089: 3}
    assert factor(2 ** 8 * 10007 ** 2 * 10009) == {2: 8, 10007: 2, 10009: 1}
    # two primes of 27 and 33 digits: rho gives up and keeps the product
    hard = (2 ** 89 - 1) * (2 ** 107 - 1)
    assert factor(hard) == {hard: 1}
    # psi_12 (OEIS A014233) is a strong pseudoprime to the bases 2..37, so it
    # must not be taken for a prime
    psi12 = 318665857834031151167461
    assert factor(psi12) == {399165290221: 1, 798330580441: 1}


def _trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1
    return {**out, n: 1} if n > 1 else out


def test_factor_takes_what_trial_division_leaves(monkeypatch):
    # once trial division reaches d^2 > n, or passes 999 with n below 10^6,
    # what is left is 1 or a prime, and no primality test is made: a
    # character's modulus is factored with no Miller-Rabin power
    calls = []
    monkeypatch.setattr(exact, "is_prime", lambda n: calls.append(n) or is_prime(n))
    assert factor(61) == {61: 1}
    assert factor(999983) == {999983: 1}
    assert factor(2 ** 4 * 61) == {2: 4, 61: 1}
    assert calls == []
    for n in range(1, 20000):
        assert factor(n) == _trial_division(n), n
    assert calls == []


def test_factor_splits_what_trial_division_leaves_below_1e9():
    # below 10^9, what trial division below 1000 leaves has at most two
    # prime factors, each above 1000: rho splits every square of a prime
    # and a sample of products of two, which DirichletCharacter relies on
    primes = [p for p in range(1009, 31623) if is_prime(p)]
    rng = random.Random(8)
    cases = [p * p for p in primes]
    while len(cases) < len(primes) + 2000:
        p, q = rng.choice(primes), rng.randrange(1009, 10 ** 6)
        if p * q < 10 ** 9 and is_prime(q):
            cases.append(p * q)
    for n in cases:
        assert all(is_prime(p) for p in factor(n)), n


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


def _rational(p):
    """The coefficients of p as Fractions, lowest degree first."""
    return [F(n, p.den) for n in p.num]


def _shift(p, c):
    """p(x + c), by Horner's rule in x + c on Fractions."""
    out = []
    for a in reversed(_rational(p)):
        out = [c * x + y for x, y in zip(out + [0], [0] + out)]  # out (x + c)
        out[0] += a
    return IntPolynomial(out)


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


def _bareiss_resultant(P, Q):
    """The determinant of the Sylvester matrix of the forms P and Q, by
    fraction-free Bareiss elimination: after step k every entry below row
    k is a k+1 minor, and the division by the previous pivot is exact."""
    m, n = len(P) - 1, len(Q) - 1
    size = m + n
    mat = [[0] * row + P + [0] * (n - 1 - row) for row in range(n)]
    mat += [[0] * row + Q + [0] * (m - 1 - row) for row in range(m)]
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


def test_resultant_is_the_sylvester_determinant():
    # the subresultant sequence against Bareiss elimination: random forms
    # of orders 0 to 7 with up to three leading coefficients 0 (roots at
    # infinity, on one form or both), a quarter of them zero resultants;
    # and the partials of the jobs' sextics and of their tau quartics
    rng = random.Random(25)
    zero = 0
    for _ in range(6000):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        if m + n == 0:
            continue
        P, Q = ([rng.randint(-5, 5) for _ in range(k + 1)] for k in (m, n))
        for form in (P, Q):
            k = rng.randint(0, 3)
            form[:k] = [0] * len(form[:k])
        ref = _bareiss_resultant(P, Q)
        assert resultant(P, Q) == ref, (P, Q)
        zero += ref == 0
    assert 1500 < zero < 5000, zero
    jobs = os.path.join(os.path.dirname(__file__), "..", "jobs")
    for name in ("ex1", "ex2", "ex3"):
        job = parse_job(os.path.join(jobs, f"{name}.job"))
        quartic = IntPolynomial(job["tau_poly"].split(","))
        for p, order in ((job_curve(job).sextic, 6), (quartic, 4)):
            form = binary_form(p, order)[0]
            Fx, Fy = partials(form, 1, 0), partials(form, 0, 1)
            assert resultant(Fx, Fy) == _bareiss_resultant(Fx, Fy) != 0, name
            # with the roots at infinity of x^2 F and of y^3 F
            for P, Q in ((Fx + [0, 0], Fy + [0, 0]), ([0, 0, 0] + Fx, Fy + [0])):
                assert resultant(P, Q) == _bareiss_resultant(P, Q), name


@pytest.mark.parametrize("name,disc", [
    ("ex1", 78125), ("ex2", 107075036643909165949), ("ex3", 536870912)])
def test_disc4_of_tau_poly(name, disc):
    # 5^7 = 25^2 125, 21719477^2 226981 and 2^29 = 512^2 2048: an index
    # squared times Delta_K = f_K^2 delta_F
    job = parse_job(os.path.join(os.path.dirname(__file__), "..", "jobs", f"{name}.job"))
    assert disc_n(IntPolynomial(job["tau_poly"].split(",")), 4) == disc


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
