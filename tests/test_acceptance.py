"""Acceptance gate: one test per numbered criterion (criterion 4 is split
into its exact-tuple clause and its exact-ratio clause so each shows its own
pass/fail line)."""

import random
import time
from fractions import Fraction as F

import mpmath as mp

from g2heights import bounds, cmperiod, siegel
from g2heights.colmez import char_from_spec, colmez_height
from g2heights.exact import IntPolynomial, disc_n, quartic_split
from g2heights.heights import compare
from g2heights.igusa import (SingularCurveError, WeierstrassEquation,
                             finite_height_part, igusa_invariants)
from g2heights.prec import PrecisionContext
from g2heights.theta import (EVEN_CHARS, archimedean_term, chi10, theta_all,
                             theta_big)

CTX = PrecisionContext(256)

CHI5 = char_from_spec(5, {"table": {1: "1", 2: "i", 3: "-i", 4: "-1"}})
CHI61 = char_from_spec(61, {"gen": {2: "i"}})
CHI16 = char_from_spec(16, {"table": {1: "1", 3: "i", 5: "i", 7: "1",
                                      9: "-1", 11: "-i", 13: "-i", 15: "-1"}})

EX1_CURVE = WeierstrassEquation(IntPolynomial([-1, 0, 0, 0, 0, 1]),
                                IntPolynomial([0]))
EX2_CURVE = WeierstrassEquation(
    IntPolynomial([-40824, -103680, 67608, 197944, 17574, -41271, -103615]),
    IntPolynomial([0]))
EX3_CURVE = WeierstrassEquation(IntPolynomial([1, -3, -6, 2, 3, -1]),
                                IntPolynomial([0]))


def _period_ex1():
    with CTX.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        return cmperiod.period_matrix(s5 * zeta, -s5 * zeta ** 3, 5, CTX)


def _period_ex2():
    t1, t2 = cmperiod.select_tau(
        IntPolynomial([889319, -137677, 6039, -61, 1]), CTX)
    return cmperiod.period_matrix(t1, t2, 61, CTX)


def _period_ex3():
    t1, t2 = cmperiod.select_tau(IntPolynomial([128, 0, 32, 0, 1]), CTX)
    return cmperiod.period_matrix(t1, t2, 8, CTX)


def test_criterion_1_colmez_example1():
    t0 = time.monotonic()
    h = colmez_height(CHI5, CTX)
    dt = time.monotonic() - t0
    with CTX.work():
        assert abs(h - mp.mpf("-1.4525092396456")) < mp.mpf("1e-12")
    assert dt < 1.0


def test_criterion_2_colmez_examples_2_and_3():
    with CTX.work():
        h2 = colmez_height(CHI61, CTX)
        h3 = colmez_height(CHI16, CTX)
        assert abs(h2 - mp.mpf("0.2688651723313")) < mp.mpf("1e-12")
        assert abs(h3 - mp.mpf("-1.2016102497487")) < mp.mpf("1e-12")


def test_criterion_3_archimedean_terms():
    targets = (("ex1", _period_ex1(), "0.246738390651711"),
               ("ex2", _period_ex2(), "0.464065891333779"),
               ("ex3", _period_ex3(), "0.428322662492607"))
    with CTX.work():
        for label, Z, tgt in targets:
            t0 = time.monotonic()
            _, zr = siegel.reduce(Z, CTX)
            bare = archimedean_term(zr, CTX, bare=True)
            dt = time.monotonic() - t0
            assert abs(bare - mp.mpf(tgt)) < mp.mpf("1e-12"), label
            assert dt < 10.0, label


def test_criterion_4_example1_tuple_exact():
    # f = x^5 - 1 has a root at infinity, so disc_6(f) = a5^2 disc_5(f)
    # = prod_{i<j} (zeta^i - zeta^j)^2 over the fifth roots of unity = 5^5,
    # and J10 = 2^-12 disc_6(f).  A change of model moves ord_5 J10 by a
    # multiple of 10, so no model of this curve has ord_5 J10 = 4.
    inv = igusa_invariants(EX1_CURVE)
    assert inv.as_tuple() == (0, 0, 0, 0, F(5 ** 5, 2 ** 12))


def test_criterion_4_example_2_3_ratios_exact():
    inv2 = igusa_invariants(EX2_CURVE)
    assert inv2.J2 ** 5 / inv2.J10 == -F(2 ** 25 * 7 ** 15 * 39079 ** 5,
                                         3 ** 19 * 5 ** 12 * 41 ** 12)
    assert inv2.J6 ** 5 / inv2.J10 ** 3 == F(
        2 ** 25 * 7 ** 5 * 487 ** 5 * 3449 ** 5 * 3467 ** 5
        * 42488533591199 ** 5, 3 ** 72 * 5 ** 36 * 41 ** 36)
    assert inv2.J8 ** 5 / inv2.J10 ** 4 == -F(
        2 ** 40 * 643 ** 5 * 1871 ** 5 * 19780292330676250264630993 ** 5,
        3 ** 91 * 5 ** 48 * 41 ** 48)
    inv3 = igusa_invariants(EX3_CURVE)
    assert inv3.J2 ** 5 / inv3.J10 == 2 ** 4 * 3 ** 15
    assert inv3.J6 ** 5 / inv3.J10 ** 3 == F(3 ** 5 * 47 ** 5, 2 ** 8)
    assert inv3.J8 ** 5 / inv3.J10 ** 4 == -F(3 ** 10 * 2029 ** 5, 2 ** 24)


def test_criterion_5_finite_parts():
    with CTX.work():
        f1, led1 = finite_height_part(igusa_invariants(EX1_CURVE), CTX)
        assert f1 == 0 and led1 == []
        f2, led2 = finite_height_part(igusa_invariants(EX2_CURVE), CTX)
        # exact rational coefficients: 24/60 = 2/5 at 3, 12/60 = 1/5 at 5, 41
        assert [(l.p, F(l.ord_min_disc, 60)) for l in led2] == \
            [(3, F(2, 5)), (5, F(1, 5)), (41, F(1, 5))]
        tgt2 = mp.mpf(2) / 5 * mp.log(3) + mp.log(5) / 5 + mp.log(41) / 5
        assert abs(f2 - tgt2) < mp.mpf("1e-15")
        f3, led3 = finite_height_part(igusa_invariants(EX3_CURVE), CTX)
        assert [(l.p, F(l.ord_min_disc, 60)) for l in led3] == [(2, F(1, 10))]
        assert abs(f3 - mp.log(2) / 10) < mp.mpf("1e-15")


def test_criterion_6_two_engine_agreement():
    jobs = ((EX1_CURVE, _period_ex1(), CHI5),
            (EX2_CURVE, _period_ex2(), CHI61),
            (EX3_CURVE, _period_ex3(), CHI16))
    with CTX.work():
        for curve, Z, chi in jobs:
            rep = compare(curve, [Z], 1, chi, CTX, tolerance="1e-9")
            assert rep.passed
            assert rep.discrepancy < mp.mpf("1e-9")


def test_criterion_7_property_suite():
    rng = random.Random(2024)
    gens = [siegel.SymplecticMatrix.from_blocks(
                [[0, 0], [0, 0]], [[-1, 0], [0, -1]],
                [[1, 0], [0, 1]], [[0, 0], [0, 0]]),
            siegel.SymplecticMatrix.translation(1, 0, 0),
            siegel.SymplecticMatrix.translation(0, 1, 0),
            siegel.SymplecticMatrix.translation(0, 0, 1),
            siegel.SymplecticMatrix.embed_gl2([[1, 1], [0, 1]]),
            siegel.SymplecticMatrix.embed_gl2([[0, 1], [1, 0]]),
            siegel.SymplecticMatrix.embed_gl2([[1, 0], [0, -1]])]
    samples = bounds.sample_fundamental_domain(20, 99, CTX)
    with CTX.work():
        # Sp4(Z)-invariance of |chi10| det(Im)^5 over 50 random words
        for k in range(50):
            Z = samples[k % len(samples)]
            g = siegel.SymplecticMatrix.identity()
            for _ in range(rng.randint(1, 5)):
                g = g * rng.choice(gens)
            Zg = siegel.act(g, Z)
            a = abs(chi10(Z, CTX)) * Z.det_im() ** 5
            b = abs(chi10(Zg, CTX)) * Zg.det_im() ** 5
            assert abs(a - b) / a < mp.mpf("1e-30")
        # Theta = chi10^4 on 20 reduced matrices
        for Z in samples:
            c4 = chi10(Z, CTX) ** 4
            assert abs(theta_big(Z, CTX) - c4) <= mp.mpf("1e-30") * abs(c4)
        # diagonal factorization for all 10 characteristics
        from g2heights.theta import PeriodMatrix
        Zd = PeriodMatrix(mp.mpc("0.25", "1.3"), 0, mp.mpc("-0.1", "1.9"))
        vals = theta_all(Zd, CTX)

        def th1(a, b, tau, R=40):
            s = mp.mpc(0)
            for n in range(-R, R + 1):
                x = n + mp.mpf(a) / 2
                s += mp.expjpi(x * x * tau + x * b)
            return s

        for ch, v in zip(EVEN_CHARS, vals):
            oracle = th1(ch.a1, ch.b1, Zd.z11) * th1(ch.a2, ch.b2, Zd.z22)
            assert abs(v - oracle) < CTX.tol
    # J8 relation on a 50-curve random corpus, exact
    done = 0
    while done < 50:
        cs = [rng.randint(-10, 10) for _ in range(7)]
        try:
            inv = igusa_invariants(
                WeierstrassEquation(IntPolynomial(cs), IntPolynomial([0])))
        except (SingularCurveError, ValueError):
            continue
        assert inv.J8 == (inv.J2 * inv.J6 - inv.J4 ** 2) / 4
        done += 1
    # disc identity on 50 random quintics, exact
    for _ in range(50):
        cs = [rng.randint(-9, 9) for _ in range(5)] + [1]
        P = IntPolynomial(cs)
        P4 = IntPolynomial([4 * c for c in cs])
        assert 2 ** 8 * disc_n(P, 5) == F(disc_n(P4, 6), 2 ** 12)


def test_criterion_8_bounds_suite():
    t0 = time.monotonic()
    failures, checks = bounds.verify_bounds(200, 1, CTX)
    dt = time.monotonic() - t0
    assert failures == []
    assert checks == 200 * 12
    assert dt < 120.0


def test_criterion_9_lemma_exact_identity():
    # the norm identity of the paper's lemma, squared and exact:
    # N(c)^2 pi = Delta_K c4^4 for the order O_F + c tau/sqrt 5 of the
    # period lattice.  On ex1, N(c) = 1 and pi = 125 = Delta_K; on its image
    # tau/(sqrt 5 tau + 1), c4 = N(c) = 521 and pi = 125 * 521^2
    for cs, n in (([25, -25, 15, -5, 1], 1), ([25, -25, -210, 120, 521], 521)):
        poly = IntPolynomial(cs)
        c4, *_, pi, _ = quartic_split(poly)
        assert (c4, pi) == (n, 125 * n * n)
        assert cmperiod.check_order(poly, 5, 5) == n
