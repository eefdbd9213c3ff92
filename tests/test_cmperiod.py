import os
from fractions import Fraction

import mpmath as mp
import pytest

from g2heights.cli import parse_job
from g2heights.cmperiod import check_order, period_matrix, select_tau
from g2heights.exact import IntPolynomial
from g2heights.prec import PrecisionContext


def test_select_tau_biquadratic(ctx):
    # x^4 + 32x^2 + 128 and x^4 + 6x^2 + 1, whose resolvent cubic has three
    # rational roots, 6, 2 and -2: the pairs on the imaginary axis, in
    # ascending Im
    with ctx.work():
        s2 = mp.sqrt(2)
        for cs, pair in (([128, 0, 32, 0, 1], (mp.sqrt(16 - 8 * s2), mp.sqrt(16 + 8 * s2))),
                         ([1, 0, 6, 0, 1], (s2 - 1, s2 + 1))):
            taus = select_tau(IntPolynomial(cs), ctx)
            for tau, im in zip(taus, pair):
                assert abs(tau - mp.mpc(0, im)) < ctx.tol, cs


def test_select_tau_order_stable_across_precision(ctx):
    # ex3's two roots are purely imaginary: the order must not follow the
    # root finder's rounding noise in their real parts
    poly = IntPolynomial([128, 0, 32, 0, 1])
    ref = select_tau(poly, ctx)
    with ctx.work():
        assert mp.im(ref[0]) < mp.im(ref[1])
    for bits in (512, 1024):
        taus = select_tau(poly, PrecisionContext(bits))
        with ctx.work():
            for a, b in zip(taus, ref):
                assert abs(a - b) < ctx.tol, bits


@pytest.mark.parametrize("scale", ["1", "-1", "3", "1/2"])
def test_select_tau_example1_reproduces_job_values(scale):
    # the roots in H of ex1's tau_poly, the minimal polynomial of
    # sqrt(5) zeta_5, against the closed form, from rational multiples of
    # the quartic
    job = parse_job(os.path.join(os.path.dirname(__file__), "..", "jobs", "ex1.job"))
    ctx = PrecisionContext(384)
    poly = IntPolynomial([Fraction(scale) * int(c) for c in job["tau_poly"].split(",")])
    taus = select_tau(poly, ctx)
    with ctx.work():
        s5, zeta = mp.sqrt(5), mp.expjpi(mp.mpf(2) / 5)
        for tau, ref in zip(taus, (s5 * zeta, -s5 * zeta ** 3)):
            assert abs(tau - ref) < ctx.tol


def test_select_tau_wrong_degree(ctx):
    with pytest.raises(ValueError, match="takes a quartic, not degree 2"):
        select_tau(IntPolynomial([1, 0, 1]), ctx)


def test_period_matrix_example1(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        Z = period_matrix(s5 * zeta, -s5 * zeta ** 3, 5, ctx)
        assert abs(Z.det_im() - s5 / 4) < ctx.tol


def test_period_matrix_swap_exchanges_theta(ctx):
    with ctx.work():
        t1 = mp.mpc("0.3", "1.2")
        t2 = mp.mpc("-0.4", "2.0")
        A = period_matrix(t1, t2, 13, ctx)
        B = period_matrix(t2, t1, 13, ctx)
        # swapping tau exchanges theta <-> theta': z11 invariant, and the
        # swapped matrix is the original with sqrt(D) -> -sqrt(D)
        sd = mp.sqrt(13)
        th = (13 + sd) / 2
        thp = (13 - sd) / 2
        z12_swapped = (-t2 * thp - t1 * th) / 13
        assert abs(A.z11 - B.z11) < ctx.tol
        assert abs(B.z12 - z12_swapped) < ctx.tol


@pytest.mark.parametrize("delta", [0, -3, 2, 3, 6, 7, 1, 4, 9, 16])
def test_period_matrix_rejects_non_discriminant(ctx, delta):
    # a real quadratic discriminant is positive, 0 or 1 mod 4, and not a
    # square
    with pytest.raises(ValueError, match="not a real quadratic discriminant"):
        period_matrix(mp.mpc(0, 1), mp.mpc(0, 2), delta, ctx)


def test_period_matrix_rejects_tau_outside_h(ctx):
    for pair in ((mp.mpc(1, -2), mp.mpc(0, 1)), (mp.mpc(0, 1), mp.mpc(3, 0))):
        with pytest.raises(ValueError, match="upper half plane"):
            period_matrix(*pair, 5, ctx)


# (tau_poly, f_K, N(c)): the order of period_matrix's lattice is
# O_F + c tau/sqrt(delta_F), and it is O_K exactly when
# N(c)^2 pi = Delta_K c4^4.  The shipped jobs and four Hilbert modular
# images of them pass: ex1's tau/(sqrt 5 tau + 1), ex2's tau/(sqrt 61 tau + 1)
# and ex3's tau/(tau + 1) and the image of tau_poly 128, 0, -480, -64, 577
DELTA = {5: 5, 61: 61, 16: 8}
VALID_ORDERS = [
    ([25, -25, 15, -5, 1], 5, 1),
    ([889319, -137677, 6039, -61, 1], 61, 1),
    ([128, 0, 32, 0, 1], 16, 1),
    ([25, -25, -210, 120, 521], 5, 521),
    ([889319, -137677, -109469502, 8472656, 3369108691], 61, 3369108691),
    ([128, -512, 800, -576, 161], 16, 161),
    ([128, 0, -480, -64, 577], 16, 577),
]
# ex1's tau/2 and tau + 1/sqrt 5, and ex3's tau + 1/2: lattices whose order
# is not O_K
SMALL_ORDERS = [
    ([25, -50, 60, -40, 16], 5, 16),
    ([521, -600, 390, -125, 25], 5, 625),
    ([2177, -520, 536, -32, 16], 16, 1024),
]


@pytest.mark.parametrize("cs,f,n", VALID_ORDERS)
def test_check_order_passes_o_k(cs, f, n):
    assert check_order(IntPolynomial(cs), f, DELTA[f]) == n


@pytest.mark.parametrize("cs,f,n", SMALL_ORDERS)
def test_check_order_rejects_a_smaller_order(cs, f, n):
    # the message names N(c) and both sides of the identity
    disc_K, c4 = f * f * DELTA[f], cs[-1]
    with pytest.raises(ValueError, match=rf"^tau_poly does not fit f_K = {f}: N\(c\)\^2 pi = "
                                         rf"{n}\^2 \* \d+ is not Delta_K c4\^4 = {disc_K} \* {c4}\^4$"):
        check_order(IntPolynomial(cs), f, DELTA[f])


@pytest.mark.parametrize("cs", [["1", "-1", "3/5", "-1/5", "1/25"], [50, -50, 30, -10, 2]],
                         ids=["rational", "not-primitive"])
def test_check_order_reads_any_form_of_the_quartic(cs):
    # ex1's tau_poly over 25, and times 2: the same tau pair
    assert check_order(IntPolynomial(cs), 5, 5) == 1


def test_check_order_rejects_another_real_subfield():
    # ex2's tau_poly over Q(sqrt 5): 4 dT is not 5 times a square
    with pytest.raises(ValueError, match=r"^tau_poly does not fit f_K = 5: its real "
                                         r"subfield is not Q\(sqrt 5\)"):
        check_order(IntPolynomial([889319, -137677, 6039, -61, 1]), 5, 5)
