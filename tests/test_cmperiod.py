import mpmath as mp
import pytest

from g2heights.cmperiod import (TauSelectionError, check_lemma_easy,
                                period_matrix, select_tau)
from g2heights.exact import IntPolynomial
from g2heights.prec import PrecisionContext


def test_select_tau_biquadratic(ctx):
    with ctx.work():
        t1, t2 = select_tau(IntPolynomial([128, 0, 32, 0, 1]), ctx)
        s2 = mp.sqrt(2)
        assert abs(t1 - mp.mpc(0, 1) * mp.sqrt(16 - 8 * s2)) < ctx.tol or \
               abs(t1 - mp.mpc(0, 1) * mp.sqrt(16 + 8 * s2)) < ctx.tol
        assert mp.im(t1) > 0 and mp.im(t2) > 0


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


def test_select_tau_passthrough(ctx):
    with ctx.work():
        pair = (mp.mpc(1, 2), mp.mpc(-1, 3))
        t1, t2 = select_tau(pair, ctx)
        assert t1 == pair[0] and t2 == pair[1]
        with pytest.raises(TauSelectionError):
            select_tau((mp.mpc(1, -2), mp.mpc(0, 1)), ctx)


def test_select_tau_wrong_degree(ctx):
    with pytest.raises(TauSelectionError):
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


@pytest.mark.parametrize("delta", [0, -3, 2, 3, 6, 7])
def test_period_matrix_rejects_non_discriminant(ctx, delta):
    # a real quadratic discriminant is positive and 0 or 1 mod 4
    with pytest.raises(ValueError, match="not a real quadratic discriminant"):
        period_matrix(mp.mpc(0, 1), mp.mpc(0, 2), delta, ctx)


def test_lemma_easy_example1(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        im1 = mp.im(s5 * zeta)
        im2 = mp.im(-s5 * zeta ** 3)
        r = check_lemma_easy(1, (im1, im2), 1, 125, ctx)
        assert r < mp.mpf(1e-20)


def test_lemma_easy_detects_violation(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        im1 = mp.im(s5 * zeta)
        im2 = mp.im(-s5 * zeta ** 3)
        r = check_lemma_easy(1, (im1, im2), 2, 125, ctx)
        assert abs(r - mp.sqrt(125)) < mp.mpf(1e-20)
