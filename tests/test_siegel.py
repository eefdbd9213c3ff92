import os
import random

import mpmath as mp
import pytest

from g2heights import bounds, cli, cmperiod
from g2heights.prec import PrecisionContext
from g2heights.siegel import (GOTTSCHLING, SymplecticMatrix, act, f2_tol,
                              in_fundamental_domain, reduce)
from g2heights.theta import PeriodMatrix, chi10

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")

J_MAT = SymplecticMatrix.from_blocks([[0, 0], [0, 0]], [[-1, 0], [0, -1]],
                                     [[1, 0], [0, 1]], [[0, 0], [0, 0]])

GENS = [J_MAT,
        SymplecticMatrix.translation(1, 0, 0),
        SymplecticMatrix.translation(0, 1, 0),
        SymplecticMatrix.translation(0, 0, 1),
        SymplecticMatrix.embed_gl2([[1, 1], [0, 1]]),
        SymplecticMatrix.embed_gl2([[0, 1], [1, 0]]),
        SymplecticMatrix.embed_gl2([[1, 0], [0, -1]])]


def iI():
    return PeriodMatrix(mp.mpc(0, 1), 0, mp.mpc(0, 1))


def random_word(rng, n):
    g = SymplecticMatrix.identity()
    for _ in range(n):
        g = g * rng.choice(GENS)
    return g


def test_symplectic_check():
    with pytest.raises(ValueError):
        SymplecticMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])


def test_gottschling_all_symplectic():
    assert len(GOTTSCHLING) == 29
    for g in GOTTSCHLING:
        assert g._is_symplectic()


def test_act_identity(ctx):
    with ctx.work():
        Z = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"),
                         mp.mpc("-0.3", "1.5"))
        W = act(SymplecticMatrix.identity(), Z)
        assert abs(W.z11 - Z.z11) + abs(W.z12 - Z.z12) + abs(W.z22 - Z.z22) < ctx.tol


def test_act_translation(ctx):
    with ctx.work():
        Z = iI()
        W = act(SymplecticMatrix.translation(5, 0, 7), Z)
        assert abs(W.z11 - (Z.z11 + 5)) < ctx.tol
        assert abs(W.z22 - (Z.z22 + 7)) < ctx.tol


def test_act_inversion_fixed_point(ctx):
    with ctx.work():
        W = act(J_MAT, iI())
        assert abs(W.z11 - mp.mpc(0, 1)) < ctx.tol
        assert abs(W.z12) < ctx.tol
        assert abs(W.z22 - mp.mpc(0, 1)) < ctx.tol


def test_act_composition(ctx):
    rng = random.Random(9)
    with ctx.work():
        Z = PeriodMatrix(mp.mpc("0.1", "1.0"), mp.mpc("0.05", "0.2"),
                         mp.mpc("-0.2", "1.4"))
        for _ in range(20):
            g1 = random_word(rng, 3)
            g2 = random_word(rng, 3)
            a = act(g1 * g2, Z)
            b = act(g1, act(g2, Z))
            err = abs(a.z11 - b.z11) + abs(a.z12 - b.z12) + abs(a.z22 - b.z22)
            assert err < mp.mpf(2) ** (-ctx.prec // 2)


def test_membership(ctx):
    with ctx.work():
        tol = f2_tol(ctx)
        assert in_fundamental_domain(iI(), tol)
        shifted = PeriodMatrix(mp.mpc(5, 1), 0, mp.mpc(0, 1))
        assert not in_fundamental_domain(shifted, tol)


def _near_boundary(ctx):
    """Matrices 2^-200 off the boundary of F2, each from the same interior
    point, at ctx's precision."""
    with ctx.work():
        eps = mp.mpf(2) ** -200
        z11, z12, z22 = mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"), mp.mpc("-0.3", "1.5")
        return {
            "Re z11 = 1/2 + eps": PeriodMatrix(mp.mpc(mp.mpf(1) / 2 + eps, "1.2"), z12, z22),
            "Im z12 = -eps": PeriodMatrix(z11, mp.mpc("0.2", -eps), z22),
            "y22 = y11 - eps": PeriodMatrix(z11, z12, mp.mpc("-0.3", mp.mpf("1.2") - eps)),
            "Im z12 = 0, Re z12 = -0.3": PeriodMatrix(z11, mp.mpc("-0.3", 0), z22),
        }


def test_membership_iff_identity_word(ctx):
    # in F2 exactly when reduce has nothing to do, at reduce's own tolerance
    near = _near_boundary(ctx)
    samples = bounds.sample_fundamental_domain(10, 3, ctx)
    tol = f2_tol(ctx)
    with ctx.work():
        for label, Z in [*near.items(), *(("sample", Z) for Z in samples)]:
            gamma, zr = reduce(Z, ctx)
            untouched = gamma == SymplecticMatrix.identity() and zr.entries() == Z.entries()
            assert in_fundamental_domain(Z, tol) == untouched, label
        # of the four, only Im z12 = -eps is inside: its sign is read within tol
        assert [in_fundamental_domain(Z, tol) for Z in near.values()] == [
            False, True, False, False]


def test_example1_printed_not_reduced(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        Z = cmperiod.period_matrix(s5 * zeta, -s5 * zeta ** 3, 5, ctx)
        assert not in_fundamental_domain(Z, f2_tol(ctx))


def test_reduce_already_reduced(ctx):
    with ctx.work():
        gamma, zr = reduce(iI(), ctx)
        assert abs(zr.z11 - mp.mpc(0, 1)) < ctx.tol
        assert abs(zr.z22 - mp.mpc(0, 1)) < ctx.tol


def test_reduce_translation(ctx):
    with ctx.work():
        Z = PeriodMatrix(mp.mpc(3, 1), mp.mpc(2, 0), mp.mpc(-4, 1))
        gamma, zr = reduce(Z, ctx)
        assert in_fundamental_domain(zr, 2 * f2_tol(ctx))


def test_reduce_properties(ctx):
    rng = random.Random(77)
    with ctx.work():
        tol = f2_tol(ctx)
        for _ in range(10):
            Z = PeriodMatrix(
                mp.mpc(rng.uniform(-2, 2), rng.uniform(0.2, 2)),
                mp.mpc(rng.uniform(-2, 2), rng.uniform(-0.1, 0.1)),
                mp.mpc(rng.uniform(-2, 2), rng.uniform(0.5, 2.5)))
            gamma, zr = reduce(Z, ctx)
            assert in_fundamental_domain(zr, 2 * tol)
            # gamma really maps Z to zr
            W = act(gamma, Z)
            assert abs(W.z11 - zr.z11) + abs(W.z12 - zr.z12) + abs(
                W.z22 - zr.z22) < tol
            # classical consequence of (i)-(iii)
            assert mp.im(zr.z11) >= mp.sqrt(3) / 2 - tol
            # det Im never decreased
            assert zr.det_im() >= Z.det_im() - tol


def test_reduce_preserves_chi10_invariant(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        Z = cmperiod.period_matrix(s5 * zeta, -s5 * zeta ** 3, 5, ctx)
        _, zr = reduce(Z, ctx)
        a = abs(chi10(Z, ctx)) * Z.det_im() ** 5
        b = abs(chi10(zr, ctx)) * zr.det_im() ** 5
        assert abs(a - b) / a < mp.mpf(2) ** (-ctx.prec + 40)


# the reduction words of the shipped jobs, by (job, precision).  ex2's
# reduced matrix has Re z11 = Re z12 = 1/2 exactly, and at 1024 bits the
# rounding noise puts Re z12 at -1/2, one translation away.
_W_EX1 = [[1, 0, 0, 0], [3, 1, 0, 0], [2, 1, 1, -3], [-2, -1, 0, 1]]
_W_EX2 = [[1, 0, 0, -2], [-34, -1, 2, -56], [0, 0, 1, -34], [0, 0, 0, -1]]
_W_EX2_1024 = [[1, 0, 0, -1], [-34, -1, 1, -22], [0, 0, 1, -34], [0, 0, 0, -1]]
_W_EX3 = [[0, 0, -1, 5], [5, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
EX_WORDS = {("ex1", 256): _W_EX1,
            ("ex2", 256): _W_EX2, ("ex2", 512): _W_EX2, ("ex2", 1024): _W_EX2_1024,
            ("ex3", 256): _W_EX3, ("ex3", 512): _W_EX3, ("ex3", 1024): _W_EX3}


def test_reduce_word_stable_across_precision(ctx):
    # ex3's reduced matrix has Im z12 = 0 exactly: the word must not follow
    # the rounding noise in it.  ex1's tau_values carry only enough digits
    # for 256 bits.
    reduced = {}
    for (name, bits), word in EX_WORDS.items():
        c = PrecisionContext(bits)
        job = cli.parse_job(os.path.join(JOBS, f"{name}.job"))
        gamma, reduced[name, bits] = reduce(cli.job_periods(job, c)[0], c)
        assert gamma.m == word, (name, bits)
    zr = reduced["ex3", 256]
    with ctx.work():
        for bits in (512, 1024):
            z = reduced["ex3", bits]
            assert all(abs(u - v) < ctx.tol for u, v in zip(z.entries(), zr.entries()))
