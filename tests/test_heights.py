import argparse
import os
import random

import mpmath as mp
import pytest

from g2heights import cli, cmperiod, siegel
from g2heights.colmez import char_from_spec
from g2heights.exact import IntPolynomial
from g2heights.heights import compare, height_local
from g2heights.igusa import WeierstrassEquation

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")


def example1_inputs(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        Z = cmperiod.period_matrix(s5 * zeta, -s5 * zeta ** 3, 5, ctx)
    eq = WeierstrassEquation(IntPolynomial([-1, 0, 0, 0, 0, 1]),
                             IntPolynomial([0]))
    return eq, Z


def test_height_local_example1(ctx):
    eq, Z = example1_inputs(ctx)
    hb = height_local(eq, [Z], 1, ctx)
    with ctx.work():
        assert abs(hb.total - mp.mpf("-1.4525092396456")) < 1e-10
        assert abs(hb.finite_part) == 0
        s = hb.finite_part + mp.fsum(v for _, v in hb.arch_terms)
        assert abs(s - hb.total) < ctx.tol


def test_height_local_symplectic_invariance(ctx):
    eq, Z = example1_inputs(ctx)
    rng = random.Random(13)
    base = height_local(eq, [Z], 1, ctx).total
    gens = [siegel.SymplecticMatrix.translation(1, 0, 0),
            siegel.SymplecticMatrix.translation(0, 1, 1),
            siegel.SymplecticMatrix.embed_gl2([[1, 1], [0, 1]]),
            siegel.SymplecticMatrix.from_blocks(
                [[0, 0], [0, 0]], [[-1, 0], [0, -1]],
                [[1, 0], [0, 1]], [[0, 0], [0, 0]])]
    with ctx.work():
        for _ in range(5):
            g = siegel.SymplecticMatrix.identity()
            for _ in range(rng.randint(1, 4)):
                g = g * rng.choice(gens)
            Zg = siegel.act(g, Z)
            h = height_local(eq, [Zg], 1, ctx).total
            assert abs(h - base) < mp.mpf(2) ** (-ctx.prec // 2)


def test_height_local_degree_mismatch(ctx):
    eq, Z = example1_inputs(ctx)
    with pytest.raises(ValueError, match="degree = 2"):
        height_local(eq, [Z], 2, ctx)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_height_local_tau_order_invariant(ctx, name, monkeypatch):
    job = cli.parse_job(os.path.join(JOBS, f"{name}.job"))
    eq = cli.job_curve(job)
    a = height_local(eq, cli.job_periods(job, ctx), 1, ctx)
    in_order = cmperiod.period_matrix
    monkeypatch.setattr(cmperiod, "period_matrix",
                        lambda t1, t2, delta, c: in_order(t2, t1, delta, c))
    b = height_local(eq, cli.job_periods(job, ctx), 1, ctx)
    with ctx.work():
        assert abs(a.total - b.total) < ctx.tol


@pytest.mark.parametrize("name,logs", [("ex1", 3), ("ex2", 4), ("ex3", 4)],
                         ids=["ex1", "ex2", "ex3"])
def test_compare_mpmath_logs(name, logs, monkeypatch):
    # one warm compare, context built as the CLI builds it, which takes no
    # log: one in the height's one weighted log_gamma call, one for all the
    # sines, f and pi, the finite part's one log of 2^a 3^b D (none for
    # ex1, where that is 1) and the arch term's one log
    job = cli.parse_job(os.path.join(JOBS, f"{name}.job"))
    args = argparse.Namespace(precision_bits=256)

    def run():
        ctx = cli.job_ctx(job, args)
        return compare(cli.job_curve(job), cli.job_periods(job, ctx), 1,
                       cli.job_character(job), ctx)

    run()
    calls, log = [], mp.log

    def counted(*a, **kw):
        calls.append(a)
        return log(*a, **kw)

    monkeypatch.setattr(mp, "log", counted)
    assert run().passed
    assert len(calls) == logs


def test_compare_example1(ctx):
    eq, Z = example1_inputs(ctx)
    chi = char_from_spec(5, {"table": {1: "1", 2: "i", 3: "-i", 4: "-1"}})
    rep = compare(eq, [Z], 1, chi, ctx, tolerance="1e-10")
    assert rep.passed
    with ctx.work():
        assert rep.discrepancy < mp.mpf("1e-10")


def test_height_invariant_under_model_change(ctx):
    # completing the square: y^2 + Qy = P vs y^2 = P + Q^2/4 give the
    # same invariants, hence the same height
    eq, Z = example1_inputs(ctx)
    # P' = P - Q^2/4 with Q = 2x keeps P' + Q^2/4 = P
    Pp = IntPolynomial([-1, 0, -1, 0, 0, 1])
    eq3 = WeierstrassEquation(Pp, IntPolynomial([0, 2]))
    assert (eq3.sextic.num, eq3.sextic.den) == (eq.sextic.num, eq.sextic.den)
    h1 = height_local(eq, [Z], 1, ctx).total
    h3 = height_local(eq3, [Z], 1, ctx).total
    with ctx.work():
        assert abs(h1 - h3) < ctx.tol
