"""Command-line front end.

Job files are flat key = value text; lists comma-separated.  Reports are
deterministic for fixed job, precision and seed.  Exit codes: 0 success/pass,
1 computation or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from math import isqrt

import mpmath as mp

from . import bounds, cmperiod, siegel
from .colmez import char_from_spec, char_weighted_sum, colmez_height, half_residues
from .exact import IntPolynomial, disc_n, is_prime
from .heights import HYPOTHESES, compare, height_local
from .igusa import (WeierstrassEquation, discriminant, igusa_invariants)
from .prec import PrecisionContext, taylor_plan
from .theta import EVEN_CHARS, PeriodMatrix, ThetaWalk

_COMPLEX_RE = re.compile(
    r"^([+-]?\d+(?:\.\d*)?)([+-]\d+(?:\.\d*)?)\*i$"
)
_RESIDUE_RE = re.compile(r"^\s*[+-]?\d+\s*$")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


class JobError(ValueError):
    pass


JOB_KEYS = {"curve_P", "curve_Q", "f_K", "tau_poly", "character_table", "character_gen"}


def parse_complex(s: str):
    s = s.replace(" ", "")
    m = _COMPLEX_RE.match(s)
    if not m:
        raise JobError(f"bad complex literal: {s!r} (want re+im*i)")
    return m.group(1), m.group(2)


def parse_job(path: str) -> dict:
    job = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise JobError(f"{path}:{lineno}: expected key = value")
            key, val = (t.strip() for t in line.split("=", 1))
            if key not in JOB_KEYS:
                raise JobError(f"{path}:{lineno}: unknown key {key!r}")
            if key in job:
                raise JobError(f"{path}:{lineno}: key {key!r} given twice")
            job[key] = val
    return job


def _rat_list(key: str, s: str):
    """The comma-separated rationals of a coefficient key: a token of ASCII
    digits with an optional sign is read by int, any other by Fraction."""
    out = []
    for tok in map(str.strip, s.split(",")):
        try:
            out.append(int(tok) if _INT_RE.match(tok) else Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise JobError(f"{key}: bad coefficient {tok!r}") from None
    return out


def job_curve(job):
    if "curve_P" not in job:
        raise JobError("job lacks curve_P")
    P = IntPolynomial(_rat_list("curve_P", job["curve_P"]))
    Q = IntPolynomial(_rat_list("curve_Q", job.get("curve_Q", "0")))
    return WeierstrassEquation(P, Q)


def job_ctx(job, args):
    """The context of --precision-bits; a job states no precision."""
    return PrecisionContext(args.precision_bits)


def _char_pairs(job, key):
    """The comma-separated `m=v` tokens of a character key, as {m: v}; a
    residue written twice raises (char_from_spec catches two residues that
    agree mod f)."""
    pairs = {}
    for tok in (t.strip() for t in job[key].split(",")):
        m, sep, v = tok.partition("=")
        if not sep or not _RESIDUE_RE.match(m):
            raise JobError(f"{key}: bad token {tok!r} (want residue=value)")
        r = int(m)
        if r in pairs:
            raise JobError(f"{key}: residue {r} given twice")
        pairs[r] = v
    return pairs


def job_character(job):
    if "f_K" not in job:
        raise JobError("job lacks f_K")
    try:
        f = int(job["f_K"])
    except ValueError:
        raise JobError(f"f_K: not an integer: {job['f_K']!r}") from None
    given = [k for k in ("character_table", "character_gen") if k in job]
    if len(given) != 1:
        raise JobError("job gives both character_table and character_gen" if given
                       else "job lacks character_table / character_gen")
    key, = given
    return char_from_spec(f, {key.removeprefix("character_"): _char_pairs(job, key)})


def job_periods(job, ctx):
    """The period matrix of the job's tau pair, over delta_F, the conductor
    of chi^2.  tau_poly must fit chi: its discriminant is [O_K : Z[tau]]^2
    Delta_K for an integral tau, and Delta_K = f_K^2 delta_F, so the
    quotient must be a rational square (necessary, not sufficient)."""
    chi = job_character(job)
    if "tau_poly" not in job:
        raise JobError("job lacks tau_poly")
    poly = IntPolynomial(_rat_list("tau_poly", job["tau_poly"]))
    taus = cmperiod.select_tau(poly, ctx)
    disc_K = chi.f ** 2 * chi.delta_F
    q = disc_n(poly, 4) / disc_K
    if q <= 0 or any(isqrt(n) ** 2 != n for n in (q.numerator, q.denominator)):
        raise JobError(f"tau_poly does not fit f_K = {chi.f}: its discriminant over "
                       f"f_K^2 delta_F = {disc_K} is not a rational square")
    return [cmperiod.period_matrix(*taus, chi.delta_F, ctx)]


def _fmt(x, digits=30):
    return mp.nstr(x, digits, strip_zeros=False)


def cmd_igusa(args):
    job = parse_job(args.job)
    eq = job_curve(job)
    inv = igusa_invariants(eq)
    print("discriminant =", discriminant(eq))
    for name, v in zip(("J2", "J4", "J6", "J8", "J10"), inv.as_tuple()):
        print(f"{name} = {v}")
    for i in (1, 3, 4):
        r = inv.ratio(i)
        if r is not None:
            print(f"J{2 * i}^5/J10{f'^{i}' if i > 1 else ''} =", r)
    return 0


def cmd_theta(args):
    job = parse_job(args.job)
    ctx = job_ctx(job, args)
    Z = job_periods(job, ctx)[0]
    with ctx.work():
        _, zred = siegel.reduce(Z, ctx)
        walk = ThetaWalk(zred, ctx)
        print("theta_level =", walk.plan.level)
        print("theta_radius_sq =", _fmt(mp.mpf(walk.plan.radius_sq), 12))
        print("theta_terms =", walk.plan.terms)
        for ch, v in zip(EVEN_CHARS, walk.roots()):
            print(f"{ch} =", _fmt(v))
        print("chi10 =", _fmt(walk.chi10))
        print("arch_term_bare =", _fmt(walk.arch(bare=True)))
        print("arch_term =", _fmt(walk.arch(bare=False)))
    return 0


def cmd_reduce(args):
    entries = []
    with open(args.matrix) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                entries.append(line)
    if len(entries) != 3:
        print("matrix file must list z11, z12, z22 (one per line)", file=sys.stderr)
        return 1
    ctx = PrecisionContext(args.precision_bits)
    with ctx.work():
        vals = []
        for e in entries:
            re_s, im_s = parse_complex(e)
            vals.append(mp.mpc(mp.mpf(re_s), mp.mpf(im_s)))
        Z = PeriodMatrix(*vals)
        gamma, zred = siegel.reduce(Z, ctx)
        print("gamma =", gamma.m)
        for name, v in zip(("z11", "z12", "z22"), zred.entries()):
            print(f"{name} =", _fmt(v))
    return 0


def cmd_height_colmez(args):
    job = parse_job(args.job)
    ctx = job_ctx(job, args)
    chi = job_character(job)
    w = char_weighted_sum(chi)
    h = colmez_height(chi, ctx)
    print("f_K =", chi.f)
    print("char_weighted_sum =", f"{w[0]}{w[1]:+d}*i")
    print("height =", _fmt(h))
    plan = taylor_plan(ctx)
    print("taylor_shift =", plan.shift)
    print("taylor_terms =", plan.terms)
    print("log_gamma_args =", len(half_residues(chi)))
    _print_notes()
    return 0


def cmd_height_local(args):
    job = parse_job(args.job)
    ctx = job_ctx(job, args)
    eq = job_curve(job)
    periods = job_periods(job, ctx)
    hb = height_local(eq, periods, len(periods), ctx)
    print("finite_part =", _fmt(hb.finite_part))
    for p in hb.local_ledger:
        mark = "" if is_prime(p.p) else " (unfactored)"
        with ctx.work():
            term = p.height_term
        print(f"  p={p.p}{mark} iota={p.iota} ord_min_disc={p.ord_min_disc} "
              f"term={_fmt(term)}")
    for lbl, v in hb.arch_terms:
        print(f"arch[{lbl}] =", _fmt(v))
    print("total =", _fmt(hb.total))
    _print_notes()
    return 0


def cmd_compare(args):
    job = parse_job(args.job)
    ctx = job_ctx(job, args)
    eq = job_curve(job)
    chi = job_character(job)
    periods = job_periods(job, ctx)
    rep = compare(eq, periods, len(periods), chi, ctx)
    print("engine=local   total =", _fmt(rep.local.total))
    print("engine=colmez  total =", _fmt(rep.colmez))
    print("discrepancy =", _fmt(rep.discrepancy, 8))
    print("tolerance =", _fmt(rep.tolerance, 8))
    print("precision_bits =", ctx.prec)
    print("result =", "PASS" if rep.passed else "FAIL")
    _print_notes()
    return 0 if rep.passed else 2


def cmd_verify_bounds(args):
    ctx = PrecisionContext(args.precision_bits)
    failures, checks = bounds.verify_bounds(args.samples, args.seed, ctx)
    print(f"samples = {args.samples}")
    print(f"seed = {args.seed}")
    print(f"checks = {checks}")
    print(f"failures = {len(failures)}")
    for desc, z in failures:
        print("FAIL:", desc, z)
    return 0 if not failures else 2


def _print_notes():
    for note in HYPOTHESES:
        print("note:", note)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="g2heights")
    ap.add_argument("--precision-bits", type=int, default=256,
                    help="working precision (default 256); compare passes "
                         "when the engines agree to 2^-(N-32)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("igusa", cmd_igusa),
        ("theta", cmd_theta),
        ("height-colmez", cmd_height_colmez),
        ("height-local", cmd_height_local),
        ("compare", cmd_compare),
    ):
        p = sub.add_parser(name)
        p.add_argument("job")
        p.set_defaults(fn=fn)
    p = sub.add_parser("reduce")
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_reduce)
    p = sub.add_parser("verify-bounds")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_verify_bounds)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:
            raise  # --help
        # argparse has printed the usage error; it is an input error, and
        # exit 2 means a failed verification
        return 1
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error:", exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
