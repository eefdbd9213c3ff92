"""Verifier for the archimedean lower bounds on the fundamental domain:
per-characteristic theta bounds (0.44 / 0.75 / 1.12 rules) and the chi10
lower bound with c0 = 8e-5.

check_bounds tests every lemma bound at one Z in F2 from a single theta
walk; verify_bounds runs it over deterministic samples of F2.
These are theorems on F2; any violation (beyond tracked error) is an
implementation bug, so the sampling harness treats a single failure as fatal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath as mp

from . import siegel
from .prec import PrecisionContext
from .theta import EVEN_CHARS, PeriodMatrix, ThetaCharacteristic, ThetaWalk

CHI10_C0 = mp.mpf(8) / 10 ** 5


@dataclass
class BoundCheck:
    bound: object
    value: object
    passed: bool
    rule: str


def _require_f2(Z: PeriodMatrix, ctx: PrecisionContext):
    if not siegel.in_fundamental_domain(Z, ctx):
        raise ValueError("Z is not in the fundamental domain")


def _a_quadform(ch: ThetaCharacteristic, Z: PeriodMatrix):
    # a^T (Im Z) a with a = (a1/2, a2/2)
    y11, y12, y22 = Z.im_entries()
    a1 = mp.mpf(ch.a1) / 2
    a2 = mp.mpf(ch.a2) / 2
    return a1 * a1 * y11 + 2 * a1 * a2 * y12 + a2 * a2 * y22


def theta_lb(ch: ThetaCharacteristic, Z: PeriodMatrix, ctx: PrecisionContext):
    """The applicable lemma bound for |theta_ch(0, Z)| on F2."""
    with ctx.work():
        if (ch.a1, ch.a2) == (0, 0):
            return mp.mpf("0.44"), "a=0"
        if (ch.a1, ch.a2) != (1, 1):
            return mp.mpf("0.75") * mp.exp(-ctx.pi * _a_quadform(ch, Z)), "a half"
        # a = (1/2, 1/2); b = (nu/2, nu/2)
        if ch.b1 != ch.b2:
            raise ValueError("no lemma covers a=(1/2,1/2) with b1 != b2")
        nu = ch.b1
        factor = abs(1 + (-1) ** nu * mp.expjpi(Z.z12))
        expo = mp.exp(-ctx.pi * (_a_quadform(ch, Z) - mp.im(Z.z12)))
        return mp.mpf("1.12") * factor * expo, "a=(1/2,1/2)"


def chi10_lb(Z: PeriodMatrix, ctx: PrecisionContext):
    """The (sharp, weak) lemma lower bounds for |chi10(Z)| on F2."""
    with ctx.work():
        y11, y12, y22 = Z.im_entries()
        pref = CHI10_C0 * min(mp.mpf(1), ctx.pi * abs(Z.z12)) ** 2
        return (pref * mp.exp(-2 * ctx.pi * (y11 + y22 - y12)),
                pref * mp.exp(-2 * ctx.pi * (y11 + y22)))


def check_bounds(Z: PeriodMatrix, ctx: PrecisionContext) -> list[BoundCheck]:
    """Every lemma bound at Z in F2, from the ten squares and chi10 of one
    theta walk: the ten theta bounds in EVEN_CHARS order, then the sharp and
    the weak chi10 bound.
    |theta| is the real square root of |theta^2|.

    A value passes when it reaches its bound within its own error, relative
    to its size: on F2 the walk plans from these lemmas' floor, which puts
    every square above 2^-(e_1 + L + 1) for the leading-term exponent e_1
    of 2Z and the locus bits L of z12, and each keeps about workbits bits
    relative to its own size (the lemma floor of the theta module
    docstring), so |theta| keeps workbits - 9 bits relative and chi10, a
    product of ten squares, workbits - 12."""
    _require_f2(Z, ctx)
    with ctx.work():
        walk = ThetaWalk(Z, ctx)
        cases = [(mp.sqrt(abs(s)), *theta_lb(ch, Z, ctx))
                 for ch, s in zip(EVEN_CHARS, walk.squares())]
        c = abs(walk.chi10)
        sharp, weak = chi10_lb(Z, ctx)
        cases += [(c, sharp, "chi10 sharp"), (c, weak, "chi10 weak")]
        slack = 1 + mp.mpf(2) ** (12 - ctx.workbits)
        return [BoundCheck(bound=+bound, value=+val,
                           passed=bool(val * slack >= bound), rule=rule)
                for val, bound, rule in cases]


def sample_fundamental_domain(n: int, seed: int, ctx: PrecisionContext):
    """n deterministic samples in F2: random Re in [-1/2, 1/2], Im drawn
    from the reduced cone with Im z11 in [sqrt(3)/2, 3], then reduce().  An
    error of reduce on a sample is raised, not drawn past."""
    if n < 1:
        raise ValueError("n >= 1 required")
    rng = random.Random(seed)
    out = []
    with ctx.work():
        for _ in range(n):
            x11 = rng.uniform(-0.5, 0.5)
            x12 = rng.uniform(-0.5, 0.5)
            x22 = rng.uniform(-0.5, 0.5)
            y11 = rng.uniform(3 ** 0.5 / 2, 3.0)
            y22 = y11 * rng.uniform(1.0, 2.5)
            y12 = rng.uniform(0.0, y11 / 2)
            Z = PeriodMatrix(mp.mpc(x11, y11), mp.mpc(x12, y12), mp.mpc(x22, y22))
            out.append(siegel.reduce(Z, ctx)[1])
    return out


def verify_bounds(n: int, seed: int, ctx: PrecisionContext):
    """Run check_bounds over n sampled matrices; returns (failures, total
    checks).  failures is a list of (description, serialized Z) for replay."""
    failures = []
    checks = 0
    samples = sample_fundamental_domain(n, seed, ctx)
    with ctx.work():
        # weak / sharp = e^(-2 pi Im z12), Im z12 >= -f2_tol on F2 at ctx,
        # and each bound is within a few units of 2^-workbits relative; an
        # absolute check fails to fire where both are below ctx.tol
        weak_max = (mp.exp(2 * ctx.pi * siegel.f2_tol(ctx))
                    * (1 + mp.mpf(2) ** (12 - ctx.workbits)))
        for Z in samples:
            results = check_bounds(Z, ctx)
            checks += len(results)
            for ch, r in zip(EVEN_CHARS, results):
                if not r.passed:
                    failures.append((f"theta bound {r.rule} ch={ch}", repr(Z)))
            sharp, weak = results[len(EVEN_CHARS):]
            for r in (sharp, weak):
                if not r.passed:
                    failures.append((f"{r.rule} bound", repr(Z)))
            if weak.bound > sharp.bound * weak_max:
                failures.append(("weak bound exceeds sharp bound", repr(Z)))
    return failures, checks
