"""Assembly of the local-decomposition height, the two-engine comparison,
and conversion between height normalizations.

The local route:  h = (1/[k:Q]) [ finite part from the Igusa invariants
+ sum over embeddings of -(1/10) log(2^8 pi^10 |chi10(Z_red)| det(Im Z_red)^5) ].

HYPOTHESES, printed with every CLI height report: the jacobian has good
reduction everywhere, and (for the CM comparison) its endomorphism ring is
the full ring of integers of the CM field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp

from . import siegel
from .colmez import DirichletCharacter, colmez_height
from .igusa import WeierstrassEquation, finite_height_part, igusa_invariants
from .prec import PrecisionContext
from .theta import archimedean_term

HYPOTHESES = (
    "assumes the jacobian has good reduction at every finite place",
    "assumes End(Jac) is the maximal order of the CM field (conditional "
    "equality for CM comparisons)",
)


@dataclass
class HeightBreakdown:
    finite_part: object
    arch_terms: list  # (label, value) pairs; values include 2^8 pi^10
    total: object
    error_bound: object
    local_ledger: list = field(default_factory=list)


def height_local(curve: WeierstrassEquation, periods, degree: int,
                 ctx: PrecisionContext) -> HeightBreakdown:
    if degree < 1 or len(periods) != degree:
        raise ValueError(f"degree = {degree} needs that many period matrices, "
                         f"got {len(periods)}")
    with ctx.work():
        inv = igusa_invariants(curve)
        fin, ledger = finite_height_part(inv, ctx)
        arch = []
        for idx, Z in enumerate(periods):
            _, zred = siegel.reduce(Z, ctx)
            arch.append((f"sigma_{idx}", archimedean_term(zred, ctx)))
        total = (fin + mp.fsum(v for _, v in arch)) / degree
        return HeightBreakdown(
            finite_part=fin / degree,
            arch_terms=[(lbl, v / degree) for lbl, v in arch],
            total=+total,
            error_bound=ctx.tol * (len(arch) + 2),
            local_ledger=ledger,
        )


@dataclass
class ComparisonReport:
    local: HeightBreakdown
    colmez: object
    discrepancy: object
    passed: bool
    precision_bits: int


def compare(curve: WeierstrassEquation, periods, degree: int,
            chi: DirichletCharacter, ctx: PrecisionContext,
            tolerance=1e-9) -> ComparisonReport:
    with ctx.work():
        local = height_local(curve, periods, degree, ctx)
        hc = colmez_height(chi, ctx)
        disc = abs(local.total - hc)
        return ComparisonReport(
            local=local, colmez=hc, discrepancy=+disc,
            passed=bool(disc < mp.mpf(tolerance)), precision_bits=ctx.prec,
        )


# offsets of each convention relative to h = h_Deligne, in units of
# (g/2): h_deligne = h_colmez + (g/2) log 2pi = h_faltings + (g/2) log pi
#        = h_fplus - (g/2) log 2pi
_OFFSETS = {"deligne": (0, 0), "colmez": (1, 1), "faltings": (0, 1),
            "fplus": (-1, -1)}  # (multiple of log 2, multiple of log pi)


def convert_normalization(h, frm: str, to: str, g: int, ctx: PrecisionContext):
    if frm not in _OFFSETS or to not in _OFFSETS:
        raise ValueError(f"unknown normalization tag: {frm!r} or {to!r}")
    with ctx.work():
        c2f, cpf = _OFFSETS[frm]
        c2t, cpt = _OFFSETS[to]
        half_g = mp.mpf(g) / 2
        return +(mp.mpf(h)
                 + half_g * ((c2f - c2t) * ctx.log2
                             + (cpf - cpt) * mp.log(ctx.pi)))