"""Assembly of the local-decomposition height and the two-engine
comparison.

The local route:  h = (1/[k:Q]) [ finite part from the Igusa invariants
+ sum over embeddings of -(1/10) log(2^8 pi^10 |chi10(Z_red)| det(Im Z_red)^5) ].

HYPOTHESES, printed with every CLI height report: the jacobian has good
reduction everywhere, and (for the CM comparison) its endomorphism ring is
the full ring of integers of the CM field.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    local_ledger: list


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
            local_ledger=ledger,
        )


@dataclass
class ComparisonReport:
    local: HeightBreakdown
    colmez: object
    discrepancy: object
    passed: bool
    tolerance: object  # the threshold the discrepancy was held to


def compare(curve: WeierstrassEquation, periods, degree: int,
            chi: DirichletCharacter, ctx: PrecisionContext,
            tolerance=None) -> ComparisonReport:
    """Both engines' heights; they pass when they differ by less than
    tolerance, by default ctx.tol, the accuracy ctx claims for each."""
    with ctx.work():
        local = height_local(curve, periods, degree, ctx)
        hc = colmez_height(chi, ctx)
        disc = abs(local.total - hc)
        tol = ctx.tol if tolerance is None else mp.mpf(tolerance)
        return ComparisonReport(
            local=local, colmez=hc, discrepancy=+disc,
            passed=bool(disc < tol), tolerance=tol,
        )
