"""High-precision kernel: precision contexts, log-Gamma on (0,1], and
complex polynomial roots.

mpmath supplies the big-float substrate (mpf/mpc arithmetic, exp, log, pi)
and the starting values of the roots (mpmath.polyroots).  log_gamma, the
Newton polish of the roots, their residual check and the check that no two
roots coincide are implemented here so their error behaviour is under our
control.
"""

from __future__ import annotations

import mpmath as mp
from mpmath.libmp import NoConvergence

from .exact import IntPolynomial

GUARD_BITS = 32


class PrecisionContext:
    """Immutable working-precision handle.  All numeric routines take one.

    prec is the target precision in bits; computations run at prec + guard
    bits and results are trusted to ~2^(-prec + guard).
    """

    def __init__(self, prec_bits: int = 256):
        if prec_bits < 64:
            raise ValueError("precision below 64 bits not supported")
        self.prec = prec_bits
        self.guard = GUARD_BITS
        self.workbits = prec_bits + GUARD_BITS
        with mp.workprec(self.workbits):
            self.pi = +mp.pi
            self.log2 = mp.log(2)

    def work(self):
        """Context manager setting mpmath to the working precision."""
        return mp.workprec(self.workbits)

    @property
    def tol(self):
        with mp.workprec(self.workbits):
            return mp.mpf(2) ** (-self.prec + self.guard)

    def __repr__(self):
        return f"PrecisionContext(prec_bits={self.prec})"


_bernoulli_cache: dict[int, list] = {}


def _bernoulli_table(workbits: int, nmax: int):
    key = workbits
    tab = _bernoulli_cache.get(key, [])
    if len(tab) < nmax:
        with mp.workprec(workbits + 16):
            tab = [+mp.bernoulli(2 * n) for n in range(1, nmax + 1)]
        _bernoulli_cache[key] = tab
    return tab


def log_gamma(x, ctx: PrecisionContext):
    """log Gamma(x) for real x in (0, 1].

    Argument shift x -> x+N into the Stirling regime, then the asymptotic
    series with the first omitted term as remainder bound, then subtract
    the shift logs.
    """
    with ctx.work():
        x = mp.mpf(x) if not isinstance(x, mp.mpf) else x
        if not (0 < x <= 1):
            raise ValueError("log_gamma requires x in (0, 1]")
        if x == 1:
            return mp.mpf(0)
        wb = ctx.workbits
        # Stirling at z >= 0.18*wb makes the series bottom out below 2^-wb
        N = int(0.18 * wb) + 8
        z = x + N
        # log Gamma(z) = (z-1/2) log z - z + (1/2) log(2 pi) + series
        s = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * ctx.pi) / 2
        z2 = z * z
        zpow = z
        cut = mp.mpf(2) ** (-(wb + 16))
        bern = _bernoulli_table(wb, int(0.6 * wb) + 20)
        for n, b2n in enumerate(bern, start=1):
            term = b2n / ((2 * n) * (2 * n - 1) * zpow)
            s += term
            if abs(term) < cut:
                break
            zpow *= z2
        else:
            raise ArithmeticError("Stirling series did not reach tolerance")
        # Gamma(x) = Gamma(x+N) / (x (x+1) ... (x+N-1))
        for j in range(N):
            s -= mp.log(x + j)
        return +s


def poly_roots(p: IntPolynomial, ctx: PrecisionContext):
    """All complex roots of a squarefree polynomial, sorted by (Re, Im).

    mpmath.polyroots gives starting values to half the working precision,
    computing at workbits + 32 like the polish so that a close pair of roots
    stays apart; Newton's method then polishes each one.  Raises
    ArithmeticError if the seeding fails, a residual is too large, or two
    polished roots coincide to within 2^-(workbits/2) |z|.
    """
    if p.gcd_degree_with_derivative() != 0:
        raise ValueError("polynomial is not squarefree")
    deg = p.degree
    if deg == 0:
        return []
    with mp.workprec(ctx.workbits + 32):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in p.coeffs]
        lead = coeffs[-1]
        cn = [c / lead for c in coeffs]  # monic, ascending
        dcoef = [i * c for i, c in enumerate(cn)][1:]

        def horner(cs, z):
            r = mp.mpc(0)
            for c in reversed(cs):
                r = r * z + c
            return r

        # cleanup=False: a seed rounded onto the real axis would keep the
        # real Newton iteration there.  Durand-Kerner needs more than
        # mpmath's default 50 steps to separate a close pair of roots.
        half = ctx.workbits // 2
        try:
            with mp.workprec(half):
                seeds = mp.polyroots(cn[::-1], maxsteps=200, cleanup=False,
                                     extraprec=ctx.workbits + 32 - half)
        except NoConvergence as exc:
            raise ArithmeticError(f"root seeding did not converge: {exc}") from exc
        target = mp.mpf(2) ** (-ctx.workbits)
        polished = []
        for z in seeds:
            z = mp.mpc(z)
            for _ in range(int(mp.log(ctx.workbits, 2)) + 6):
                step = horner(cn, z) / horner(dcoef, z)
                z = z - step
                if abs(step) < target * max(1, abs(z)):
                    break
            resid = abs(horner(cn, z))
            scale = max(abs(z), 1) ** deg
            if resid > mp.mpf(2) ** (-ctx.prec) * scale:
                raise ArithmeticError(f"root residual too large: {resid}")
            polished.append(z)
        apart = mp.mpf(2) ** -half
        for i, zi in enumerate(polished):
            for zj in polished[i + 1:]:
                if abs(zi - zj) <= apart * max(1, abs(zi)):
                    raise ArithmeticError(
                        f"two roots coincide to {half} bits near {zi}")
        polished.sort(key=lambda z: (mp.re(z), mp.im(z)))
    with ctx.work():
        return [+z for z in polished]
