"""Gamma-value route to the height of a CM jacobian with cyclic quartic CM
field: order-4 odd Dirichlet characters and the closed formula

    h(A) = (1/2) log f  +  f * Re( sum_m chi(m) log Gamma(m/f) / sum_m chi(m) m ).

Character values live in Z[i] and are stored as integer pairs (a, b) = a + bi;
all character algebra is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath as mp

from .prec import PrecisionContext, log_gamma

# the four units of Z[i], index = power of i
_UNITS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
_UNIT_NAMES = {"1": 0, "i": 1, "-1": 2, "-i": 3}


class CharacterError(ValueError):
    pass


class DirichletCharacter:
    """Order-4 odd character mod f; values are powers of i on units,
    zero elsewhere.  table maps residue -> unit index (power of i)."""

    def __init__(self, f: int, table: dict[int, int]):
        self.f = f
        self.table = dict(table)
        self._validate()

    def _validate(self):
        f = self.f
        units = [m for m in range(1, f) if gcd(m, f) == 1]
        if sorted(self.table) != units:
            raise CharacterError("value table does not cover (Z/f)^* exactly")
        if self.table.get(1 % f) != 0:
            raise CharacterError("chi(1) != 1")
        for a in units:
            for b in units:
                if (self.table[a] + self.table[b]) % 4 != self.table[a * b % f]:
                    raise CharacterError(
                        f"multiplicativity fails at ({a}, {b}) mod {self.f}"
                    )
        if not any(k % 2 == 1 for k in self.table.values()):
            raise CharacterError("character order is not 4")
        if self.table[f - 1] != 2:
            raise CharacterError("character is not odd (chi(-1) != -1)")

    def value(self, m: int):
        """chi(m) as a Gaussian-integer pair; (0,0) off the units."""
        k = self.table.get(m % self.f)
        return (0, 0) if k is None else _UNITS[k]

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.f, {m: (-k) % 4 for m, k in self.table.items()})


def char_from_spec(f: int, spec) -> DirichletCharacter:
    """spec: {'table': {m: v}} or {'gen': {g: v}} with v one of the names
    '1', 'i', '-1', '-i'.  Generator specs are extended multiplicatively and
    must determine chi on all of (Z/f)^*.  Two keys that agree mod f raise
    CharacterError, whatever their values."""
    def unit_index(v):
        try:
            return _UNIT_NAMES[v.strip()]
        except (KeyError, AttributeError):
            raise CharacterError(f"character value {v!r} is not 1, i, -1 or -i") from None

    def by_residue(values):
        out = {}
        for m, v in values.items():
            r = int(m) % f
            if r in out:
                raise CharacterError(f"residue {r} mod {f} given twice")
            out[r] = unit_index(v)
        return out

    if f < 3:
        raise CharacterError(f"character modulus {f} is below 3")
    if "table" in spec:
        return DirichletCharacter(f, by_residue(spec["table"]))
    if "gen" in spec:
        assign = by_residue(spec["gen"])
        table = {1 % f: 0}
        frontier = [1 % f]
        while frontier:
            nxt = []
            for m in frontier:
                for g, k in assign.items():
                    t = m * g % f
                    val = (table[m] + k) % 4
                    if t in table:
                        if table[t] != val:
                            raise CharacterError("inconsistent generator assignment")
                    else:
                        table[t] = val
                        nxt.append(t)
            frontier = nxt
        units = [m for m in range(1, f) if gcd(m, f) == 1]
        if sorted(table) != units:
            raise CharacterError("generators do not generate (Z/f)^*")
        return DirichletCharacter(f, table)
    raise CharacterError("spec must contain 'table' or 'gen'")


def char_weighted_sum(chi: DirichletCharacter):
    """sum_{m=1}^{f-1} chi(m) m, exact in Z[i]; returned as a pair (a, b)."""
    a = b = 0
    for m in range(1, chi.f):
        va, vb = chi.value(m)
        a += va * m
        b += vb * m
    return (a, b)


def half_residues(chi: DirichletCharacter) -> list[int]:
    """The units m < f/2 mod f: the arguments m/f colmez_height passes to
    log_gamma."""
    return [m for m in range(1, (chi.f + 1) // 2) if chi.value(m) != (0, 0)]


def colmez_height(chi: DirichletCharacter, ctx: PrecisionContext):
    """chi is odd, chi(f - m) = -chi(m), and log Gamma(1 - x) = log pi -
    log sin(pi x) - log Gamma(x), so the sum over m < f runs over m < f/2:

        sum_m chi(m) log Gamma(m/f)
          = sum_{m<f/2} chi(m) (2 log Gamma(m/f) - log pi + log sin(pi m/f)).

    The sines are grouped by the value i^k of chi(m): each of the at most
    four groups takes one log of the product of its sines, and log pi is
    multiplied once by sum_{m<f/2} chi(m).

    The sines come from one root of unity: sin(pi m/f) = Im zeta^m with
    zeta = exp(i pi/f), and zeta^m is walked by repeated products at
    p = workbits + 2 bits(f) + 2.  |zeta| = 1, and zeta and each product
    round each component once, so each step adds less than 3 2^-p to the
    absolute error, and zeta^m is off by less than 3 m 2^-p < 2 f 2^-p for
    m < f/2.  There sin(pi m/f) >= 2/f, so each sine keeps a relative error
    below f^2 2^-p < 2^-(workbits+2).
    """
    f = chi.f
    wa, wb = char_weighted_sum(chi)
    if (wa, wb) == (0, 0):
        raise CharacterError("vanishing weighted character sum")
    residues = half_residues(chi)
    with mp.workprec(ctx.workbits + 2 * f.bit_length() + 2):
        zeta, power, sin = mp.expjpi(mp.mpf(1) / f), mp.mpc(1), {}
        for m in range(1, residues[-1] + 1):
            power *= zeta
            sin[m] = power.imag
    with ctx.work():
        s = mp.mpc(0)
        ca = cb = 0  # sum_{m<f/2} chi(m) = ca + cb i
        sines = [mp.mpf(1)] * 4  # prod of sin(pi m/f) over chi(m) = i^k
        for m in residues:
            va, vb = chi.value(m)
            s += mp.mpc(va, vb) * (2 * log_gamma(Fraction(m, f), ctx))
            ca, cb = ca + va, cb + vb
            sines[chi.table[m]] *= sin[m]
        s -= mp.mpc(ca, cb) * mp.log(ctx.pi)
        for unit, p in zip(_UNITS, sines):
            s += mp.mpc(*unit) * mp.log(p)
        w = mp.mpc(wa, wb)
        return +(mp.log(f) / 2 + f * mp.re(s / w))
