"""Gamma-value route to the height of a CM jacobian with cyclic quartic CM
field: the primitive odd order-4 Dirichlet character chi of the field, of
conductor f, and the closed formula

    h(A) = (1/2) log f  +  f * Re( sum_m chi(m) log Gamma(m/f) / sum_m chi(m) m ).

chi is built in one way: from its values on residues that generate
(Z/f)^*, extended multiplicatively; a full value table is the case where
every unit is given.  Character values live in Z[i] and are stored as
integer pairs (a, b) = a + bi; all character algebra is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

import mpmath as mp

from .exact import factor
from .prec import SERIES_BITS, PrecisionContext, cut_mul, log_gamma

# the four units of Z[i], index = power of i
_UNITS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
_UNIT_NAMES = {"1": 0, "i": 1, "-1": 2, "-i": 3}


class CharacterError(ValueError):
    pass


class DirichletCharacter:
    """The primitive odd order-4 character mod f with chi(m) = i^k for each
    pair (m, k) of values, whose residues m must generate (Z/f)^*.

    chi is built from chi(1) = 1 by one coset extension per given residue g
    of value i^k: the subgroup H built so far becomes the union of the
    H g^j, j < r, r the least power with g^r in H, with chi(h g^j) =
    chi(h) i^(jk).  That is a character exactly when chi(g^r) = i^(rk), the
    only multiplicativity check: a value that breaks it means no character
    takes the given values, and a table smaller than phi(f) means they do
    not generate.  phi(f) and the conductors take the primes of f from
    exact.factor, which finds all of them for any f whose table can be
    built: such an f is below 10^9, so what trial division below 1000
    leaves has at most two prime factors, each above 1000.  One is a prime,
    and rho splits two; a composite left unsplit would only make phi(f) too
    large, and the build raise.  The conductor of chi^k is the least d | f
    with chi^k trivial on the units = 1 mod d; those d are closed under gcd
    and under multiples, so it is found from f by dividing out one prime of
    f at a time while chi^k stays trivial.  chi must be odd and have
    conductor f, and delta_F, the conductor of chi^2 (the character of the
    real quadratic subfield F, so Delta_K = f^2 delta_F), must be above 1:
    chi has order 4.  table maps each unit to its power of i; chi is zero
    elsewhere."""

    def __init__(self, f: int, values):
        if f < 3:
            raise CharacterError(f"character modulus {f} is below 3")
        given = {}
        for m, k in values:
            r = m % f
            if r in given:
                raise CharacterError(f"residue {r} mod {f} given twice")
            if gcd(r, f) != 1:
                raise CharacterError(f"residue {r} is not a unit mod {f}")
            given[r] = k
        table = {1: 0}
        for g, k in given.items():
            powers, x = [1], g
            while x not in table:
                powers.append(x)
                x = x * g % f
            if table[x] != len(powers) * k % 4:
                raise CharacterError(f"no character mod {f} takes these values")
            if len(powers) > 1:
                table = {h * y % f: (v + j * k) % 4 for h, v in table.items()
                         for j, y in enumerate(powers)}
        primes = sorted(factor(f))
        if len(table) != f // prod(primes) * prod(p - 1 for p in primes):
            raise CharacterError(f"the given residues do not generate (Z/{f})^*")
        fchi, self.delta_F = (_conductor(table, f, primes, k) for k in (1, 2))
        if self.delta_F == 1:
            raise CharacterError("character order is not 4")
        if table[f - 1] != 2:
            raise CharacterError("character is not odd (chi(-1) != -1)")
        if fchi != f:
            raise CharacterError(f"character mod {f} has conductor {fchi}: "
                                 "f_K must be the conductor of chi")
        self.f, self.table = f, table

    def value(self, m: int):
        """chi(m) as a Gaussian-integer pair; (0,0) off the units."""
        k = self.table.get(m % self.f)
        return (0, 0) if k is None else _UNITS[k]


def _conductor(table, f: int, primes, k: int) -> int:
    """The conductor of chi^k, chi given by its table of powers of i on the
    units mod f, whose primes are primes: from d = f, each prime p of f
    leaves d while chi^k is trivial on the units = 1 mod d / p."""
    d = f
    for p in primes:
        while d % p == 0 and all(table.get(m, 0) * k % 4 == 0
                                 for m in range(1 + d // p, f, d // p)):
            d //= p
    return d


def char_from_spec(f: int, spec) -> DirichletCharacter:
    """spec: {'table': {m: v}} or {'gen': {g: v}} with v one of the names
    '1', 'i', '-1', '-i'.  Both are built by DirichletCharacter; a table
    must also give every unit of (Z/f)^*.  Any other key, or both, is
    refused: neither is dropped unread."""
    if set(spec) not in ({"table"}, {"gen"}):
        raise CharacterError("spec must have one key, 'table' or 'gen', "
                             f"not {sorted(map(str, spec))}")
    (kind, pairs), = spec.items()
    values = []
    for m, v in pairs.items():
        try:
            values.append((int(m), _UNIT_NAMES[v.strip()]))
        except (KeyError, AttributeError):
            raise CharacterError(f"character value {v!r} is not 1, i, -1 or -i") from None
    chi = DirichletCharacter(f, values)
    if kind == "table" and len(values) != len(chi.table):
        raise CharacterError("value table does not cover (Z/f)^* exactly")
    return chi


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

    The residues are grouped by the value i^k of chi(m) into at most four
    groups G_k.  A group's term L_k is real, so with
    w = sum_m chi(m) m = a + bi,

        Re(sum_k i^k L_k / w) = sum_k c_k L_k / |w|^2,  c_k = Re(i^k conj(w)),

    that is c = (a, b, -a, -b), integers.  So log pi enters sum_k c_k |G_k|
    times, and folds with the sines' logs and (1/2) log f into one log:

        h = f / |w|^2 (sum_(m<f/2) 2 c_(k(m)) log Gamma(m/f)
                       + log((S_0 / S_2)^(q a) (S_1 / S_3)^(q b) f^(q |w|^2 / 2f)
                             pi^(-n_pi)) / q),

    k(m) the group of m, S_k the product of group k's sines (1 for an
    empty group), q = 2f / gcd(|w|^2, 2f) the least q that makes the
    power of f an integer (1 on ex1-ex3), and n_pi = q sum_k c_k |G_k|
    (-4, -244 and -64 on ex1-ex3).  The weighted sum of log Gammas is one
    log_gamma call, m/f weighted by 2 c_(k(m)): one Horner and one log for
    all the residues.  A weight multiplies its residue's error, the shift
    product's rounding included, by |2 c_k| <= 2 |w|, and h divides by
    |w|^2.  The sum comes back at W = workbits + 16 bits and h is summed
    at p = W + 3 bits(f), so it is rounded once, at workbits.

    The sines come from the Chebyshev recurrence s_(m+1) = 2 c s_m - s_(m-1),
    s_m = sin(pi m/f), c = cos(pi/f), run on ints at the scale 2^-p.  It
    starts from s_0 = 0 and from s_1 and c, the parts of exp(i pi/f) taken
    with mpmath at p + 8 bits and rounded, each off by less than 0.51 ulps.
    A step rounds 2 c s_m down and multiplies the error of c by
    2 |s_m| <= 2, so it adds less than 2.1 ulps.  An error added at step k
    reaches step m multiplied by U_(m-k)(c), of modulus
    |sin((m-k+1) pi/f) / sin(pi/f)| <= m - k + 1, so s_m is off by less than
    2.1 m^2/2 + 0.51 m < 1.05 m^2 + m ulps.  For m < f/2,
    sin(pi m/f) >= 2m/f, so each sine keeps a relative error below
    (1.05 m + 1) f/2 < f^2 ulps, that is 2^-(W + bits(f)), and the logs of
    the at most f/2 sines sum to within 2^-(W+1).  S_k is their running
    product, a real block float times each sine by one prec.cut_mul at p
    bits, whose bound for a real product gives each cut less than 2^(1-p)
    relative, so the |G_k| cuts add less than 2 |G_k| ulps of 2^-p to
    log S_k, far inside the f^2 ulps budgeted per sine.  The fold weights
    group k's by |c_k| <= |w|, and h divides by |w|^2: the same f / |w|
    that the quotient by w gave.
    pi at p bits is within 2^-p relative, so pi^(-n_pi) is within
    (|n_pi| + 2) 2^-p, and |n_pi| <= q |w| f/2 (|c_k| <= |w|, at most f/2
    residues).  The powers, their product and the log, taken at p bits, add
    less than (f/2) |w| (log(f) + 1) 2^-p + (log(f) + 2) 2^-p before the
    factor f / |w|^2, below 2^-(W+1) as |w| >= 1 and 2^p >= 2^W (f+1)^3.

    The divisor never vanishes: sum_m chi(m) m = f B_{1,chi} = -f L(0, chi),
    and L(0, chi) != 0 for a primitive odd chi, by the functional equation
    and L(1, conj chi) != 0.
    """
    f = chi.f
    residues = half_residues(chi)
    W = ctx.workbits + SERIES_BITS
    p = W + 3 * f.bit_length()
    with mp.workprec(p + 8):
        zeta = mp.expjpi(mp.mpf(1) / f)
        c, s1 = (int(mp.nint(mp.ldexp(v, p))) for v in (zeta.real, zeta.imag))
    ints = [0, s1]
    for _ in range(residues[-1] - 1):
        ints.append((c * ints[-1] >> (p - 1)) - ints[-2])
    groups = [[] for _ in _UNITS]  # the residues with chi(m) = i^k
    for m in residues:
        groups[chi.table[m]].append(m)
    a, b = char_weighted_sum(chi)
    weights = (a, b, -a, -b)  # c_k = Re(i^k conj(w))
    w2 = a * a + b * b
    q = 2 * f // gcd(w2, 2 * f)  # (1/2) log f = f / (q |w|^2) log f^(q |w|^2 / 2f)
    n_pi = q * sum(c * len(ms) for c, ms in zip(weights, groups))
    lg = log_gamma([Fraction(m, f) for m in residues], ctx,
                   [2 * weights[chi.table[m]] for m in residues])
    with mp.workprec(p):
        S = []  # each S_k a running real block float, one cut_mul per factor
        for ms in groups:
            x = (1, 0, 0)
            for m in ms:
                x = cut_mul(x, (ints[m], 0, -p), p)
            S.append(mp.mpf((x[0], x[2])))
        s = mp.log((S[0] / S[2]) ** (q * a) * (S[1] / S[3]) ** (q * b)
                   * mp.mpf(f) ** (q * w2 // (2 * f)) * mp.pi ** -n_pi) / q
        h = f * (s + lg) / w2
    with ctx.work():
        return +h
