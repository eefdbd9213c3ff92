from fractions import Fraction

import mpmath as mp
import pytest

from g2heights import colmez
from g2heights.colmez import (CharacterError, char_from_spec,
                              char_weighted_sum, colmez_height, half_residues)
from g2heights.prec import PrecisionContext, log_gamma

CHI5 = {"table": {1: "1", 2: "i", 3: "-i", 4: "-1"}}
CHI61 = {"gen": {2: "i"}}
CHI16 = {"table": {1: "1", 3: "i", 5: "i", 7: "1", 9: "-1", 11: "-i",
                   13: "-i", 15: "-1"}}
EXAMPLES = ((5, CHI5), (61, CHI61), (16, CHI16))


def _conjugate(spec):
    """The spec of the conjugate character: the names i and -i swapped."""
    swap = {"i": "-i", "-i": "i"}
    (kind, values), = spec.items()
    return {kind: {m: swap.get(v, v) for m, v in values.items()}}


def test_char_examples_valid():
    # delta_F is the conductor of chi^2: F = Q(sqrt 5), Q(sqrt 61), Q(sqrt 2)
    assert [char_from_spec(f, spec).delta_F for f, spec in EXAMPLES] == [5, 61, 8]


def test_char_invalid_specs():
    with pytest.raises(CharacterError):
        char_from_spec(5, {"table": {1: "1", 2: "-1", 3: "-1", 4: "1"}})  # order 2
    with pytest.raises(CharacterError):
        char_from_spec(5, {"table": {1: "1", 2: "i", 3: "i", 4: "-1"}})  # not mult.
    with pytest.raises(CharacterError):
        char_from_spec(5, {"gen": {4: "i"}})  # 4 does not generate, and chi(4)=i
    with pytest.raises(CharacterError):
        char_from_spec(5, {"table": {1: "1", 2: "i", 4: "-1"}})  # incomplete
    with pytest.raises(CharacterError, match="value 0 is not 1, i, -1 or -i"):
        char_from_spec(5, {"table": {1: 0, 2: 1, 3: 3, 4: 2}})  # unit indices
    # 7 = 2 mod 5: the second value must not replace the first
    with pytest.raises(CharacterError, match="residue 2 mod 5 given twice"):
        char_from_spec(5, {"table": {1: "1", 2: "i", 3: "-i", 4: "-1", 7: "-i"}})
    with pytest.raises(CharacterError, match="residue 2 mod 5 given twice"):
        char_from_spec(5, {"gen": {2: "i", 7: "i"}})
    # a residue that shares a factor with f is named before any other check
    with pytest.raises(CharacterError, match="residue 2 is not a unit mod 16"):
        char_from_spec(16, {"gen": {2: "i"}})
    with pytest.raises(CharacterError, match="residue 0 is not a unit mod 5"):
        char_from_spec(5, {"gen": {0: "1", 2: "i"}})
    with pytest.raises(CharacterError, match="residue 0 is not a unit mod 5"):
        char_from_spec(5, {"table": {1: "1", 2: "i", 3: "-i", 4: "-1", 0: "1"}})


def test_char_spec_takes_exactly_one_key():
    # a conflicting gen next to a table, or a misspelled extra key, is
    # refused rather than dropped
    table = CHI5["table"]
    for spec in ({"table": table, "gen": {2: "-i"}}, {"table": table, "gens": {2: "-i"}},
                 {"gen": {2: "i"}, "tabel": table}, {}, {"tabel": table}):
        with pytest.raises(CharacterError, match="spec must have one key, 'table' or 'gen'"):
            char_from_spec(5, spec)
    assert char_from_spec(5, CHI5).table == char_from_spec(5, {"gen": {2: "i"}}).table


def test_two_generators_give_ex3_table():
    # (Z/16)^* = <3> x <15> is not cyclic, so a gen spec needs both
    chi = char_from_spec(16, {"gen": {3: "i", 15: "-1"}})
    ex3 = char_from_spec(16, CHI16)
    assert chi.table == ex3.table
    ctx = PrecisionContext(256)
    assert colmez_height(chi, ctx) == colmez_height(ex3, ctx)


def test_full_table_is_a_generator_assignment():
    # ex2's table written out on every unit: chi(2^j) = i^j mod 61
    names = ["1", "i", "-1", "-i"]
    table = {pow(2, j, 61): names[j % 4] for j in range(60)}
    assert char_from_spec(61, {"table": table}).table == char_from_spec(61, CHI61).table


def test_weighted_sums():
    assert char_weighted_sum(char_from_spec(61, CHI61)) == (-61, 61)
    assert char_weighted_sum(char_from_spec(16, CHI16)) == (-16, -16)
    assert char_weighted_sum(char_from_spec(5, CHI5)) == (-3, -1)


def test_orthogonality():
    for f, spec in ((5, CHI5), (61, CHI61), (16, CHI16)):
        chi = char_from_spec(f, spec)
        s = [0, 0]
        for m in range(1, f):
            v = chi.value(m)
            s[0] += v[0]
            s[1] += v[1]
        assert s == [0, 0]


def test_conjugate_sum_real():
    chi = char_from_spec(61, CHI61)
    w = char_weighted_sum(chi)
    wbar = char_weighted_sum(char_from_spec(61, _conjugate(CHI61)))
    assert w[1] + wbar[1] == 0
    assert w[0] == wbar[0]


def test_conjugate_height_equal(ctx):
    with ctx.work():
        chi = char_from_spec(16, CHI16)
        h = colmez_height(chi, ctx)
        hbar = colmez_height(char_from_spec(16, _conjugate(CHI16)), ctx)
        assert abs(h - hbar) < ctx.tol


def test_closed_form_f5(ctx):
    # (1/2) log 5 + (1/2) log(Gamma(1/5)^-3 Gamma(2/5)^-1 Gamma(3/5) Gamma(4/5)^3)
    with ctx.work():
        chi = char_from_spec(5, CHI5)
        h = colmez_height(chi, ctx)
        lg = [log_gamma([Fraction(k, 5)], ctx) for k in range(1, 5)]
        closed = mp.log(5) / 2 + (-3 * lg[0] - lg[1] + lg[2] + 3 * lg[3]) / 2
        assert abs(h - closed) < ctx.tol


def _oracle_height(chi, bits):
    """The closed formula summed over all m < f with mpmath.loggamma."""
    with mp.workprec(bits):
        s = mp.fsum(mp.mpc(*chi.value(m)) * mp.loggamma(mp.mpf(m) / chi.f)
                    for m in range(1, chi.f))
        return mp.log(chi.f) / 2 + chi.f * mp.re(s / mp.mpc(*char_weighted_sum(chi)))


@pytest.mark.parametrize("f,spec", EXAMPLES)
def test_height_against_oracle_1024(f, spec):
    ctx = PrecisionContext(1024)
    chi = char_from_spec(f, spec)
    h = colmez_height(chi, ctx)
    with mp.workprec(ctx.workbits + 96):
        assert abs(h - _oracle_height(chi, ctx.workbits + 96)) < ctx.tol


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("f", [13, 29, 37, 53, 101, 661])
def test_height_against_oracle_past_61(f, bits):
    # p = 5 mod 8 with 2 a primitive root: chi(2) = i has order 4 and
    # chi(-1) = i^((p-1)/2) = -1; f = 101 walks the sine chain 50 steps and
    # f = 661 walks it 330, where the chain's error, which grows as m^2, is
    # largest.
    # The bound is 2^12 ulps of workbits, not ctx.tol = 2^64 ulps, so that
    # guard bits lost in the sine chain or the int Horner show here
    ctx = PrecisionContext(bits)
    chi = char_from_spec(f, CHI61)
    assert chi.delta_F == f  # chi^2 is the Legendre symbol mod f
    h = colmez_height(chi, ctx)
    with mp.workprec(ctx.workbits + 96):
        err = abs(h - _oracle_height(chi, ctx.workbits + 96))
        assert err < mp.mpf(2) ** (12 - ctx.workbits)


def _least_primitive_root(p):
    return next(g for g in range(2, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1)


@pytest.mark.parametrize("f", [p for p in range(5, 200, 8) if all(p % d for d in range(2, p))])
def test_height_against_oracle_primes_5_mod_8(f):
    # chi(g) = i for the least primitive root g mod a prime f = 5 mod 8, so
    # chi(-1) = i^((f-1)/2) = -1; up to f = 197 its groups hold up to 25
    # residues, more than ex2's 8, and so their power sums and shift
    # products are longer.  Bound as in test_height_against_oracle_past_61
    ctx = PrecisionContext(256)
    chi = char_from_spec(f, {"gen": {_least_primitive_root(f): "i"}})
    h = colmez_height(chi, ctx)
    with mp.workprec(ctx.workbits + 96):
        err = abs(h - _oracle_height(chi, ctx.workbits + 96))
        assert err < mp.mpf(2) ** (12 - ctx.workbits)


def test_height_4096_agrees_with_1024():
    chi = char_from_spec(61, CHI61)
    lo, hi = PrecisionContext(1024), PrecisionContext(4096)
    h_lo, h_hi = colmez_height(chi, lo), colmez_height(chi, hi)
    with hi.work():
        assert abs(h_hi - h_lo) < lo.tol


@pytest.mark.parametrize("f,spec", EXAMPLES, ids=["ex1", "ex2", "ex3"])
def test_reflection_one_weighted_log_gamma_call(ctx, monkeypatch, f, spec):
    # one call per height, over the residues m < f/2, each weighted by
    # 2 Re(chi(m) conj(w)), w = sum_m chi(m) m
    seen = []

    def counted(xs, c, weights=None):
        seen.append((xs, weights))
        return log_gamma(xs, c, weights)

    monkeypatch.setattr(colmez, "log_gamma", counted)
    chi = char_from_spec(f, spec)
    colmez_height(chi, ctx)
    (xs, weights), = seen
    a, b = char_weighted_sum(chi)
    assert xs == [Fraction(m, f) for m in half_residues(chi)]
    assert weights == [2 * (va * a + vb * b) for va, vb in map(chi.value, half_residues(chi))]


@pytest.mark.parametrize("f,spec", EXAMPLES, ids=["ex1", "ex2", "ex3"])
def test_colmez_height_mpmath_logs(monkeypatch, f, spec):
    # warm: one log in the weighted log_gamma call, and one for all the
    # sines, f and pi
    ctx = PrecisionContext(256)
    chi = char_from_spec(f, spec)
    colmez_height(chi, ctx)
    calls, log = [], mp.log

    def counted(*args, **kwargs):
        calls.append(args)
        return log(*args, **kwargs)

    monkeypatch.setattr(mp, "log", counted)
    colmez_height(chi, ctx)
    assert len(calls) == 2
