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


def test_char_examples_valid():
    char_from_spec(5, CHI5)
    char_from_spec(61, CHI61)
    char_from_spec(16, CHI16)


def test_char_invalid_specs():
    with pytest.raises(CharacterError):
        char_from_spec(5, {"table": {1: "1", 2: "-1", 3: "-1", 4: "1"}})  # order 2
    with pytest.raises(CharacterError):
        char_from_spec(5, {"table": {1: "1", 2: "i", 3: "i", 4: "-1"}})  # not mult.
    with pytest.raises(CharacterError):
        char_from_spec(5, {"gen": {4: "i"}})  # 4 does not generate, and chi(4)=i
    with pytest.raises(CharacterError):
        char_from_spec(5, {"table": {1: "1", 2: "i", 4: "-1"}})  # incomplete


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
    wbar = char_weighted_sum(chi.conjugate())
    assert w[1] + wbar[1] == 0
    assert w[0] == wbar[0]


def test_conjugate_height_equal(ctx):
    with ctx.work():
        chi = char_from_spec(16, CHI16)
        h = colmez_height(chi, ctx)
        hbar = colmez_height(chi.conjugate(), ctx)
        assert abs(h - hbar) < ctx.tol


def test_closed_form_f5(ctx):
    # (1/2) log 5 + (1/2) log(Gamma(1/5)^-3 Gamma(2/5)^-1 Gamma(3/5) Gamma(4/5)^3)
    with ctx.work():
        chi = char_from_spec(5, CHI5)
        h = colmez_height(chi, ctx)
        lg = [log_gamma(mp.mpf(k) / 5, ctx) for k in range(1, 5)]
        closed = mp.log(5) / 2 + (-3 * lg[0] - lg[1] + lg[2] + 3 * lg[3]) / 2
        assert abs(h - closed) < ctx.tol


EXAMPLES = ((5, CHI5), (61, CHI61), (16, CHI16))


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


def test_height_4096_agrees_with_1024():
    chi = char_from_spec(61, CHI61)
    lo, hi = PrecisionContext(1024), PrecisionContext(4096)
    h_lo, h_hi = colmez_height(chi, lo), colmez_height(chi, hi)
    with hi.work():
        assert abs(h_hi - h_lo) < lo.tol


@pytest.mark.parametrize("f,spec,calls", [(5, CHI5, 2), (61, CHI61, 30), (16, CHI16, 4)])
def test_reflection_halves_log_gamma_calls(ctx, monkeypatch, f, spec, calls):
    seen = []

    def counted(x, c):
        seen.append(x)
        return log_gamma(x, c)

    monkeypatch.setattr(colmez, "log_gamma", counted)
    chi = char_from_spec(f, spec)
    colmez_height(chi, ctx)
    assert seen == [Fraction(m, f) for m in half_residues(chi)]
    assert len(seen) == calls
