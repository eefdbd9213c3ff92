import functools
import hashlib
import importlib.util
import itertools
import math
import os
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import from_rational, round_nearest

from g2heights import bounds, cli, cmperiod, siegel
from g2heights.prec import PrecisionContext
from g2heights.siegel import (GOTTSCHLING, SymplecticMatrix, act, f2_tol,
                              in_fundamental_domain, reduce)
from g2heights.theta import PeriodMatrix, chi10

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")

J_MAT = SymplecticMatrix.from_blocks([[0, 0], [0, 0]], [[-1, 0], [0, -1]],
                                     [[1, 0], [0, 1]], [[0, 0], [0, 0]])

GENS = [J_MAT,
        SymplecticMatrix.translation(1, 0, 0),
        SymplecticMatrix.translation(0, 1, 0),
        SymplecticMatrix.translation(0, 0, 1),
        SymplecticMatrix.embed_gl2([[1, 1], [0, 1]]),
        SymplecticMatrix.embed_gl2([[0, 1], [1, 0]]),
        SymplecticMatrix.embed_gl2([[1, 0], [0, -1]])]


def iI():
    return PeriodMatrix(mp.mpc(0, 1), 0, mp.mpc(0, 1))


def random_word(rng, n):
    g = SymplecticMatrix.identity()
    for _ in range(n):
        g = g * rng.choice(GENS)
    return g


def _blocks(g):
    """The blocks A, B, C, D of g = [[A, B], [C, D]], each as rows."""
    m = g.m
    return ([r[:2] for r in m[:2]], [r[2:] for r in m[:2]],
            [r[:2] for r in m[2:]], [r[2:] for r in m[2:]])


def _read(Z):
    """Z as the exact image that _step decides on."""
    return siegel._Image.identity(siegel._Ints(Z))


def test_symplectic_check():
    with pytest.raises(ValueError):
        SymplecticMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]])
    # non-integral entries are refused, not truncated to the identity
    for half in (1.5, Fraction(3, 2), mp.mpf("1.5")):
        with pytest.raises(ValueError):
            SymplecticMatrix([[half, 0, 0, 0], [0, 1, 0, 0], [0, 0, half, 0], [0, 0, 0, 1]])
    assert SymplecticMatrix([[1.0, 0, 0, 0], [0, Fraction(1), 0, 0], [0, 0, 1, 0],
                             [0, 0, 0, 1]]) == SymplecticMatrix.identity()


def test_symplectic_blocks_match_j_form():
    # the block identities are gamma^T J gamma = J, on words and on
    # small integer matrices, nearly all of them not symplectic
    J = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]

    def j_form(m):
        mt = [list(r) for r in zip(*m)]
        return siegel._mat4_mul(siegel._mat4_mul(mt, J), m) == J

    rng = random.Random(3)
    words = [random_word(rng, rng.randint(1, 10)).m for _ in range(200)]
    mats = words + [[[v + ((i, j) == (k // 4, k % 4)) for j, v in enumerate(r)]
                     for i, r in enumerate(m)] for m in words for k in range(16)]
    mats += [[[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)] for _ in range(2000)]
    found = 0
    for m in mats:
        g = object.__new__(SymplecticMatrix)
        g.m = m
        expected = j_form(m)
        assert g._is_symplectic() == expected, m
        found += expected
    assert 200 <= found < len(mats)


def test_gottschling_all_symplectic():
    assert len(GOTTSCHLING) == 29
    for g in GOTTSCHLING:
        assert g._is_symplectic()


def _act_shapes(rng):
    """Every Gottschling matrix, the translations with entries in -2..2,
    GL2 changes, and general words."""
    out = list(GOTTSCHLING)
    out += [SymplecticMatrix.translation(*b) for b in itertools.product(range(-2, 3), repeat=3)]
    gl2 = [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [1, 1]], [[1, 0], [0, -1]]]
    while len(gl2) < 16:
        U = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        if U[0][0] * U[1][1] - U[0][1] * U[1][0] in (1, -1):
            gl2.append(U)
    out += [SymplecticMatrix.embed_gl2(U) for U in gl2] + [siegel._FLIP_Z12]
    out += [random_word(rng, rng.randint(2, 8)) for _ in range(16)]
    # lam = 0 with beta != 0 and alpha != I takes the general branch
    out.append(SymplecticMatrix.translation(1, -1, 2) * SymplecticMatrix.embed_gl2([[2, 1], [1, 1]]))
    return out


def _cz_plus_d(c, d, z):
    """The entries m11, m12, m21, m22 of C Z + D, Z = (z11, z12, z22), and
    so of A Z + B.  On |C|, |D| and |z| they are the sums of the absolute
    values of the terms."""
    z11, z12, z22 = z
    return (c[0][0] * z11 + c[0][1] * z12 + d[0][0], c[0][0] * z12 + c[0][1] * z22 + d[0][1],
            c[1][0] * z11 + c[1][1] * z12 + d[1][0], c[1][0] * z12 + c[1][1] * z22 + d[1][1])


def _act_hi(gamma, Z, bits):
    """(alpha Z + beta)(lam Z + mu)^-1 at bits, from all of Z's bits."""
    with mp.workprec(bits):
        a, b, c, d = _blocks(gamma)
        n11, n12, n21, n22 = _cz_plus_d(a, b, Z.entries())
        m11, m12, m21, m22 = _cz_plus_d(c, d, Z.entries())
        det = m11 * m22 - m12 * m21
        return [(n11 * m22 - n12 * m21) / det, (n12 * m11 - n11 * m12) / det,
                (n22 * m11 - n21 * m12) / det]


@pytest.mark.parametrize("bits", [256, 1024, 4096, "workbits + 64"])
def test_act_rounds_the_exact_image(bits):
    # every part of act(g, Z) is the exact part of g Z rounded once to
    # nearest at the working precision: within half an ulp of it, by
    # mpmath at 256 more bits, whose own error is below 2^-(workbits + 200)
    # of the entries; a part is 0 only where that reference is 0 to within
    # its error.  On every shape, a translation, a GL2 change, the full and
    # the partial inversions, and random words
    rng = random.Random(11)
    if bits == "workbits + 64":
        # more input bits than the working precision: act reads all of them
        c = PrecisionContext(256)
        with mp.workprec(c.workbits + 64):
            base = PeriodMatrix(mp.mpc(mp.mpf(1) / 3, mp.mpf(8) / 7),
                                mp.mpc(mp.mpf(-1) / 5, mp.mpf(2) / 7), mp.mpc(mp.mpf(2) / 9, 3))
            Zs = [act(random_word(rng, 6), base) for _ in range(3)]
        assert all(z._mpc_[0][3] > c.workbits for Z in Zs for z in Z.entries())
    else:
        c = PrecisionContext(bits)
        Zs = [cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0]
              for name in ("ex1", "ex2", "ex3")]
    _assert_act_rounds(c, Zs, _act_shapes(rng))


def _assert_act_rounds(c, Zs, shapes):
    """Every part of act(g, Z) at c's working precision is within half an
    ulp of mpmath's g Z at 256 more bits, for each Z and shape g."""
    hi = c.workbits + 256
    for Z in Zs:
        for g in shapes:
            with c.work():
                W = act(g, Z)
            ref = _act_hi(g, Z, hi)
            with mp.workprec(hi):
                err = mp.mpf(2) ** -(c.workbits + 200) * max(1, *(abs(w) for w in ref))
                for w, r in zip(W.entries(), ref):
                    for part, exact in ((w.real, r.real), (w.imag, r.imag)):
                        assert part._mpf_[3] <= c.workbits, g
                        if not part:
                            assert abs(exact) <= err, g
                        else:
                            ulp = mp.mpf(2) ** (part._mpf_[2] + part._mpf_[3] - c.workbits)
                            assert abs(part - exact) <= ulp / 2 + err, g


def test_reduce_and_act_with_no_fraction_bits():
    # every part of these Z is an int, most with trailing zero bits, so Z's
    # ints take the scale 2^0: no shift by it may go negative, and the
    # terms in det X still enter every word with C != 0, the partial
    # inversions (A != 0) among them
    c = PrecisionContext(256)
    with c.work():
        Zs = [PeriodMatrix(mp.mpc(0, 2), 0, mp.mpc(0, 2)),
              PeriodMatrix(mp.mpc(4, 2), 0, mp.mpc(2, 8)),
              PeriodMatrix(mp.mpc(3, 1), 0, mp.mpc(0, 1)),
              PeriodMatrix(mp.mpc(0, 4), mp.mpc(0, 2), mp.mpc(0, 4))]
    assert [siegel._Ints(Z).S for Z in Zs] == [0] * len(Zs)
    words = []
    for k, Z in enumerate(Zs):
        _assert_same_as_oracle(Z, c, k)
        gamma, _ = reduce(Z, c)
        words.append(gamma == SymplecticMatrix.identity())
        assert in_fundamental_domain(Z, c) == words[-1], k
    assert words == [True, False, False, True]
    _assert_act_rounds(c, Zs, _act_shapes(random.Random(12)))


def test_act_identity(ctx):
    with ctx.work():
        Z = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"),
                         mp.mpc("-0.3", "1.5"))
        W = act(SymplecticMatrix.identity(), Z)
        assert abs(W.z11 - Z.z11) + abs(W.z12 - Z.z12) + abs(W.z22 - Z.z22) < ctx.tol


def test_act_translation(ctx):
    with ctx.work():
        Z = iI()
        W = act(SymplecticMatrix.translation(5, 0, 7), Z)
        assert abs(W.z11 - (Z.z11 + 5)) < ctx.tol
        assert abs(W.z22 - (Z.z22 + 7)) < ctx.tol


def test_act_inversion_fixed_point(ctx):
    with ctx.work():
        W = act(J_MAT, iI())
        assert abs(W.z11 - mp.mpc(0, 1)) < ctx.tol
        assert abs(W.z12) < ctx.tol
        assert abs(W.z22 - mp.mpc(0, 1)) < ctx.tol


def test_act_composition(ctx):
    rng = random.Random(9)
    with ctx.work():
        Z = PeriodMatrix(mp.mpc("0.1", "1.0"), mp.mpc("0.05", "0.2"),
                         mp.mpc("-0.2", "1.4"))
        for _ in range(20):
            g1 = random_word(rng, 3)
            g2 = random_word(rng, 3)
            a = act(g1 * g2, Z)
            b = act(g1, act(g2, Z))
            err = abs(a.z11 - b.z11) + abs(a.z12 - b.z12) + abs(a.z22 - b.z22)
            assert err < mp.mpf(2) ** (-ctx.prec // 2)


def test_membership(ctx):
    with ctx.work():
        assert in_fundamental_domain(iI(), ctx)
        shifted = PeriodMatrix(mp.mpc(5, 1), 0, mp.mpc(0, 1))
        assert not in_fundamental_domain(shifted, ctx)


def _near_boundary(ctx):
    """Matrices 2^-200 off the boundary of F2, each from the same interior
    point, at ctx's precision."""
    with ctx.work():
        eps = mp.mpf(2) ** -200
        z11, z12, z22 = mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"), mp.mpc("-0.3", "1.5")
        return {
            "Re z11 = 1/2 + eps": PeriodMatrix(mp.mpc(mp.mpf(1) / 2 + eps, "1.2"), z12, z22),
            "Im z12 = -eps": PeriodMatrix(z11, mp.mpc("0.2", -eps), z22),
            "y22 = y11 - eps": PeriodMatrix(z11, z12, mp.mpc("-0.3", mp.mpf("1.2") - eps)),
            "Im z12 = 0, Re z12 = -0.3": PeriodMatrix(z11, mp.mpc("-0.3", 0), z22),
        }


def test_membership_iff_identity_word(ctx):
    # in F2 exactly when reduce has nothing to do, at reduce's own tolerance
    near = _near_boundary(ctx)
    samples = bounds.sample_fundamental_domain(10, 3, ctx)
    with ctx.work():
        for label, Z in [*near.items(), *(("sample", Z) for Z in samples)]:
            gamma, zr = reduce(Z, ctx)
            untouched = gamma == SymplecticMatrix.identity() and zr.entries() == Z.entries()
            assert in_fundamental_domain(Z, ctx) == untouched, label
        # of the four, only Im z12 = -eps is inside: its sign is read within tol
        assert [in_fundamental_domain(Z, ctx) for Z in near.values()] == [
            False, True, False, False]


def test_membership_decided_at_ctx_outside_any_scope():
    # y22 = y11 - 2^-100, built at 256 bits: outside F2, and reduce moves it.
    # At the ambient 53 bits, the decisions lost the 2^-100.
    c = PrecisionContext(256)
    with c.work():
        Z = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc("0.05", "0.3"),
                         mp.mpc("-0.2", mp.mpf("1.2") - mp.mpf(2) ** -100))
    assert not in_fundamental_domain(Z, c)
    gamma, _ = reduce(Z, c)
    assert gamma != SymplecticMatrix.identity()


def test_example1_printed_not_reduced(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        Z = cmperiod.period_matrix(s5 * zeta, -s5 * zeta ** 3, 5, ctx)
        assert not in_fundamental_domain(Z, ctx)


def test_reduce_already_reduced(ctx):
    with ctx.work():
        gamma, zr = reduce(iI(), ctx)
        assert abs(zr.z11 - mp.mpc(0, 1)) < ctx.tol
        assert abs(zr.z22 - mp.mpc(0, 1)) < ctx.tol


def test_reduce_translation(ctx):
    with ctx.work():
        Z = PeriodMatrix(mp.mpc(3, 1), mp.mpc(2, 0), mp.mpc(-4, 1))
        gamma, zr = reduce(Z, ctx)
        assert in_fundamental_domain(zr, ctx)


def test_reduce_properties(ctx):
    rng = random.Random(77)
    with ctx.work():
        tol = f2_tol(ctx)
        for _ in range(10):
            Z = PeriodMatrix(
                mp.mpc(rng.uniform(-2, 2), rng.uniform(0.2, 2)),
                mp.mpc(rng.uniform(-2, 2), rng.uniform(-0.1, 0.1)),
                mp.mpc(rng.uniform(-2, 2), rng.uniform(0.5, 2.5)))
            gamma, zr = reduce(Z, ctx)
            assert in_fundamental_domain(zr, ctx)
            # products are built without the symplectic check: still symplectic
            assert gamma._is_symplectic()
            # gamma really maps Z to zr
            W = act(gamma, Z)
            assert abs(W.z11 - zr.z11) + abs(W.z12 - zr.z12) + abs(
                W.z22 - zr.z22) < tol
            # classical consequence of (i)-(iii)
            assert mp.im(zr.z11) >= mp.sqrt(3) / 2 - tol
            # det Im never decreased
            assert zr.det_im() >= Z.det_im() - tol


def test_reduce_preserves_chi10_invariant(ctx):
    with ctx.work():
        zeta = mp.expjpi(mp.mpf(2) / 5)
        s5 = mp.sqrt(5)
        Z = cmperiod.period_matrix(s5 * zeta, -s5 * zeta ** 3, 5, ctx)
        _, zr = reduce(Z, ctx)
        a = abs(chi10(Z, ctx)) * Z.det_im() ** 5
        b = abs(chi10(zr, ctx)) * zr.det_im() ** 5
        assert abs(a - b) / a < mp.mpf(2) ** (-ctx.prec + 40)


# the reduction words of the shipped jobs, by (job, precision).  Their
# reduced matrices lie on ties of F2, and each tie falls on the side that
# the exact image of Z, with Z's own rounding, puts it: ex2's Re z11 =
# Re z12 = 1/2, where at 1024 bits Re z12 lands at -1/2, one translation
# away; and ex1's Re z12 = 1/2, which at 512 bits is 1/2 - 2^-548 after
# the partial inversion (Z's rounding noise, below the ulp of a move at the
# working precision, which rounding each move made a tie), and which its
# word at 1024 bits reaches from the other side, at -1/2.
_W_EX1 = [[1, 0, 0, 0], [3, 1, 0, 0], [2, 1, 1, -3], [-2, -1, 0, 1]]
_W_EX1_512 = [[1, 0, -1, 3], [3, 1, 0, -1], [1, 0, 0, 0], [0, 0, 0, 1]]
_W_EX1_1024 = [[1, 0, -1, 2], [2, 1, 0, -1], [1, 0, 0, 0], [0, 0, 0, 1]]
_W_EX2 = [[1, 0, 0, -2], [-34, -1, 2, -56], [0, 0, 1, -34], [0, 0, 0, -1]]
_W_EX2_1024 = [[1, 0, 0, -1], [-34, -1, 1, -22], [0, 0, 1, -34], [0, 0, 0, -1]]
_W_EX3 = [[0, 0, -1, 5], [5, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
EX_WORDS = {("ex1", 256): _W_EX1, ("ex1", 512): _W_EX1_512, ("ex1", 1024): _W_EX1_1024,
            ("ex1", 4096): _W_EX1_1024,
            ("ex2", 256): _W_EX2, ("ex2", 512): _W_EX2, ("ex2", 1024): _W_EX2_1024,
            ("ex2", 4096): _W_EX2,
            ("ex3", 256): _W_EX3, ("ex3", 512): _W_EX3, ("ex3", 1024): _W_EX3,
            ("ex3", 4096): _W_EX3}


def test_reduce_z_red_is_act_of_gamma():
    # Z_red is gamma Z rounded once at the working precision, bit for bit
    # act(gamma, Z), whenever gamma != I; with gamma = I it is Z itself
    c = PrecisionContext(256)
    rng = random.Random(4)
    Zs = [cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0]
          for name in ("ex1", "ex2", "ex3")]
    with mp.workprec(c.workbits + 64):
        base = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"), mp.mpc("-0.3", "1.5"))
        Zs += [act(random_word(rng, 8), base) for _ in range(4)]
    Zs += [base]
    for k, Z in enumerate(Zs):
        gamma, zr = reduce(Z, c)
        if gamma == SymplecticMatrix.identity():
            assert zr is Z, k
            continue
        with c.work():
            assert act(gamma, Z).entries() == zr.entries(), k
    assert k == 7 and zr is base


def test_reduce_checks_only_z_red(monkeypatch):
    # act builds its images unchecked: a reduction calls
    # PeriodMatrix.__init__ zero times, returns PeriodMatrix objects, and
    # checks Im Z_red once
    c = PrecisionContext(256)
    rng = random.Random(5)
    with mp.workprec(c.workbits + 64):
        base = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"), mp.mpc("-0.3", "1.5"))
        Zs = [act(random_word(rng, 8), base) for _ in range(4)]
    inits, checks = [], []
    init, check = PeriodMatrix.__init__, PeriodMatrix.check_im_positive

    def counted_init(self, *args):
        inits.append(args)
        init(self, *args)

    def counted_check(self):
        checks.append(self)
        check(self)

    monkeypatch.setattr(PeriodMatrix, "__init__", counted_init)
    monkeypatch.setattr(PeriodMatrix, "check_im_positive", counted_check)
    for k, Z in enumerate(Zs):
        checks.clear()
        gamma, zr = reduce(Z, c)
        assert gamma != SymplecticMatrix.identity(), k
        assert type(zr) is PeriodMatrix, k
        assert all(type(z) is mp.mpc for z in zr.entries()), k
        assert checks == [zr], k
    assert not inits


def test_reduce_word_stable_across_precision(ctx):
    # ex3's reduced matrix has Im z12 = 0 exactly: the word must not follow
    # the rounding noise in it.  Each pinned word, and its Z_red, is the
    # one that exact decisions on the job's Z give, by the Fraction oracle
    reduced = {}
    for (name, bits), word in EX_WORDS.items():
        c = PrecisionContext(bits)
        Z = cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0]
        gamma, reduced[name, bits] = reduce(Z, c)
        assert gamma.m == word, (name, bits)
        _assert_same_as_oracle(Z, c, (name, bits))
    zr = reduced["ex3", 256]
    with ctx.work():
        for bits in (512, 1024):
            z = reduced["ex3", bits]
            assert all(abs(u - v) < ctx.tol for u, v in zip(z.entries(), zr.entries()))


# ---- the decisions against an exact oracle ---------------------------------

def _frac(x):
    """The mpf x as a Fraction, exactly."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def _cmul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _csub(u, v):
    return u[0] - v[0], u[1] - v[1]


def _cdiv(u, v):
    n = v[0] * v[0] + v[1] * v[1]
    return (u[0] * v[0] + u[1] * v[1]) / n, (u[1] * v[0] - u[0] * v[1]) / n


def _exact_image(gamma, Z):
    """gamma Z = (AZ + B)(CZ + D)^-1 on Fractions, from all of Z's bits:
    (w11, w12, w22), each a (re, im) pair."""
    z = [(_frac(v.real), _frac(v.imag)) for v in Z.entries()]
    zm = [[z[0], z[1]], [z[1], z[2]]]

    def affine(p, q):  # p Z + q
        return [[(p[i][0] * zm[0][j][0] + p[i][1] * zm[1][j][0] + q[i][j],
                  p[i][0] * zm[0][j][1] + p[i][1] * zm[1][j][1]) for j in (0, 1)] for i in (0, 1)]

    a, b, c, d = _blocks(gamma)
    n, m = affine(a, b), affine(c, d)
    det = _csub(_cmul(m[0][0], m[1][1]), _cmul(m[0][1], m[1][0]))
    return (_cdiv(_csub(_cmul(n[0][0], m[1][1]), _cmul(n[0][1], m[1][0])), det),
            _cdiv(_csub(_cmul(n[0][1], m[0][0]), _cmul(n[0][0], m[0][1])), det),
            _cdiv(_csub(_cmul(n[1][1], m[0][0]), _cmul(n[1][0], m[0][1])), det))


def _oracle_step(w, tol):
    """The reduction step with every comparison exact, on the Fractions w
    of an exact image and tol: the reference that _step's decisions, on
    ints and on the Gottschling scan's doubles, must reproduce.  Fraction
    rounds ties half to even, as mp.nint does."""
    (x11, y11), (x12, y12), (x22, y22) = w

    def gram(U):
        (a, b), (c, d) = U
        return (a * a * y11 + 2 * a * b * y12 + b * b * y22,
                a * c * y11 + (a * d + b * c) * y12 + b * d * y22,
                c * c * y11 + 2 * c * d * y12 + d * d * y22)

    U, changed = [[1, 0], [0, 1]], False
    while True:
        g11, g12, g22 = gram(U)
        t = round(g12 / g11)
        if t != 0:
            U = [U[0], [U[1][0] - t * U[0][0], U[1][1] - t * U[0][1]]]
        elif g22 < g11:
            U = [U[1], U[0]]
        else:
            break
        changed = True
    if gram(U)[1] < -tol:
        U, changed = [U[0], [-U[1][0], -U[1][1]]], True
    if changed:
        return SymplecticMatrix.embed_gl2(U)
    b = [-round(x) for x in (x11, x12, x22)]
    if any(b):
        return SymplecticMatrix.translation(*b)
    wm = [[w[0], w[1]], [w[1], w[2]]]
    dets = []
    for g in GOTTSCHLING:
        _, _, c, d = _blocks(g)
        m = [[(c[i][0] * wm[0][j][0] + c[i][1] * wm[1][j][0] + d[i][j],
               c[i][0] * wm[0][j][1] + c[i][1] * wm[1][j][1]) for j in (0, 1)] for i in (0, 1)]
        det = _csub(_cmul(m[0][0], m[1][1]), _cmul(m[0][1], m[1][0]))
        dets.append(det[0] ** 2 + det[1] ** 2)
    least = min(range(len(dets)), key=dets.__getitem__)
    if dets[least] < (1 - tol) ** 2:
        return GOTTSCHLING[least]
    if abs(y12) <= tol and x12 < -tol:
        return SymplecticMatrix.embed_gl2([[1, 0], [0, -1]])
    return None


def _oracle_reduce(Z, ctx):
    """Each move decided on the exact image of Z under the word so far, and
    Z_red that image rounded once to nearest at the working precision."""
    tol = _frac(f2_tol(ctx))
    total = SymplecticMatrix.identity()
    w = _exact_image(total, Z)
    while (g := _oracle_step(w, tol)) is not None:
        total = g * total
        w = _exact_image(total, Z)
    if total == SymplecticMatrix.identity():
        return total, Z
    return total, PeriodMatrix._of(*(mp.make_mpc(tuple(
        from_rational(v.numerator, v.denominator, ctx.workbits, round_nearest) for v in e))
        for e in w))


def _scrambles(ctx, n, seed):
    """n matrices gamma Z0 for Z0 in F2 and random words gamma, built at
    ctx's working precision."""
    rng = random.Random(seed)
    out = []
    with ctx.work():
        for _ in range(n):
            y11 = rng.uniform(0.9, 2)
            Z0 = PeriodMatrix(mp.mpc(rng.uniform(-0.5, 0.5), y11),
                              mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0, y11 / 2)),
                              mp.mpc(rng.uniform(-0.5, 0.5), y11 * rng.uniform(1, 20)))
            out.append(act(random_word(rng, rng.randint(2, 12)), Z0))
    return out


@pytest.mark.parametrize("bits", [256, 1024])
def test_reduce_mpc_products(bits, monkeypatch):
    # no move is applied at the working precision: the image is exact in
    # ints and rounded once, so a reduction makes no mpc product or
    # quotient, on ex1-ex3 and on scrambles alike
    c = PrecisionContext(bits)
    Zs = [cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0]
          for name in ("ex1", "ex2", "ex3")] + _scrambles(c, 6, bits)
    calls = []
    for op in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(mp.mpc, op, functools.partialmethod(
            lambda x, y, f: calls.append(1) or f(x, y), f=getattr(mp.mpc, op)))
    counts = []
    for Z in Zs:
        calls.clear()
        gamma, _ = reduce(Z, c)
        assert gamma != SymplecticMatrix.identity()
        counts.append(len(calls))
    assert counts == [0] * len(Zs), counts


def _inverse(g):
    """g^-1 = [[D^T, -B^T], [-C^T, A^T]] for g = [[A, B], [C, D]]."""
    a, b, c, d = ([list(r) for r in zip(*m)] for m in _blocks(g))
    return SymplecticMatrix.from_blocks(d, [[-v for v in r] for r in b],
                                        [[-v for v in r] for r in c], a)


def _act_doubles(g, zd):
    """g W on the complex doubles zd = (w11, w12, w22), by the general
    formula: the doubles that moving W by g on doubles would give."""
    a, b, c, d = _blocks(g)
    n11, n12, n21, n22 = _cz_plus_d(a, b, zd)
    m11, m12, m21, m22 = _cz_plus_d(c, d, zd)
    det = m11 * m22 - m12 * m21
    return [(n11 * m22 - n12 * m21) / det, (n12 * m11 - n11 * m12) / det,
            (n22 * m11 - n21 * m12) / det]


def test_reduce_reads_the_image_after_each_move(monkeypatch):
    # a GL2 change with the entry 2000 on Z = g^-1 Z0, Re z22 of Z0 at
    # 1/2 - 2^-45.  Moved on doubles, Re z22 lands at 1/2 + 2^-35.4, past
    # a 2^-40 margin, where nint on them would translate by -1, while the
    # exact nint is 0.  Each step decides on the exact image of the word so
    # far instead, so the word is the oracle's: the GL2 change alone.  (With
    # ex2's entry 34 the moved doubles stay within the margin of the
    # exact image, and the exact image decides the tie either way.)
    c = PrecisionContext(256)
    g = SymplecticMatrix.embed_gl2([[1, 0], [-2000, -1]])
    with mp.workprec(c.workbits + 64):
        Z0 = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"),
                          mp.mpc(mp.mpf(1) / 2 - mp.mpf(2) ** -45, "1.5"))
        Z = act(_inverse(g), Z0)
    x = _act_doubles(g, _read(Z).read()[0])[2].real
    assert round(x) == 1 and x - 0.5 > siegel.MARGIN * (abs(x) + 1.5)
    assert _exact_image(g, Z)[2][0] < Fraction(1, 2)
    steps, reads = [], []
    step, read = siegel._step, siegel._Image.read
    monkeypatch.setattr(siegel, "_step", lambda im, t: steps.append(im) or step(im, t))
    monkeypatch.setattr(siegel._Image, "read", lambda im: reads.append(im) or read(im))
    gamma, zr = reduce(Z, c)
    assert gamma == g
    assert (gamma.m, zr.entries()) == (lambda g, z: (g.m, z.entries()))(*_oracle_reduce(Z, c))
    # a step at Z, which the Minkowski move decides without doubles, and
    # one after the GL2 change, where the Gottschling scan reads them and
    # the last "no move" is decided
    assert [im.rows for im in steps] == [siegel._IDENTITY, g.m]
    assert reads == steps[1:]


def _benchmark_scrambles(monkeypatch, tmp_path):
    """The inputs of the benchmark's scrambled-domain workload, seed 1: the
    words on its job, isotropic and anisotropic bases, at 256 bits."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "benchmark_run", os.path.join(os.path.dirname(__file__), "..", "benchmarks", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "OUT", tmp_path)  # its job files
    wl = run.Scrambled(run.load_program(), 256, 1)
    return wl.ctx, [op[1] for op in wl.ops]


def test_reduce_reads_doubles_only_for_the_gottschling_scan(monkeypatch, tmp_path):
    # the Minkowski move, the translation and the z12 flip decide on ints:
    # a step reads its image's doubles once, when it reaches the Gottschling
    # scan, and never when a Minkowski or translation move decides it.  On
    # the words of the benchmark's scrambled-domain bases and on ex1-ex3
    ctx, scrambles = _benchmark_scrambles(monkeypatch, tmp_path)
    runs = [(ctx, Z) for Z in scrambles]
    for bits in (256, 1024, 4096):
        c = PrecisionContext(bits)
        runs += [(c, cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0])
                 for name in ("ex1", "ex2", "ex3")]
    steps, scans, reads = [], [], []
    step, scan, read = siegel._step, siegel._gottschling_move, siegel._Image.read

    def counted_step(im, t):
        g = step(im, t)
        steps.append((im, g))
        return g

    monkeypatch.setattr(siegel, "_step", counted_step)
    monkeypatch.setattr(siegel, "_gottschling_move", lambda im, t: scans.append(im) or scan(im, t))
    monkeypatch.setattr(siegel._Image, "read", lambda im: reads.append(im) or read(im))
    for c, Z in runs:
        reduce(Z, c)
    assert len(reads) == len(scans) and all(r is s for r, s in zip(reads, scans))
    early = 0
    for im, g in steps:
        scanned = sum(im is s for s in scans)
        if g is None or g is siegel._FLIP_Z12 or any(g is h for h in GOTTSCHLING):
            assert scanned == 1, g
        else:
            assert scanned == 0, g
            early += 1
    assert early > len(runs) and len(scans) >= len(runs), (early, len(scans))


def test_reduce_carries_the_image_through_moves_with_c_zero(monkeypatch, tmp_path):
    # a GL2 change, the z12 flip or a translation moves the exact image
    # linearly over the same Q.  A reduce starts from Z's own ints
    # (_Image.identity) and forms an image by the one formula (__init__)
    # only after each Gottschling move; in_fundamental_domain forms none.
    # The image each step decides on is, int for int, the one those give
    # afresh for its word: identity(z).moved(word) when C = 0, else
    # _Image(z, word), with the same |q|.  On the benchmark's
    # scrambled-domain words and on ex1-ex3
    ctx, scrambles = _benchmark_scrambles(monkeypatch, tmp_path)
    runs = [(ctx, Z) for Z in scrambles]
    for bits in (256, 1024, 4096):
        c = PrecisionContext(bits)
        runs += [(c, cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0])
                 for name in ("ex1", "ex2", "ex3")]
    steps, builds, starts = [], [], []
    step, init, identity = siegel._step, siegel._Image.__init__, siegel._Image.identity

    def counted_step(im, t):
        g = step(im, t)
        steps.append((im, g))
        return g

    monkeypatch.setattr(siegel, "_step", counted_step)
    monkeypatch.setattr(siegel._Image, "__init__",
                        lambda im, *args: builds.append(im) or init(im, *args))
    monkeypatch.setattr(siegel._Image, "identity",
                        classmethod(lambda cls, z: starts.append(z) or identity(z)))
    for c, Z in runs:
        reduce(Z, c)
    moves = [g for _, g in steps if g is not None]
    gottschling = sum(any(g is h for h in GOTTSCHLING) for g in moves)
    assert (len(starts), len(builds)) == (len(runs), gottschling)
    for c, Z in runs:
        in_fundamental_domain(Z, c)
    assert (len(starts), len(builds)) == (2 * len(runs), gottschling)
    # the moves with C = 0 carried the image: GL2 changes, flips and
    # translations all occur
    kinds = {"flip" if g is siegel._FLIP_Z12 else
             "translation" if g.m[0][:2] == [1, 0] and g.m[1][:2] == [0, 1] else "gl2"
             for g in moves if not any(g is h for h in GOTTSCHLING)}
    assert kinds == {"gl2", "flip", "translation"}
    monkeypatch.undo()

    def norm(q):
        return q[0] ** 2 + q[1] ** 2

    carried, t = 0, 128
    for im, _ in steps:
        if any(v for row in im.rows[2:] for v in row[:2]):
            fresh = siegel._Image(im.z, im.rows)
        else:
            fresh = siegel._Image.identity(im.z).moved(im.rows)
            carried += 1
        assert (im.parts, im.Q, im.rows, norm(im.q)) == (
            fresh.parts, fresh.Q, fresh.rows, norm(fresh.q))
        # |q| is |det(C X + 2^S D)|, X = 2^S Z, on Gaussian ints, and
        # det_below(e, t) is e < (1 - 2^-t)^2 |q|^2
        (c11, c12, d11, d12), (c21, c22, d21, d22) = im.rows[2:]
        x = [[(im.z.x[i + j], im.z.y[i + j]) for j in (0, 1)] for i in (0, 1)]
        m = [[(c[0] * x[0][j][0] + c[1] * x[1][j][0] + (d[j] << im.z.S),
               c[0] * x[0][j][1] + c[1] * x[1][j][1]) for j in (0, 1)]
             for c, d in (((c11, c12), (d11, d12)), ((c21, c22), (d21, d22)))]
        n = norm(_csub(_cmul(m[0][0], m[1][1]), _cmul(m[0][1], m[1][0])))
        assert norm(im.q) == n
        e = ((1 << t) - 1) ** 2 * n >> 2 * t
        assert im.det_below(e - 1, t) and not im.det_below(e + 1, t)
    assert len(runs) < carried < len(steps)


def test_reduce_names_its_step_bound(monkeypatch):
    # every decision is exact, so a higher precision cannot make a
    # reduction terminate: the error names the step bound, not a precision
    c = PrecisionContext(256)
    Z = _scrambles(c, 1, 1)[0]
    assert reduce(Z, c)[0] != SymplecticMatrix.identity()
    monkeypatch.setattr(siegel, "MAX_ITER", 1)
    with pytest.raises(ArithmeticError, match="MAX_ITER = 1 steps") as err:
        reduce(Z, c)
    assert "precision" not in str(err.value)


# the value of test_reduce_bits_are_pinned
REDUCE_SHA256 = "7d10dce8070ef7653890716d7502e8174dd1c3e4577e24817dd3484b862fa941"


def test_reduce_bits_are_pinned(monkeypatch, tmp_path):
    # one sha256 over the word and Z_red's raw parts, as Python ints, on the
    # benchmark's scrambled-domain words and on ex1-ex3 at four precisions.
    # A change that means to move a word or a bit of Z_red updates the value
    # and says why
    ctx, scrambles = _benchmark_scrambles(monkeypatch, tmp_path)
    runs = [(ctx, Z) for Z in scrambles]
    for bits in (256, 512, 1024, 4096):
        c = PrecisionContext(bits)
        runs += [(c, cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0])
                 for name in ("ex1", "ex2", "ex3")]
    h = hashlib.sha256()
    for c, Z in runs:
        gamma, zr = reduce(Z, c)
        raw = [int(v) for z in zr.entries() for part in z._mpc_ for v in part]
        h.update(repr((gamma.m, raw)).encode())
    assert (len(runs), h.hexdigest()) == (69, REDUCE_SHA256)


@pytest.mark.parametrize("bits", [256, 1024])
def test_gottschling_dets_from_the_table_are_cz_plus_d(bits):
    # the 3x3 table of z + d gives the doubles of C Z + D bit for bit, so
    # every decision on them is unchanged
    c = PrecisionContext(bits)
    rng = random.Random(bits + 1)
    with c.work():
        base = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"), mp.mpc("-0.3", "1.5"))
        Zs = [Z for _, Z in _boundary_points(c)]
        Zs += [act(random_word(rng, rng.randint(1, 10)), base) for _ in range(40)]
    def abs2(M):
        return [[abs(v) for v in row] for row in M]

    for Z in Zs:
        zd, _ = _read(Z).read()
        if zd is siegel._NAN3:
            continue
        za = [abs(w) for w in zd]
        expected = []
        for g in GOTTSCHLING:
            cc, dd = _blocks(g)[2:]
            m11, m12, m21, m22 = _cz_plus_d(cc, dd, zd)
            a11, a12, a21, a22 = _cz_plus_d(abs2(cc), abs2(dd), za)
            expected.append((abs(m11 * m22 - m12 * m21), a11 * a22 + a12 * a21))
        assert siegel._gottschling_dets(zd, za) == expected, Z


@pytest.mark.parametrize("bits", [256, 1024])
def test_gottschling_move_pruned_is_the_full_scan(bits):
    # when the doubles leave the move undecided, the exact image takes only
    # the least candidate and those the doubles cannot separate from it;
    # with _NAN3 it takes all 29 determinants.  ex1's Z_red lies on several
    # |det(CZ + D)| = 1 walls
    c = PrecisionContext(bits)
    rng = random.Random(bits + 2)
    Zs = [Z for _, Z in _boundary_points(c)]
    Zs += [reduce(cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0], c)[1]
           for name in ("ex1", "ex2", "ex3")]
    zd, _ = _read(Zs[-3]).read()
    walls = sum(abs(v - 1) < 1e-9 for v, _ in siegel._gottschling_dets(zd, [abs(w) for w in zd]))
    assert walls >= 2, walls
    with c.work():
        base = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc("0.2", "0.3"), mp.mpc("-0.3", "1.5"))
        Zs += [act(random_word(rng, rng.randint(1, 10)), base) for _ in range(40)]
        t = siegel._tol_bits(c)
        for Z in Zs:
            image = _read(Z)
            pruned = siegel._gottschling_move(image, t)
            image.read = lambda: (siegel._NAN3, siegel._NAN3)
            assert pruned is siegel._gottschling_move(image, t), Z


def _assert_same_as_oracle(Z, ctx, label):
    gamma, zr = reduce(Z, ctx)
    gamma_ref, zr_ref = _oracle_reduce(Z, ctx)
    assert gamma.m == gamma_ref.m, label
    assert zr.entries() == zr_ref.entries(), label


@pytest.mark.parametrize("bits", [256, 1024])
def test_reduce_matches_oracle_on_scrambles(bits):
    c = PrecisionContext(bits)
    rng = random.Random(bits)
    with c.work():
        for k in range(12):
            y11 = rng.uniform(0.9, 2)
            Z0 = PeriodMatrix(mp.mpc(rng.uniform(-0.5, 0.5), y11),
                              mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0, y11 / 2)),
                              mp.mpc(rng.uniform(-0.5, 0.5), y11 * rng.uniform(1, 20)))
            _assert_same_as_oracle(act(random_word(rng, rng.randint(2, 12)), Z0), c, k)


def _boundary_points(ctx):
    """(label, Z) at distance 0, +-2^-45 and +-2^-200 from each boundary of
    F2, at ctx's precision: Re z_ij = +-1/2, y22 = y11, 2 |y12| = y11,
    Im z12 = 0 and |det(CZ + D)| = 1.  The last also at points whose
    entries are not dyadic, where a double can fall on either side."""
    out = []
    with ctx.work():
        x = [mp.mpf("0.1"), mp.mpf("0.2"), mp.mpf("-0.3")]
        y = [mp.mpf("1.2"), mp.mpf("0.3"), mp.mpf("1.5")]

        def at(xs, ys):
            return PeriodMatrix(*(mp.mpc(u, v) for u, v in zip(xs, ys)))

        for eps in (0, 2 ** -45, -2 ** -45, 2 ** -200, -2 ** -200):
            eps = mp.mpf(eps)
            for k in range(3):
                for half in (mp.mpf(1) / 2, -mp.mpf(1) / 2):
                    xs = list(x)
                    xs[k] = half + eps
                    out.append((f"Re z{k} = {half} + {eps}", at(xs, y)))
            out.append((f"y22 = y11 + {eps}", at(x, [y[0], y[1], y[0] + eps])))
            for sign in (1, -1):
                out.append((f"y12 = {sign} (y11/2 + {eps})",
                            at(x, [y[0], sign * (y[0] / 2 + eps), y[2]])))
            for x12 in (mp.mpf("0.2"), mp.mpf("-0.3")):
                out.append((f"Im z12 = {eps}, Re z12 = {x12}",
                            at([x[0], x12, x[2]], [y[0], eps, y[2]])))
            s = 1 + eps
            out.append((f"(1 + {eps}) iI", PeriodMatrix(mp.mpc(0, s), 0, mp.mpc(0, s))))
            # |e^{ti}| rounds to 1 - 2^-53 in doubles at t = 1.83 and 1.995
            for t1, t2 in (("1.3", "1.7"), ("1.1", "1.9"), ("1.83", "1.7"), ("1.995", "1.5")):
                z11, z22 = s * mp.expj(mp.mpf(t1)), s * mp.expj(mp.mpf(t2))
                out.append((f"(1 + {eps}) diag(e^{t1}i, e^{t2}i)", PeriodMatrix(z11, 0, z22)))
                out.append((f"|z11| = 1 + {eps} at e^{t1}i",
                            PeriodMatrix(z11, mp.mpc(x[1], y[1]), mp.mpc(x[2], y[2]))))
    return out


@pytest.mark.parametrize("bits", [256, 1024])
def test_reduce_matches_oracle_on_boundaries(bits):
    c = PrecisionContext(bits)
    for label, Z in _boundary_points(c):
        _assert_same_as_oracle(Z, c, label)


# for each full inversion [[0, -I], [I, D]] of GOTTSCHLING, D = (d11, d12,
# d22), a Z with dyadic entries on its wall: det(Z + D) is 1, -1, i or -i.
# Where a point of F2 with denominators up to 8 lies on the wall, Z is one
# (the corners where Re z_ij = +-1/2, y11 = y22 = 2 y12 lie on several
# walls); else Z has reduced real parts, no point of F2 was found, and Z
# is off the Sp4(Z) orbit of the product locus
_WALLS = {
    (0, 0, 0): (-0.5 + 1j, -0.5 + 0.5j, 1j),
    (-1, -1, 0): (0.5 + 1j, 0.5 + 0.5j, 1j),
    (-1, 0, 0): (0.5 + 1j, -0.5 + 0.5j, 1j),
    (-1, 0, 1): (0.5 + 1j, 0.5j, -0.5 + 1j),
    (0, -1, -1): (1j, 0.5 + 0.5j, 0.5 + 1j),
    (0, -1, 0): (-0.5 + 1j, 0.5 + 0.5j, 1j),
    (0, 0, -1): (1j, -0.5 + 0.5j, 0.5 + 1j),
    (0, 0, 1): (-0.5 + 1j, 0.5j, -0.5 + 1j),
    (0, 1, 0): (1j, -0.5 + 0.5j, 0.5 + 1j),
    (0, 1, 1): (1j, -0.5 + 0.5j, -0.5 + 1j),
    (1, 0, -1): (-0.5 + 1j, 0.5j, 0.5 + 1j),
    (1, 0, 0): (-0.5 + 1j, 0.5j, -0.5 + 1j),
    (1, 1, 0): (-0.5 + 1j, -0.5 + 0.5j, 1j),
    (-1, -1, -1): (0.5 + 0.5j, 0.5 + 0.25j, -0.4375 + 1.0625j),
    (-1, -1, 1): (0.5 + 0.5j, 0.5 + 0.25j, -0.4375 + 1.0625j),
    (-1, 0, -1): (0.5 + 0.5j, -0.25 + 0.25j, -0.125 + 1.125j),
    (-1, 1, -1): (0.5 + 0.5j, -0.5 + 0.25j, 0.0625 + 0.5625j),
    (-1, 1, 0): (1j, -0.5 - 0.5j, 0.25 + 0.75j),
    (-1, 1, 1): (0.5 + 0.5j, -0.5 + 0.25j, 0.0625 + 0.5625j),
    (0, -1, 1): (-0.5 + 0.5j, 0.5 + 0.25j, -0.4375 + 1.0625j),
    (0, 1, -1): (-0.5 + 0.5j, -0.5 + 0.25j, 0.0625 + 0.5625j),
    (1, -1, -1): (-0.5 + 0.5j, 0.5 + 0.25j, -0.0625 + 0.5625j),
    (1, -1, 0): (1j, 0.5 - 0.5j, -0.25 + 0.75j),
    (1, -1, 1): (-0.5 + 0.5j, 0.5 + 0.25j, -0.0625 + 0.5625j),
    (1, 0, 1): (-0.5 + 0.5j, -0.25 + 0.25j, -0.125 + 0.875j),
    (1, 1, -1): (-0.5 + 0.5j, -0.5 + 0.25j, 0.4375 + 1.0625j),
    (1, 1, 1): (-0.5 + 0.5j, -0.5 + 0.25j, 0.4375 + 1.0625j),
}


def test_reduce_and_the_term_on_the_full_inversion_walls():
    # ROADMAP item 28, region (iii): on each wall |det(Z + D)| = 1, and at
    # Z + eps (Z + D), eps = +-2^-200, where |det(Z + D)| = (1 + eps)^2, the
    # word and Z_red are the Fraction oracle's, and the archimedean term of
    # Z_red, with the ten theta constants, is the box oracle's within
    # ctx.tol, taken once per Z_red, which points of one Sp4(Z) orbit share
    from test_theta import _assert_within_tol, _box_oracle
    c = PrecisionContext(256)
    seen = set()
    fulls = {(g.m[2][2], g.m[2][3], g.m[3][3]) for g in GOTTSCHLING
             if g.m[2][:2] == [1, 0] and g.m[3][:2] == [0, 1]}
    assert set(_WALLS) == fulls
    in_f2 = 0
    for D, z in _WALLS.items():
        w = [(Fraction(v.real), Fraction(v.imag)) for v in z]
        w11, w12, w22 = ((x + d, y) for (x, y), d in zip(w, D))
        det = _csub(_cmul(w11, w22), _cmul(w12, w12))
        assert det[0] ** 2 + det[1] ** 2 == 1, D
        in_f2 += _oracle_step(w, 0) is None
        with mp.workprec(1024):
            z0 = [mp.mpc(v) for v in z]
            Zs = [PeriodMatrix(*(v + eps * (v + d) for v, d in zip(z0, D)))
                  for eps in (0, mp.mpf(2) ** -200, -mp.mpf(2) ** -200)]
        for Z in Zs:
            _assert_same_as_oracle(Z, c, D)
            _, zr = reduce(Z, c)
            if zr.entries() not in seen:
                seen.add(zr.entries())
                _assert_within_tol(zr, _box_oracle(zr, c.prec), c, D)
    assert in_f2 == 13


def test_reduce_far_entries_decided_at_working_precision():
    # Im z22 = 10^400 has no double: the Gottschling scan of such a step is
    # made on the exact image alone.  z12 = 10^-400 (1 + i) underflows
    # to 0 in doubles, within the read's bound, and the doubles prune the
    # scan where they can
    c = PrecisionContext(1024)
    with c.work():
        huge = PeriodMatrix(mp.mpc("0.1", "1.2"), 0, mp.mpc("0.3", mp.mpf(10) ** 400))
        tiny = PeriodMatrix(mp.mpc("0.1", "1.2"), mp.mpc(mp.mpf(10) ** -400, mp.mpf(10) ** -400),
                            mp.mpc("-0.3", "1.5"))
        # J T(1, 0, 2) and the swap keep z12 a product, so it stays near 10^-400
        scramble = (J_MAT * SymplecticMatrix.translation(1, 0, 2)
                    * SymplecticMatrix.embed_gl2([[0, 1], [1, 0]]))
        for label, Z in (("huge", huge), ("huge scrambled", act(scramble, huge))):
            assert _read(Z).read()[0] is siegel._NAN3, label
            _assert_same_as_oracle(Z, c, label)
        for label, Z in (("tiny", tiny), ("tiny scrambled", act(scramble, tiny))):
            _assert_read_bound(_read(Z), _exact_image(SymplecticMatrix.identity(), Z), label)
            _assert_same_as_oracle(Z, c, label)
        _, zr = reduce(act(scramble, tiny), c)
        assert 0 < abs(zr.z12) < mp.mpf(10) ** -399


def _assert_read_bound(image, w, label):
    """Each part of the doubles that image.read gives is within _U times the
    same part of their magnitudes of the part of the exact image w, and at
    most that magnitude; a subnormal part may be 2^-1075 farther.  Returns
    the doubles."""
    wd, mag = image.read()
    assert wd is not siegel._NAN3, label
    for d, m, e in zip(wd, mag, w):
        for dv, mv, ev in ((d.real, m.real, e[0]), (d.imag, m.imag, e[1])):
            slack = Fraction(1, 2 ** 1075) if abs(dv) < 2.0 ** -1022 else 0
            assert abs(Fraction(dv) - ev) <= Fraction(mv) * Fraction(siegel._U) + slack, label
            assert abs(dv) <= mv, label
    return wd


@pytest.mark.parametrize("bits", [256, 1024])
def test_read_within_its_bound(bits):
    # every pruning of the Gottschling scan on doubles rests on the read's
    # bound: each part of the doubles is within _U times its magnitude of
    # the exact part, and is that part correctly rounded.  Checked on every
    # word shape, on random words and on ex1-ex3
    c = PrecisionContext(bits)
    rng = random.Random(bits + 3)
    Zs = [cli.job_periods(cli.parse_job(os.path.join(JOBS, f"{name}.job")), c)[0]
          for name in ("ex1", "ex2", "ex3")] + _scrambles(c, 2, bits + 3)
    words = ([SymplecticMatrix.translation(*b) for b in ((1, 0, 0), (0, -1, 0), (2, 1, -3))]
             + [SymplecticMatrix.embed_gl2(U) for U in ([[1, 1], [0, 1]], [[0, 1], [1, 0]],
                                                        [[1, 0], [0, -1]], [[2, 1], [1, 1]])]
             + GOTTSCHLING + [random_word(rng, rng.randint(2, 12)) for _ in range(8)])
    for i, Z in enumerate(Zs):
        z = siegel._Ints(Z)
        for j, g in enumerate(words):
            w = _exact_image(g, Z)
            wd = _assert_read_bound(siegel._Image(z, g.m), w, (i, j))
            parts = [v for d in wd for v in (d.real, d.imag)]
            assert parts == [float(v) for e in w for v in e], (i, j)


@pytest.mark.parametrize("bits", [3072, 4096])
def test_reduce_ex3_with_underflowed_doubles(bits):
    # ex3's Im z12 underflows a double on the way, and the conversion leaves
    # errno at ERANGE: a complex abs of a nan would then raise OverflowError
    c = PrecisionContext(bits)
    job = cli.parse_job(os.path.join(JOBS, "ex3.job"))
    gamma, zr = reduce(cli.job_periods(job, c)[0], c)
    assert gamma.m == _W_EX3
    with c.work():
        assert in_fundamental_domain(zr, c)


def test_step_subnormal_parts_decided_at_working_precision(ctx):
    # as doubles, y12 / y11 is 1012 / 2025 < 1/2, but it is above 1/2: the
    # Minkowski move decides on the exact image's ints, not on the
    # subnormal doubles
    with ctx.work():
        e = mp.mpf(2) ** -1074
        Z = PeriodMatrix(mp.mpc("0.1", e * mp.mpf("2024.6")), mp.mpc(0, e * mp.mpf("1012.45")),
                         mp.mpc("0.2", "1.5"))
        move = siegel._step(_read(Z), siegel._tol_bits(ctx))
        assert move == _oracle_step(_exact_image(SymplecticMatrix.identity(), Z), _frac(f2_tol(ctx)))
        assert move == SymplecticMatrix.embed_gl2([[1, 0], [-1, 1]])


# ---- the invariant volume of F2 --------------------------------------------

def _f2_volume(n, seed):
    """Importance-sampling estimate of the invariant volume of F2 under
    dX dY / det(Y)^3, and its standard error: X uniform in [-1/2, 1/2]^3,
    y11 and y22 / y11 Pareto (alpha = 1.5) from sqrt(3)/2 and from 1, and
    y12 uniform in [-y11/2, y11/2], which covers F2; a draw counts its
    weight det(Y)^-3 / (proposal density) when in_fundamental_domain holds
    at 64 bits."""
    c = PrecisionContext(64)
    rng = random.Random(seed)
    y0, alpha = math.sqrt(3) / 2, 1.5
    ws = []
    for _ in range(n):
        x11, x12, x22 = (rng.uniform(-0.5, 0.5) for _ in range(3))
        y11 = y0 * rng.paretovariate(alpha)
        r = rng.paretovariate(alpha)
        y22, y12 = r * y11, rng.uniform(-y11 / 2, y11 / 2)
        density = (alpha * y0 ** alpha / y11 ** (alpha + 1)) * (alpha / r ** (alpha + 1) / y11) / y11
        Z = PeriodMatrix(mp.mpc(x11, y11), mp.mpc(x12, y12), mp.mpc(x22, y22))
        ws.append((y11 * y22 - y12 * y12) ** -3 / density if in_fundamental_domain(Z, c) else 0.0)
    mean = sum(ws) / n
    return mean, math.sqrt(sum((w - mean) ** 2 for w in ws) / (n - 1) / n)


def test_f2_volume_is_siegels(monkeypatch):
    # Siegel (Amer. J. Math. 65, 1943): vol(F2) = 2 zeta(2) zeta(4) / pi^3
    # = pi^3 / 270.  The estimate reads every F2 decision, the whole
    # Gottschling scan included; without its first partial inversion F2
    # grows by a quarter, some 13 standard errors
    target = math.pi ** 3 / 270
    vol, se = _f2_volume(8000, 1)
    assert abs(vol - target) < 4 * se, (vol, se)
    dets = siegel._gottschling_dets
    monkeypatch.setattr(siegel, "_gottschling_dets",
                        lambda zd, za: [(math.inf, 0.0)] + dets(zd, za)[1:])
    vol, se = _f2_volume(8000, 1)
    assert abs(vol - target) > 4 * se, (vol, se)
