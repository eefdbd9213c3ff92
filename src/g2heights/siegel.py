"""Sp4(Z) action on the Siegel upper half-space H2, and the reduction to
the fundamental domain F2.

F2 is written once, as the moves of _step: Z is in F2 when no reduction
step applies, and reduce applies steps until none does.

Every decision is made on the exact image gamma Z of the matrix Z as
given.  Z's parts are read as ints at one scale, x_ij = 2^S z_ij, and the
word gamma = [[A, B], [C, D]] is an int matrix, so (AZ + B) adj(CZ + D)
and det(CZ + D) are Gaussian ints: adj is linear on 2x2 matrices and
Z adj Z = det Z, so

    2^2S (AZ + B) adj(CZ + D) = det X A adj C + 2^S (A X adj D + B adj X adj C)
                                + 2^2S B adj D,
    2^2S det(CZ + D) = det C det X + 2^S tr(adj X adj C D) + 2^2S det D,

small-int combinations of the ints of X and of det X, which is taken once
per Z (_Image).  Z_red is gamma Z with each part rounded once to nearest at
the working precision, and act(gamma, Z) is that rounding at the ambient
precision for every gamma.

A move is chosen by sign and rounding decisions: the Minkowski conditions
on Im Z, nint(Re z), |det(CZ + D)| against 1 - tol and against each other,
and the signs of Im z12 and Re z12.  _step states them once, on doubles,
and each is made in one of two ways (see _View and _sure):
- on doubles read from the exact image of the word so far, before every
  step (each part correctly rounded, or read from the top bits of p and q
  with their error added to the magnitudes), when they clear the
  decision's threshold by a margin;
- by exact int comparison on the image, when they do not, as on the
  |det(CZ + D)| = 1 walls of ex1.
So the word is the one exact decisions on Z give, and Z_red is rounded
from it once.  Exact nint ties go half to even, as mp.nint does.

Each move keeps Z in H2: Im gamma Z = (CZ + D)^-* Im Z (CZ + D)^-1, so
det Im gamma Z = det Im Z / |det(CZ + D)|^2 and Im gamma Z is positive
definite with Im Z.  So act builds its images unchecked, and positivity is
checked where a matrix enters the package (the PeriodMatrix constructor:
cmperiod.period_matrix, the CLI, a matrix built by a caller) and once on
the Z_red that reduce returns.

Condition (i) (det Im(gamma Z) <= det Im Z for all gamma) is enforced through
a finite determinant test set.  We use a superset of Gottschling's 19
matrices: the two partial inversions plus all gamma = [[0,-I],[I,D]] with D
symmetric, entries in {-1,0,1}.  Testing a superset is still exact: F2 is
characterized by (i) holding for the 19, and every member of F2 satisfies
(i) universally, so the extra matrices never reject a genuine member.

Gottschling, Erhard. "Explizite Bestimmung der Randflaechen des
Fundamentalbereiches der Modulgruppe zweiten Grades." Math. Ann. 138 (1959).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, round_nearest

from .prec import PrecisionContext
from .theta import PeriodMatrix


class SymplecticMatrix:
    """4x4 integer matrix, blocks (alpha beta; lam mu), gamma^T J gamma = J."""

    def __init__(self, rows):
        self.m = [[int(v) for v in row] for row in rows]
        if len(self.m) != 4 or any(len(r) != 4 for r in self.m) or any(
                u != v for r, row in zip(self.m, rows) for u, v in zip(r, row)):
            raise ValueError("need a 4x4 integer matrix")
        if not self._is_symplectic():
            raise ValueError("matrix is not symplectic")

    def _is_symplectic(self) -> bool:
        """gamma^T J gamma = J, J = (0 I; -I 0), by its blocks: alpha^T lam
        and beta^T mu are symmetric and alpha^T mu - lam^T beta = I."""
        ((a11, a12, b11, b12), (a21, a22, b21, b22),
         (c11, c12, d11, d12), (c21, c22, d21, d22)) = self.m
        return (a11 * c12 + a21 * c22 == a12 * c11 + a22 * c21
                and b11 * d12 + b21 * d22 == b12 * d11 + b22 * d21
                and a11 * d11 + a21 * d21 - c11 * b11 - c21 * b21 == 1
                and a11 * d12 + a21 * d22 - c11 * b12 - c21 * b22 == 0
                and a12 * d11 + a22 * d21 - c12 * b11 - c22 * b21 == 0
                and a12 * d12 + a22 * d22 - c12 * b12 - c22 * b22 == 1)

    def __mul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        # a product of symplectic matrices is symplectic: no re-check
        return _symplectic(_mat4_mul(self.m, other.m))

    def __eq__(self, other):
        return isinstance(other, SymplecticMatrix) and self.m == other.m

    def __repr__(self):
        return f"SymplecticMatrix({self.m})"

    @staticmethod
    def identity() -> "SymplecticMatrix":
        return SymplecticMatrix([[1 if i == j else 0 for j in range(4)]
                                 for i in range(4)])

    @staticmethod
    def from_blocks(a, b, c, d) -> "SymplecticMatrix":
        return SymplecticMatrix([
            [a[0][0], a[0][1], b[0][0], b[0][1]],
            [a[1][0], a[1][1], b[1][0], b[1][1]],
            [c[0][0], c[0][1], d[0][0], d[0][1]],
            [c[1][0], c[1][1], d[1][0], d[1][1]],
        ])

    @staticmethod
    def translation(b11, b12, b22) -> "SymplecticMatrix":
        return SymplecticMatrix(_translation_rows(b11, b12, b22))

    @staticmethod
    def embed_gl2(A) -> "SymplecticMatrix":
        """Z -> A Z A^T for A in GL2(Z): gamma = [[A, 0], [0, A^-T]]."""
        if A[0][0] * A[1][1] - A[0][1] * A[1][0] not in (1, -1):
            raise ValueError("A must be unimodular")
        return SymplecticMatrix(_gl2_rows(A))


def _symplectic(m) -> SymplecticMatrix:
    """The SymplecticMatrix of the int rows m, known to be symplectic by
    construction: no check."""
    g = object.__new__(SymplecticMatrix)
    g.m = m
    return g


def _translation_rows(b11, b12, b22):
    """The rows of [[I, B], [0, I]], B = (b11 b12; b12 b22)."""
    return [[1, 0, b11, b12], [0, 1, b12, b22], [0, 0, 1, 0], [0, 0, 0, 1]]


def _gl2_rows(A):
    """The rows of [[A, 0], [0, A^-T]] for A of det +-1: A^-T = det adj(A)^T."""
    (a, b), (c, d) = A
    det = a * d - b * c
    return [[a, b, 0, 0], [c, d, 0, 0], [0, 0, d * det, -c * det], [0, 0, -b * det, a * det]]


def _mat4_mul(a, b):
    cols = list(zip(*b))
    return [[r1 * c1 + r2 * c2 + r3 * c3 + r4 * c4 for c1, c2, c3, c4 in cols]
            for r1, r2, r3, r4 in a]


def _abs2(M):
    return [[abs(v) for v in row] for row in M]


def _gottschling_set():
    out = []
    # partial inversions: invert one variable
    out.append(SymplecticMatrix.from_blocks(
        [[0, 0], [0, 1]], [[-1, 0], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]]))
    out.append(SymplecticMatrix.from_blocks(
        [[1, 0], [0, 0]], [[0, 0], [0, -1]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]))
    # full inversions with translation: [[0,-I],[I,D]], D symmetric small
    for d11 in (-1, 0, 1):
        for d22 in (-1, 0, 1):
            for d12 in (-1, 0, 1):
                out.append(SymplecticMatrix.from_blocks(
                    [[0, 0], [0, 0]], [[-1, 0], [0, -1]],
                    [[1, 0], [0, 1]], [[d11, d12], [d12, d22]]))
    return out


GOTTSCHLING = _gottschling_set()


# ---- the exact image gamma Z ------------------------------------------------

class _Ints:
    """The parts of Z as ints at one scale: z_ij = (x_ij + i y_ij) 2^-S,
    with -S the least exponent of a nonzero part, or S = 0 when no
    exponent is negative, so no part is rounded and no shift by S is
    negative."""

    def __init__(self, Z: PeriodMatrix):
        parts = [p for z in Z.entries() for p in z._mpc_]
        if any(bc and not man for _, man, _, bc in parts):
            raise ValueError("Z has an entry that is not finite")
        S = max(0, -min((exp for _, man, exp, _ in parts if man), default=0))
        v = [(-man if sign else man) << (exp + S) for sign, man, exp, _ in parts]
        self.x, self.y, self.S = v[0::2], v[1::2], S
        self._det = None

    def det(self):
        """det X = x11 x22 - x12^2 for the Gaussian ints X = 2^S Z, as
        (re, im): the one product of big ints that p and q take, formed
        once per Z."""
        if self._det is None:
            (x11, x12, x22), (y11, y12, y22) = self.x, self.y
            self._det = (x11 * x22 - y11 * y22 - x12 * x12 + y12 * y12,
                         x11 * y22 + y11 * x22 - 2 * x12 * y12)
        return self._det

    def den(self, bottom, s1=None):
        """2^2S det(CZ + D) = det C det X + 2^S tr(adj X adj C D)
        + 2^2S det D, as (re, im), for the bottom rows [C D] of a word; over
        2^(S - s1) for s1 = 0, when C = 0."""
        (c11, c12, d11, d12), (c21, c22, d21, d22) = bottom
        # K = adj C D
        k11, k12 = c22 * d11 - c12 * d21, c22 * d12 - c12 * d22
        k21, k22 = c11 * d21 - c21 * d11, c11 * d22 - c21 * d12
        dc = c11 * c22 - c12 * c21
        dr, di = self.det() if dc else (0, 0)
        (x11, x12, x22), (y11, y12, y22) = self.x, self.y
        s1 = self.S if s1 is None else s1
        k = k12 + k21
        return (dc * dr + ((x22 * k11 - x12 * k + x11 * k22) << s1)
                + ((d11 * d22 - d12 * d21) << s1 + self.S),
                dc * di + ((y22 * k11 - y12 * k + y11 * k22) << s1))


def _ratio(x):
    """The mpf x as (num, den), ints with x = num / den and den a power of 2."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _nint_ratio(n, d):
    """nint(n / d) for ints n and d > 0, ties to even as mp.nint."""
    q, r = divmod(2 * n + d, 2 * d)
    return q - 1 if not r and q & 1 else q


class _Image:
    """gamma Z exactly, for Z read by _Ints and the rows of gamma: w_ij =
    p_ij / q for Gaussian ints p_ij, q (see the module docstring).  Its
    real form, each part of w_ij as parts[k] / Q with one int Q > 0 (k =
    0..5 for Re w11, Im w11, Re w12, Im w12, Re w22, Im w22), is
    p conj(q) / |q|^2, or +-p / |q| or +-i p / |q| when q is real or
    imaginary, as it is for every word with C = 0.  Each entry's two parts
    are formed once, when an exact comparison, the rounding or the doubles
    of a real or imaginary q first ask for them."""

    def __init__(self, z: _Ints, rows):
        (a11, a12, b11, b12), (a21, a22, b21, b22), (c11, c12, d11, d12), (c21, c22, d21, d22) = rows
        # the entries 11, 12, 22 of K = A adj C and of E = B adj D
        k = (a11 * c22 - a12 * c21, a12 * c11 - a11 * c12, a22 * c11 - a21 * c12)
        e = (b11 * d22 - b12 * d21, b12 * d11 - b11 * d12, b22 * d11 - b21 * d12)
        dr, di = z.det() if any(k) else (0, 0)
        # the entries 11, 12, 22 of A X adj D + B adj X adj C, each a
        # small-int combination of x11, x12, x22
        coef = ((a11 * d22 - b12 * c21, a12 * d22 - a11 * d21 + b11 * c21 - b12 * c22,
                 b11 * c22 - a12 * d21),
                (b12 * c11 - a11 * d12, a11 * d11 - a12 * d12 + b12 * c12 - b11 * c11,
                 a12 * d11 - b11 * c12),
                (b22 * c11 - a21 * d12, a21 * d11 - a22 * d12 + b22 * c12 - b21 * c11,
                 a22 * d11 - b21 * c12))
        re, im = ([u * x11 + v * x12 + w * x22 for u, v, w in coef] for x11, x12, x22 in (z.x, z.y))
        re = [lv + (ev << z.S) if ev else lv for lv, ev in zip(re, e)]
        # with C = 0 the terms in det X vanish, and p and q drop a 2^S
        has_c = c11 or c12 or c21 or c22
        s1 = z.S if has_c else 0
        if has_c:
            re = [(lv << s1) + dr * kv for kv, lv in zip(k, re)]
            im = [(lv << s1) + di * kv for kv, lv in zip(k, im)]
        self.p = re, im
        self.q, self.s1 = z.den(rows[2:], s1), s1
        if self.q == (0, 0):
            raise ZeroDivisionError("lam Z + mu is singular")
        self.z, self.rows = z, rows
        self._parts, self._Q = [None] * 6, None

    def den(self):
        """Q, the denominator of the real form."""
        if self._Q is None:
            self._Q = _real_den(*self.q)
        return self._Q

    def part(self, k):
        """parts[k], the numerator of part k in the real form."""
        parts = self._parts
        if parts[k] is None:
            j = k & ~1
            parts[j:j + 2] = _real_parts(self.p[0][j // 2], self.p[1][j // 2], *self.q)
        return parts[k]

    def real(self):
        """(parts, Q), the real form."""
        return [self.part(k) for k in range(6)], self.den()

    def doubles(self, bits):
        """(w, eps): w11, w12, w22 as complex doubles, each part the
        correctly rounded part of an entry w' that is within eps of the
        exact entry w; or (_NAN3, 0.0) when a part overflows or Im w11 or
        Im w22 is below the normal doubles (see _View.read).

        A real or imaginary q gives the real form, whose parts each take
        one correctly rounded division: w' = w and eps = 0.  Otherwise p
        and q are cut to their top bits bits (p', q'), and w' = p' / q' is
        rounded the same way.  Each part of p' and q' is off by less than
        2^(1 - bits) of the largest part, so, as complex numbers,
        |q - q'| < 2^(3/2 - bits) |q| and |p - p'| < 2^(3/2 - bits) max |p|
        <= 2^(3/2 - bits) max |w| |q|.  Since w - w' = (w (q' - q) + p - p')
        / q', |w - w'| <= (|w| |q - q'| + |p - p'|) / |q'| < 2^(5/2 - bits)
        max |w| / (1 - 2^(3/2 - bits)) < 5.8 2^-bits max |w|, which is below
        6 2^-bits max |w'| for bits >= 8.  So eps = 16 2^-bits max |w'|, on
        the doubles of w', covers it."""
        (pr, pi), (qr, qi) = self.p, self.q
        if qr and qi:
            kp = max(0, max(map(abs, pr + pi)).bit_length() - bits)
            kq = max(0, max(abs(qr), abs(qi)).bit_length() - bits)
            qr, qi = qr >> kq, qi >> kq
            parts = [v for u, w in zip(pr, pi) for v in _real_parts(u >> kp, w >> kp, qr, qi)]
            Q, shift = _real_den(qr, qi), kp - kq
            if shift >= 0:
                parts = [v << shift for v in parts]
            else:
                Q <<= -shift
        else:
            parts, Q = self.real()
            bits = None
        try:
            v = [u / Q for u in parts]
        except OverflowError:
            return _NAN3, 0.0
        if min(v[1], v[5]) < 2.0 ** -1022:
            return _NAN3, 0.0
        w = [complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5])]
        return w, 0.0 if bits is None else 16 * 2.0 ** -bits * max(map(abs, w))

    def rounded(self) -> PeriodMatrix:
        """gamma Z with each part rounded once to nearest at the ambient
        precision (_quotient), built unchecked (see act)."""
        parts, Q = self.real()
        v = [_quotient(u, Q, mp.mp.prec) for u in parts]
        return PeriodMatrix._of(*(mp.make_mpc((v[k], v[k + 1])) for k in (0, 2, 4)))

    def nint(self, k):
        """nint of part k, ties to even."""
        return _nint_ratio(self.part(k), self.den())

    def cmp(self, num, x):
        """The sign of num / Q - x, for the mpf x."""
        n, d = _ratio(x)
        v = num * d - n * self.den()
        return (v > 0) - (v < 0)

    def im_comb(self, c):
        """The numerator over Q of c[0] Im w11 + c[1] Im w12 + c[2] Im w22
        for ints c: the real form of one combination of the p_ij."""
        (pr, pi), (u, w) = self.p, (0, 0)
        for ck, vr, vi in zip(c, pr, pi):
            if ck:
                u, w = u + ck * vr, w + ck * vi
        return _real_parts(u, w, *self.q)[1]

    def dets(self, indices):
        """|det(C W + D)|^2 |q|^2 for the Gottschling matrices of indices,
        W = gamma Z: by the cocycle det(C_g gamma Z + D_g) det(C Z + D) =
        det(C' Z + D'), [C' D'] the bottom rows of g gamma, it is
        |2^2S det(C' Z + D')|^2."""
        out = {}
        for i in indices:
            re, im = self.z.den(_mat4_mul(GOTTSCHLING[i].m[2:], self.rows))
            out[i] = re * re + im * im
        return out

    def det_below(self, e, x):
        """e / |2^2S det(CZ + D)|^2 < x^2 for e from dets and the mpf
        x >= 0: |det| < x."""
        n, d = _ratio(x)
        qr, qi = self.q
        norm = self.den() if qr and qi else self.den() ** 2  # |q|^2
        return e * d * d < n * n * norm << 2 * (self.z.S - self.s1)


def _real_parts(u, w, qr, qi):
    """The numerators over Q of the real and imaginary parts of
    (u + i w) / q in the real form (see _Image): u + i w times conj(q) by
    three products, or +-(u, w) or +-(w, -u) when q is real or imaginary."""
    if not qi:
        return (u, w) if qr > 0 else (-u, -w)
    if not qr:
        return (w, -u) if qi > 0 else (-w, u)
    m1, m2 = u * qr, w * qi
    return m1 + m2, (u + w) * (qr - qi) - m1 + m2


def _real_den(qr, qi):
    """Q of the real form for the denominator q = qr + i qi (see _Image):
    |q|^2, or |q| when q is real or imaginary."""
    return qr * qr + qi * qi if qr and qi else abs(qr + qi)


def _quotient(n, d, prec):
    """n / d rounded to nearest at prec bits, ties to even, as a raw mpf,
    for ints n and d > 0.

    A power of 2 d takes one exact rounding.  Otherwise the top bits do
    it: with d' = d cut to prec + 66 bits and n' = n cut or padded to
    prec + 66 bits more, t = floor(n' / d') has prec + 65 to prec + 67
    bits, and the exact quotient, in units of t, is in (t - 4, t + 2).
    When t is more than 16 units from the midpoint of its prec-bit
    rounding, no midpoint lies between them, and rounding t rounds n / d;
    near a power of 2 the midpoints of the next length are still farther.
    Otherwise, near a tie, one full division with a sticky bit decides
    it."""
    if not n:
        return fzero
    if not d & (d - 1):
        return _rounded(n, 1 - d.bit_length(), prec)
    an = abs(n)
    kd = max(0, d.bit_length() - prec - 66)
    dt = d >> kd
    e = an.bit_length() - dt.bit_length() - prec - 66
    t = (an >> e if e >= 0 else an << -e) // dt
    g = t.bit_length() - prec - 1
    if abs((t & ((2 << g) - 1)) - (1 << g)) > 16:
        return _rounded(-t if n < 0 else t, e - kd, prec)
    e = an.bit_length() - d.bit_length() - prec - 3
    t, r = divmod(an << -e, d) if e < 0 else divmod(an, d << e)
    t = 2 * t + (r != 0)
    return _rounded(-t if n < 0 else t, e - 1, prec)


def _rounded(man, exp, prec):
    """man 2^exp rounded to nearest at prec bits, ties to even, as a raw
    mpf.  Its trailing zero bits go first, in one shift: mpmath strips
    them 8 at a time, which an exact 1/2 at 4096 bits makes 500 shifts."""
    if not man & 255:
        k = (man & -man).bit_length() - 1
        man, exp = man >> k, exp + k
    return from_man_exp(man, exp, prec, round_nearest)


def act(gamma: SymplecticMatrix, Z: PeriodMatrix) -> PeriodMatrix:
    """gamma Z = (AZ + B)(CZ + D)^-1, each part of it the exact value
    rounded once to nearest (ties to even) at the ambient precision, for
    every gamma, with one path: the image of Z's parts as ints (_Image),
    exact, then one rounding per part (_quotient).  Z may carry more bits
    than the ambient precision; all of them are read.

    The rounding: each part is n / Q for ints n and Q > 0.  A power of 2 Q
    (every word with C = 0) is one exact rounding.  Otherwise the quotient
    of the top prec + 66 bits of Q into the matching top bits of n is
    within 4 of its units of n / Q, and when it is more than 16 units from
    a midpoint of the prec-bit numbers it rounds as n / Q does; near a tie
    one full division with a sticky bit decides.  So the result is the
    correctly rounded part, which mpmath at 256 more bits confirms
    (test_act_rounds_the_exact_image).

    The image is built with PeriodMatrix._of: no re-wrap, and no
    positivity check.  gamma Z stays in H2: Im gamma Z = (CZ + D)^-* Im Z
    (CZ + D)^-1, so det Im gamma Z = det Im Z / |det(CZ + D)|^2 > 0, and
    Im gamma Z is positive definite with Im Z.  The rounded image can leave
    H2 only where Im gamma Z is within its rounding error of a singular
    matrix, that is, where the precision cannot tell the point from the
    boundary of H2.  So positivity is checked where a matrix enters the
    package (the PeriodMatrix constructor, which cmperiod.period_matrix and
    the CLI call) and once on the Z_red that reduce returns.
    """
    return _Image(_Ints(Z), gamma.m).rounded()


def f2_tol(ctx: PrecisionContext):
    """The tolerance of the F2 conditions at ctx: 2^-(prec/2), exactly
    2^((-prec) // 2)."""
    return mp.make_mpf((0, 1, -ctx.prec // 2, 1))


# Z -> diag(1, -1) Z diag(1, -1): flips the sign of z12 and keeps Z in F2
_FLIP_Z12 = SymplecticMatrix.embed_gl2([[1, 0], [0, -1]])
_IDENTITY = SymplecticMatrix.identity().m

# A decision is made on doubles when its double clears the threshold by
# MARGIN times the sum of the absolute values of its terms (see _sure),
# taken on magnitudes that each double is within _U of (see _View)
MARGIN = 2.0 ** -40
# that sum must exceed _SIZE_MIN, far above the subnormal doubles
_SIZE_MIN = 2.0 ** -960
_NAN3 = (complex(math.nan, math.nan),) * 3
_U = 2.0 ** -53


class _View(NamedTuple):
    """The doubles z = (z11, z12, z22) of an image W = gamma Z that _step
    decides on, their magnitudes mag, and the image itself: each part of z
    is within _U times the same part of mag of the part of W, and at most
    that part of mag in absolute value (or, for a subnormal, within
    2^-1075).  A decision that the doubles leave open is made on image."""
    z: object
    mag: object
    image: _Image

    @staticmethod
    def read(image: _Image, bits) -> "_View":
        """The doubles of the image (_Image.doubles at bits): each part is
        the correctly rounded part of an entry w', so within _U times its
        own absolute value of it, and w' is within eps of the image.  So
        mag = |z| + eps / _U, part by part.

        A part that underflows is off by less than 2^-1075.  It enters a
        decision only next to 1/2 (nint), next to tol (the flip), with a
        small integer coefficient in a Gram entry of Im Z, or in
        |det(CZ + D)|: there it is part of z11 + d or z22 + d, whose moduli
        are at least the normal Im z11 and Im z22, or of z12 + d, which
        enters squared.  So its error is below 2^-53 of the sum of the
        absolute values of the terms, or below 2^-1075 against a sum above
        _SIZE_MIN.  When a part overflows, or Im z11 or Im z22 is below the
        normal doubles, z is _NAN3: no margin test passes, and every
        decision of the step is exact."""
        z, eps = image.doubles(bits)
        if z is _NAN3:
            return _View(_NAN3, _NAN3, image)
        k = eps / _U
        return _View(z, [complex(abs(w.real) + k, abs(w.imag) + k) for w in z], image)


def _sure(v, size):
    """Whether the double v has the sign of the exact value v* it stands
    for, a polynomial of degree at most 2 in the entries of W with small
    integer coefficients whose terms, on the magnitudes of the view, have
    absolute values summing to at most size: |v| > MARGIN size.

    The argument: each input double is within _U times the magnitude it
    enters with of the exact input, which is at most 1 + _U times it, so the
    inputs' errors move v* by at most ((1 + _U)^2 - 1) size < 2^-51.9
    size.  v is formed from the doubles by at most 16 rounded operations,
    each adding an error of at most 2^-53 times the sum of the absolute
    values of the terms it combines (2^-51.5 for a complex product); these
    add up to less than 2^-48.9 size.  So when |v| > 2^-40 size, v and v*
    have one sign.  A rounding in the subnormal range adds at most
    2^-1075, far below 2^-49 size once size > _SIZE_MIN.  A nan or an
    infinity passes no test."""
    return abs(v) > MARGIN * size and size > _SIZE_MIN


def _decide(v, size, exact):
    """v* > 0: decided on the double v when _sure(v, size), else exact(),
    the same comparison on the exact image."""
    return v > 0 if _sure(v, size) else exact()


def _nint(x, size, exact):
    """nint(x*) for the value x* the double x stands for, whose terms have
    absolute values summing to at most size.  round(x) when x - t +- 1/2,
    t = round(x), clears 0 by MARGIN times its terms, size + |t| + 1/2; the
    subtraction is exact, so _sure's argument applies.  Otherwise exact(),
    the rounding on the exact image."""
    if size < 2.0 ** 40:  # False for nan and infinity
        t = round(x)
        if abs(x - t) + MARGIN * (size + abs(t) + 0.5) < 0.5:
            return t
    return exact()


def _step(view: _View, tol):
    """The next move of the reduction at the view's image, or None when it
    is in F2.

    In order: the GL2 change that Minkowski-reduces Im Z; the translation
    by -nint(Re Z); the Gottschling matrix with the smallest |det(CZ + D)|
    below 1 - tol; and, when Im z12 is zero within tol, the z12 flip that
    makes Re z12 >= -tol.  Each comparison is made on the view's doubles
    when they decide it with a margin, else on its exact image (see the
    module docstring).  The GL2 change (its U is unimodular) and the
    translation are symplectic by construction and built unchecked.
    """
    zd, mag = view.z, view.mag
    td = float(tol)
    U = _minkowski_unimodular(view, tol, td)
    if U is not None:
        return _symplectic(_gl2_rows(U))
    b = [-_nint(w.real, m.real, lambda k=k: view.image.nint(2 * k))
         for k, (w, m) in enumerate(zip(zd, mag))]
    if any(b):
        return _symplectic(_translation_rows(*b))
    g = _gottschling_move(view, tol, td)
    if g is not None:
        return g
    x12, y12 = zd[1].real, zd[1].imag
    if (_decide(td - abs(y12), td + mag[1].imag,
                lambda: view.image.cmp(abs(view.image.part(3)), tol) <= 0)
            and _decide(-td - x12, td + mag[1].real, lambda: view.image.cmp(view.image.part(2), -tol) < 0)):
        return _FLIP_Z12
    return None


def in_fundamental_domain(Z: PeriodMatrix, ctx: PrecisionContext) -> bool:
    """Z is in F2 at ctx: no reduction step applies at tol = f2_tol(ctx) to
    Z as given, the decisions reduce makes.  Only the bound
    |det(CZ + D)| >= 1 - tol and the signs of Im z12 and Re z12 are read
    within tol.  |Re| <= 1/2, 2 |y12| <= y11 and y11 <= y22 are exact, so
    Re z11 = 1/2 + eps and y22 = y11 - eps are outside F2 for every eps > 0,
    however small against tol."""
    with ctx.work():
        view = _View.read(_Image(_Ints(Z), _IDENTITY), _read_bits(ctx))
        return _step(view, f2_tol(ctx)) is None


MAX_ITER = 2000


def _read_bits(ctx: PrecisionContext):
    """The top bits from which _Image.doubles reads a complex quotient:
    its eps / _U stays far below tol = 2^-(prec/2) times MARGIN, so that a
    part that is exactly 0, as Im z12 of ex3, still clears tol."""
    return ctx.workbits // 2 + 128


def reduce(Z: PeriodMatrix, ctx: PrecisionContext):
    """Returns (gamma, Z_red) with Z_red = act(gamma, Z) in F2 at the
    working precision: the moves of _step at tol = f2_tol(ctx), decided on
    the exact image of Z and applied until none is left.  So Z itself comes
    back, with the identity word, exactly when it is in F2 at that tol.
    Where Im z12 is zero within tol, Re z12 >= -tol is chosen, so the word
    does not follow the rounding noise in Im z12.  At most MAX_ITER steps
    are taken, the last "no move" among them.

    No move is applied at the working precision.  Each move updates the
    word, an int matrix, and each step reads the doubles of the exact image
    of the word so far (_View.read), with their error in the magnitudes that
    a decision's margin is taken on (see _View and _sure); a decision that
    they leave open is made on the image exactly.  Z_red is that image with
    each part rounded once (_quotient): within half an ulp of gamma Z, part
    by part, however ill-conditioned the word, and bit for bit
    act(gamma, Z).  It is built unchecked (see act) and checked once, by
    PeriodMatrix.check_im_positive, before it is returned.
    """
    with ctx.work():
        tol = f2_tol(ctx)
        z = _Ints(Z)
        rows, bits = _IDENTITY, _read_bits(ctx)
        for _ in range(MAX_ITER):
            image = _Image(z, rows)
            g = _step(_View.read(image, bits), tol)
            if g is None:
                break
            rows = _mat4_mul(g.m, rows)
        else:
            raise ArithmeticError("reduction did not terminate; raise precision")
        if rows == _IDENTITY:
            Z.check_im_positive()
            return SymplecticMatrix.identity(), Z
        zred = image.rounded()
        zred.check_im_positive()
        return _symplectic(rows), zred


def _gottschling_move(view: _View, tol, td):
    """The Gottschling matrix with the smallest |det(CW + D)|, the first of
    equal ones, when that is below 1 - tol; else None.  td is the double of
    tol.

    On the doubles, a determinant surely at least 1 - tol is never the
    move, and one surely above the least double v is not the least: _sure
    gives the sign of |det_i| - |det_least| as it gives the sign of
    |det| - (1 - tol).  So when the doubles leave the move undecided, the
    exact image takes only the least and the candidates not surely above
    it: the exact argmin is among them, and so is every determinant equal
    to it, so the first of equal ones is found in index order.  When the
    least over them is at least 1 - tol, so is every determinant.  The
    exact determinants are ratios |q'| / |q| of the image's denominators
    (_Image.dets), compared as ints.

    Nan doubles (_NAN3) decide nothing, so every determinant is then
    exact; the doubles are not touched, since abs of a nan complex raises
    OverflowError when errno is left at ERANGE by an underflow in the
    conversion of another part."""
    zd = view.z
    near = range(len(GOTTSCHLING))
    if zd is not _NAN3:
        one = 1 - td
        cands = []  # (index, |det|, the sum of the absolute values of its terms)
        for i, (v, s) in enumerate(_gottschling_dets(zd, [abs(m) for m in view.mag])):
            if not (v > one and _sure(v - one, s + 1 + td)):
                cands.append((i, v, s))
        # the others are surely at least 1 - tol, so none of them is the move
        if not cands:
            return None
        least, v, s = min(cands, key=lambda e: e[1])
        near = [i for i, w, t in cands if i == least or not _sure(w - v, s + t)]
        if len(near) == 1 and v < one and _sure(v - one, s + 1 + td):
            return GOTTSCHLING[least]
    image = view.image
    exact = image.dets(near)
    least = min(exact, key=exact.__getitem__)
    return GOTTSCHLING[least] if image.det_below(exact[least], 1 - tol) else None


def _gottschling_dets(zd, za):
    """|det(CZ + D)| and the sum of the absolute values of its terms, for
    each Gottschling matrix in order, on the doubles zd and the moduli za
    of their magnitudes.  The full inversions have C = I, so their C Z + D
    is Z + D: their 27 come from the table of z11 + d11, z12 + d12 and
    z22 + d22, d in {-1, 0, 1}.  C Z + D term by term gives the same
    doubles, since its products by 1 and its sums with a product by 0 are
    exact on finite doubles, and so do the partial inversions' z11 and
    z22."""
    # the partial inversions: C Z + D is ((z11, z12), (0, 1)) and
    # ((1, 0), (z12, z22)), whose det is z11 and z22 exactly
    out = [(abs(zd[0]), za[0]), (abs(zd[2]), za[2])]
    t11, t12, t22 = ([(w + d, a + abs(d)) for d in (-1, 0, 1)] for w, a in zip(zd, za))
    squares = [(m12 * m12, a12 * a12) for m12, a12 in t12]
    for m11, a11 in t11:
        for m22, a22 in t22:
            p, s = m11 * m22, a11 * a22
            out += [(abs(p - q), s + t) for q, t in squares]
    return out


def _gram(U, o):
    """The entries (y11, y12, y22) of U Y U^T, Y = (o11 o12; o12 o22).  On
    |U| and |o| they are the sums of the absolute values of the terms."""
    (a, b), (c, d) = U
    o11, o12, o22 = o
    return (a * a * o11 + 2 * a * b * o12 + b * b * o22,
            a * c * o11 + (a * d + b * c) * o12 + b * d * o22,
            c * c * o11 + 2 * c * d * o12 + d * d * o22)


def _minkowski_unimodular(view: _View, tol, td):
    """Unimodular U with U (Im W) U^T Minkowski-reduced and the transformed
    Im w12 >= -tol; None if W is already in shape.  td is the double of
    tol; Im W itself is read only by the exact fallbacks, each entry of
    U (Im W) U^T they compare as one numerator over the image's Q."""
    od = [w.imag for w in view.z]
    oa = [m.imag for m in view.mag]
    U = [[1, 0], [0, 1]]

    def exact_gram(k, sub=None):
        """The numerator over the image's Q of entry k of U (Im W) U^T,
        less entry sub."""
        rows = list(zip(*(_gram(U, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))))
        c = rows[k] if sub is None else [u - v for u, v in zip(rows[k], rows[sub])]
        return view.image.im_comb(c)

    def exact_nint():
        return _nint_ratio(exact_gram(1), exact_gram(0))

    def exact_swap():
        return exact_gram(2, 0) < 0

    changed = False
    for _ in range(200):
        (y11, y12, y22), (s11, s12, s22) = _gram(U, od), _gram(_abs2(U), oa)
        if not (y11 > 0 and _sure(y11, s11)):
            y11 = math.nan  # so that the error of y12 / y11 stays first order
        q = y12 / y11
        t = _nint(q, (s12 + abs(q) * s11) / y11, exact_nint)
        if t != 0:
            # row op: e2 -> e2 - t e1
            U = [U[0], [U[1][0] - t * U[0][0], U[1][1] - t * U[0][1]]]
            changed = True
            continue
        if _decide(y11 - y22, s11 + s22, exact_swap):
            U = [U[1], U[0]]
            changed = True
            continue
        break
    (_, y12, _), (_, s12, _) = _gram(U, od), _gram(_abs2(U), oa)
    if _decide(-td - y12, s12 + td,
               lambda: view.image.cmp(exact_gram(1), -tol) < 0):
        U = [[U[0][0], U[0][1]], [-U[1][0], -U[1][1]]]
        changed = True
    return U if changed else None
