"""Sp4(Z) action on the Siegel upper half-space H2, and the reduction to
the fundamental domain F2.

F2 is written once, as the moves of _step: Z is in F2 when no reduction
step applies, and reduce applies steps until none does.

A move is chosen by sign and rounding decisions: the Minkowski conditions
on Im Z, nint(Re z), |det(CZ + D)| against 1 - tol and against each other,
and the signs of Im z12 and Re z12.  Each is made on the doubles of the
working-precision entries when they clear its threshold by MARGIN times the
sum of the absolute values of its terms (see _sure), and on the mpf/mpc
values otherwise.  So every decision is the one the working-precision
values give.  The move is applied by act, with the bits of the general
formula (AZ + B)(CZ + D)^-1 at the working precision but only the
operations of it that can round: a translation and a GL2 change need no
inverse, a full inversion [[0, -I], [I, D]] needs only (Z + D)^-1, and a
partial inversion only 1 / z11 or 1 / z22.

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

import mpmath as mp

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

    def blocks(self):
        m = self.m
        a = [[m[0][0], m[0][1]], [m[1][0], m[1][1]]]
        b = [[m[0][2], m[0][3]], [m[1][2], m[1][3]]]
        c = [[m[2][0], m[2][1]], [m[3][0], m[3][1]]]
        d = [[m[2][2], m[2][3]], [m[3][2], m[3][3]]]
        return a, b, c, d

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
# (C, D, |C|, |D|) of each Gottschling matrix, entrywise absolute values last
_GOTTSCHLING_CD = [(c, d, _abs2(c), _abs2(d))
                   for c, d in (g.blocks()[2:] for g in GOTTSCHLING)]


def _cz_plus_d(c, d, z):
    """The entries m11, m12, m21, m22 of C Z + D, Z = (z11, z12, z22), and
    so of A Z + B.  On |C|, |D| and |z| they are the sums of the absolute
    values of the terms."""
    z11, z12, z22 = z
    m11 = c[0][0] * z11 + c[0][1] * z12 + d[0][0]
    m12 = c[0][0] * z12 + c[0][1] * z22 + d[0][1]
    m21 = c[1][0] * z11 + c[1][1] * z12 + d[1][0]
    m22 = c[1][0] * z12 + c[1][1] * z22 + d[1][1]
    return m11, m12, m21, m22


def _lin(c1, x1, c2, x2):
    """c1 x1 + c2 x2 for integers c1, c2 not both 0, rounded as written,
    with a term whose coefficient is 0 left out: that term is an exact 0,
    and the sum of an exact 0 and a rounded product is exact."""
    if not c2:
        return c1 * x1
    if not c1:
        return c2 * x2
    return c1 * x1 + c2 * x2


def act(gamma: SymplecticMatrix, Z: PeriodMatrix) -> PeriodMatrix:
    """gamma Z = (alpha Z + beta)(lam Z + mu)^-1 at the working precision,
    with every entry rounded as the general formula (the last branch) rounds
    it: N = alpha Z + beta and M = lam Z + mu by _cz_plus_d, M^-1 =
    adj(M) / det M, W = N M^-1, and the symmetrized (w12 + w21) / 2.

    Four shapes run only the operations of that formula that can round.
    Z may carry more bits than the working precision, and the first product
    by an entry of Z is what rounds it, so each branch keeps one product by
    every entry it reads, also a product by 1.  The rest is exact: mpmath
    has no signed zero, a product by 0 is 0, a sum of 0 and a rounded value
    is that value, a product of a rounded value by an integer rounds the
    same real product whether the integer is an int or an mpc, and rounding
    to nearest commutes with negation.

    - Translation, lam = 0 and alpha = I: mu = I, so M^-1 = I and W = N,
      n_ij = 1 z_ij + beta_ij once its terms 0 z_kl are dropped; beta is
      symmetric, so w12 = w21 and (w12 + w21) / 2 is exact.
    - GL2 change, lam = beta = 0: mu = alpha^-T, so M^-1 = alpha^T, an
      exact integer matrix; N = alpha Z and W = N alpha^T, each entry by
      _lin.  No det and no division.
    - Full inversion [[0, -I], [I, D]]: N = -I and M = Z + D, with m_ij =
      1 z_ij + d_ij as in a translation, so m21 = m12.  Each w_ij is -1
      times an entry of M^-1 plus an exact 0, and -((-m12) / det) =
      m12 / det, so W = -M^-1 = (-m22, m12, -m11) / det.
    - Partial inversions, GOTTSCHLING[0] and [1]: with r_ij = 1 z_ij, the
      first has N = ((-1, 0), (r12, r22)) and M = ((r11, r12), (0, 1)), so
      det = r11 and M^-1 = ((1, -r12), (0, r11)) / r11; the second has
      N = ((r11, r12), (0, -1)) and M = ((1, 0), (r12, r22)), det = r22
      and M^-1 = ((r22, 0), (-r12, 1)) / r22.  Each w_ij keeps its products
      by an r_ij and drops those by 0 and the exact products by -1, and the
      quotients r11 / r11 and r22 / r22 stay, as they round.

    Every entry comes out of an mpc operation at the ambient precision, so
    it is an mpc rounded there, and the image is built with
    PeriodMatrix._of: no re-wrap, and no positivity check.  gamma Z stays in
    H2: Im gamma Z = (CZ + D)^-* Im Z (CZ + D)^-1, so det Im gamma Z =
    det Im Z / |det(CZ + D)|^2 > 0, and Im gamma Z is positive definite
    with Im Z.  The rounded image can leave H2 only where Im gamma Z is
    within its rounding error of a singular matrix, that is, where the
    precision cannot tell the point from the boundary of H2.  So positivity
    is checked where a matrix enters the package (the PeriodMatrix
    constructor, which cmperiod.period_matrix and the CLI call) and once on
    the Z_red that reduce returns, not on every move.
    """
    ((a11, a12, b11, b12), (a21, a22, b21, b22),
     (c11, c12, d11, d12), (c21, c22, d21, d22)) = gamma.m
    z11, z12, z22 = Z.entries()
    if not (c11 or c12 or c21 or c22):
        if a11 == a22 == 1 and not (a12 or a21):
            return PeriodMatrix._of(1 * z11 + b11, 1 * z12 + b12, 1 * z22 + b22)
        if not (b11 or b12 or b21 or b22):
            n11, n12 = _lin(a11, z11, a12, z12), _lin(a11, z12, a12, z22)
            n21, n22 = _lin(a21, z11, a22, z12), _lin(a21, z12, a22, z22)
            return PeriodMatrix._of(_lin(a11, n11, a12, n12),
                                    (_lin(a21, n11, a22, n12) + _lin(a11, n21, a12, n22)) / 2,
                                    _lin(a21, n21, a22, n22))
    if (c11 == c22 == 1 and b11 == b22 == -1
            and not (c12 or c21 or b12 or b21 or a11 or a12 or a21 or a22)):
        m11, m12, m22 = 1 * z11 + d11, 1 * z12 + d12, 1 * z22 + d22
        det = m11 * m22 - m12 * m12
        if not det:
            raise ZeroDivisionError("lam Z + mu is singular")
        return PeriodMatrix._of(-(m22 / det), m12 / det, -(m11 / det))
    if gamma.m == GOTTSCHLING[0].m:
        r11, r12, r22 = 1 * z11, 1 * z12, 1 * z22
        if not r11:
            raise ZeroDivisionError("lam Z + mu is singular")
        i11, i12, i22 = 1 / r11, -r12 / r11, r11 / r11
        return PeriodMatrix._of(-i11, (-i12 + r12 * i11) / 2, r12 * i12 + r22 * i22)
    if gamma.m == GOTTSCHLING[1].m:
        r11, r12, r22 = 1 * z11, 1 * z12, 1 * z22
        if not r22:
            raise ZeroDivisionError("lam Z + mu is singular")
        i11, i21, i22 = r22 / r22, -r12 / r22, 1 / r22
        return PeriodMatrix._of(r11 * i11 + r12 * i21, (r12 * i22 - i21) / 2, -i22)
    a, b, c, d = gamma.blocks()
    n11, n12, n21, n22 = _cz_plus_d(a, b, Z.entries())
    m11, m12, m21, m22 = _cz_plus_d(c, d, Z.entries())
    det = m11 * m22 - m12 * m21
    if not det:
        raise ZeroDivisionError("lam Z + mu is singular")
    # inverse of (lam Z + mu)
    i11, i12, i21, i22 = m22 / det, -m12 / det, -m21 / det, m11 / det
    w11 = n11 * i11 + n12 * i21
    w12 = n11 * i12 + n12 * i22
    w21 = n21 * i11 + n22 * i21
    w22 = n21 * i12 + n22 * i22
    # symmetrize to kill roundoff skew
    return PeriodMatrix._of(w11, (w12 + w21) / 2, w22)


def f2_tol(ctx: PrecisionContext):
    """The tolerance of the F2 conditions at ctx: 2^-(prec/2)."""
    return mp.mpf(2) ** (-ctx.prec // 2)


# Z -> diag(1, -1) Z diag(1, -1): flips the sign of z12 and keeps Z in F2
_FLIP_Z12 = SymplecticMatrix.embed_gl2([[1, 0], [0, -1]])

# A decision is made on doubles when its double clears the threshold by
# MARGIN times the sum of the absolute values of its terms (see _sure).
MARGIN = 2.0 ** -40
# that sum must exceed _SIZE_MIN, far above the subnormal doubles
_SIZE_MIN = 2.0 ** -960
_NAN3 = (complex(math.nan, math.nan),) * 3


def _doubles(Z: PeriodMatrix):
    """z11, z12, z22 as complex doubles.  When a part overflows, or Im z11
    or Im z22 is below the normal doubles, all three are nan instead: no
    margin test passes, and every decision of the step is made at the
    working precision.

    So each part is within 2^-53 of its working-precision value,
    relatively, unless it underflows, as a real part or Im z12 (zero up to
    rounding on ex3) may.  One that does is off by less than 2^-1075.  It
    enters a decision only next to 1/2 (nint), next to tol (the flip), with
    a small integer coefficient in a Gram entry of Im Z, or in
    |det(CZ + D)|: there it is part of z11 + d or z22 + d, whose moduli are
    at least the normal Im z11 and Im z22, or of z12 + d, which enters
    squared.  So its error is below 2^-53 of the sum of the absolute values
    of the terms, or below 2^-1075 against a sum above _SIZE_MIN."""
    out = [complex(z) for z in Z.entries()]
    if not all(math.isfinite(w.real) and math.isfinite(w.imag) for w in out) or (
            min(out[0].imag, out[2].imag) < 2.0 ** -1022):
        return _NAN3
    return out


def _sure(v, size):
    """Whether the double v has the sign of the value v* it stands for, a
    polynomial in the entries of Z with small integer coefficients whose
    terms have absolute values summing to at most size: |v| > MARGIN size.

    The argument: the input doubles carry errors below 2^-53 of the terms
    they enter (_doubles).  v is formed from them by at most 16 rounded
    operations, each adding an error of at most 2^-53 times the sum of the
    absolute values of the terms it combines (2^-51.5 for a complex
    product).  These add up to less than 2^-48.9 size.  v* itself, computed
    in the same few operations at 53 bits or more, is within 2^-48.9 size
    of the exact value.  So when |v| > 2^-40 size, v, v* and the exact
    value have one sign.  A rounding in the subnormal range adds at most
    2^-1075, far below 2^-49 size once size > _SIZE_MIN.  A nan or an
    infinity passes no test."""
    return abs(v) > MARGIN * size and size > _SIZE_MIN


def _decide(v, size, exact):
    """v* > 0: decided on the double v when _sure(v, size), else exact(),
    the same comparison on the working-precision values."""
    return v > 0 if _sure(v, size) else exact()


def _nint(x, size, exact):
    """nint(x*) for the value x* the double x stands for, whose terms have
    absolute values summing to at most size.  round(x) when x - t +- 1/2,
    t = round(x), clears 0 by MARGIN times its terms, size + |t| + 1/2; the
    subtraction is exact, so _sure's argument applies.  Otherwise
    int(exact()), the rounding at the working precision."""
    if size < 2.0 ** 40:  # False for nan and infinity
        t = round(x)
        if abs(x - t) + MARGIN * (size + abs(t) + 0.5) < 0.5:
            return t
    return int(exact())


def _step(Z: PeriodMatrix, tol):
    """The next move of the reduction at Z, or None when Z is in F2.

    In order: the GL2 change that Minkowski-reduces Im Z; the translation
    by -nint(Re Z); the Gottschling matrix with the smallest |det(CZ + D)|
    below 1 - tol; and, when Im z12 is zero within tol, the z12 flip that
    makes Re z12 >= -tol.  Each comparison is made on the doubles of Z when
    they decide it with a margin, else on Z itself (see the module
    docstring).  The GL2 change (its U is unimodular) and the translation
    are symplectic by construction and built unchecked.
    """
    zd = _doubles(Z)
    td = float(tol)
    U = _minkowski_unimodular(Z, zd, tol, td)
    if U is not None:
        return _symplectic(_gl2_rows(U))
    b = [-_nint(w.real, abs(w.real), lambda z=z: mp.nint(mp.re(z)))
         for z, w in zip(Z.entries(), zd)]
    if any(b):
        return _symplectic(_translation_rows(*b))
    g = _gottschling_move(Z, zd, tol, td)
    if g is not None:
        return g
    x12, y12 = zd[1].real, zd[1].imag
    if (_decide(td - abs(y12), td + abs(y12), lambda: abs(mp.im(Z.z12)) <= tol)
            and _decide(-td - x12, td + abs(x12), lambda: mp.re(Z.z12) < -tol)):
        return _FLIP_Z12
    return None


def in_fundamental_domain(Z: PeriodMatrix, ctx: PrecisionContext) -> bool:
    """Z is in F2 at ctx: no reduction step applies at tol = f2_tol(ctx) and
    the working precision, the decisions reduce makes.  Only the bound
    |det(CZ + D)| >= 1 - tol and the signs of Im z12 and Re z12 are read
    within tol.  |Re| <= 1/2, 2 |y12| <= y11 and y11 <= y22 are exact, so
    Re z11 = 1/2 + eps and y22 = y11 - eps are outside F2 for every eps > 0,
    however small against tol."""
    with ctx.work():
        return _step(Z, f2_tol(ctx)) is None


MAX_ITER = 2000


def reduce(Z: PeriodMatrix, ctx: PrecisionContext):
    """Returns (gamma, Z_red) with Z_red = act(gamma, Z) in F2: the moves of
    _step at tol = f2_tol(ctx), applied until none is left.  So Z comes back
    unchanged, with the identity word, exactly when it is in F2 at that tol.
    Where Im z12 is zero within tol, Re z12 >= -tol is chosen, so the word
    does not follow the rounding noise in Im z12.

    Each move is decided on doubles where they settle it with a margin, and
    on the working-precision values where they do not; so the word is the
    one working-precision decisions give.  Each move is applied by act at
    the working precision, one at a time, with no positivity check (see
    act); Z_red is checked once, by PeriodMatrix.check_im_positive, before
    it is returned.
    """
    with ctx.work():
        tol = f2_tol(ctx)
        total = SymplecticMatrix.identity()
        cur = Z
        for _ in range(MAX_ITER):
            g = _step(cur, tol)
            if g is None:
                cur.check_im_positive()
                return total, cur
            cur = act(g, cur)
            total = g * total
        raise ArithmeticError("reduction did not terminate; raise precision")


def _gottschling_move(Z: PeriodMatrix, zd, tol, td):
    """The Gottschling matrix with the smallest |det(CZ + D)|, the first of
    equal ones, when that is below 1 - tol; else None.  zd and td are the
    doubles of Z and tol.

    On the doubles, a determinant surely at least 1 - tol is never the
    move, and one surely above the least double v is not the least: _sure
    gives the sign of |det_i| - |det_least| as it gives the sign of
    |det| - (1 - tol).  So when the doubles leave the move undecided, the
    working precision takes only the least and the candidates not surely
    above it: the exact argmin is among them, and so is every determinant
    equal to it, so the first of equal ones is found in index order.  When
    the least over them is at least 1 - tol, so is every determinant.  The
    full inversions have C = I, and their C Z + D is read from one table of
    1 z_ij + d, d in {-1, 0, 1}: _cz_plus_d makes the same roundings, since
    a product by 0 is an exact 0 and adding it to a rounded value is exact.

    Nan doubles (_NAN3) decide nothing, so every determinant is then taken
    at the working precision; the doubles are not touched, since abs of a
    nan complex raises OverflowError when errno is left at ERANGE by an
    underflow in the conversion of another part."""
    near = range(len(_GOTTSCHLING_CD))
    if zd is not _NAN3:
        one = 1 - td
        cands = []  # (index, |det|, the sum of the absolute values of its terms)
        for i, (v, s) in enumerate(_gottschling_dets(zd)):
            if not (v > one and _sure(v - one, s + 1 + td)):
                cands.append((i, v, s))
        # the others are surely at least 1 - tol, so none of them is the move
        if not cands:
            return None
        least, v, s = min(cands, key=lambda e: e[1])
        near = [i for i, w, t in cands if i == least or not _sure(w - v, s + t)]
        if len(near) == 1 and v < one and _sure(v - one, s + 1 + td):
            return GOTTSCHLING[least]
    entries = Z.entries()
    table = None
    exact = {}
    for i in near:
        c, d, _, _ = _GOTTSCHLING_CD[i]
        if c == [[1, 0], [0, 1]]:
            if table is None:
                table = [{e: w + e for e in (-1, 0, 1)} for w in (1 * z for z in entries)]
            m11, m12, m22 = table[0][d[0][0]], table[1][d[0][1]], table[2][d[1][1]]
            exact[i] = abs(m11 * m22 - m12 * m12)
        else:
            m11, m12, m21, m22 = _cz_plus_d(c, d, entries)
            exact[i] = abs(m11 * m22 - m12 * m21)
    least = min(exact, key=exact.__getitem__)
    return GOTTSCHLING[least] if exact[least] < 1 - tol else None


def _gottschling_dets(zd):
    """|det(CZ + D)| and the sum of the absolute values of its terms, for
    each Gottschling matrix in order, on the doubles zd of Z.  The full
    inversions have C = I, so their C Z + D is Z + D: their 27 come from
    the table of z11 + d11, z12 + d12 and z22 + d22, d in {-1, 0, 1}.
    _cz_plus_d gives the same doubles, since its products by 1 and its
    sums with a product by 0 are exact on finite doubles."""
    za = [abs(w) for w in zd]
    out = []
    for c, d, ca, da in _GOTTSCHLING_CD[:2]:
        m11, m12, m21, m22 = _cz_plus_d(c, d, zd)
        a11, a12, a21, a22 = _cz_plus_d(ca, da, za)
        out.append((abs(m11 * m22 - m12 * m21), a11 * a22 + a12 * a21))
    t11, t12, t22 = ([(w + d, a + abs(d)) for d in (-1, 0, 1)] for w, a in zip(zd, za))
    for m11, a11 in t11:
        for m22, a22 in t22:
            for m12, a12 in t12:
                out.append((abs(m11 * m22 - m12 * m12), a11 * a22 + a12 * a12))
    return out


def _gram(U, o):
    """The entries (y11, y12, y22) of U Y U^T, Y = (o11 o12; o12 o22).  On
    |U| and |o| they are the sums of the absolute values of the terms."""
    (a, b), (c, d) = U
    o11, o12, o22 = o
    return (a * a * o11 + 2 * a * b * o12 + b * b * o22,
            a * c * o11 + (a * d + b * c) * o12 + b * d * o22,
            c * c * o11 + 2 * c * d * o12 + d * d * o22)


def _minkowski_unimodular(Z: PeriodMatrix, zd, tol, td):
    """Unimodular U with U (Im Z) U^T Minkowski-reduced and the transformed
    Im z12 >= -tol; None if Z is already in shape.  zd and td are the
    doubles of Z and tol; Im Z itself is read only by the fallbacks at the
    working precision."""
    od = [w.imag for w in zd]
    oa = [abs(v) for v in od]
    U = [[1, 0], [0, 1]]

    def exact_nint():
        y11, y12, _ = _gram(U, Z.im_entries())
        return mp.nint(y12 / y11)

    def exact_swap():
        y11, _, y22 = _gram(U, Z.im_entries())
        return y22 < y11

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
    if _decide(-td - y12, s12 + td, lambda: _gram(U, Z.im_entries())[1] < -tol):
        U = [[U[0][0], U[0][1]], [-U[1][0], -U[1][1]]]
        changed = True
    return U if changed else None
