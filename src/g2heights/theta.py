"""Genus-2 theta constants with even characteristics, chi10, and the
archimedean height term.

theta[a;b](Z) = sum_{n in Z^2} exp(i pi [(n+a)^T Z (n+a) + 2 (n+a)^T b]).

Characteristics are stored doubled (entries 0/1).  chi10, Theta, the
archimedean term and the lemma checks need only the squares, and the
duplication formula (Dupont, thesis, Ecole polytechnique 2006; Labrande and
Thome, ANTS XII 2016)
    theta[a;b](Z)^2 = sum_{c in {0,1}^2} (-1)^(b.c) T_c T_(c+a),
    T_c = theta[c;0](2Z) = sum_{m = c mod 2} u^(m1^2) v^(m1 m2) w^(m2^2),
with u = e^(i pi z11/2), v = e^(i pi z12), w = e^(i pi z22/2), gives all ten
from four second-order constants.  Those are one lattice sum split by
(m1 mod 2, m2 mod 2).  Its terms are exp(-pi m^T Y m / 2) in modulus,
Y = Im Z, where a direct sum over m = 2n + 2a has exp(-pi m^T Y m / 4), so
its ellipsoid holds half the lattice points.  The lattice part is even in m
and -m = m mod 2, so the walk covers the half lattice {m1 > 0} or
{m1 = 0, m2 >= 0}, row by row, and doubles each class at the end (the origin
is its own mirror).  The ellipsoid is pi m^T (Im 2Z) m / 4 <= R^2, with R from
the tail bound of Deconinck, Heil, Bobenko, van Hoeij and Schmies,
"Computing Riemann theta functions", Math. Comp. 73 (2004), run on 2Z.

The walk runs on Python ints: a term is an int pair (re, im) at the fixed
scale 2^-W, and one step is t = (t g) >> V and g = (g w^2) >> V, with the
step factor g and w^2 at a scale 2^-V that falls with the terms.  A
fixed-point error is absolute, so each row is walked outward from its peak
p, the integer nearest -Im z12 m1 / Im z22 (clamped to the row): every step
factor then has modulus at most 1, the terms shrink monotonically, and an
error carried along the row never grows.  Four values are carried from
row to row, each moved by one product per step of m1 or of p: the start
term s = t(m1, p), the two first step factors v^m1 w^(2p+1) and
v^-m1 w^(1-2p), and a = u^(2 m1 + 1) v^p = t(m1 + 1, p) / t(m1, p).  They,
and the constants u^2, v^(+-1), w^(+-2) they are multiplied by, are block
floats: an int pair (re, im) with one shared exponent, and each product is
prec.cut_mul, cut back to prec bits of its larger part.  A row's start
term and first step factors reach the walk's scales 2^-W and 2^-V by a
shift.

Constants.  u, v and w are block floats of P = prec + 8 bits built from the
raw parts of the entries, with no mpc: exp(i pi x) = exp(-pi Im x) (cos + i
sin)(pi Re x), the modulus from mpf_exp.  Re x first loses its nearest
half-integer n / 2, which leaves a remainder r, |r| <= 1/4, and a turn by
i^n.  sin(pi r) comes from mpf_sin_pi at the bits that put its error below
2^-(F + 2), F = P + 4, and cos(pi r) >= 1/2 is isqrt(2^(2F) - sin^2), both
at the scale 2^-F.  mpf_cos_sin(pi=True), which mpmath's expjpi calls, sizes
its working precision from the remainder it leaves, as bitcount(man) + exp:
in the pure-python backend bitcount of a negative int is 0, so a real part
with |Re| mod 1/2 in (1/4, 1/2), whose nearest half-integer lies above it
(ex3's v), ran cos and sin at about twice the precision, and a remainder
near 0 (the half-integer real parts that the reduced ex1 and ex2 carry to
within 2^-1050 at 1024 bits) at -log2|r| more bits.  Here the remainder is
formed first and sized for the sine alone, so mpf_sin_pi works at F + 14
bits at most, whatever r is.  u^2 and w^2 are one cut_mul each, v^-1 and
w^-2 the block-float inverse conj(x) / |x|^2, rounded down.  The ten
squares are int pairs too, and chi10 is their int product, so mpmath takes
the three exponentials and, in the arch term, the one log.

Levels.  The same formula at 2^j Z with b = 0,
    theta[c;0](2^j Z)^2 = sum_d T'_d T'_(d+c),  T'_d = theta[d;0](2^(j+1) Z),
takes the four constants of level j + 1 to the squares of those of level
j.  So theta_squares walks once, at 2^(k-1) Z, for the four
theta[c;0](2^k Z), and comes back down to level 1 by k - 1 root steps:
each forms the four b = 0 squares exactly in ints from the ten products of
the level above, and _roots takes their roots with math.isqrt at the walk's
scale (_isqrt) and signs them by the rule at the end, as it does the ten
roots of level 0 for theta_all.  A level up halves the
walk's lattice for one root step.  k is the least level whose ellipsoid
holds at most WALK_POINTS_MAX = 128 half-lattice points: on ex1-ex3 one
root step and the plan of its level cost about as much as walking 40 to 70
points, at 256 bits as at 4096, so a halving pays until the walk holds
about twice that.  Measured on theta_squares, best of 15 to 40 runs on a
2-core Intel Xeon, Python 3.11, mpmath 1.3 pure-python: 172
-> 88 points saves 15 % at 256 bits, 134 -> 67 13 %, 88 -> 47 nothing;
163 -> 85 saves 7 % at 1024 bits, 77 -> 42 nothing; 223 -> 112 saves 19 %
at 4096 bits, 143 -> 77 nothing.  Two things stop the climb earlier: a
level whose e is above the plan's bits, where the scale grows by e per
level while the walk no longer halves (Im z22 far above Im z11 leaves
about sqrt(y22 / y11) rows of one point each), and a theta[c;0](2^j Z)
that nearly vanishes (see the sign rule).  An input that stays at k = 1 plans
one level and takes no root step and no sum on doubles.

Error argument.  The plan runs at bits = workbits + L bits, where L =
_locus_bits(z12) = ceil(2 log2(1 / min(1, pi |z12|))), 0 at z12 = 0, is
the locus factor of the lemmas (see the last item).  Let e_j =
ceil(pi y / (4 log 2)) + 1 with y = max(y11, y22, y11 + y22 - 2 |y12|)
taken on Im 2^j Z, and e = e_k for the walk's level: the leading term of
each T_c = theta[c;0](2^k Z), c != 0, is at least e^(-pi y / 4) > 2^-e in
modulus.  The tail target and the scale both go down by e +
ROOT_STEP_BITS (k - 1), so that every constant of the walk keeps bits +
ROOT_STEP_BITS (k - 1) bits relative to its leading term, and the root
steps, which spend up to ROOT_STEP_BITS bits each, leave bits at level 1.
In the three items on the walk, Z stands for 2^(k-1) Z, whose entries
_expjpi reaches by an exact exponent shift:
  - R makes the terms outside the ellipsoid sum to less than
    2^-(bits + 16 + e + ROOT_STEP_BITS (k - 1)).  R and the row
    bounds c +- h are doubles, from Im Z, from det(Im Z), which can cancel
    and is taken at the working precision, and from lambda_min(Im Z) =
    det / lambda_max, which does not; each is within a few units of 2^-52
    relative.  So while |Im z12| < 2^6 sqrt(det Im Z) (on F2 it is below
    sqrt(det Im Z / 3)) the rows hold every point of the ellipsoid of
    radius R (1 - 2^-42), whose tail is within a factor e^(2^-41 R^2) <
    1 + 2^-22 of the target for R^2 < 2^18; the 16 spare bits of the target
    cover that.  The tail is the same fraction of the walk's scale at every
    level.
  - The start term of a row comes from a chain of N block-float products
    at prec bits, N = max m1 + the total movement of p, since s, the
    step factors and a move by one product per step of m1 or p.  Each
    cut_mul at prec bits costs less than 2^(3/2 - prec) of the product's
    modulus (the bound stated in prec.cut_mul).  The constants: sin(pi r)
    is within 2^-(F + 2) + 2^-F, and cos(pi r) within that times
    |sin / cos| <= 1 plus the isqrt's unit, so cos + i sin is within
    2^(2 - F) = 2^-(P + 2).  pi Im x is formed at P + 10 bits more than its
    magnitude, so the modulus is within 2^-(P + 6) relative, and the cut to
    P bits, a cut_mul, adds 2^(3/2 - P): u, v, w are within 2^(2 - P) of
    themselves relative.  One cut_mul at P bits, and for w^-2 the inverse
    after it, whose floor divisions add less than 2^(3/2 - P), put u^2,
    v^-1, w^2 and w^-2 within 2^(4 - P) = 2^-(prec + 4).  So each of the
    four carried values is within about 3 j 2^-prec of itself relative
    after j products, and s within about (1.5 N^2 + 1.5 N) 2^-prec
    <= 3 N^2 2^-prec.  n = max m1
    + max(4 max |m2|, that movement) is at least N and the length of a row,
    so with prec = bits + 2 log2(n) + 4 s is within 2^-(bits + 2)
    of itself relative, and within two more units of 2^-W from its shift
    to the walk's scale.
  - Along a row, with b the bit length of the term's larger part, so that
    |t| < 2^(b + 1/2 - W), g and w^2 are kept at V = min(W, b + 24) bits
    and cut to the current b + 24 whenever 64 or more bits can go
    (STEP_GUARD_BITS and STEP_DROP_BITS); |t| only falls along the row, so
    V >= min(W, b + 24) holds at every step.  g's modulus is at most 1 and
    its error grows by a few units of the current 2^-V per step; it reaches
    the next term multiplied by |t|.  So after j steps it adds at most
    about j units of 2^-W near the peak, where V = W as in a walk at the
    full scale, and j units of 2^-(W + 23) once the term is below 2^-24.
    With the rounding of t itself, a row of at most n steps is within order
    n^2 units of 2^-W, and W = prec + e + ROOT_STEP_BITS (k - 1) makes each
    T_c within about 2^-(bits + e + ROOT_STEP_BITS (k - 1)).
  - Root steps.  Let d_j bound the error of the four constants of level j,
    all at the one scale 2^-W, so d_k is the walk's, rounding and tail,
    with d_k 2^e_k about 2^-(bits + ROOT_STEP_BITS (k - 1)).  The
    b = 0 square S_c = theta[c;0](2^(j-1) Z)^2 is formed exactly from
    products whose factors sum to about 3/2 in modulus at most (the
    constant with c = 0 is near 1, the others are small), so it is within
    about 3 d_j.  Its
    leading term, the square of that of theta[c;0](2^(j-1) Z), is
    e^(-pi m^T Im(2^j Z) m / 4) for the shortest m = c mod 2: the leading
    term of T_c at level j, above 2^-e_j >= 2^-e for c != 0, and 1 for
    c = 0.  So every S_c is at least 2^-e in the size of its leading
    terms, and the plan makes each root at least half its own leading term
    (see the sign rule), so |root| > 2^-(e_j / 2 + 1).  The root carries
    the square's error over twice its modulus, and isqrt adds two units of
    2^-W: d_(j-1) <= 3 d_j 2^(e_j / 2) + 2^(1 - W).  As e_(j-1) <= e_j / 2
    + 1, d_(j-1) 2^e_(j-1) <= 6 d_j 2^e_j: a step costs at most
    log2(6) < ROOT_STEP_BITS bits of the scale and of the tail alike, and
    the four constants of level 1 are within about 2^-(bits + e_1), as
    the walk at Z would give them, for any k.
  - Each square is a signed sum of the products T_c T_(c+a) of level 1,
    formed exactly in ints at the scale 2^-2W from the ten T_c T_d, c <= d,
    so its error is a few times 2^-(bits + e_1).  theta_squares rounds each
    once to working precision.  theta_all takes their roots by _roots, as a
    root step does: each carries its square's error over twice its
    modulus, and the isqrt two units of 2^-W, and is rounded once to
    working precision.
  - The lemma floor.  On F2, 0 <= 2 y12 <= y11 <= y22, so y11 + y22 - 2 y12
    is the y of e_1, and 2^-e_1 < e^(-pi (y11 + y22 - 2 y12) / 2) / 2.  The
    lemmas that bounds.theta_lb states give |theta| >= 0.44 for a = 0,
    0.75 e^(-pi a^T Y a) for a half, and 1.12 |1 +- e^(i pi z12)|
    e^(-pi (a^T Y a - y12)) for a = (1/2, 1/2); so every square is above
    2^-e_1 but theta[11;11]^2, which is above 2.5 |1 - e^(i pi z12)|^2
    2^-e_1 (theta[11;00]^2 is above 2.5 2^-e_1, as |1 + e^(i pi z12)| >= 1).
    With z12 = x + i y, |1 - e^(i pi z12)|^2 = (1 - e^(-pi y))^2
    + 4 e^(-pi y) sin^2(pi x / 2): for pi y <= 1 that is at least
    (pi y / 2)^2 + 8 x^2 / e >= (pi |z12| / 2)^2, as sin(pi x / 2) >=
    sqrt(2) |x| on |x| <= 1/2, and for pi y > 1 at least (1 - 1/e)^2 > 1/4.
    So theta[11;11]^2 is above 2.5 min(1, pi |z12|)^2 2^-e_1 / 4 >
    2^-(e_1 + L + 1), and that is the floor of every square.  L, the locus
    factor's bits, comes from z12's raw parts on doubles, within 2^-50 of
    its value before it is rounded up.  The margin is the floor's one
    further bit, from the lemmas' constants: it is the bit by which
    theta[11;11]^2 may sit below 2^-e_1 away from the locus as well, where
    L = 0, so the plan needs none for it.  A few times 2^-(bits + e_1) is a
    few times 2^(1 - workbits) of the floor: every square on F2 keeps about
    workbits bits relative to its own size, however near z12 is to 0, and
    a Z with pi |z12| >= 1, such as the reduced ex1-ex3 (pi |z12| >= 1.3),
    gets the plan of workbits.  The lemmas hold on F2 only.  Off F2 the plan is the
    same, from z12 and Im Z, and each square is within a few times
    2^-(bits + e_1) <= 2^-(workbits + e_1) absolutely, with no relative
    bound: a square can be far below 2^-e_1, or vanish at an Sp4(Z) image
    of the locus.
  - chi10 is the product of the ten squares' int pairs, with each factor
    (as its cut_mul by 1) and each partial product cut back by cut_mul to
    workbits + CHI10_GUARD_BITS bits, and rounded once to an mpc at working
    precision.  By cut_mul's bound the twenty cuts add less than
    20 2^(3/2 - workbits - 8) < 2^-(workbits + 2) relative and the rounding
    2^-workbits, so chi10 is within 2^(1 - workbits) of the exact product
    of the ten squares, relative.

Every signed constant, at every level j >= 0, is the root that _isqrt takes
of an exact int square, and a sign is never guessed.  One rule signs them
all: with m = 2n + a,
    theta[a;b](2^j Z) = sum_{m = a mod 2} exp(i pi 2^j m^T Z m / 4) i^(m.b),
and i^(m.b) = +-1, since m.b = a.b mod 2 is even.  The sign of each root
is the one with Re(root conj L) > 0, where L (_leading) sums these terms
on complex doubles over the ellipsoid whose tail is below
2^-(LEADING_BITS + 16) of the leading term, scaled by the largest so that
nothing underflows; the cosine of the angle between the root and L must be
above 1/2 in modulus, or ArithmeticError is raised.  theta_all signs its
ten roots by the L of level 0, every b of a class a from the same
exponentials, one per point; a root step to level j signs its four by the
b = 0 sums of level j.  The plan takes the root steps' L before the walk,
and stops at level j when some |L| is below 1/2: that constant is then
within a factor 2 of cancelling its leading terms, and its root would lose
the bits it cancels.  At Im z12 = 0 the terms m and (m1, -m2) of
theta[11;0](2^j Z) cancel exactly where 2^j Re z12 is odd.  The L of
theta[11;11] adds those two terms at once, through tanh of the part of
the exponent that z12 contributes (see _leading), so it keeps its relative
accuracy as z12 -> 0 and signs the root however near Z is to the locus.
Only a theorem sets a square to 0: theta[11;11](Z) = theta[1;1](z11)
theta[1;1](z22) = 0 when z12 = 0, and on F2 the lemma floor keeps every
square above 0 otherwise.  So ThetaWalk takes theta[11;11]^2 as 0 exactly
when z12 = 0, its root is 0 with no sign to choose, and chi10 is 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import (from_float, from_int, from_man_exp, fzero, mpf_exp, mpf_mul, mpf_neg,
                          mpf_pi, mpf_shift, mpf_sin_pi, to_fixed, to_float)

from .prec import PrecisionContext, cut_mul

# bits of a step factor below its term's lowest bit, and the least number of
# bits worth dropping from a step factor at once (see the module docstring)
STEP_GUARD_BITS = 24
STEP_DROP_BITS = 64
# the most half-lattice points theta_squares walks before it goes up a
# level, and the bits the scale carries per root step (see the module
# docstring)
WALK_POINTS_MAX = 128
ROOT_STEP_BITS = 3
# the tail target, below workbits, of the sums that sign the root steps
LEADING_BITS = 16
# bits beyond workbits that chi10's int product keeps in each factor and
# partial product
CHI10_GUARD_BITS = 8


@dataclass(frozen=True)
class ThetaCharacteristic:
    # doubled entries: a = (a1/2, a2/2), b = (b1/2, b2/2), each in {0,1}
    a1: int
    a2: int
    b1: int
    b2: int

    def __str__(self):
        """The constant's name, theta[a1a2;b1b2], in reports and errors."""
        return f"theta[{self.a1}{self.a2};{self.b1}{self.b2}]"


THETA1 = [ThetaCharacteristic(0, 0, 0, 0), ThetaCharacteristic(0, 0, 0, 1),
          ThetaCharacteristic(0, 0, 1, 0), ThetaCharacteristic(0, 0, 1, 1)]
THETA2 = [ThetaCharacteristic(1, 0, 0, 0), ThetaCharacteristic(0, 1, 0, 0),
          ThetaCharacteristic(1, 1, 0, 0), ThetaCharacteristic(0, 1, 1, 0),
          ThetaCharacteristic(1, 0, 0, 1), ThetaCharacteristic(1, 1, 1, 1)]
EVEN_CHARS = THETA1 + THETA2
# the four theta[c;0], c = 2 c1 + c2, of a root step
_ROOT_CHARS = [ThetaCharacteristic(c >> 1, c & 1, 0, 0) for c in range(4)]
# the one even constant that vanishes on F2, exactly on z12 = 0
_THETA_11_11 = ThetaCharacteristic(1, 1, 1, 1)


def _exact(z):
    """The entry z as an mpc with all of its bits (see PeriodMatrix)."""
    if isinstance(z, mp.mpc):
        return z
    if isinstance(z, mp.mpf):
        return mp.make_mpc((z._mpf_, fzero))
    if isinstance(z, int):
        return mp.make_mpc((from_int(z), fzero))
    if isinstance(z, (float, complex)):
        return mp.make_mpc((from_float(z.real), from_float(z.imag)))
    raise TypeError(f"PeriodMatrix entry {z!r} is not an mpc, mpf, int, float or complex")


class PeriodMatrix:
    """Symmetric 2x2 complex matrix with positive-definite imaginary part.
    The constructor keeps the bits of each entry, whatever the ambient
    precision: an mpc or mpf as it is, an int, float or complex exactly; a
    str, whose value hangs on the ambient precision, raises TypeError.  It
    checks positivity; siegel.act builds its images with _of, which neither
    converts nor checks (see there)."""

    def __init__(self, z11, z12, z22):
        self.z11 = _exact(z11)
        self.z12 = _exact(z12)
        self.z22 = _exact(z22)
        self.check_im_positive()

    @classmethod
    def _of(cls, z11, z12, z22):
        """The matrix of the mpc values z11, z12, z22 as they are: no wrap,
        no check."""
        Z = object.__new__(cls)
        Z.z11, Z.z12, Z.z22 = z11, z12, z22
        return Z

    def check_im_positive(self):
        """Raise ValueError unless Im Z is positive definite at the ambient
        precision: y11 > 0 and det Im Z > 0."""
        y11, y12, y22 = self.im_entries()
        if not (y11 > 0 and y11 * y22 - y12 * y12 > 0):
            raise ValueError("Im Z is not positive definite")

    def im_entries(self):
        return mp.im(self.z11), mp.im(self.z12), mp.im(self.z22)

    def det_im(self):
        y11, y12, y22 = self.im_entries()
        return y11 * y22 - y12 * y12

    def entries(self):
        return self.z11, self.z12, self.z22

    def __repr__(self):
        return f"PeriodMatrix({self.z11}, {self.z12}, {self.z22})"


def _im_doubles(Z: PeriodMatrix, ctx: PrecisionContext):
    """det(Im 2Z), taken at the working precision, and the entries of
    Im 2Z, on doubles (see _ellipsoid_rows)."""
    with ctx.work():
        det = float(4 * Z.det_im())
    return (det, *(2 * float(y) for y in Z.im_entries()))


def _ellipsoid_rows(im, bits, j=0):
    """R^2, e and the rows (m1, lo, hi) of the half lattice {m1 > 0} or
    {m1 = 0, m2 >= 0} that lie in the ellipsoid pi m^T (Im 2Z) m / 4 <= R^2,
    the walk at Z, for im = _im_doubles(Z, ctx) and the tail target bits;
    at 2^j Z from Z's im, scaled exactly.

    e is the leading-term exponent of 2Z (see the module docstring).  R is
    the radius of Deconinck et al. (2004), Theorem 2, at genus 2 on 2Z: the
    terms outside it sum to at most (2/rho)^2 Gamma(1, (R - rho/2)^2)
    = (2/rho)^2 e^-(R - rho/2)^2, and R makes that 2^-(bits + 16 + e).
    The theorem holds for any rho up to the shortest nonzero lattice vector,
    so rho^2 = pi lambda_min(Im 2Z) / 4 serves every positive-definite Y.
    R - rho/2 is kept at least 1, above the theorem's hypothesis
    R >= (sqrt(2) + rho) / 2.

    All but det(Im Z), which can cancel, is on doubles, lambda_min as
    det / lambda_max: the rows hold the ellipsoid of radius R (1 - 2^-42)
    while |Im z12| < 2^6 sqrt(det Im Z) (see the module docstring).  Im Z
    beyond the doubles raises an ArithmeticError.
    """
    det, y11, y12, y22 = im[0] * 4 ** j, im[1] * 2 ** j, im[2] * 2 ** j, im[3] * 2 ** j
    e = math.ceil(math.pi * max(y11, y22, y11 + y22 - 2 * abs(y12))
                  / (4 * math.log(2))) + 1
    lam = det / ((y11 + y22) / 2 + math.hypot((y11 - y22) / 2, y12))
    rho = math.sqrt(math.pi * lam / 4)
    x = (bits + 16 + e) * math.log(2) + 2 * math.log(2 / rho)
    R = rho / 2 + math.sqrt(max(x, 1))
    s = 4 * R * R / math.pi  # the ellipsoid is m^T (Im 2Z) m <= s
    rows = []
    for m1 in range(int(math.sqrt(s * y22 / det)) + 1):
        c = -y12 * m1 / y22
        h = math.sqrt(max((s - m1 * m1 * det / y22) / y22, 0))
        lo = 0 if m1 == 0 else math.ceil(c - h)
        hi = math.floor(c + h)
        if lo <= hi:
            rows.append((m1, lo, hi))
    return R * R, e, rows


def _terms(rows):
    return sum(hi - lo + 1 for _, lo, hi in rows)


class _WalkPlan(NamedTuple):
    """The walk at Z (see the module docstring): at level k it runs at
    2^(k-1) Z, whose constants _walk_constants takes from Z by the exponent
    shift, over the ellipsoid of 2^k Z of radius^2 radius_sq, row by row
    from each row's peak, with a chain at prec bits and terms at the scale
    2^-W.  leading[j - 1][c] = _leading(Z, im, j)[c], the leading terms L
    of theta[c;0](2^j Z), j < k, sign the root steps by the rule that signs
    theta_all at level 0."""
    level: int
    Z: PeriodMatrix
    radius_sq: float
    rows: list
    starts: list
    prec: int
    W: int
    leading: list

    @property
    def terms(self):
        return _terms(self.rows)


def _locus_bits(z12):
    """2 log2(1 / min(1, pi |z12|)), rounded up, from the raw parts of z12
    on doubles, each part scaled by the same exact power of 2 so that
    nothing underflows; 0 at z12 = 0 (see the module docstring)."""
    if not z12:
        return 0
    top = max(x[2] + x[3] for x in z12._mpc_ if x[1])
    r = math.hypot(*(to_float(mpf_shift(x, -top)) for x in z12._mpc_))
    return max(0, math.ceil(-2 * (top + math.log2(math.pi * r))))


def _walk_plan(Z: PeriodMatrix, ctx: PrecisionContext, level):
    """The plan of the walk at Z, at workbits plus the _locus_bits of z12
    (see the module docstring).  Its level k is the least one whose
    ellipsoid holds at most WALK_POINTS_MAX half-lattice points, not one
    whose e is above those bits, and not one above a level j where the
    leading terms of some theta[c;0](2^j Z) sum to less than half of the
    largest; a level other than None forces k (see ThetaWalk)."""
    im = _im_doubles(Z, ctx)
    bits = ctx.workbits + _locus_bits(Z.z12)
    # (R^2, e, rows) of the walk at 2^j Z, whose tail target carries the
    # bits of its j root steps, as the scale does
    levels = [_ellipsoid_rows(im, bits)]
    while (len(levels) < level if level
           else _terms(levels[-1][2]) > WALK_POINTS_MAX):
        j = len(levels)
        up = _ellipsoid_rows(im, bits + ROOT_STEP_BITS * j, j)
        if not level and up[1] > bits:
            break
        levels.append(up)
    leading = []
    for j in range(1, len(levels)):
        L = _leading(Z, im, j)
        if not level and not min(map(abs, L)) >= 0.5:
            break
        leading.append(L)
    k = len(leading) + 1
    R2, e, rows = levels[k - 1]
    _, y12, y22 = Z.im_entries()
    peak = float(-y12 / y22)  # the same ratio at 2^(k-1) Z
    starts = [min(max(round(peak * m1), lo), hi) for m1, lo, hi in rows]
    K = max(max(-lo, hi) for _, lo, hi in rows)  # largest |m2|
    # the longest chain of rounded products: the steps of m1 and p that
    # carry the start values, or a walk along a row
    n = rows[-1][0] + max(4 * K, sum(abs(q - p) for p, q in zip([0] + starts, starts)))
    prec = bits + 2 * n.bit_length() + 4
    return _WalkPlan(k, Z, R2, rows, starts, prec, prec + e + ROOT_STEP_BITS * (k - 1), leading)


def _leading(Z: PeriodMatrix, im, j, chars=_ROOT_CHARS):
    """The leading terms L of theta[a;b](2^j Z) for each characteristic of
    chars, by default the four [c;0] of a root step, for im =
    _im_doubles(Z, ctx): the terms exp(i pi 2^j m^T Z m / 4) i^(m.b),
    m = a mod 2, of the ellipsoid whose tail is below 2^-(LEADING_BITS + 16)
    of each leading term, on complex doubles, each class a divided by the
    modulus of its largest.  One exponential per point serves every b.

    theta[11;11] adds each pair m, (m1, -m2) at once, since their terms
    cancel as z12 -> 0: with s = i pi 2^(j-1) m1 m2 z12, the part of m's
    exponent that changes sign, they are E e^s and -E e^-s for a shared E,
    and the pair is t (1 - e^(-2s)) = 2 t tanh(s) / (1 + tanh(s)), t = E e^s
    the term of m, with no second exponential.  The pair is taken at its
    member with Re s > 0 (m2 > 0 when Re s = 0), the larger term: there
    Re tanh(s) >= 0, so 1 + tanh(s) does not cancel, and tanh(s) is s to
    double precision as s -> 0.  A pair whose larger term is outside the
    ellipsoid is in its tail."""
    z11, z12, z22 = (2.0 ** (j - 2) * complex(x) for x in Z.entries())
    xs = [[], [], [], []]
    for m1, lo, hi in _ellipsoid_rows(im, LEADING_BITS, j - 1)[2]:
        for m2 in range(lo, hi + 1):
            x = 1j * cmath.pi * (m1 * m1 * z11 + 2 * m1 * m2 * z12 + m2 * m2 * z22)
            xs[2 * (m1 & 1) + (m2 & 1)].append((m1, m2, x))
    terms = []
    for pts in xs:
        top = max(x.real for _, _, x in pts)
        terms.append([(m1, m2, cmath.exp(x - top)) for m1, m2, x in pts])
    # m.b = a.b = 0 mod 2, so i^(m.b) = (-1)^(m.b / 2), the same at -m: each
    # half-lattice term also stands for -m, except the origin
    out = []
    for ch in chars:
        pts = terms[2 * ch.a1 + ch.a2]
        if ch == _THETA_11_11:
            pts = [(m1, m2, 2 * t * (h := cmath.tanh(s)) / (1 + h)) for m1, m2, t in pts
                   if (s := 2j * cmath.pi * m1 * m2 * z12).real > 0 or (s.real == 0 and m2 > 0)]
        L = sum(-t if (m1 * ch.b1 + m2 * ch.b2) & 2 else t for m1, m2, t in pts)
        out.append(2 * L - (ch.a1 == ch.a2 == 0))
    return out


def _inv(x, prec):
    """The block float 1/x = conj(x) / |x|^2, with prec or prec + 1 bits in
    its larger part, each part rounded down."""
    re, im, E = x
    n = re * re + im * im
    k = prec + n.bit_length() - max(re.bit_length(), im.bit_length())
    return (re << k) // n, (-im << k) // n, -E - k


def _expjpi(z, shift, prec):
    """The block float exp(i pi 2^shift z) of the mpc z, with prec bits in
    its larger part, from the raw parts of z (see the module docstring)."""
    re, im = (mpf_shift(x, shift) for x in z._mpc_)
    _, man, exp, bc = im
    wp = prec + 10 + max(0, exp + bc)
    modulus = mpf_exp(mpf_neg(mpf_mul(mpf_pi(wp), im, wp)), prec + 10)
    F = prec + 4
    sign, man, exp, _ = re
    if exp < -1:
        n = ((man >> (-exp - 2)) + 1) >> 1
        r = from_man_exp(man - (n << (-exp - 1)), exp)
        # |sin(pi r)| < 2^(mag + 2), mag = exp + bc of r
        s = to_fixed(mpf_sin_pi(r, max(F + 4 + r[2] + r[3], 8)), F)
        c = math.isqrt((1 << 2 * F) - s * s)
    else:  # Re is a multiple of 1/2
        n, c, s = man << (exp + 1), 1 << F, 0
    if sign:
        n, s = -n, -s
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[n & 3]
    _, man, exp, _ = modulus
    return cut_mul((c, s, -F), (man, 0, exp), prec)


def _walk_constants(plan: _WalkPlan):
    """u, v, w, u^2, v^-1, w^2 and w^-2 at 2^(k-1) Z, k the plan's level,
    as block floats of plan.prec + 8 bits (see the module docstring): u and
    w take the exponent shift k - 2 of z11 and z22, v the shift k - 1 of
    z12, each exact."""
    Z, P, k = plan.Z, plan.prec + 8, plan.level
    u, v, w = _expjpi(Z.z11, k - 2, P), _expjpi(Z.z12, k - 1, P), _expjpi(Z.z22, k - 2, P)
    w2 = cut_mul(w, w, P)
    return u, v, w, cut_mul(u, u, P), _inv(v, P), w2, _inv(w2, P)


def _scaled(x, W):
    """The block float x as an int pair at scale 2^-W, rounded down."""
    re, im, E = x
    k = E + W
    return (re << k, im << k) if k >= 0 else (re >> -k, im >> -k)


def _row_starts(plan: _WalkPlan):
    """For each row (m1, lo, hi) of the plan and its peak p, the values the
    walk starts from: (m1, p, s, V, g_up, g_down, q), with s = t(m1, p) at
    the scale 2^-W and the step factors g_up = v^m1 w^(2p + 1), g_down =
    v^-m1 w^(1 - 2p) and q = w^2 at the scale 2^-V, V = min(W, b +
    STEP_GUARD_BITS) for b the bit length of the larger part of s.

    t = u^(m1^2) v^(m1 m2) w^(m2^2) is largest at m2 = peak m1.  From the
    nearest integer p in [lo, hi], the step factors t(m2 + 1) / t(m2) =
    v^m1 w^(2 m2 + 1) for m2 >= p and t(m2 - 1) / t(m2) = v^-m1 w^(1 - 2 m2)
    for m2 <= p have modulus at most 1, and each is multiplied by w^2 per
    step.  From row to row go s, g_up, g_down and a = u^(2 m1 + 1) v^p =
    t(m1 + 1, p) / t(m1, p), one block-float product each per step of m1 or
    of p (see the module docstring)."""
    prec, W = plan.prec, plan.W
    u, v, w, u2, vinv, w2, w2inv = _walk_constants(plan)
    s, g_up, g_down, a = (1, 0, 0), w, w, u
    m1 = p = 0
    for (r, _, _), target in zip(plan.rows, plan.starts):
        while m1 < r:
            s, a = cut_mul(s, a, prec), cut_mul(a, u2, prec)
            g_up, g_down = cut_mul(g_up, v, prec), cut_mul(g_down, vinv, prec)
            m1 += 1
        while p < target:
            s, a = cut_mul(s, g_up, prec), cut_mul(a, v, prec)
            g_up, g_down = cut_mul(g_up, w2, prec), cut_mul(g_down, w2inv, prec)
            p += 1
        while p > target:
            s, a = cut_mul(s, g_down, prec), cut_mul(a, vinv, prec)
            g_up, g_down = cut_mul(g_up, w2inv, prec), cut_mul(g_down, w2, prec)
            p -= 1
        tr, ti = _scaled(s, W)
        V = min(W, max(tr.bit_length(), ti.bit_length()) + STEP_GUARD_BITS)
        yield m1, p, (tr, ti), V, _scaled(g_up, V), _scaled(g_down, V), _scaled(w2, V)


def _walk(plan: _WalkPlan):
    """The four theta[c;0](2^k Z) of the plan's walk, as int pairs at the
    scale 2^-W, in the order c = 2 c1 + c2."""
    # half_re[2 c1 + c2] + i half_im[2 c1 + c2] sums the half-lattice
    # terms with m = (c1, c2) mod 2, at scale 2^-W
    half_re, half_im = [0] * 4, [0] * 4
    for (_, lo, hi), (m1, p, (tr, ti), V0, g_up, g_down, q) in \
            zip(plan.rows, _row_starts(plan)):
        base = 2 * (m1 & 1)
        half_re[base + (p & 1)] += tr
        half_im[base + (p & 1)] += ti
        # the step factor and w^2 run at the scale 2^-V: V = W, or
        # STEP_GUARD_BITS above the bit length of a smaller term, and
        # they drop STEP_DROP_BITS or more bits at once as the term falls
        for sgn, (gr, gi), stop in ((1, g_up, hi), (-1, g_down, lo)):
            ar, ai, V = tr, ti, V0
            qr, qi = q
            lim = 1 << (V - STEP_GUARD_BITS - STEP_DROP_BITS) \
                if V >= STEP_GUARD_BITS + STEP_DROP_BITS else 0
            for m2 in range(p + sgn, stop + sgn, sgn):
                ar, ai = (ar * gr - ai * gi) >> V, (ar * gi + ai * gr) >> V
                gr, gi = (gr * qr - gi * qi) >> V, (gr * qi + gi * qr) >> V
                k = base + (m2 & 1)
                half_re[k] += ar
                half_im[k] += ai
                if -lim < ar < lim and -lim < ai < lim:
                    d = V - STEP_GUARD_BITS - max(ar.bit_length(), ai.bit_length())
                    gr, gi, qr, qi = gr >> d, gi >> d, qr >> d, qi >> d
                    V -= d
                    lim >>= d
    # each half-lattice term also stands for -m, in the same class mod 2,
    # except the origin, which is its own mirror
    th = [(2 * re, 2 * im) for re, im in zip(half_re, half_im)]
    th[0] = (th[0][0] - (1 << plan.W), th[0][1])
    return th


def _products(th):
    """The ten products T_c T_d, c <= d, of four int pairs, exactly."""
    return {(c, d): (ar * br - ai * bi, ar * bi + ai * br)
            for c, (ar, ai) in enumerate(th) for d, (br, bi) in enumerate(th) if c <= d}


def _square(prods, k, b):
    """theta[a;b]^2 = sum_c (-1)^(b.c) T_c T_(c xor k), k = 2 a1 + a2 and b
    likewise, from the _products table, exactly."""
    # for k != 0, c and c xor k give the same product with the same sign,
    # since a.b is even, so each distinct product counts twice
    sr = si = 0
    for c in range(4):
        if c <= c ^ k:
            pr, pi = prods[c, c ^ k]
            if bin(b & c).count("1") & 1:
                pr, pi = -pr, -pi
            sr += pr
            si += pi
    return (2 * sr, 2 * si) if k else (sr, si)


def _isqrt(sr, si):
    """The square root of sr + i si with nonnegative real part, in ints,
    within about two units: the larger of its parts is isqrt((|S| +- sr)
    / 2) and the other si / 2 over it, so that nothing cancels.  |S| needs
    only about half its bits: an error d in it moves that part by d / 4
    over the part, at least sqrt(|S| / 2), so |S| is taken from sr and si
    cut to b / 2 + 8 of their b bits, within 2^-5 sqrt|S|."""
    h = max(max(abs(sr), abs(si)).bit_length() // 2 - 8, 0)
    m = math.isqrt((sr >> h) ** 2 + (si >> h) ** 2) << h
    if sr >= 0:
        x = math.isqrt((m + sr) >> 1)
        return x, (si // (2 * x) if x else 0)
    y = math.isqrt((m - sr) >> 1)
    y = -y if si < 0 else y
    return si // (2 * y), y


def _sign(r, L, name):
    """1 or -1: the sign of the root r, a nonzero complex, that puts it on
    the side of L, the leading terms of its theta constant.  The cosine of
    the angle between them must be above 1/2 in modulus, or
    ArithmeticError: a sign is never guessed."""
    den = abs(r) * abs(L)
    cos = (r * L.conjugate()).real / den if den else math.nan
    if not abs(cos) > 0.5:
        raise ArithmeticError(f"{name}: the sign of the root is not decided "
                              f"by the leading terms (cosine {cos:.3g})")
    return 1 if cos > 0 else -1


def _roots(squares, leading, names):
    """The roots of the int-pair squares at the scale 2^-2W, as int pairs at
    the scale 2^-W: each by _isqrt, signed by _sign against the leading
    terms L of its constant, whose name an error gives (see the module
    docstring)."""
    out = []
    for (sr, si), L, name in zip(squares, leading, names):
        x, y = _isqrt(sr, si)
        if x or y:
            m = max(abs(x), abs(y))
            if _sign(complex(x / m, y / m), L, name) < 0:
                x, y = -x, -y
        out.append((x, y))
    return out


def _as_mpc(pairs, E, ctx: PrecisionContext):
    """The int pairs at the scale 2^E as mpc values, each rounded once to
    working precision."""
    with ctx.work():
        return [mp.mpc(mp.mpf((re, E)), mp.mpf((im, E))) for re, im in pairs]


class Chi10NearZeroError(ArithmeticError):
    pass


class ThetaWalk:
    """The one walk at Z, the only way into its ten squares: plan is
    _walk_plan(Z, ctx, level), where level forces the walk's level k, for
    tests, and pairs are the ten theta[a;b](Z)^2 in EVEN_CHARS order, as int
    pairs at the scale 2^-2W; theta[11;11]^2 is (0, 0) when z12 = 0 (see the
    module docstring)."""

    def __init__(self, Z: PeriodMatrix, ctx: PrecisionContext, level=None):
        self.Z, self.ctx = Z, ctx
        self.plan = plan = _walk_plan(Z, ctx, level)
        # the four theta[c;0](2^k Z) of the walk, and k - 1 root steps down
        # to the four theta[c;0](2Z), all as int pairs at the scale 2^-W:
        # each theta[c;0](2^j Z) is taken from its square by _roots
        th = _walk(plan)
        for j in range(plan.level - 1, 0, -1):
            prods = _products(th)
            th = _roots([_square(prods, c, 0) for c in range(4)], plan.leading[j - 1],
                        [f"{ch}(2^{j} Z)" for ch in _ROOT_CHARS])
        prods = _products(th)
        self.pairs = [_square(prods, 2 * ch.a1 + ch.a2, 2 * ch.b1 + ch.b2) for ch in EVEN_CHARS]
        if not Z.z12:
            # theta[11;11] = theta[1;1](z11) theta[1;1](z22) = 0 on z12 = 0
            self.pairs[EVEN_CHARS.index(_THETA_11_11)] = (0, 0)

    def squares(self):
        """The ten squares, each rounded once to working precision."""
        return _as_mpc(self.pairs, -2 * self.plan.W, self.ctx)

    def roots(self):
        """The ten theta[a;b](Z) in EVEN_CHARS order: the _roots of the
        squares, signed by the _leading terms of level 0, each rounded once
        to working precision (see the module docstring)."""
        leading = _leading(self.Z, _im_doubles(self.Z, self.ctx), 0, EVEN_CHARS)
        return _as_mpc(_roots(self.pairs, leading, map(str, EVEN_CHARS)), -self.plan.W, self.ctx)

    @cached_property
    def chi10(self):
        """chi10(Z), the product of the ten pairs, each factor and each
        partial product cut back to workbits + CHI10_GUARD_BITS bits, rounded
        once to an mpc at working precision (see the module docstring)."""
        prec, x = self.ctx.workbits + CHI10_GUARD_BITS, (1, 0, 0)
        for sr, si in self.pairs:
            x = cut_mul(x, cut_mul((sr, si, -2 * self.plan.W), (1, 0, 0), prec), prec)
        re, im, E = x
        return _as_mpc([(re, im)], E, self.ctx)[0]

    def arch(self, bare):
        """archimedean_term(Z, ctx, bare), taken from c = chi10 as
        -log(2^16 pi^20 |c|^2 det(Im Z)^10) / 20: the formula squared, in
        one log, with no square root for |c| and no log of a constant;
        bare=True leaves out the 2^16 pi^20.

        Raises Chi10NearZeroError when c == 0, that is when |c|^2 == 0.  On
        F2 that is exactly when z12 = 0, the product-of-elliptic-curves
        locus: there theta[11;11]^2 is set to 0, and otherwise every square
        is above the lemma floor 2^-(e_1 + L + 1) and keeps about workbits
        bits relative (see the module docstring), so chi10 is within about
        10 times that of itself relative, however small it is (log2|chi10|
        is -539 at the F2 matrix (0.1 + 1.1i, 0.2 + 0.3i, -0.3 + 60i), and
        -1000 at z12 = 10^-150 (1 + i)), and so is never 0.  Off F2 c is 0
        at z12 = 0 as well; otherwise the squares keep only the absolute
        bound of the module docstring, and the term is returned, also at an
        Sp4(Z) image of the locus, where chi10 vanishes; siegel.reduce takes
        Z to F2 first.

        ctx.pi is within 2^-workbits of pi relative, so 2^16 pi^20, its power
        rounded once, is within 21 2^-workbits; with the product's rounding the
        log's argument moves by less than 23 2^-workbits relative, and the term
        by less than 2^-(workbits - 1).
        """
        c, ctx = self.chi10, self.ctx
        with ctx.work():
            c2 = c.real * c.real + c.imag * c.imag
            if not c2:
                raise Chi10NearZeroError(
                    "chi10(Z) = 0: Z is on the product-of-elliptic-curves locus (z12 = 0), "
                    "where the archimedean term is not defined"
                )
            x = c2 * self.Z.det_im() ** 10
            if not bare:
                x *= mp.ldexp(ctx.pi ** 20, 16)
            return -mp.log(x) / 20


def theta_squares(Z: PeriodMatrix, ctx: PrecisionContext):
    """The ten theta[a;b](Z)^2 in the fixed EVEN_CHARS order, from the four
    theta[c;0](2^k Z) of one walk and k - 1 root steps down to the four
    theta[c;0](2Z) (see the module docstring).  On F2 each keeps about
    workbits bits relative to its own size; off F2 the plan is the same and
    each is within about 2^-(workbits + e) absolutely, e the leading-term
    exponent of 2Z (see the module docstring's lemma floor)."""
    return ThetaWalk(Z, ctx).squares()


def theta_all(Z: PeriodMatrix, ctx: PrecisionContext):
    """All ten even theta constants in the fixed EVEN_CHARS order: the
    signed roots of the squares of one walk, with theta_squares' bounds on
    their squares, on F2 and off it."""
    return ThetaWalk(Z, ctx).roots()


def chi10(Z: PeriodMatrix, ctx: PrecisionContext):
    """chi10(Z) = prod over the ten even characteristics of theta^2: on F2
    within about workbits bits of itself relative, and 0 exactly when
    z12 = 0; off F2 the product of squares that are each within about
    2^-(workbits + e) absolutely (see theta_squares)."""
    return ThetaWalk(Z, ctx).chi10


def theta_big(Z: PeriodMatrix, ctx: PrecisionContext):
    """Theta(Z) = prod over the 3-subsets T of {1..5} of theta_(m_(T o U))^8,
    U = {1, 3, 5}, with m_S the sum mod 2 of the doubled m_i, i in S, of
    m_1..m_5 = [10;00], [10;10], [01;10], [01;11], [00;11].  T -> m_(T o U)
    takes the ten 3-subsets onto the ten even characteristics, each once, so
    Theta is the fourth power of the product of the ten theta_squares,
    chi10(Z)^4."""
    with ctx.work():
        return mp.fprod(theta_squares(Z, ctx)) ** 4


def archimedean_term(Z: PeriodMatrix, ctx: PrecisionContext, bare: bool = False):
    """-(1/10) log(2^8 pi^10 |chi10(Z)| det(Im Z)^5).

    With bare=True the 2^8 pi^10 normalization is dropped (the raw invariant
    -(1/10) log(|chi10| det(Im Z)^5)).  On F2 it is within a few times
    2^-workbits of the term, and Chi10NearZeroError is raised exactly when
    z12 = 0.  Off F2 the squares have only an absolute bound,
    2^-(workbits + e) (see theta_squares), and the term is as good as
    chi10's relative accuracy; reduce Z to F2 first (siegel.reduce).
    """
    return ThetaWalk(Z, ctx).arch(bare)
