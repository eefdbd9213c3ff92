"""Sp4(Z) action on the Siegel upper half-space H2, and the reduction to
the fundamental domain F2.

F2 is written once, as the moves of _step: Z is in F2 when no reduction
step applies, and reduce applies steps until none does.

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

import mpmath as mp

from .prec import PrecisionContext
from .theta import PeriodMatrix


class SymplecticMatrix:
    """4x4 integer matrix, blocks (alpha beta; lam mu), gamma^T J gamma = J."""

    def __init__(self, rows):
        self.m = [[int(v) for v in row] for row in rows]
        if len(self.m) != 4 or any(len(r) != 4 for r in self.m):
            raise ValueError("need a 4x4 integer matrix")
        if not self._is_symplectic():
            raise ValueError("matrix is not symplectic")

    def _is_symplectic(self) -> bool:
        J = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        gt = [[self.m[r][c] for r in range(4)] for c in range(4)]
        prod = _mat4_mul(_mat4_mul(gt, J), self.m)
        return prod == J

    def blocks(self):
        m = self.m
        a = [[m[0][0], m[0][1]], [m[1][0], m[1][1]]]
        b = [[m[0][2], m[0][3]], [m[1][2], m[1][3]]]
        c = [[m[2][0], m[2][1]], [m[3][0], m[3][1]]]
        d = [[m[2][2], m[2][3]], [m[3][2], m[3][3]]]
        return a, b, c, d

    def __mul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return SymplecticMatrix(_mat4_mul(self.m, other.m))

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
        return SymplecticMatrix.from_blocks(
            [[1, 0], [0, 1]], [[b11, b12], [b12, b22]],
            [[0, 0], [0, 0]], [[1, 0], [0, 1]])

    @staticmethod
    def embed_gl2(A) -> "SymplecticMatrix":
        """Z -> A Z A^T for A in GL2(Z): gamma = [[A, 0], [0, A^-T]]."""
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        if det not in (1, -1):
            raise ValueError("A must be unimodular")
        # A^-T = adj(A)^T / det
        ainvT = [[A[1][1] * det, -A[1][0] * det],
                 [-A[0][1] * det, A[0][0] * det]]
        return SymplecticMatrix.from_blocks(A, [[0, 0], [0, 0]],
                                            [[0, 0], [0, 0]], ainvT)


def _mat4_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)]


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


def _cz_plus_d(gamma: SymplecticMatrix, Z: PeriodMatrix):
    _, _, c, d = gamma.blocks()
    z11, z12, z22 = Z.entries()
    m11 = c[0][0] * z11 + c[0][1] * z12 + d[0][0]
    m12 = c[0][0] * z12 + c[0][1] * z22 + d[0][1]
    m21 = c[1][0] * z11 + c[1][1] * z12 + d[1][0]
    m22 = c[1][0] * z12 + c[1][1] * z22 + d[1][1]
    return m11, m12, m21, m22


def act(gamma: SymplecticMatrix, Z: PeriodMatrix) -> PeriodMatrix:
    """gamma Z = (alpha Z + beta)(lam Z + mu)^-1."""
    a, b, _, _ = gamma.blocks()
    z11, z12, z22 = Z.entries()
    n11 = a[0][0] * z11 + a[0][1] * z12 + b[0][0]
    n12 = a[0][0] * z12 + a[0][1] * z22 + b[0][1]
    n21 = a[1][0] * z11 + a[1][1] * z12 + b[1][0]
    n22 = a[1][0] * z12 + a[1][1] * z22 + b[1][1]
    m11, m12, m21, m22 = _cz_plus_d(gamma, Z)
    det = m11 * m22 - m12 * m21
    if abs(det) == 0:
        raise ZeroDivisionError("lam Z + mu is singular")
    # inverse of (lam Z + mu)
    i11, i12, i21, i22 = m22 / det, -m12 / det, -m21 / det, m11 / det
    w11 = n11 * i11 + n12 * i21
    w12 = n11 * i12 + n12 * i22
    w21 = n21 * i11 + n22 * i21
    w22 = n21 * i12 + n22 * i22
    # symmetrize to kill roundoff skew
    return PeriodMatrix(w11, (w12 + w21) / 2, w22)


def f2_tol(ctx: PrecisionContext):
    """The tolerance of the F2 conditions at ctx: 2^-(prec/2)."""
    return mp.mpf(2) ** (-ctx.prec // 2)


# Z -> diag(1, -1) Z diag(1, -1): flips the sign of z12 and keeps Z in F2
_FLIP_Z12 = SymplecticMatrix.embed_gl2([[1, 0], [0, -1]])


def _step(Z: PeriodMatrix, tol):
    """The next move of the reduction at Z, or None when Z is in F2.

    In order: the GL2 change that Minkowski-reduces Im Z; the translation
    by -nint(Re Z); the Gottschling matrix with the smallest |det(CZ + D)|
    below 1 - tol; and, when Im z12 is zero within tol, the z12 flip that
    makes Re z12 >= -tol.
    """
    U = _minkowski_unimodular(Z, tol)
    if U is not None:
        return SymplecticMatrix.embed_gl2(U)
    b = [-int(mp.nint(mp.re(z))) for z in Z.entries()]
    if any(b):
        return SymplecticMatrix.translation(*b)
    dets = [abs(m11 * m22 - m12 * m21)
            for m11, m12, m21, m22 in (_cz_plus_d(g, Z) for g in GOTTSCHLING)]
    least = min(range(len(dets)), key=dets.__getitem__)
    if dets[least] < 1 - tol:
        return GOTTSCHLING[least]
    if abs(mp.im(Z.z12)) <= tol and mp.re(Z.z12) < -tol:
        return _FLIP_Z12
    return None


def in_fundamental_domain(Z: PeriodMatrix, tol) -> bool:
    """Z is in F2 within tol: no reduction step applies.  Only the bound
    |det(CZ + D)| >= 1 - tol and the signs of Im z12 and Re z12 are read
    within tol.  |Re| <= 1/2, 2 |y12| <= y11 and y11 <= y22 are exact, so
    Re z11 = 1/2 + eps and y22 = y11 - eps are outside F2 for every eps > 0,
    however small against tol."""
    return _step(Z, tol) is None


MAX_ITER = 2000


def reduce(Z: PeriodMatrix, ctx: PrecisionContext):
    """Returns (gamma, Z_red) with Z_red = act(gamma, Z) in F2: the moves of
    _step at tol = f2_tol(ctx), applied until none is left.  So Z comes back
    unchanged, with the identity word, exactly when it is in F2 at that tol.
    Where Im z12 is zero within tol, Re z12 >= -tol is chosen, so the word
    does not follow the rounding noise in Im z12.
    """
    with ctx.work():
        tol = f2_tol(ctx)
        total = SymplecticMatrix.identity()
        cur = Z
        for _ in range(MAX_ITER):
            g = _step(cur, tol)
            if g is None:
                return total, cur
            cur = act(g, cur)
            total = g * total
        raise ArithmeticError("reduction did not terminate; raise precision")


def _minkowski_unimodular(Z: PeriodMatrix, tol):
    """Unimodular U with U (Im Z) U^T Minkowski-reduced and the transformed
    Im z12 >= -tol; None if Z is already in shape."""
    o11, o12, o22 = Z.im_entries()

    def transformed(U):
        a, b = U[0]
        c, d = U[1]
        return (a * a * o11 + 2 * a * b * o12 + b * b * o22,
                a * c * o11 + (a * d + b * c) * o12 + b * d * o22,
                c * c * o11 + 2 * c * d * o12 + d * d * o22)

    U = [[1, 0], [0, 1]]
    changed = False
    for _ in range(200):
        y11, y12, y22 = transformed(U)
        t = int(mp.nint(y12 / y11))
        if t != 0:
            # row op: e2 -> e2 - t e1
            U = [U[0], [U[1][0] - t * U[0][0], U[1][1] - t * U[0][1]]]
            changed = True
            continue
        if y22 < y11:
            U = [U[1], U[0]]
            changed = True
            continue
        break
    y11, y12, y22 = transformed(U)
    if y12 < -tol:
        U = [[U[0][0], U[0][1]], [-U[1][0], -U[1][1]]]
        changed = True
    return U if changed else None
