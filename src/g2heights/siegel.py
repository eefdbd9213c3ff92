"""Sp4(Z) action on the Siegel upper half-space H2, membership test for the
fundamental domain F2, and the reduction algorithm.

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


def in_fundamental_domain(Z: PeriodMatrix, tol) -> bool:
    tol = mp.mpf(tol)
    z11, z12, z22 = Z.entries()
    for z in (z11, z12, z22):
        if abs(mp.re(z)) > mp.mpf(1) / 2 + tol:
            return False
    y11, y12, y22 = Z.im_entries()
    # Minkowski-reduced with the sign condition: 0 <= 2 y12 <= y11 <= y22
    if not (y12 >= -tol and 2 * y12 <= y11 + tol and y11 <= y22 + tol):
        return False
    for gamma in GOTTSCHLING:
        m11, m12, m21, m22 = _cz_plus_d(gamma, Z)
        if abs(m11 * m22 - m12 * m21) < 1 - tol:
            return False
    return True


MAX_ITER = 2000

# Z -> diag(1, -1) Z diag(1, -1): flips the sign of z12 and keeps Z in F2
_FLIP_Z12 = SymplecticMatrix.embed_gl2([[1, 0], [0, -1]])


def reduce(Z: PeriodMatrix, ctx: PrecisionContext):
    """Returns (gamma, Z_red) with Z_red = act(gamma, Z) in F2 (within tol).

    When Im z12 of the result is zero within tol, the sign flip on z12 that
    Minkowski reduction applies follows rounding noise; Re z12 >= 0 is then
    chosen, so the word does not depend on the precision.
    """
    with ctx.work():
        tol = mp.mpf(2) ** (-ctx.prec // 2)
        total = SymplecticMatrix.identity()
        cur = Z
        for _ in range(MAX_ITER):
            # Minkowski-reduce Im Z (Lagrange-Gauss with sign fix)
            U = _minkowski_unimodular(cur)
            if U is not None:
                g = SymplecticMatrix.embed_gl2(U)
                cur = act(g, cur)
                total = g * total
            # translate Re into [-1/2, 1/2]
            x11, x12, x22 = (mp.re(cur.z11), mp.re(cur.z12), mp.re(cur.z22))
            b11, b12, b22 = (-int(mp.nint(x11)), -int(mp.nint(x12)),
                             -int(mp.nint(x22)))
            if (b11, b12, b22) != (0, 0, 0):
                g = SymplecticMatrix.translation(b11, b12, b22)
                cur = act(g, cur)
                total = g * total
            # det-increasing step
            best = None
            bestabs = 1 - tol
            for gamma in GOTTSCHLING:
                m11, m12, m21, m22 = _cz_plus_d(gamma, cur)
                a = abs(m11 * m22 - m12 * m21)
                if a < bestabs:
                    best, bestabs = gamma, a
            if best is None:
                if in_fundamental_domain(cur, 2 * tol):
                    if abs(mp.im(cur.z12)) <= tol and mp.re(cur.z12) < -tol:
                        cur = act(_FLIP_Z12, cur)
                        total = _FLIP_Z12 * total
                    return total, cur
                continue
            cur = act(best, cur)
            total = best * total
        raise ArithmeticError("reduction did not terminate; raise precision")


def _minkowski_unimodular(Z: PeriodMatrix):
    """Unimodular U with U (Im Z) U^T Minkowski-reduced and the transformed
    Im z12 >= 0; None if Z is already in shape."""
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
    if y12 < 0:
        U = [[U[0][0], U[0][1]], [-U[1][0], -U[1][1]]]
        changed = True
    return U if changed else None
