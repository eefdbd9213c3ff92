"""Independent checks for the benchmark: a naive theta sum taken from the
definition, the Colmez formula through mpmath.loggamma, the closed-form
finite parts, the F2 conditions and the sharp chi10 lower bound.

Nothing here calls g2heights; matrices are plain (z11, z12, z22) triples.
"""

import mpmath as mp

# the paper's printed heights, per job
PRINTED_HEIGHT = {"ex1": "-1.4525092396456", "ex2": "0.2688651723313",
                  "ex3": "-1.2016102497487"}
PRINTED_TOL = mp.mpf("1e-12")


def finite_part(job: str, bits: int):
    """Closed forms: 0, (2/5)log 3 + (1/5)log 5 + (1/5)log 41, (1/10)log 2."""
    with mp.workprec(bits):
        if job == "ex1":
            return mp.mpf(0)
        if job == "ex2":
            return 2 * mp.log(3) / 5 + mp.log(5) / 5 + mp.log(41) / 5
        return mp.log(2) / 10


def character_table(f: int, spec: dict):
    """{m: power of i} on (Z/f)^*, from a job's table or its single
    generator (chi(g^k) = i^(k v))."""
    power = {"1": 0, "i": 1, "-1": 2, "-i": 3}
    if "table" in spec:
        return {int(m): power[v] for m, v in spec["table"].items()}
    (g, v), = spec["gen"].items()
    table, x = {}, 1
    for k in range(f):
        table.setdefault(x, k * power[v] % 4)
        x = x * int(g) % f
    return table


def colmez(f: int, table: dict, bits: int):
    """(1/2) log f + f Re(sum chi(m) log Gamma(m/f) / sum chi(m) m)."""
    unit = (1, 1j, -1, -1j)
    with mp.workprec(bits):
        s = mp.fsum(unit[k] * mp.loggamma(mp.mpf(m) / f) for m, k in table.items())
        w = sum(unit[k] * m for m, k in table.items())
        return +(mp.log(f) / 2 + f * mp.re(s / w))


def _even_chars():
    return [(a1, a2, b1, b2) for a1 in (0, 1) for a2 in (0, 1)
            for b1 in (0, 1) for b2 in (0, 1) if (a1 * b1 + a2 * b2) % 2 == 0]


def theta_naive(Z, bits: int):
    """{(a1, a2, b1, b2): theta} for the ten even characteristics, summing
    exp(i pi [x^T Z x + x^T b]) over x = n + a/2 in a square box whose tail
    is below 2^-bits.  With k = 2x, the terms at x and -x are equal up to
    the phases i^(+-k.b), so each pair adds 2 cos(pi k.b / 2) times one
    exponential."""
    with mp.workprec(bits + 16):
        z11, z12, z22 = (mp.mpc(z) for z in Z)
        y11, y12, y22 = mp.im(z11), mp.im(z12), mp.im(z22)
        lam = (y11 + y22) / 2 - mp.sqrt(((y11 - y22) / 2) ** 2 + y12 ** 2)
        R = int(mp.ceil(mp.sqrt((bits + 16) * mp.log(2) / (mp.pi * lam)))) + 2
        pair = (2, 0, -2, 0)  # 2 cos(pi m / 2) by m mod 4
        out = {}
        for a1 in (0, 1):
            for a2 in (0, 1):
                chars = [ch for ch in _even_chars() if ch[:2] == (a1, a2)]
                sums = {ch: [] for ch in chars}
                for k1 in range(a1, 2 * R + 2, 2):
                    for k2 in range(-2 * R - a2 if k1 else a2, 2 * R + 2, 2):
                        e = mp.expjpi((k1 * k1 * z11 + 2 * k1 * k2 * z12 + k2 * k2 * z22) / 4)
                        for ch in chars:
                            w = pair[(k1 * ch[2] + k2 * ch[3]) % 4]
                            if (k1, k2) == (0, 0):
                                sums[ch].append(e)
                            elif w:
                                sums[ch].append(w * e)
                out.update((ch, mp.fsum(v)) for ch, v in sums.items())
        return out


def arch_naive(Z, bits: int):
    """(log2 |chi10|, -(1/10) log(2^8 pi^10 |chi10| det(Im Z)^5)) from the
    naive theta sum."""
    thetas = theta_naive(Z, bits)
    with mp.workprec(bits):
        y11, y12, y22 = (mp.im(mp.mpc(z)) for z in Z)
        log_chi = mp.fsum(2 * mp.log(abs(t)) for t in thetas.values())
        arch = -(log_chi + 5 * mp.log(y11 * y22 - y12 ** 2)
                 + 8 * mp.log(2) + 10 * mp.log(mp.pi)) / 10
        return +(log_chi / mp.log(2)), +arch


def check_theta_naive(bits: int):
    """The naive sum on a diagonal Z against the genus-1 factorisation
    theta[a;b](diag(t1, t2)) = theta[a1;b1](t1) theta[a2;b2](t2) by
    mpmath.jtheta; returns the largest difference."""
    t = (mp.mpc("0.25", "1.3"), mp.mpc("-0.1", "1.9"))
    got = theta_naive((t[0], 0, t[1]), bits)
    with mp.workprec(bits + 16):
        def th1(a, b, tau):
            q = mp.expjpi(tau)
            if (a, b) == (1, 1):
                return mp.mpc(0)
            return mp.jtheta({(0, 0): 3, (0, 1): 4, (1, 0): 2}[(a, b)], 0, q)
        return max(abs(v - th1(ch[0], ch[2], t[0]) * th1(ch[1], ch[3], t[1]))
                   for ch, v in got.items())


def log2_chi10_sharp_bound(Z):
    """log2 of c0 min{1, pi|z12|}^2 exp(-2 pi (y11 + y22 - y12)), c0 = 8e-5."""
    z11, z12, z22 = (mp.mpc(z) for z in Z)
    y11, y12, y22 = mp.im(z11), mp.im(z12), mp.im(z22)
    pref = mp.mpf(8) / 10 ** 5 * min(mp.mpf(1), mp.pi * abs(z12)) ** 2
    return (mp.log(pref) - 2 * mp.pi * (y11 + y22 - y12)) / mp.log(2)


def in_f2(Z, tol):
    """|Re z_ij| <= 1/2, 0 <= 2 y12 <= y11 <= y22, |z11|, |z22| >= 1 and
    |det(Z + S)| >= 1 for every symmetric S with entries in {-1, 0, 1}."""
    z11, z12, z22 = (mp.mpc(z) for z in Z)
    if any(abs(mp.re(z)) > 0.5 + tol for z in (z11, z12, z22)):
        return False
    y11, y12, y22 = mp.im(z11), mp.im(z12), mp.im(z22)
    if not (-tol <= 2 * y12 <= y11 + tol and y11 <= y22 + tol):
        return False
    if abs(z11) < 1 - tol or abs(z22) < 1 - tol:
        return False
    r = (-1, 0, 1)
    return all(abs((z11 + s11) * (z22 + s22) - (z12 + s12) ** 2) >= 1 - tol
               for s11 in r for s12 in r for s22 in r)
