"""High-precision kernel: precision contexts, log-Gamma on (0,1], and the
roots of a CM quartic.

mpmath supplies the big-float substrate (mpf/mpc arithmetic, exp, log, pi,
sqrt).  log_gamma, its Bernoulli numbers and the roots are implemented here
so their error behaviour is under our control.

The roots need no root finder: a quartic whose roots are two conjugate
pairs splits over its resolvent cubic into two real quadratics, decided in
integers (exact.cubic_integer_roots), and each pair then takes integer
square roots (math.isqrt) of sums whose cancellation is bounded in advance,
at a scale set from bit lengths, and one rounding per part.

log_gamma takes rationals m/f that share one denominator f, with int
weights c_m, and returns the weighted sum of their log Gamma, with one
mpmath log per call; colmez.colmez_height calls it once per height, each
residue weighted by 2 Re(chi(m) conj(w)).  Its callers halve the work by the
reflection log Gamma(1-x) = log pi - log sin(pi x) - log Gamma(x)
(colmez_height evaluates only m/f < 1/2).  The sum is one Taylor series of
log Gamma about a shift N = 2^a of about workbits / 5 (taylor_plan), whose
coefficients t_1 = psi(N) and t_i = (-1)^i zeta(i, N) / i meet the exact
weighted power sums Q_i = sum c_m m^i of the numerators:

    sum_x c_x log Gamma(x) = sum_i t_i Q_i / f^i - log prod_m R_m^c_m,
    R_m = prod_(j<N) (m + j f) / (f^N (N-1)!).

For x <= 1 the terms fall like N^-i and alternate in sign from i = 2 on, so
the tail is below its first term, and the plan stops where that is below
2^-W, W = workbits + 16, at x = 1.  Each T_i = t_i 2^W is an integer within
1 of its value, and times |Q_i| / f^i <= C = sum |c_m| it costs at most C
ulps; the dot product is one Horner in 1/f on Python ints at the scale 2^-W
(Brent and Zimmermann, Modern Computer Arithmetic, ch. 4), once per call,
whatever the number of residues and weights.  R_m, which lies in [x, N x],
holds log Gamma(N) exactly in its (N-1)!, so its one log cancels nothing.
SERIES_BITS = 16 covers the C I rounded T_i, the tails and the log's
rounding (see log_gamma), and the plan's T_i come from Euler-Maclaurin on
the exact B_2k, which bernoulli_numbers makes from the tangent numbers by
the recurrence of Brent and Harvey.

round_quotient (the tau roots, each part of gamma Z) and cut_mul (the theta
walk, chi10, the Colmez sines, the shift products) take the engines' exact
ints to floats, each with the one statement of its error, and nint_ratio
(the Siegel reduction's translations and Gauss steps, the Taylor plan's
coefficients) takes a ratio of ints to its nearest int, ties to even.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from math import isqrt, log2
from operator import add, floordiv, mul
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, mpf_neg, round_nearest

from .exact import IntPolynomial, quartic_split

GUARD_BITS = 32


class PrecisionContext:
    """Immutable working-precision handle.  All numeric routines take one.

    prec is the target precision in bits, an int of at least 64;
    computations run at workbits = prec + GUARD_BITS, and results are
    trusted to tol = 2^(-prec + GUARD_BITS).  It holds pi at workbits and
    takes no log: each engine folds pi and 2 into its own one log.
    """

    def __init__(self, prec_bits: int):
        if isinstance(prec_bits, bool) or not isinstance(prec_bits, int):
            raise TypeError(f"precision takes an int, not {type(prec_bits).__name__}")
        if prec_bits < 64:
            raise ValueError("precision below 64 bits not supported")
        self.prec = prec_bits
        self.workbits = prec_bits + GUARD_BITS
        with mp.workprec(self.workbits):
            self.pi = +mp.pi

    def work(self):
        """Context manager setting mpmath to the working precision."""
        return mp.workprec(self.workbits)

    @property
    def tol(self):
        with mp.workprec(self.workbits):
            return mp.mpf(2) ** (-self.prec + GUARD_BITS)

    def __repr__(self):
        return f"PrecisionContext(prec_bits={self.prec})"


# bits beyond workbits at which the Taylor series of log Gamma is summed
SERIES_BITS = 16


class TaylorPlan(NamedTuple):
    """The Taylor series of log Gamma(N + x) about the shift N = 2^a for
    one workbits, as integers at the scale 2^-W, W = workbits + SERIES_BITS:
    T_i within 1 of t_i 2^W for i = 1..I, where t_1 = psi(N) and
    t_i = (-1)^i zeta(i, N) / i; and (N-1)!, an mpf rounded to W bits.
    It is the only state kept per precision besides the context itself."""

    shift: int
    coeffs: tuple
    shift_factorial: object

    @property
    def terms(self) -> int:
        return len(self.coeffs)


_plans: dict[int, TaylorPlan] = {}


def _shift_bits(workbits: int) -> int:
    """a, the shift N = 2^a being the least power of two at or above
    workbits / 5, times workbits // 2048 from 4096 workbits on."""
    return (-(-workbits * max(1, workbits // 2048) // 5) - 1).bit_length()


def _euler_maclaurin_counts(W: int, a: int, terms: int) -> list[int]:
    """K_i for i = 1..terms: the least K such that the (K+1)-th
    Euler-Maclaurin term of zeta(i, N) / i (of psi(N) for i = 1), bounded
    with |B_2k| / (2k)! < 4 / (2 pi)^(2k) (DLMF 24.8.1, zeta(2k) < 2) and
    taken in doubles with a spare bit, is below 2^-(W+3) once times
    N^(1-i), N = 2^a.  The scaled terms fall as i grows, so K_i does."""
    ln2, lg = math.log(2), math.lgamma

    def below(k, i):  # log of 4 (i+2k-2)! / (i! (2 pi)^(2k) N^(2k+i-1))
        return (math.log(4) - 2 * k * math.log(2 * math.pi) + lg(i + 2 * k - 1)
                - lg(i + 1) - (2 * k + i - 1) * a * ln2 < -(W + 4) * ln2)

    K = 0
    while not below(K + 1, 1):
        K += 1
    counts = []
    for i in range(1, terms + 1):
        while K and below(K, i):
            K -= 1
        counts.append(K)
    return counts


def taylor_plan(ctx: PrecisionContext) -> TaylorPlan:
    """The plan for ctx.workbits, built once.

    I is the first i at which the bound (N^-(i+1) + N^-i / i) / (i+1) on
    |t_(i+1)| falls below 2^-W, compared in integers, so the first omitted
    term is below 2^-W at every x <= 1.  Each T_i comes from
    Euler-Maclaurin (DLMF 2.10.2) on sum_(j>=0) (N+j)^-i:

        zeta(i, N) / i = N^(1-i) (2N + i - 1) / (2 i (i-1) N) + E_i,  i >= 2,
        psi(N) = a log 2 - 1/(2N) - E_1,
        E_i = sum_(k=1..K_i) u_(k,i),
        u_(k,i) = B_2k / (2k)! (i+1)(i+2)...(i+2k-2) N^(1-i-2k),

    with K_i from _euler_maclaurin_counts.  The remainder after K_i terms
    is the integral of (B_2K' - B~_2K'(x)) f^(2K')(x) / (2K')!, K' = K_i + 1,
    f(x) = x^-i, whose first factor lies between 0 and 2 B_2K' and whose
    second keeps its sign: it is at most twice the first omitted term,
    below 1/4 at the scale 2^-W.

    The u's run down the rows on ints at the scale 2^-(W+g),
    g = bits(K_1) + 6: u_(k,1) = B_2k / (2k N^(2k)), from the exact
    bernoulli_numbers, and u_(k,i+1) = floor(u_(k,i) (i+2k-1) / ((i+1) N)),
    one pass of maps per row over the K_(i+1) columns it keeps.  A step
    multiplies an error by r = (i+2k-1) / ((i+1) N) <= K_1 / N, and the
    shift rule puts K_1 below 0.85 N, so each u is off by less than
    1/2 + 1/(1 - 0.85) < 7.2 and E_i by less than 7.2 K_i < 2^g / 8.  With
    the rational part rounded once (a log 2 taken at W + g + 16 bits for
    i = 1) and the remainder, T_i is off by less than
    1/2 + 1/8 + 1/64 + 1/4 < 1."""
    wb = ctx.workbits
    plan = _plans.get(wb)
    if plan is None:
        W = wb + SERIES_BITS
        a = _shift_bits(wb)
        N = 1 << a
        terms = 1
        while (N + terms) << W >= (terms + 1) * terms << a * (terms + 1):
            terms += 1
        counts = _euler_maclaurin_counts(W, a, terms)
        g = counts[0].bit_length() + 6
        u = [_round_ratio(b.numerator, 2 * k * b.denominator, W + g - 2 * a * k)
             for k, b in enumerate(bernoulli_numbers(counts[0]), 1)]
        with mp.workprec(W + g + 16):
            log_shift = int(mp.nint(mp.ldexp(a * mp.ln2, W + g)))
        coeffs = []
        for i, K in enumerate(counts, 1):
            if i == 1:
                x = log_shift - (1 << W + g - a - 1) - sum(u[:K])
            else:
                x = _round_ratio(2 * N + i - 1, i * (i - 1), W + g - a * i - 1) + sum(u[:K])
            t = (x + (1 << g - 1)) >> g
            coeffs.append(-t if i % 2 and i > 1 else t)
            if i < terms:
                k = counts[i]
                u = list(map(floordiv, map(mul, u[:k], range(i + 1, i + 2 * k, 2)),
                             repeat((i + 1) << a, k)))
        with mp.workprec(W):
            shift_factorial = mp.mpf(math.factorial(N - 1))
        plan = TaylorPlan(N, tuple(coeffs), shift_factorial)
        _plans[wb] = plan
    return plan


def _round_ratio(n: int, d: int, e: int) -> int:
    """n 2^e / d rounded to nearest, ties to even, d > 0."""
    return nint_ratio(n << e, d) if e >= 0 else nint_ratio(n, d << -e)


def nint_ratio(n: int, d: int) -> int:
    """nint(n / d) for ints n and d > 0, ties to even as mp.nint: the one
    nearest-integer quotient of the package."""
    q, r = divmod(2 * n + d, 2 * d)
    return q - 1 if not r and q & 1 else q


def bernoulli_numbers(n: int) -> list[Fraction]:
    """B_2, B_4, ..., B_2n, exact.  They come from the tangent numbers,
    T_k = (-1)^(k-1) 4^k (4^k - 1) B_2k / 2k, which are positive integers:
    the recurrence of Brent and Harvey ("Fast computation of Bernoulli,
    Tangent and Secant numbers", 2013, algorithm TangentNumbers) builds
    T_1 .. T_n on Python ints in n^2/2 steps of two small-int products."""
    t = [1]  # t[k-1] = T_k
    for k in range(1, n):
        t.append(k * t[-1])
    for k in range(1, n):
        for j in range(k, n):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction((-1) ** k * (2 * k + 2) * tk, 4 ** (k + 1) * (4 ** (k + 1) - 1))
            for k, tk in enumerate(t)]


def log_gamma(xs, ctx: PrecisionContext, weights=None):
    """sum_{x in xs} c_x log Gamma(x) for a non-empty sequence of rationals
    x = m/f in (0, 1] that share one denominator f (in lowest terms),
    each a Fraction or an int, and int weights c_x, one per x (all 1 when
    weights is None).  Any other type of x or c, bool and float included,
    raises TypeError; an empty sequence, two denominators or weights of
    another length than xs ValueError.

    With the plan of taylor_plan, N its shift, t_i its Taylor
    coefficients, Q_i = sum_m c_m m^i the exact weighted power sums of the
    numerators, and R_m = prod_(j<N) (m + j f) / (f^N (N-1)!) = Gamma(N + x) /
    (Gamma(N) Gamma(x)):

        sum_x c_x log Gamma(x) = sum_(i>=1) t_i Q_i / f^i - log prod_m R_m^c_m.

    x = m/f keeps its terms up to I_x = min(I, floor((W + a) / log2(N f/m))
    + 1), N = 2^a: past it 2^W N (m / (N f))^i, which bounds the i-th term
    as |t_i| <= N^(1-i) for i >= 2, is below 1.  Q_i sums the m with
    I_x >= i, and the dot product is one Horner in 1/f on ints at the scale
    2^-W, acc <- floor((acc + T_i Q_i) / f) from the largest I_x down to 1.
    The m of one weight c share one exact int shift product P_c =
    prod_m prod_(j<N) (m + j f), and the last term is one mpmath log per
    call, of prod_c (P_c / ((N-1)! f^N)^(n_c))^c, n_c the count of weight
    c, taken as prod_c P_c^c / ((N-1)! f^N)^s, s = sum_c c n_c; a weight 0
    drops its x.  The sum is returned at W bits, so that a caller that adds
    several rounds once.  Its errors, in ulps of 2^-W, with
    C = sum_x |c_x| (n for unit weights):

    - The Taylor tails: for i >= 2 the terms t_i x^i alternate in sign and
      fall in size, since zeta(i+1, N) < zeta(i, N) / N and x <= 1, so the
      omitted ones of each x sum to less than its first, which is below 1
      at I_x and, by the plan, at I; times |c_x|: less than C in all.
    - Each T_i is off by less than 1 and |Q_i| / f^i <= C, so the T_i add
      less than C I; the Horner's floors add less than
      sum_(j>=1) f^-j <= 1.
    - log R: each R_m lies in [x, N x], so no cancellation is left: log
      Gamma(N) is in the (N-1)! exactly, not in a log that the Taylor sum
      must cancel.  The n_c N factors m + j f of P_c are multiplied exactly
      four at a time and then in chunks whose product is below 2^W, and
      the running product takes each chunk by one cut_mul at W + 8 bits:
      fewer than n_c N / 4 cuts, each within a factor 1 + 2^-(W+7) by
      cut_mul's bound for a real product, which the power c multiplies by
      |c|: C N / 512 on the log.  The mpf part adds less than 6 C + 1 ulps
      relative: P_c is rounded to W bits and its power c is within
      |c| + 1 ulps, so the P_c^c and their product are within
      sum_c (|c| + 1) + k - 1 <= 3 C,
      k the number of weights; (N-1)! from the plan, f^N and their product
      are each within an ulp, so ((N-1)! f^N)^s is within 3 |s| + 1 <=
      3 C + 1, and the quotient adds one more.
    - Roundings at W bits: of the log, of the Taylor sum when it is
      converted, and of their difference.  Each is below C log(N f) in
      size (|log R_m| <= log(N f), and the Taylor sum of x is
      log(Gamma(N + x) / Gamma(N)) <= log N), so together they add less
      than 3 C log(N f).

    So the sum is off by less than C (I + 3 log(N f) + N / 512 + 8) + 2
    ulps of 2^-W.  For any workbits below 2^16, I is below (W + a + 1) / a,
    under 2^12, and N / 512 at most 2^10, and log(N f) is below 983 for f
    below 2^1400, so that is below C 2^13 ulps: SERIES_BITS = 16 keeps it
    below C 2^-workbits / 8.  A weight thus multiplies each x's error, the
    shift product's rounding included, by |c_x|: colmez_height's weights
    2 Re(chi(m) conj(w)) are at most 2 |w|, and it divides by |w|^2.
    """
    xs = [_rational(x) for x in xs]
    if not xs:
        raise ValueError("log_gamma takes a non-empty sequence")
    if weights is None:
        weights = [1] * len(xs)
    else:
        weights = list(weights)
        for c in weights:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"log_gamma takes int weights, not {type(c).__name__}")
        if len(weights) != len(xs):
            raise ValueError(f"log_gamma takes one weight per x: "
                             f"{len(weights)} weights for {len(xs)} x")
    f = xs[0].denominator
    if any(x.denominator != f for x in xs):
        raise ValueError("log_gamma takes rationals with one denominator")
    ms = [x.numerator for x in xs]
    if not all(0 < m <= f for m in ms):
        raise ValueError("log_gamma requires x in (0, 1]")
    groups = {}  # weight c -> the m of weight c
    for m, c in zip(ms, weights):
        if c:
            groups.setdefault(c, []).append(m)
    if f == 1 or not groups:
        return mp.mpf(0)
    plan = taylor_plan(ctx)
    N, W = plan.shift, ctx.workbits + SERIES_BITS
    log_nf = log2(N * f)  # of ints, as f may be past a double's range
    pairs = [(c, m) for c, ms in groups.items() for m in ms]
    cuts = [min(plan.terms, int((W + N.bit_length() - 1) / (log_nf - log2(m))) + 1)
            for _, m in pairs]  # I_x
    powers = [accumulate(repeat(m, k - 1), mul, initial=c * m)
              for (c, m), k in zip(pairs, cuts)]  # c m, c m^2, .. c m^I_x
    sums = list(map(sum, zip_longest(*powers, fillvalue=0)))
    acc = 0
    for t, q in zip(reversed(plan.coeffs[:len(sums)]), reversed(sums)):
        acc = (acc + t * q) // f
    s = sum(c * len(ms) for c, ms in groups.items())
    with mp.workprec(W):
        P = math.prod(mp.mpf(_shift_product(ms, f, N, W)) ** c
                      for c, ms in groups.items())
        D = plan.shift_factorial * mp.mpf(f) ** N
        return mp.ldexp(acc, -W) - mp.log(P / D ** s)


def _shift_product(ms, f: int, N: int, W: int):
    """prod_m prod_(j<N) (m + j f) for 4 | N, as the (mantissa, exponent)
    of an mpf: the running product is a real block float, times each chunk
    of factors whose product is below 2^W by one cut_mul at W + 8 bits."""
    Nf, f4 = N * f, 4 * f
    us = []  # u = y (y + 3f) for y = m + 4 f j
    for m in ms:
        us += map(mul, range(m, m + Nf, f4), range(m + 3 * f, m + Nf, f4))
    # y (y + f) (y + 2f) (y + 3f) = u (u + 2f^2)
    quads = list(map(mul, us, map(add, us, repeat(2 * f * f))))
    chunk = max(1, W // (4 * Nf.bit_length()))
    x = (1, 0, 0)
    for k in range(0, len(quads), chunk):
        x = cut_mul(x, (math.prod(quads[k:k + chunk]), 0, 0), W + 8)
    return x[0], x[2]


def cut_mul(x, y, bits):
    """The product of the block floats x and y (int pairs (re, im) with one
    shared exponent), cut back to bits bits of its larger part, each part
    rounded down: the one statement of the cut's error (Brent and
    Zimmermann, Modern Computer Arithmetic, ch. 4).  The larger part keeps
    at least 2^(bits - 1) units and each part loses less than one, so the
    product moves by less than sqrt(2) 2^(1 - bits) < 2^(3/2 - bits) of its
    modulus, and a real product (imaginary parts 0) by less than
    2^(1 - bits) of itself."""
    (ar, ai, ea), (br, bi, eb) = x, y
    re, im = ar * br - ai * bi, ar * bi + ai * br
    d = max(re.bit_length(), im.bit_length()) - bits
    return (re >> d, im >> d, ea + eb + d) if d > 0 else (re, im, ea + eb)


def _rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"log_gamma takes a Fraction or an int, not {type(x).__name__}")
    return Fraction(x)


def poly_roots(p: IntPolynomial, ctx: PrecisionContext):
    """The four roots of a quartic whose roots are two conjugate pairs of
    non-real numbers, sorted by (Re, Im).  Raises ValueError for any other
    polynomial.

    Exact part: exact.quartic_split, which splits p into two real
    quadratics, orders them exactly and gives the ints below.

    Numeric part, on ints at the scale 2^-S: w_i = sigma/2
    + 2 delta_i sqrt(dN) + eps_i (a3/2) sqrt(dT), with eps_i = sign(T_i - T_j)
    and delta_i = sign(N_i - N_j).  The floor square roots
    R_T = isqrt(dT 2^2S) and R_N = isqrt(dN 2^2S) are each less than 1 below
    sqrt(dT) 2^S and sqrt(dN) 2^S, so V_i = sigma 2^S + 4 delta_i R_N
    + eps_i a3 R_T is within 4 + |a3| of 2 w_i 2^S.  As w_i = pi / w_j
    >= pi / sigma > 2^(bits(pi) - 1 - bits(sigma)), that is a relative error
    below 2^(e_w - S), e_w = max(0, bits(4 + |a3|) + bits(sigma) - bits(pi)),
    and Y_i = isqrt(V_i 2^(S-1)), within the same relative error and one
    more floor of sqrt(w_i) 2^S, is off by less than 2^(e_w + 1 - S) of it.
    X_i = eps_i R_T - a3 2^S is within 1 of 2 T_i 2^S, and exact when dT is
    a square.  Otherwise T_i T_j = a2 - s is a nonzero integer and
    |T_j| <= (|a3| + sqrt dT) / 2 < 2^(e_T - 1), e_T = max(bits(a3),
    ceil(bits(dT) / 2)) + 1, so |2 T_i| > 2^(2 - e_T) and X_i is off by less
    than 2^(e_T - 2 - S) of it.  With S = workbits + 34 + max(e_w, e_T), both
    parts of the root t_i / c4 in H, (T_i + i sqrt(w_i)) / (2 c4), that is
    X_i 2^-S / (4 c4) and Y_i 2^-S / (2 c4), are within 2^-(workbits+33) of
    their size before one correct rounding each at workbits, round_quotient
    of the exact ints.  So, but for rare ties, each rounds as the exact root
    would; the Siegel reduction, whose word on a boundary follows the last
    bits, then does not depend on how it was computed.
    """
    c4, a3, _, dT, dN, sigma, pi, d = quartic_split(p)
    e_w = max(0, (4 + abs(a3)).bit_length() + sigma.bit_length() - pi.bit_length())
    e_T = max(a3.bit_length(), (dT.bit_length() + 1) // 2) + 1
    S = ctx.workbits + 34 + max(e_w, e_T)
    rT, rN = isqrt(dT << 2 * S), isqrt(dN << 2 * S)
    upper = []
    for eps, delta in ((-1, d), (1, -d)):
        v = (sigma << S) + 4 * delta * rN + eps * a3 * rT
        upper.append((round_quotient(eps * rT - (a3 << S), 4 * c4 << S, ctx.workbits),
                      round_quotient(isqrt(v << S - 1), 2 * c4 << S, ctx.workbits)))
    (x1, y1), (x2, y2) = upper
    parts = ([(x1, mpf_neg(y1)), (x1, y1), (x2, mpf_neg(y2)), (x2, y2)] if dT
             else [(x2, mpf_neg(y2)), (x1, mpf_neg(y1)), (x1, y1), (x2, y2)])
    return [mp.make_mpc(z) for z in parts]


def round_quotient(n, d, bits):
    """n / d rounded to nearest at bits bits, ties to even, as a raw mpf,
    for ints n and d > 0: the one correctly rounded quotient of the package.

    A power of 2 d takes one exact rounding.  Otherwise the top bits do
    it: with d' = d cut to bits + 66 bits and n' = n cut or padded to
    bits + 66 bits more, t = floor(n' / d') has bits + 65 to bits + 67
    bits, and the exact quotient, in units of t, is in (t - 4, t + 2).
    When t is more than 16 units from the midpoint of its bits-bit
    rounding, no midpoint lies between them, and rounding t rounds n / d;
    near a power of 2 the midpoints of the next length are still farther.
    Otherwise, near a tie, one full division with a sticky bit decides
    it."""
    if not n:
        return fzero
    if not d & (d - 1):
        return _rounded(n, 1 - d.bit_length(), bits)
    an = abs(n)
    kd = max(0, d.bit_length() - bits - 66)
    dt = d >> kd
    e = an.bit_length() - dt.bit_length() - bits - 66
    t = (an >> e if e >= 0 else an << -e) // dt
    g = t.bit_length() - bits - 1
    if abs((t & ((2 << g) - 1)) - (1 << g)) > 16:
        return _rounded(-t if n < 0 else t, e - kd, bits)
    e = an.bit_length() - d.bit_length() - bits - 3
    t, r = divmod(an << -e, d) if e < 0 else divmod(an, d << e)
    t = 2 * t + (r != 0)
    return _rounded(-t if n < 0 else t, e - 1, bits)


def _rounded(man, exp, bits):
    """man 2^exp rounded to nearest at bits bits, ties to even, as a raw
    mpf.  Its trailing zero bits go first, in one shift: mpmath strips
    them 8 at a time, which an exact 1/2 at 4096 bits makes 500 shifts."""
    if not man & 255:
        k = (man & -man).bit_length() - 1
        man, exp = man >> k, exp + k
    return from_man_exp(man, exp, bits, round_nearest)
