"""The polynomial weight on lattice offsets, the Gevrey smoothness
sequence, the entire function phi_r(x) = sum_l x^l / (l!)^r used by the
inversion bounds, the sums and maxima behind every series and tail, the
one rule that turns a log into a float (exp_or_inf), and the
log-factorial and zeta(s > 1) those series and bounds need."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError

# log of the largest float, ~709.78: the one owner of the float range
LOG_MAX = math.log(np.finfo(float).max)
# log_concave_sum stops at this remainder bound relative to the sum, and
# raises past this many terms
_SERIES_TOL = 2.0 ** -53
_SERIES_CAP = 50_000_000
_SADDLE_PEAK = 5_000_000   # phi_r takes its saddle-point form past this peak
_POLYLOG_KMAX = 1000   # last order of polylog_tail_logs
_BAND = 64   # polylog_tail_logs rescales once a value reaches 2^_BAND
_LOG2 = math.log(2.0)
# log n! for n <= 12, correctly rounded (12! < 2^53 is exact)
_LOG_FACTORIALS = np.array([math.log(math.factorial(n)) for n in range(13)])
# log sqrt(2 pi) correctly rounded; 0.5 * math.log(2 * math.pi) is an ulp off
_LOG_SQRT_2PI = 0.91893853320467274178
# Cephes' minimax fit to x (log Gamma(x) - Stirling's leading terms) in
# p = 1/x^2 for x >= 13, Horner order; its series is
# 1/12 - p/360 + p^2/1260 - ... (DLMF 5.11.1)
_STIRLING_FIT = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                 7.93650340457716943945e-4, -2.77777777730099687205e-3,
                 8.33333333333331927722e-2)
_ZETA_N = 16   # zeta sums n^-s below this n, then Euler-Maclaurin
# B_2, B_4, ..., B_16
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510)


def log_concave_sum(log_term, m0):
    """(log sum_{m >= m0} a_m, terms summed) of a log-concave a_m > 0 for
    m > m0, given log_term(ms) = log a_m on float indices; in chunks that
    double from 1024 terms.

    Concavity makes a_{m+1}/a_m nonincreasing, so once the terms fall at
    ratio q < 1 the rest is at most next/(1 - q); the sum stops when that is
    below _SERIES_TOL of it, and raises NumericalError past _SERIES_CAP terms.
    """
    top, acc = -math.inf, 0.0          # partial sum = acc * e^top
    start, chunk = m0, 1024
    while start - m0 < _SERIES_CAP:
        logs = log_term(np.arange(start, start + chunk, dtype=float))
        start += chunk
        hi = float(logs.max())
        if hi > top:
            acc *= math.exp(top - hi)
            top = hi
        acc += float(np.exp(logs - top).sum())
        step = float(logs[-1] - logs[-2])
        if step < 0.0:
            log_rest = float(logs[-1]) + step - math.log(-math.expm1(step))
            log_total = top + math.log(acc)
            if log_rest <= log_total + math.log(_SERIES_TOL):
                return log_total, start - m0
        chunk = min(2 * chunk, 1 << 20)
    raise NumericalError(
        f"log-concave series did not settle within {_SERIES_CAP} terms")


def log_poly_geometric(ms, s, rho):
    """log of (1+m)^s rho^m at the float indices ms >= 0 (s >= 0)."""
    return s * np.log1p(ms) + ms * math.log(rho)


def polylog_tail_logs(rho, m0):
    """log V_k for k = 0, 1, ..., _POLYLOG_KMAX in turn, V_k = sum_{m >= m0}
    m^k rho^m with 0^0 = 1, for 0 < rho < 1 and integers m0 >= 0; past
    _POLYLOG_KMAX, or on bad arguments, a ParameterError.

    From m -> m + 1: (1 - rho) V_k = m0^k rho^m0 + rho sum_{i<k} C(k, i) V_i.
    Its terms are positive and 1 - rho is exact for rho >= 1/2, so for
    every 0 < rho < 1 the recurrence gives V_k within a relative
    (k+1)(k+5) 2^-53.  The log l_k it yields adds the rounding of its
    parts, each as large as |l_k| + m0 |log rho|, so exp(l_k) is within a
    relative ((k+1)(k+5) + 4 |l_k| + 6 m0 |log rho| + 6) 2^-53 of V_k.
    Each order costs one dot product and one Pascal-row update, on arrays
    that grow with the orders read.  It runs on rho^-m0 V_i 2^-E and moves
    E only when the newest value leaves [1/2, 2^_BAND): the sum stays below
    2^_BAND V_k / V_(k-1), finite up to k = _POLYLOG_KMAX, and since a
    power of two scales exactly, the values are those of a move at every
    order."""
    if not (0.0 < rho < 1.0 and m0 >= 0):
        raise ParameterError("polylog tails need 0 < rho < 1 and m0 >= 0")
    offset = m0 * math.log(rho)
    binom, nxt, held = np.zeros(16), np.zeros(16), np.zeros(16)  # held: rho V_i
    binom[0] = nxt[0] = 1.0                                      # Pascal rows
    head, E = 1.0, 0                                             # m0^k
    for k in range(_POLYLOG_KMAX + 1):
        if k + 2 > binom.size:
            binom, nxt, held = (np.concatenate((a, np.zeros(a.size)))
                                for a in (binom, nxt, held))
        s = (head + binom[:k].dot(held[:k])) / (1.0 - rho)
        mant, e = math.frexp(s)
        yield math.log(mant) + (E + e) * _LOG2 + offset
        if not 0 <= e <= _BAND:
            np.ldexp(held[:k], -e, held[:k])
            head, E, s = math.ldexp(head, -e), E + e, mant
        held[k] = rho * s
        head *= m0
        np.add(binom[1:k + 2], binom[:k + 1], nxt[1:k + 2])
        binom, nxt = nxt, binom
    raise ParameterError(f"polylog tails stop at order {_POLYLOG_KMAX}")


def log_weight_tail(r, rho, m0):
    """(log sum_{m >= m0} (1+m)^r rho^m, terms) for r >= 0, 0 < rho < 1
    and integers m0 >= 0.

    An integer r <= _POLYLOG_KMAX reads the sum as V_r / rho, V_r =
    sum_{n > m0} n^r rho^n, from polylog_tail_logs(rho, m0 + 1) in r + 1
    steps (terms counts them): exp of the log L returned is within a
    relative ((r+1)(r+5) + 5 |L| + 6 (m0+2) |log rho| + 7) 2^-53 of the
    sum.  Any other r is one log_concave_sum, which stops on a rigorous
    remainder bound at 2^-53 and raises NumericalError past its term cap.
    """
    if float(r).is_integer() and 0 <= r <= _POLYLOG_KMAX:
        r = int(r)
        log_v = next(itertools.islice(polylog_tail_logs(rho, m0 + 1), r, None))
        return log_v - math.log(rho), r + 1
    return log_concave_sum(lambda ms: log_poly_geometric(ms, r, rho), m0)


def exp_or_inf(log_value):
    """exp(log_value), or inf where that is past float range: the one place
    a log turns into a float that may overflow."""
    return math.exp(log_value) if log_value <= LOG_MAX else math.inf


def log_factorial(n):
    """log n! = log Gamma(n + 1) at n >= 0, where n <= 12 must be an
    integer; a float for a number, an array for a float array.

    n <= 12 reads a table of correctly rounded values.  Above it, Stirling's
    series at x = n + 1, (x - 1/2) log x - x + log sqrt(2 pi) + f(1/x^2)/x
    with Cephes' minimax fit f; against mpmath its relative error is at most
    2.8e-16 on n = 13..2000 and at every decade up to 1e12.
    """
    if not isinstance(n, np.ndarray):
        return float(_LOG_FACTORIALS[int(n)] if n <= 12
                     else _stirling(n + 1.0, np.log(n + 1.0)))
    x = np.maximum(n, 12.0) + 1.0
    return np.where(n <= 12, _LOG_FACTORIALS[np.minimum(n, 12).astype(int)],
                    _stirling(x, np.log(x)))


def log_factorials(ns):
    """[log_factorial(n) for n in ns], bit for bit: one np.log call over
    them all, the rest in float arithmetic."""
    logs = np.log(np.array(ns, dtype=float) + 1.0).tolist()
    return [float(_LOG_FACTORIALS[int(n)]) if n <= 12
            else _stirling(n + 1.0, lx) for n, lx in zip(ns, logs)]


def _stirling(x, log_x):
    """log Gamma(x) for x >= 13 given log_x = log x; floats or float
    arrays."""
    p = 1.0 / (x * x)
    fit = 0.0
    for c in _STIRLING_FIT:
        fit = fit * p + c
    return (x - 0.5) * log_x - x + _LOG_SQRT_2PI + fit / x


def zeta(s):
    """Riemann zeta(s) for real s > 1 by Euler-Maclaurin (DLMF 25.2.9):
    the sum of n^-s for n < N = _ZETA_N, then N^(1-s)/(s-1) + N^-s/2 and
    the terms B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) for k <= 8.

    n^-s is completely monotone, so the remainder is at most the first
    omitted term, |B_18|/18! s(s+1)...(s+16) N^(-s-17) < 1e-21; rounding
    dominates, and against mpmath the relative error is below 2.5e-16 on
    s in (1, 12].
    """
    if not s > 1:
        raise ParameterError("zeta needs s > 1")
    n = _ZETA_N
    c = s * n ** (-s - 1.0)      # s(s+1)...(s+2k-2) N^(1-s-2k)
    terms = []
    for k, b in enumerate(_BERNOULLI, start=1):
        terms.append(b * c / math.factorial(2 * k))
        c *= (s + 2 * k - 1) * (s + 2 * k) / (n * n)
    tail = sum(reversed(terms)) + 0.5 * n ** -s + n ** (1.0 - s) / (s - 1.0)
    return 1.0 + (sum(j ** -s for j in range(n - 1, 1, -1)) + tail)


def poly_geometric_max(s, rho, m0):
    """(log max, argmax) over integers m >= m0 of (1+m)^s rho^m, for s >= 0
    and 0 < rho < 1.  The real peak is m = (lr + s) / -lr, lr = log rho,
    where the log's slope s/(1+m) + lr is 0; by log-concavity the integer
    max is a neighbour of it, or m0 when the peak lies below m0."""
    lr = math.log(rho)
    m = max(m0, math.floor((lr + s) / -lr))
    ms = np.array([m, m + 1], dtype=float)
    logs = log_poly_geometric(ms, s, rho)
    j = int(logs.argmax())
    return float(logs[j]), m + j


@dataclass(frozen=True)
class Weight:
    """The polynomial weight v(k) = (1+|k|)^r, r >= 0, on integer offsets;
    even and submultiplicative."""

    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ParameterError("poly weight needs r >= 0")

    @classmethod
    def poly(cls, r):
        return cls(float(r))

    def value(self, k):
        return (1.0 + np.abs(np.asarray(k, dtype=float))) ** self.r


@dataclass(frozen=True)
class SmoothnessSequence:
    """The Gevrey sequence M_k = (k!)^r, r >= 1, normalizing
    iterated-derivation norms; r = 1 is the analytic M_k = k!."""

    r: float

    def __post_init__(self):
        if self.r < 1:
            raise ParameterError("gevrey sequence needs r >= 1")

    @classmethod
    def gevrey(cls, r):
        return cls(float(r))

    def log_Ms(self, ks):
        """[log M_k for k in ks], a nonempty sequence of orders; the
        factorials of all of them from one log_factorials call."""
        if min(ks) < 0:
            raise ParameterError("order must be nonnegative")
        return [self.r * v for v in log_factorials(ks)]


def log_phi_r(x, r):
    """log of phi_r(x) = sum_{l>=0} x^l/(l!)^r for x >= 0, r > 0."""
    if x < 0:
        raise ParameterError("phi_r needs x >= 0")
    if x == 0.0:
        if r <= 0:
            raise ParameterError("phi_r needs r > 0")
        return 0.0
    return log_phi_r_from_log(math.log(x), r)


def log_phi_r_from_log(lx, r):
    """log phi_r(x) given lx = log x; usable when x itself overflows.  It is
    inf once the peak index x^(1/r) of the series overflows."""
    if r <= 0:
        raise ParameterError("phi_r needs r > 0")
    if lx / r > LOG_MAX:
        return math.inf
    if r == 1.0:
        return math.exp(lx)      # exp series: log phi = x
    peak = math.exp(lx / r)
    if peak <= _SADDLE_PEAK:
        return log_concave_sum(
            lambda ls: ls * lx - r * log_factorial(ls), 0)[0]
    # saddle point: maximize l ln x - r lgamma(l+1); curvature ~ r/l.
    # digamma(l+1) ~ ln(l) + 1/(2l); solve ln x = r*digamma(l+1) by fixed point.
    l = peak
    for _ in range(80):
        nl = math.exp(lx / r - 1.0 / (2.0 * l))
        if abs(nl - l) <= 1e-9 * l:
            l = nl
            break
        l = nl
    return (l * lx - r * log_factorial(l)
            + 0.5 * math.log(2 * math.pi * l / r))

