"""Decay-profile norms and iterated-derivation seminorms.

Every norm reduces over one DecayProfile per matrix: read from the
dense entries (window route) or from the exact symbol, which sums over
the whole lattice.  Large iterated sums are accumulated in log space.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import ParameterError
from .lattice import LatticeMatrix, derivation_power, operator_norm_l2
from .weights import Weight

_NEG_INF = float("-inf")
_GEOM_REL_TOL = 1e-16   # a tail sum stops at a chunk this small relative to it
_DD_TOL = 1e-14         # Dales-Davie terms this far below the sum are quiet
_DD_KCAP = 160          # order cap of an unbounded Dales-Davie series


def uses_symbol(A, method):
    """Whether method ("symbol", "window" or "auto") reads A's symbol;
    raises ParameterError on an unknown method or a missing symbol."""
    if method == "symbol":
        if A.symbol is None:
            raise ParameterError("matrix carries no symbol")
        return True
    if method == "window":
        return False
    if method == "auto":
        return A.symbol is not None
    raise ParameterError(f"unknown method {method!r}")


def side_diag_sup(A, margin=0):
    """Decay profile d(m) = max_l |A(l, l-m)| on the margin-shrunk window.

    Returns (offsets, d) with offsets running over the representable range.
    """
    n = A.n
    if 2 * margin >= n:
        raise ParameterError("margin empties the window")
    E = A.entries[margin:n - margin, margin:n - margin]
    k = E.shape[0]
    # column j of E lands on rows m + k - 1 of the skew array, m = i - j
    cols = np.arange(k)
    skew = np.zeros((2 * k - 1, k))
    skew[cols[:, None] - cols[None, :] + k - 1, cols] = np.abs(E)
    return np.arange(-(k - 1), k), skew.max(axis=1)


@dataclass(frozen=True)
class DecayProfile:
    """Off-diagonal decay d(m) = sup_l |A(l, l-m)| of one matrix.

    d holds the finite part on offsets -M..M (empty when a symbol has no
    finite coefficients).  When scale > 0 a geometric tail scale * rho^m
    covers every m >= tail_start = M + 1.
    """

    offsets: np.ndarray
    d: np.ndarray
    scale: float = 0.0
    rho: float = 0.0

    @property
    def tail_start(self):
        return int(self.offsets[-1]) + 1 if self.offsets.size else 0

    def at(self, ms):
        """d(m) at the integer offsets ms."""
        M = self.tail_start - 1
        out = np.zeros(ms.shape)
        inside = np.abs(ms) <= M
        out[inside] = self.d[ms[inside] + M]
        if self.scale:
            tail = ms > M
            out[tail] = self.scale * self.rho ** ms[tail].astype(float)
        return out


def decay_profile(A, method="auto", margin=0):
    """The DecayProfile of A, from its symbol or from its window entries.

    margin shrinks the window on both sides; the symbol route ignores it.
    """
    if not uses_symbol(A, method):
        return DecayProfile(*side_diag_sup(A, margin))
    sym = A.symbol
    geo = sym.geometric
    M = max((abs(m) for m in sym.coeffs), default=-1)
    scale = rho = 0.0
    if geo is not None and geo.scale != 0:
        if geo.ratio == 0:
            M = max(M, 0)   # the tail is the single coefficient c(0)
        else:
            scale, rho = abs(geo.scale), abs(geo.ratio)
    offs = np.arange(-M, M + 1)
    return DecayProfile(offs, np.abs(sym.coefficients(offs)), scale, rho)


def _geom_sum_weighted(scale, rho, weight, m0):
    """sum over m >= m0 of scale rho^m v(m)."""
    total = 0.0
    chunk = 4096
    while True:
        ms = np.arange(m0, m0 + chunk)
        t = scale * rho ** ms.astype(float) * weight.value(ms)
        s = float(t.sum())
        total += s
        m0 += chunk
        if (s <= _GEOM_REL_TOL * max(total, 1e-300)
                and (t[-1] <= t[0] or s == 0.0)):
            return total
        if m0 > 10_000_000:
            raise ParameterError("weighted geometric sum failed to localize")


def cv_norm(A, weight, method="auto", margin=0):
    """Weighted decay norm: sum_m d(m) v(m)."""
    prof = decay_profile(A, method, margin)
    if prof.scale and weight.kind == "table":
        raise ParameterError("table weight cannot cover an infinite symbol")
    total = float((prof.d * weight.value(prof.offsets)).sum())
    if prof.scale:
        total += _geom_sum_weighted(prof.scale, prof.rho, weight,
                                    prof.tail_start)
    return total


def jaffard_norm(A, r, method="auto", margin=0):
    """Polynomial off-diagonal sup norm: sup_m d(m) (1+|m|)^r."""
    if r < 0:
        raise ParameterError("jaffard_norm needs r >= 0")
    prof = decay_profile(A, method, margin)
    best = float((prof.d * (1.0 + np.abs(prof.offsets)) ** r).max(initial=0.0))
    if prof.scale:
        # rho^m (1+m)^r is unimodal in m with its peak near mstar
        mstar = max(0.0, r / (-math.log(prof.rho)) - 1.0)
        lo = max(prof.tail_start, math.floor(mstar) - 4)
        hi = max(prof.tail_start, math.ceil(mstar) + 4)
        best = max(best, *(prof.scale * prof.rho ** m * (1.0 + m) ** r
                           for m in range(lo, hi + 1)))
    return best


def banded_error(A, k, method="auto", margin=0):
    """Truncation tail E_k = sum_{|m| >= k+1} d(m)."""
    if k < 0:
        raise ParameterError("banded_error needs k >= 0")
    prof = decay_profile(A, method, margin)
    total = float(prof.d[np.abs(prof.offsets) >= k + 1].sum())
    if prof.scale:
        m0 = max(k + 1, prof.tail_start)
        total += prof.scale * prof.rho ** m0 / (1.0 - prof.rho)
    return total


def normalize_ambient(ambient):
    if ambient == "c0":
        return ("c0", None)
    if ambient == "operator":
        return ("operator", None)
    if isinstance(ambient, tuple) and len(ambient) == 2 and ambient[0] == "jaffard":
        s = float(ambient[1])
        if s < 0:
            raise ParameterError("jaffard ambient needs s >= 0")
        return ("jaffard", s)
    raise ParameterError(f"unknown ambient {ambient!r}")


def ambient_norm(A, ambient="c0", method="auto", margin=0):
    kind, s = normalize_ambient(ambient)
    if kind == "c0":
        return cv_norm(A, Weight.poly(0.0), method, margin)
    if kind == "jaffard":
        return jaffard_norm(A, s, method, margin)
    return operator_norm_l2(A)


def _dk_logs(A, ambient, method, margin):
    """k -> log of the ambient norm of D^k A, -inf when the norm is zero.

    The decay profile is built once, for all orders k.
    """
    kind, s = normalize_ambient(ambient)
    if kind == "operator":
        def log_norm(k):
            M = derivation_power(A, k).entries
            top = np.abs(M).max()
            if top == 0.0:
                return _NEG_INF
            v = operator_norm_l2(LatticeMatrix(A.window, M / top, "general"))
            return math.log(top) + (math.log(v) if v > 0 else _NEG_INF)
        return log_norm

    prof = decay_profile(A, method, margin)
    jaffard = kind == "jaffard"

    def log_norm(k):
        mask = prof.d > 0
        if k > 0:
            mask &= prof.offsets != 0
        om = np.abs(prof.offsets[mask]).astype(float)
        logs = np.log(prof.d[mask])
        if prof.scale:
            # the tail terms are negligible past cap
            lr = math.log(prof.rho)
            peak = (k + (s if jaffard else 0.0)) / (-lr) + 1.0
            cap = int(peak + 60 + 10 * math.sqrt(peak))
            ms = np.arange(max(prof.tail_start, 1 if k > 0 else 0), cap + 1,
                           dtype=float)
            om = np.concatenate([om, ms])
            logs = np.concatenate([logs, math.log(prof.scale) + ms * lr])
        if k > 0:
            logs = logs + k * np.log(om)
        if jaffard:
            logs = logs + s * np.log1p(om)
        if not logs.size:
            return _NEG_INF
        return float(logs.max() if jaffard else logsumexp(logs))
    return log_norm


def dk_norm_log(A, k, ambient="c0", method="auto", margin=0):
    """log of the ambient norm of D^k A; -inf when the norm is zero."""
    return _dk_logs(A, ambient, method, margin)(k)


def dd_seminorm(A, K, ambient="c0", method="auto", margin=0):
    """|A|_{D(D^K)} = sum_{m=1..K} ||D^m A|| / m!"""
    if K < 1:
        raise ParameterError("dd_seminorm needs K >= 1")
    dk_log = _dk_logs(A, ambient, method, margin)
    logs = [dk_log(m) - float(gammaln(m + 1)) for m in range(1, K + 1)]
    logs = [x for x in logs if x > _NEG_INF]
    if not logs:
        return 0.0
    return float(np.exp(logsumexp(np.array(logs))))


@dataclass
class DalesDavieValue:
    value: float
    log_value: float
    kmax_used: int
    converged: bool
    tail_ratio: float


def dales_davie_norm(A, seq, ambient="c0", method="auto", margin=0):
    """sum_k ||D^k A|| / M_k with the sequence's normalization.

    For unbounded sequences the series is cut once three consecutive terms
    fall below _DD_TOL relative to the partial sum; if that never happens
    within _DD_KCAP the result is flagged converged=False.
    """
    hard = seq.kmax
    kmax = min(_DD_KCAP, hard) if hard is not None else _DD_KCAP
    dk_log = _dk_logs(A, ambient, method, margin)
    logs = []
    total_log = _NEG_INF
    quiet = 0
    used = 0
    last_term = _NEG_INF
    for k in range(0, kmax + 1):
        lt = dk_log(k) - seq.log_M(k)
        used = k
        last_term = lt
        if lt > _NEG_INF:
            logs.append(lt)
            total_log = float(logsumexp(np.array(logs)))
        if total_log > _NEG_INF and lt < total_log + math.log(_DD_TOL):
            quiet += 1
            if quiet >= 3 and k >= 8:
                break
        else:
            quiet = 0
    complete = hard is not None and used >= kmax
    converged = complete or quiet >= 3
    tail_ratio = math.exp(last_term - total_log) if total_log > _NEG_INF else 0.0
    value = math.exp(total_log) if total_log < 709.0 else float("inf")
    return DalesDavieValue(value=value, log_value=total_log, kmax_used=used,
                           converged=bool(converged), tail_ratio=tail_ratio)


def a_m_gevrey(r, m):
    """Closed form for gevrey(r): A_m = (m!)^{(1-r)/m}."""
    if r < 1:
        raise ParameterError("gevrey needs r >= 1")
    if m < 1:
        raise ParameterError("a_m needs m >= 1")
    return math.exp((1.0 - r) * float(gammaln(m + 1)) / m)
