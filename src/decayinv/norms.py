"""Decay-profile norms and iterated-derivation seminorms.

Every norm reduces over one DecayProfile per matrix, read from the
matrix's exact symbol when it carries one (a sum over the whole lattice)
and from its window entries otherwise.  To read a Toeplitz matrix A on
its window, pass its section LatticeMatrix(A.window, A.entries).  Large
iterated sums are accumulated in log space.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .lattice import LatticeMatrix, derivation_power, operator_norm_l2
from .weights import (Weight, log_concave_sum, log_factorial,
                      log_poly_geometric, poly_geometric_max)

_NEG_INF = float("-inf")
_DD_TOL = 1e-14         # Dales-Davie terms this far below the sum are quiet
_DD_KCAP = 160          # order cap of an unbounded Dales-Davie series


def side_diag_sup(A, margin=0):
    """Decay profile d(m) = max_l |A(l, l-m)| on the margin-shrunk window.

    Returns (offsets, d) with offsets running over the representable range.
    """
    k = A.window.shrink(margin).n
    E = A.entries[margin:margin + k, margin:margin + k]
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


def decay_profile(A, margin=0):
    """The DecayProfile of A, from its symbol when it carries one and from
    its window entries otherwise.

    margin shrinks the window on both sides; the symbol route checks it
    (a ParameterError unless the shrunk window is nonempty) and ignores it.
    """
    if A.symbol is None:
        return DecayProfile(*side_diag_sup(A, margin))
    A.window.shrink(margin)
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


def cv_norm(A, weight, margin=0):
    """Weighted decay norm: sum_m d(m) v(m)."""
    prof = decay_profile(A, margin)
    if prof.scale and weight.kind == "table":
        raise ParameterError("table weight cannot cover an infinite symbol")
    total = float((prof.d * weight.value(prof.offsets)).sum())
    if prof.scale:
        lr = math.log(prof.rho)
        log_tail, _ = log_concave_sum(
            lambda ms: ms * lr + np.log(weight.value(ms)), prof.tail_start)
        total += prof.scale * math.exp(log_tail)
    return total


def jaffard_norm(A, r, margin=0):
    """Polynomial off-diagonal sup norm: sup_m d(m) (1+|m|)^r."""
    if r < 0:
        raise ParameterError("jaffard_norm needs r >= 0")
    prof = decay_profile(A, margin)
    best = float((prof.d * (1.0 + np.abs(prof.offsets)) ** r).max(initial=0.0))
    if prof.scale:
        log_top, _ = poly_geometric_max(0.0, r, prof.rho, prof.tail_start)
        best = max(best, prof.scale * math.exp(log_top))
    return best


def banded_error(A, k, margin=0):
    """Truncation tail E_k = sum_{|m| >= k+1} d(m)."""
    if k < 0:
        raise ParameterError("banded_error needs k >= 0")
    prof = decay_profile(A, margin)
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


def ambient_norm(A, ambient="c0", margin=0):
    kind, s = normalize_ambient(ambient)
    if kind == "c0":
        return cv_norm(A, Weight.poly(0.0), margin)
    if kind == "jaffard":
        return jaffard_norm(A, s, margin)
    return operator_norm_l2(A)


def _dk_logs(A, ambient, margin):
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
            v = operator_norm_l2(LatticeMatrix(A.window, M / top))
            return math.log(top) + (math.log(v) if v > 0 else _NEG_INF)
        return log_norm

    prof = decay_profile(A, margin)
    jaffard = kind == "jaffard"

    def log_norm(k):
        mask = prof.d > 0
        if k > 0:
            mask &= prof.offsets != 0
        om = np.abs(prof.offsets[mask]).astype(float)
        logs = np.log(prof.d[mask])
        if k > 0:
            logs = logs + k * np.log(om)
        if jaffard:
            logs = logs + s * np.log1p(om)
        if prof.scale:
            m0 = max(prof.tail_start, 1 if k > 0 else 0)
            if jaffard:
                tail, _ = poly_geometric_max(k, s, prof.rho, m0)
            else:
                tail, _ = log_concave_sum(
                    lambda ms: log_poly_geometric(ms, k, 0.0, prof.rho), m0)
            logs = np.append(logs, math.log(prof.scale) + tail)
        if not logs.size:
            return _NEG_INF
        top = float(logs.max())
        return top if jaffard else top + math.log(np.exp(logs - top).sum())
    return log_norm


def dk_norm_log(A, k, ambient="c0", margin=0):
    """log of the ambient norm of D^k A; -inf when the norm is zero."""
    return _dk_logs(A, ambient, margin)(k)


@dataclass
class DalesDavieValue:
    value: float
    log_value: float
    kmax_used: int
    converged: bool
    tail_ratio: float


def dales_davie_norm(A, seq, ambient="c0", margin=0):
    """sum_k ||D^k A|| / M_k with the sequence's normalization.

    The series is cut once three consecutive terms fall below _DD_TOL
    relative to the partial sum, or at the sequence's last order, where
    the sum is complete.  An unbounded sequence is cut at _DD_KCAP at the
    latest, and if no quiet run came before, the result is flagged
    converged=False.
    """
    hard = seq.kmax
    kmax = hard if hard is not None else _DD_KCAP
    dk_log = _dk_logs(A, ambient, margin)
    total_log = _NEG_INF
    quiet = 0
    used = 0
    last_term = _NEG_INF
    for k in range(0, kmax + 1):
        lt = dk_log(k) - seq.log_M(k)
        used = k
        last_term = lt
        total_log = float(np.logaddexp(total_log, lt))
        if total_log > _NEG_INF and lt < total_log + math.log(_DD_TOL):
            quiet += 1
            if quiet >= 3 and k >= 8:
                break
        else:
            quiet = 0
    complete = hard is not None and used >= hard
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
    return math.exp((1.0 - r) * log_factorial(m) / m)
