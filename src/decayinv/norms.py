"""Decay-profile norms and iterated-derivation seminorms.

Every norm reduces over one DecayProfile: of a ToeplitzSymbol exactly,
over the whole lattice, and of a LatticeMatrix from its window entries.
The operator ambient and a nonzero margin need a window, so a symbol is
read there through its section make_toeplitz(symbol, window).  Large
iterated sums are accumulated in log space, for a block of orders at once.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParameterError
from .lattice import (LatticeMatrix, ToeplitzSymbol, derivation_power,
                      operator_norm_l2, require_section)
from .weights import (Weight, log_concave_sum, log_factorial,
                      log_integer_weight_tail, poly_geometric_max,
                      polylog_tail_logs)

_NEG_INF = float("-inf")
_LOG2 = math.log(2.0)   # NumPy's NPY_LOGE2
_DD_TOL = 1e-14         # Dales-Davie terms this far below the sum are quiet
_LOG_DD_TOL = math.log(_DD_TOL)
_DD_KCAP = 160          # order cap of an unbounded Dales-Davie series
_DD_BLOCK = 12          # orders a Dales-Davie sum reads at a time


def side_diag_sup(A, margin=0):
    """Decay profile d(m) = max_l |A(l, l-m)| on the margin-shrunk window.

    Returns (offsets, d) with offsets running over the representable range.
    """
    k = A.window.shrink(margin).n
    E = A.entries[margin:margin + k, margin:margin + k]
    # row stride 2k - 2 puts |E(i, j)| in row i, column k - 1 - (i - j)
    skew = np.zeros(k * (2 * k - 1))
    step = skew.strides[0]
    np.abs(E, out=as_strided(skew[k - 1:], (k, k), ((2 * k - 2) * step, step)))
    d = np.ascontiguousarray(skew.reshape(k, 2 * k - 1).max(axis=0)[::-1])
    return np.arange(-(k - 1), k), d


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
    """The DecayProfile of a ToeplitzSymbol, exact, or of a section on its
    margin-shrunk window.  A nonzero margin needs a window."""
    if not isinstance(A, ToeplitzSymbol):
        return DecayProfile(*side_diag_sup(A, margin))
    if margin:
        require_section(A, "a nonzero margin")
    geo = A.geometric
    M = max((abs(m) for m in A.coeffs), default=-1)
    scale = rho = 0.0
    if geo is not None and geo.scale != 0:
        if geo.ratio == 0:
            M = max(M, 0)   # the tail is the single coefficient c(0)
        else:
            scale, rho = abs(geo.scale), abs(geo.ratio)
    offs = np.arange(-M, M + 1)
    d = np.abs(A.coefficients(offs)) if M >= 0 else np.zeros(0)
    return DecayProfile(offs, d, scale, rho)


def cv_norm(A, weight, margin=0):
    """Weighted decay norm: sum_m d(m) v(m).

    A geometric tail's sum is, for a poly weight of integer exponent r,
    the polylog tail of weights.log_integer_weight_tail (r + 1 recurrence
    steps, within its stated relative error of the exact sum), and a
    log_concave_sum otherwise."""
    prof = decay_profile(A, margin)
    if prof.scale and weight.kind == "table":
        raise ParameterError("table weight cannot cover an infinite symbol")
    total = (float((prof.d * weight.value(prof.offsets)).sum())
             if prof.d.size else 0.0)
    if prof.scale:
        tail = (log_integer_weight_tail(weight.r, prof.rho, prof.tail_start)
                if weight.kind == "poly" else None)
        if tail is None:
            lr = math.log(prof.rho)
            tail = log_concave_sum(
                lambda ms: ms * lr + np.log(weight.value(ms)), prof.tail_start)
        total += prof.scale * math.exp(tail[0])
    return total


def jaffard_norm(A, r, margin=0):
    """Polynomial off-diagonal sup norm: sup_m d(m) (1+|m|)^r."""
    if r < 0:
        raise ParameterError("jaffard_norm needs r >= 0")
    prof = decay_profile(A, margin)
    best = (float((prof.d * (1.0 + np.abs(prof.offsets)) ** r).max())
            if prof.d.size else 0.0)
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
    require_section(A, "the operator ambient").window.shrink(margin)
    return operator_norm_l2(A)


def _operator_dk_log(A, k):
    M = derivation_power(A, k).entries
    top = np.abs(M).max()
    if top == 0.0:
        return _NEG_INF
    v = operator_norm_l2(LatticeMatrix(A.window, M / top))
    return math.log(top) + (math.log(v) if v > 0 else _NEG_INF)


def _dk_norms(A, ambient, margin):
    """The function ks -> [log of the ambient norm of D^k A for k in the
    sequence ks], -inf where it is zero: an SVD per order in the operator
    ambient, else one 2-D log-sum-exp (max in jaffard) per call over one
    decay profile of A.  A c0 tail's sums come from one
    weights.polylog_tail_logs stream, stepped once per order up to the
    largest order asked for so far."""
    kind, s = normalize_ambient(ambient)
    if kind == "operator":
        require_section(A, "the operator ambient").window.shrink(margin)
        return lambda ks: [_operator_dk_log(A, k) for k in ks]
    prof = decay_profile(A, margin)
    keep = prof.d > 0
    om = np.abs(prof.offsets[keep]).astype(float)
    log_d, log_om = np.log(prof.d[keep]), np.log(np.maximum(om, 1.0))
    at0 = om == 0
    if s is not None:
        log_pad = s * np.log1p(om)
    if prof.scale:
        # one more column for the tail: log scale, to which each order adds
        # the log of its tail sum (max in jaffard)
        log_d = np.append(log_d, math.log(prof.scale))
        log_om, at0 = np.append(log_om, 0.0), np.append(at0, False)
        if s is not None:
            log_pad = np.append(log_pad, 0.0)
        else:
            stream = polylog_tail_logs(prof.rho, prof.tail_start)
            tail_logs = []

    def tails_of(ks):
        """[log V_k for k in ks], the stream stepped to the largest k."""
        tail_logs.extend(itertools.islice(
            stream, max(0, max(ks, default=-1) + 1 - len(tail_logs))))
        return [tail_logs[k] for k in ks]

    if prof.scale and s is None and not keep.any():
        # a lone geometric tail: the log-sum-exp of its one column is
        # log scale + log V_k, bit for bit
        log_scale = math.log(prof.scale)
        return lambda ks: [log_scale + v for v in tails_of(ks)]

    def logs_of(ks):
        ks = np.array(ks, dtype=int)
        logs = log_d + ks[:, None] * log_om
        logs[(ks[:, None] > 0) & at0] = _NEG_INF   # 0^k = 0, but 0^0 = 1
        if s is not None:
            logs += log_pad
            if prof.scale:
                logs[:, -1] += [poly_geometric_max(k, s, prof.rho,
                                                   prof.tail_start)[0]
                                for k in ks]
        elif prof.scale:
            logs[:, -1] += tails_of(ks)
        top = logs.max(axis=1, initial=_NEG_INF)
        if s is not None:
            return top.tolist()
        shift = np.where(top > _NEG_INF, top, 0.0)[:, None]
        sums = np.exp(logs - shift).sum(1)
        return [t + math.log(v) if v else _NEG_INF
                for t, v in zip(top.tolist(), sums.tolist())]
    return logs_of


def dk_norm_logs(A, ks, ambient="c0", margin=0):
    """[log of the ambient norm of D^k A for k in the sequence ks], -inf
    where it is zero, in one pass of _dk_norms."""
    norms_of = _dk_norms(A, ambient, margin)
    if any(k < 0 or k != int(k) for k in ks):
        raise ParameterError("derivation order must be an integer >= 0")
    return norms_of(ks)


def dk_norm_log(A, k, ambient="c0", margin=0):
    """log of the ambient norm of D^k A; -inf when the norm is zero."""
    return dk_norm_logs(A, [k], ambient, margin)[0]


@dataclass
class DalesDavieValue:
    value: float
    log_value: float
    kmax_used: int
    converged: bool
    tail_ratio: float
    dk_logs: tuple     # log ||D^k A|| for k = 0, 1, ..., each order read


def _logaddexp(x, y):
    """float(np.logaddexp(x, y)) bit for bit, NumPy's formula in math."""
    if x == y:
        return x + _LOG2
    d = x - y
    return x + math.log1p(math.exp(-d)) if d > 0 else \
        y + math.log1p(math.exp(d))


def dales_davie_norm(A, seq, ambient="c0", margin=0):
    """sum_k ||D^k A|| / M_k with the sequence's normalization.

    The series is cut once three consecutive terms fall below _DD_TOL
    relative to the partial sum, or at the sequence's last order, where
    the sum is complete.  An unbounded sequence is cut at _DD_KCAP at the
    latest, and if no quiet run came before, the result is flagged
    converged=False.  The norms come from one _dk_norms pass over the
    decay profile, which reads each order once: in blocks of _DD_BLOCK
    orders, and one at a time in the operator ambient, where each is an
    SVD.  dk_logs holds every order read, those of a block past the cut
    too, each as dk_norm_logs gives it.
    """
    hard = seq.kmax
    orders = range((hard if hard is not None else _DD_KCAP) + 1)
    block = 1 if normalize_ambient(ambient)[0] == "operator" else _DD_BLOCK
    norms_of = _dk_norms(A, ambient, margin)
    total_log, quiet, dk_logs, log_Ms = _NEG_INF, 0, [], []
    for k in orders:      # k and lt stay at the last order read
        if k == len(dk_logs):
            dk_logs += norms_of(orders[k:k + block])
            log_Ms += seq.log_Ms(orders[k:k + block])
        lt = dk_logs[k] - log_Ms[k]
        total_log = _logaddexp(total_log, lt)
        if total_log > _NEG_INF and lt < total_log + _LOG_DD_TOL:
            quiet += 1
            if quiet >= 3 and k >= 8:
                break
        else:
            quiet = 0
    converged = (hard is not None and k >= hard) or quiet >= 3
    tail_ratio = math.exp(lt - total_log) if total_log > _NEG_INF else 0.0
    value = math.exp(total_log) if total_log < 709.0 else float("inf")
    return DalesDavieValue(value=value, log_value=total_log, kmax_used=k,
                           converged=bool(converged), tail_ratio=tail_ratio,
                           dk_logs=tuple(dk_logs))


def a_m_gevrey(r, m):
    """Closed form for gevrey(r): A_m = (m!)^{(1-r)/m}."""
    if r < 1:
        raise ParameterError("gevrey needs r >= 1")
    if m < 1:
        raise ParameterError("a_m needs m >= 1")
    return math.exp((1.0 - r) * log_factorial(m) / m)
