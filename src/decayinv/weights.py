"""Weight functions on lattice offsets, smoothness sequences, and the
entire function phi_r(x) = sum_l x^l / (l!)^r used by the inversion bounds."""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import ParameterError, RangeError

_MAXLOG = math.log(np.finfo(float).max)   # ~709.78
_EXACT_TERM_CAP = 5_000_000
_CHECK_NMAX = 48   # largest offset check_weight samples


@dataclass(frozen=True)
class Weight:
    """Even, submultiplicative weight v(k) on integer offsets.

    kinds: poly    v(k) = (1+|k|)^r, r >= 0
           subexp  v(k) = exp(beta |k|^(1/r)), beta > 0, r > 1
           table   explicit values for |k| <= len(values)-1
    """

    kind: str
    r: float = 0.0
    beta: float = 0.0
    values: tuple = ()

    def __post_init__(self):
        if self.kind == "poly":
            if self.r < 0:
                raise ParameterError("poly weight needs r >= 0")
        elif self.kind == "subexp":
            if self.r <= 1:
                raise ParameterError("subexp weight needs r > 1")
            if self.beta <= 0:
                raise ParameterError("subexp weight needs beta > 0")
        elif self.kind == "table":
            if len(self.values) == 0 or self.values[0] < 1:
                raise ParameterError("table weight needs values with v(0) >= 1")
        else:
            raise ParameterError(f"unknown weight kind {self.kind!r}")

    @classmethod
    def poly(cls, r):
        return cls("poly", r=float(r))

    @classmethod
    def subexp(cls, beta, r):
        return cls("subexp", r=float(r), beta=float(beta))

    @classmethod
    def table(cls, values):
        return cls("table", values=tuple(float(v) for v in values))

    def value(self, k):
        k = np.abs(np.asarray(k, dtype=float))
        if self.kind == "poly":
            return (1.0 + k) ** self.r
        if self.kind == "subexp":
            return np.exp(self.beta * k ** (1.0 / self.r))
        idx = k.astype(int)
        if np.any(idx > len(self.values) - 1):
            raise ParameterError("offset outside table weight support")
        return np.asarray(self.values, dtype=float)[idx]

    def __call__(self, k):
        return self.value(k)


def check_weight(w):
    """Numerical sanity report: evenness, submultiplicativity on offsets up
    to _CHECK_NMAX (or the table's length), and a GRS indicator
    (v(2^j)^{2^-j} trending to a limit <= v(1))."""
    nmax = _CHECK_NMAX
    ks = np.arange(0, nmax + 1)
    try:
        v = w.value(ks)
    except ParameterError:
        nmax = len(w.values) - 1
        ks = np.arange(0, nmax + 1)
        v = w.value(ks)
    sym_ok = bool(np.allclose(w.value(-ks), v, rtol=1e-13))
    inside = ks[:, None] + ks[None, :] <= nmax
    lhs = w.value((ks[:, None] + ks[None, :])[inside])
    rhs = (v[:, None] * v[None, :])[inside]
    sub_ok = bool(np.all(lhs <= rhs * (1 + 1e-12)))
    worst = float(np.max(lhs / rhs))
    js = [2 ** j for j in range(1, 20) if 2 ** j <= nmax]
    roots = [float(w.value(n)) ** (1.0 / n) for n in js]
    grs_ok = all(roots[i + 1] <= roots[i] * (1 + 1e-9) for i in range(len(roots) - 1))
    return {
        "symmetric_ok": sym_ok,
        "submultiplicative_ok": sub_ok,
        "worst_ratio": worst,
        "grs_ok": grs_ok,
        "root_sequence": roots,
    }


@dataclass(frozen=True)
class SmoothnessSequence:
    """Admissible sequence M_k normalizing iterated-derivation norms.

    kinds: finite(K)  M_k = k! for k <= K, series truncated at K
           analytic   M_k = k!
           gevrey(r)  M_k = (k!)^r, r >= 1
           custom     explicit values, admissibility checked
    Admissibility: M_0 = 1 and M_{k+l}/(k+l)! >= (M_k/k!)(M_l/l!).
    """

    kind: str
    r: float = 1.0
    K: int | None = None
    values: tuple = ()

    def __post_init__(self):
        if self.kind == "finite":
            if self.K is None or self.K < 1:
                raise ParameterError("finite sequence needs K >= 1")
        elif self.kind == "gevrey":
            if self.r < 1:
                raise ParameterError("gevrey sequence needs r >= 1")
        elif self.kind == "custom":
            vals = self.values
            if len(vals) < 2 or vals[0] != 1.0:
                raise ParameterError("custom sequence needs M_0 = 1 and length >= 2")
            n = [v / math.factorial(k) for k, v in enumerate(vals)]
            for a in range(1, len(vals)):
                for b in range(1, len(vals) - a):
                    if n[a + b] < n[a] * n[b] * (1 - 1e-12):
                        raise ParameterError(
                            f"admissibility fails at k={a}, l={b}")
        elif self.kind != "analytic":
            raise ParameterError(f"unknown sequence kind {self.kind!r}")

    @classmethod
    def finite(cls, K):
        return cls("finite", K=int(K))

    @classmethod
    def analytic(cls):
        return cls("analytic")

    @classmethod
    def gevrey(cls, r):
        return cls("gevrey", r=float(r))

    @classmethod
    def custom(cls, values):
        return cls("custom", values=tuple(float(v) for v in values))

    @property
    def kmax(self):
        """Largest usable order; None when unbounded."""
        if self.kind == "finite":
            return self.K
        if self.kind == "custom":
            return len(self.values) - 1
        return None

    def log_M(self, k):
        if k < 0:
            raise ParameterError("order must be nonnegative")
        if self.kind in ("finite", "analytic"):
            if self.kind == "finite" and k > self.K:
                raise ParameterError(f"order {k} beyond finite cutoff {self.K}")
            return float(gammaln(k + 1))
        if self.kind == "gevrey":
            return self.r * float(gammaln(k + 1))
        if k > len(self.values) - 1:
            raise ParameterError(f"order {k} beyond custom sequence")
        return math.log(self.values[k])

    def M(self, k):
        return math.exp(self.log_M(k))


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
    """log phi_r(x) given lx = log x; usable when x itself overflows."""
    if r <= 0:
        raise ParameterError("phi_r needs r > 0")
    if r == 1.0:
        return math.exp(lx)      # exp series: log phi = x, may be inf
    if lx / r > _MAXLOG:
        return math.inf
    peak = math.exp(lx / r)
    cap = int(peak + 12 + 8 * math.sqrt(peak + 1))
    if cap <= _EXACT_TERM_CAP:
        total = None
        start = 0
        while start <= cap:
            stop = min(cap, start + 1_000_000)
            ls = np.arange(start, stop + 1, dtype=float)
            logs = ls * lx - r * gammaln(ls + 1)
            chunk = float(logsumexp(logs))
            total = chunk if total is None else float(np.logaddexp(total, chunk))
            start = stop + 1
        return total
    # saddle point: maximize l ln x - r lgamma(l+1); curvature ~ r/l.
    # digamma(l+1) ~ ln(l) + 1/(2l); solve ln x = r*digamma(l+1) by fixed point.
    l = peak
    for _ in range(80):
        nl = math.exp(lx / r - 1.0 / (2.0 * l))
        if abs(nl - l) <= 1e-9 * l:
            l = nl
            break
        l = nl
    val = l * lx - r * float(gammaln(l + 1)) + 0.5 * math.log(2 * math.pi * l / r)
    return val


def phi_r_eval(x, r):
    """phi_r(x) as a float; raises RangeError (carrying log_value) on overflow."""
    lv = log_phi_r(x, r)
    if lv > _MAXLOG:
        raise RangeError(f"phi_r overflows float range, log value {lv:.6g}",
                         log_value=lv)
    return math.exp(lv)
