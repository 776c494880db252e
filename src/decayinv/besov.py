"""Smoothness seminorms built from phase-difference moduli.

The key reduction: the decay profile of Delta_t^k(A) is exactly
(2|sin pi m t|)^k d_A(m) on offset m, so c0/jaffard-ambient moduli are
one-dimensional integrals over t of explicit profile sums.  Where the
integrand is linear in the profile (p = 1 in the c0 ambient, and the
hypersingular multipliers) the integral separates over offsets, and
u = m t reduces every offset to one antiderivative
F(x) = int_1^x u^{-s-1} |2 sin pi u|^k du, tabulated by Gauss-Legendre.
Values are computed on [t_min, t_max]; the near-zero and far-tail
contributions are returned as a separate rigorous bound, never silently
added.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ParameterError
from .lattice import difference_power, offset_multiplier, operator_norm_l2
from .norms import ambient_norm, decay_profile, normalize_ambient

_PROFILE_CUT = 1e-18
_GL_NODES = (24, 48)  # the Gauss-Legendre rule, and its node-doubled check
_BLOCK = 1 << 14      # elements of a node matrix evaluated at once
# p = inf search: log-grid points per shell, points and rounds of the zoom
_SUP_COARSE, _SUP_ZOOM, _SUP_ROUNDS = 256, 17, 14
_OP_NODES = 33        # operator ambient: trapezoid nodes per shell
_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class SeminormEstimate:
    value: float
    quadrature_error: float
    tail_bound: float
    parameters: dict


def _blocks(rows, width):
    """Slices covering range(rows) that keep a rows x width matrix block
    within _BLOCK elements."""
    step = max(1, _BLOCK // width)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


@functools.cache
def _legendre(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (1.0 + x), 0.5 * w


def _cell_integrals(a, h, s, k, n):
    """int_a^{a+h} u^{-s-1} |2 sin pi u|^k du for each (a, h), n-point rule.

    Each interval lies in one cell [j, j+1] or [2^-i-1, 2^-i] on which the
    integrand is analytic.  The sine is taken at u - floor(a), whose
    magnitude stays at most 1 however far out the cell lies.
    """
    tau, wts = _legendre(n)
    out = np.empty(a.shape)
    for sl in _blocks(a.size, n):
        aa, hh = a[sl, None], h[sl, None]
        u = aa + hh * tau
        v = (aa - np.floor(aa)) + hh * tau
        f = u ** (-s - 1.0) * np.abs(2.0 * np.sin(np.pi * v)) ** k
        out[sl] = h[sl] * (f @ wts)
    return out


def _antiderivative(x, s, k):
    """F(x) = int_1^x u^{-s-1} |2 sin pi u|^k du at every x > 0.

    Gauss-Legendre on the unit cells [j, j+1] above 1 and the dyadic cells
    [2^-i-1, 2^-i] below it, summed cumulatively, plus one partial cell per
    point.  Returns one row per rule of _GL_NODES; the rows' difference is
    the error estimate.
    """
    x = np.asarray(x, dtype=float)
    below = x < 1.0
    e = np.frexp(x)[1]                     # x in [2^(e-1), 2^e)
    anchor = np.where(below, np.ldexp(1.0, e), np.floor(x))
    top = int(anchor[~below].max()) if (~below).any() else 1
    depth = int(-e[below].min()) if below.any() else 0
    starts = np.arange(1.0, top)           # [j, j+1], j = 1 .. top-1
    tops = np.ldexp(1.0, -np.arange(depth))  # [2^-i-1, 2^-i], walked down
    a = np.concatenate([starts, tops, anchor])
    h = np.concatenate([np.ones(starts.size), -0.5 * tops, x - anchor])
    # F at the anchors: 1, 2, .., top, then 2^0, 2^-1, .., 2^-depth
    knot = np.where(below, top - e, anchor - 1.0).astype(int)
    rows = []
    for n in _GL_NODES:
        ints = _cell_integrals(a, h, s, k, n)
        up, down = np.split(ints[:starts.size + depth], [starts.size])
        knots = np.concatenate([[0.0], np.cumsum(up), [0.0], np.cumsum(down)])
        rows.append(knots[knot] + ints[starts.size + depth:])
    return np.array(rows)


def _modulus(ts, ms, w, k, kind):
    """g(t) = sum_m (c0) or max_m (jaffard) of |2 sin pi m t|^k w(m) at
    every t, evaluated in blocks of ts."""
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.size)
    if ms.size == 0:
        return out.reshape(ts.shape)
    col = ts.reshape(-1, 1)
    for sl in _blocks(ts.size, ms.size):
        S = (2.0 * np.abs(np.sin(np.pi * ms * col[sl]))) ** k
        out[sl] = S @ w if kind == "c0" else (S * w).max(axis=1)
    return out.reshape(ts.shape)


def _offset_weights(A, ambient, method, margin):
    """Per-|m| reduced profile for m >= 1.

    c0 ambient sums both sides (w = d(m) + d(-m)); jaffard takes the max
    of the sides times (1+m)^s.  Returns (ms, w, geo) where geo describes
    the geometric mass beyond the cutoff, (scale, rho, M), or None.
    """
    kind, s = normalize_ambient(ambient)
    if kind == "operator":
        raise ParameterError("offset reduction undefined for operator ambient")
    prof = decay_profile(A, method, margin)
    M = prof.tail_start - 1
    geo = None
    if prof.scale:
        M = max(M, int(math.log(_PROFILE_CUT) / math.log(prof.rho)) + 1, 1)
        geo = (prof.scale, prof.rho, M)
    ms = np.arange(1, M + 1)
    dpos, dneg = prof.at(ms), prof.at(-ms)
    if kind == "c0":
        w = dpos + dneg
    else:
        w = np.maximum(dpos, dneg) * (1.0 + ms) ** s
    keep = w > 0
    return ms[keep], w[keep], geo


def decay_moment(A, r, p=1, ambient="c0", method="auto", margin=0):
    """Homogeneous decay moment of the reduced profile w over m >= 1:
    sum_m m^r w(m) for p = 1, sup_m m^r w(m) for p = inf."""
    ms, w, _ = _offset_weights(A, ambient, method, margin)
    if ms.size == 0:
        return 0.0
    vals = ms.astype(float) ** r * w
    return float(vals.sum()) if p == 1 else float(vals.max())


def _dropped_mass(geo, kind, s, k=0.0):
    """Bound on the cut geometric tail's contribution to the k-moment."""
    if geo is None:
        return 0.0
    sc, rho, M = geo
    lead = sc * rho ** (M + 1) * (M + 1.0) ** k
    if kind == "c0":
        growth = rho * math.exp(k / (M + 1.0)) if k > 0 else rho
        if growth >= 1.0:
            return math.inf
        return lead / (1.0 - growth)
    return lead * (M + 2.0) ** s


def modulus_profile(A, ts, k, ambient="c0", method="auto", margin=0):
    """||Delta_t^k A||_ambient for each t, via the offset reduction."""
    kind, _ = normalize_ambient(ambient)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if kind == "operator":
        return np.array([operator_norm_l2(difference_power(A, float(t), k))
                         for t in ts])
    ms, w, _ = _offset_weights(A, ambient, method, margin)
    return _modulus(ts, ms, w, k, kind)


def _tail_bounds(A, ms, w, geo, k, r, p, t_min, t_max,
                 ambient, method, margin, kind, s):
    amb = ambient_norm(A, ambient, method, margin)
    if p == math.inf:
        far = 2.0 ** k * amb * t_max ** (-r)
    else:
        far = 2.0 ** k * amb * (2.0 / (r * p)) ** (1.0 / p) * t_max ** (-r)
    if k > r:
        if ms.size:
            vals = ms.astype(float) ** k * w
            Sk = float(vals.sum()) if kind == "c0" else float(vals.max())
        else:
            Sk = 0.0
        Sk += _dropped_mass(geo, kind, s, k)
        if p == math.inf:
            near = (2 * math.pi) ** k * Sk * t_min ** (k - r)
        else:
            near = ((2 * math.pi) ** k * Sk
                    * (2.0 / ((k - r) * p)) ** (1.0 / p) * t_min ** (k - r))
    else:
        near = math.inf
    return near + far


def besov_seminorm(A, p, r, k=None, ambient="c0", method="auto", margin=0,
                   t_min=1e-6, t_max=4.0):
    """Phase-difference smoothness seminorm of order r, integrability p.

    The integral (covering both signs of t) runs over t_min <= |t| <= t_max;
    contributions outside are covered by tail_bound.  k defaults to
    floor(r)+1, the smallest order keeping the integral convergent at 0.
    parameters["quad_short_shells"] counts the dyadic shells on which
    adaptive quadrature stopped short of its tolerance (0 on the routes
    that do not use it: p = 1 in the c0 ambient, and p = inf).
    """
    if r <= 0:
        raise ParameterError("besov_seminorm needs r > 0")
    if not (p == math.inf or p >= 1):
        raise ParameterError("p must be in [1, inf]")
    if not 0 < t_min < t_max:
        raise ParameterError("need 0 < t_min < t_max")
    if k is None:
        k = math.floor(r) + 1
    k = int(k)
    if k < 1:
        raise ParameterError("difference order k must be >= 1")
    kind, s = normalize_ambient(ambient)

    short = 0
    if kind == "operator":
        value, qerr = _operator_route(A, p, r, k, t_min, t_max)
        ms = np.array([])
        w = np.array([])
        geo = None
    else:
        ms, w, geo = _offset_weights(A, ambient, method, margin)
        if p == 1 and kind == "c0":
            value, qerr = _separable_p1(ms, w, r, k, t_min, t_max)
        elif p == math.inf:
            value, qerr = _sup_search(ms, w, k, kind,
                                      _shell_edges(t_min, t_max), r)
        else:
            value, qerr, short = _quad_route(ms, w, k, kind,
                                             _shell_edges(t_min, t_max), r, p)

    tail = _tail_bounds(A, ms, w, geo, k, r, p, t_min, t_max,
                        ambient, method, margin, kind, s)
    return SeminormEstimate(
        value=value, quadrature_error=qerr, tail_bound=tail,
        parameters={"p": p, "r": r, "k": k, "ambient": ambient,
                    "t_min": t_min, "t_max": t_max,
                    "quad_short_shells": short})


def _shell_edges(t_min, t_max):
    edges = [t_max]
    while edges[-1] / 2.0 > t_min:
        edges.append(edges[-1] / 2.0)
    edges.append(t_min)
    return np.array(edges[::-1])


def _separable_p1(ms, w, r, k, t_min, t_max):
    """p = 1, c0 ambient: g is linear in w, so the integral is
    2 sum_m w(m) m^r [F(m t_max) - F(m t_min)], F = _antiderivative(., r, k).
    The error is the node-doubled difference."""
    if ms.size == 0:
        return 0.0, 0.0
    F = _antiderivative(np.concatenate([ms * t_max, ms * t_min]), r, k)
    hi, lo = np.split(F, 2, axis=1)
    vals = 2.0 * ((hi - lo) @ (w * ms.astype(float) ** r))
    return float(vals[0]), float(abs(vals[1] - vals[0]))


def _sup_search(ms, w, k, kind, edges, r):
    """sup of t^-r g(t) over the shells: argmax on a log grid of each shell,
    then rounds of zooming in on a finer grid around it.  The error is the
    gain of the zoom over the grid, in the winning shell."""
    def h(ts):
        return ts ** (-r) * _modulus(ts, ms, w, k, kind)

    ts = np.exp(np.linspace(np.log(edges[:-1]), np.log(edges[1:]),
                            _SUP_COARSE, axis=1))
    vals = h(ts)
    rows = np.arange(ts.shape[0])
    i = vals.argmax(axis=1)
    coarse = vals[rows, i]
    best = coarse
    lo = ts[rows, np.maximum(i - 1, 0)]
    hi = ts[rows, np.minimum(i + 1, _SUP_COARSE - 1)]
    for _ in range(_SUP_ROUNDS):
        pts = np.linspace(lo, hi, _SUP_ZOOM, axis=1)
        vals = h(pts)
        j = vals.argmax(axis=1)
        best = np.maximum(best, vals[rows, j])
        lo = pts[rows, np.maximum(j - 1, 0)]
        hi = pts[rows, np.minimum(j + 1, _SUP_ZOOM - 1)]
    win = int(best.argmax())
    return float(best[win]), float(best[win] - coarse[win])


def _quad_route(ms, w, k, kind, edges, r, p):
    """Adaptive quad per dyadic shell, for the inputs where g enters the
    integrand nonlinearly (p not in {1, inf}, or the jaffard ambient).
    Also returns the number of shells that stopped short of epsrel."""
    def f(t):
        return t ** (-r * p - 1.0) * float(_modulus(t, ms, w, k, kind)) ** p

    total = err = 0.0
    short = 0
    for a, b in zip(edges[:-1], edges[1:]):
        res = quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-10,
                   full_output=1)
        total += res[0]
        err += res[1]
        short += len(res) > 3          # QUADPACK's message: ier > 0
    total *= 2.0
    err *= 2.0
    value = total ** (1.0 / p)
    return value, (total + err) ** (1.0 / p) - value, short


def _operator_route(A, p, r, k, t_min, t_max):
    def g(t):
        return operator_norm_l2(difference_power(A, float(t), k))

    edges = _shell_edges(t_min, t_max)
    if p == math.inf:
        best, err = 0.0, 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            ts = np.exp(np.linspace(math.log(a), math.log(b), _OP_NODES))
            vals = np.array([t ** (-r) * g(t) for t in ts])
            i = int(np.argmax(vals))
            if vals[i] > best:
                best = float(vals[i])
                nb = max(vals[max(0, i - 1)], vals[min(_OP_NODES - 1, i + 1)])
                err = abs(best - float(nb))
        return best, err
    total = 0.0
    total_half = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ts = np.exp(np.linspace(math.log(a), math.log(b), _OP_NODES))
        fs = np.array([t ** (-r * p - 1.0) * g(t) ** p for t in ts])
        total += _trapz(fs, ts)
        total_half += _trapz(fs[::2], ts[::2])
    total *= 2.0
    total_half *= 2.0
    value = total ** (1.0 / p)
    qerr = abs(value - total_half ** (1.0 / p))
    return value, qerr


def _j_multipliers(ms, eps, r):
    """J_m(eps) = 2 int_eps^1 (cos 2 pi m t - 1) t^-r dt for every eps
    (rows) and m >= 1 (columns), with the node-doubled error.

    2 (cos 2 pi u - 1) = -|2 sin pi u|^2, so with u = m t
    J_m(eps) = -m^(r-1) [F(m) - F(m eps)], F = _antiderivative(., r-1, 2).
    """
    ms = np.asarray(ms, dtype=float)
    eps = np.asarray(eps, dtype=float)
    F = _antiderivative(np.concatenate([ms, np.outer(eps, ms).ravel()]),
                        r - 1.0, 2)
    F = F.reshape(len(_GL_NODES), eps.size + 1, ms.size)
    J = -(ms ** (r - 1.0)) * (F[:, :1] - F[:, 1:])
    return J[0], np.abs(J[1] - J[0])


def _j_cap(eps, r):
    """Upper bound for |J_m(eps)| uniform in m."""
    if r < 1.0:
        return 4.0 / (1.0 - r)
    if r == 1.0:
        return 4.0 * math.log(1.0 / eps)
    return 4.0 * eps ** (1.0 - r) / (r - 1.0)


def hypersingular_seminorm(A, r, eps_grid=(0.3, 0.1, 0.03, 0.01),
                           ambient="c0", method="auto", margin=0):
    """sup over the eps grid of || int_{eps<=|t|<=1} Delta_t(A) |t|^-r dt ||.

    The inner integral acts entrywise: offset m picks up the real factor
    J_m(eps) = 2 int_eps^1 (cos 2 pi m t - 1) t^-r dt.
    """
    if not 0 < r < 2:
        raise ParameterError("hypersingular_seminorm needs 0 < r < 2")
    eps_grid = sorted(set(float(e) for e in eps_grid))
    if not eps_grid or eps_grid[0] <= 0 or eps_grid[-1] >= 1:
        raise ParameterError("eps grid must lie in (0, 1)")
    kind, s = normalize_ambient(ambient)

    if kind == "operator":
        # every offset the multiplier meets: the window's and the symbol's
        sym = A.symbol
        coeffs = list(sym.coeffs) if sym is not None and sym.is_finite else []
        ms = np.union1d(np.arange(1, A.n), np.abs(coeffs).astype(int))
        ms = ms[ms > 0]
        J, Jerr = _j_multipliers(ms, eps_grid, r)
        best, best_err, best_eps = 0.0, 0.0, eps_grid[0]
        for row, eps in enumerate(eps_grid):
            def factor(offs, jrow=J[row]):
                out = np.zeros(offs.shape)
                nz = offs != 0
                out[nz] = jrow[np.searchsorted(ms, np.abs(offs[nz]))]
                return out

            v = operator_norm_l2(offset_multiplier(A, factor))
            if v > best:
                best, best_err, best_eps = v, float(Jerr[row].sum()), eps
        return SeminormEstimate(best, best_err, 0.0,
                                {"p": "sup", "r": r, "k": 1, "eps": best_eps,
                                 "ambient": ambient})

    ms, w, geo = _offset_weights(A, ambient, method, margin)
    if ms.size:
        J, Jerr = _j_multipliers(ms, eps_grid, r)
        J = np.abs(J)
    best, best_err, best_eps = 0.0, 0.0, eps_grid[0]
    for row, eps in enumerate(eps_grid):
        if ms.size:
            if kind == "c0":
                tot = float((J[row] * w).sum())
                err = float((Jerr[row] * w).sum())
            else:
                i = int(np.argmax(J[row] * w))
                tot = float(J[row, i] * w[i])
                err = float(Jerr[row, i] * w[i])
        else:
            tot, err = 0.0, 0.0
        err += _dropped_mass(geo, kind, s) * _j_cap(eps, r)
        if tot > best:
            best, best_err, best_eps = tot, err, eps
    return SeminormEstimate(best, best_err, 0.0,
                            {"p": "sup", "r": r, "k": 1, "eps": best_eps,
                             "ambient": ambient})


def identification_rate_check(family, r, p=1, k=None, ambient="c0",
                              method="auto", margin=0, t_min=1e-6, t_max=4.0):
    """Besov seminorm against the matching homogeneous decay moment.

    For p = 1 the comparison is sum_m |m|^r w(m); for p = inf it is
    sup_m |m|^r w(m).  Returns per-member rows and the drift max/min of
    the ratios, which the offset reduction predicts to be family-constant.
    """
    if p not in (1, math.inf):
        raise ParameterError("identification check supports p = 1 or inf")
    rows = []
    for i, item in enumerate(family):
        label, A = item if isinstance(item, tuple) else (str(i), item)
        mom = decay_moment(A, r, p, ambient, method, margin)
        est = besov_seminorm(A, p, r, k, ambient, method, margin,
                             t_min, t_max)
        ratio = est.value / mom if mom > 0 else math.nan
        rows.append({"label": label, "moment": mom, "seminorm": est.value,
                     "quadrature_error": est.quadrature_error, "ratio": ratio})
    ratios = [row["ratio"] for row in rows if math.isfinite(row["ratio"])]
    drift = max(ratios) / min(ratios) if ratios else math.nan
    return {"rows": rows, "drift": drift}
