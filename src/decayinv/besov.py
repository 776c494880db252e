"""Smoothness seminorms built from phase-difference moduli.

The key reduction: the decay profile of Delta_t^k(A) is exactly
(2|sin pi m t|)^k d_A(m) on offset m, so c0/jaffard-ambient moduli are
one-dimensional integrals over t of explicit profile sums.  Values are
computed on [t_min, t_max]; the near-zero and far-tail contributions are
returned as a separate rigorous bound, never silently added.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ParameterError
from .lattice import difference_power, offset_multiplier, operator_norm_l2
from .norms import ambient_norm, decay_profile, normalize_ambient

_PROFILE_CUT = 1e-18
_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class SeminormEstimate:
    value: float
    quadrature_error: float
    tail_bound: float
    parameters: dict


def _quad(f, a, b, limit=200):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, limit=limit, epsabs=0.0, epsrel=1e-10)
    return val, err


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
    if ms.size == 0:
        return np.zeros_like(ts)
    S = (2.0 * np.abs(np.sin(np.pi * ms[None, :] * ts[:, None]))) ** k
    if kind == "c0":
        return S @ w
    return (S * w[None, :]).max(axis=1)


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

    if kind == "operator":
        value, qerr = _operator_route(A, p, r, k, t_min, t_max)
        ms = np.array([])
        w = np.array([])
        geo = None
    else:
        ms, w, geo = _offset_weights(A, ambient, method, margin)

        def g(t):
            if ms.size == 0:
                return 0.0
            sines = (2.0 * np.abs(np.sin(np.pi * ms * t))) ** k
            vals = sines * w
            return float(vals.sum()) if kind == "c0" else float(vals.max())

        edges = _shell_edges(t_min, t_max)
        if p == math.inf:
            value, qerr = _sup_on_shells(g, edges, r)
        else:
            total = 0.0
            err = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                v, e = _quad(lambda t: t ** (-r * p - 1.0) * g(t) ** p, a, b)
                total += v
                err += e
            total *= 2.0
            err *= 2.0
            value = total ** (1.0 / p)
            qerr = (total + err) ** (1.0 / p) - value

    tail = _tail_bounds(A, ms, w, geo, k, r, p, t_min, t_max,
                        ambient, method, margin, kind, s)
    return SeminormEstimate(
        value=value, quadrature_error=qerr, tail_bound=tail,
        parameters={"p": p, "r": r, "k": k, "ambient": ambient,
                    "t_min": t_min, "t_max": t_max})


def _shell_edges(t_min, t_max):
    edges = [t_max]
    while edges[-1] / 2.0 > t_min:
        edges.append(edges[-1] / 2.0)
    edges.append(t_min)
    return list(reversed(edges))


def _sup_on_shells(g, edges, r, coarse=256, refine=64):
    best = 0.0
    best_err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ts = np.exp(np.linspace(math.log(a), math.log(b), coarse))
        vals = np.array([t ** (-r) * g(t) for t in ts])
        i = int(np.argmax(vals))
        x = ts[max(0, i - 1)]
        y = ts[min(coarse - 1, i + 1)]
        for _ in range(refine):
            m1 = x + (y - x) / 3
            m2 = y - (y - x) / 3
            if m1 ** (-r) * g(m1) < m2 ** (-r) * g(m2):
                x = m1
            else:
                y = m2
        mid = 0.5 * (x + y)
        local = max(float(vals[i]), mid ** (-r) * g(mid))
        if local > best:
            best = local
            best_err = abs(local - float(vals[i]))
    return best, best_err


def _operator_route(A, p, r, k, t_min, t_max, nodes=33):
    def g(t):
        return operator_norm_l2(difference_power(A, float(t), k))

    edges = _shell_edges(t_min, t_max)
    if p == math.inf:
        best, err = 0.0, 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            ts = np.exp(np.linspace(math.log(a), math.log(b), nodes))
            vals = np.array([t ** (-r) * g(t) for t in ts])
            i = int(np.argmax(vals))
            if vals[i] > best:
                best = float(vals[i])
                nb = max(vals[max(0, i - 1)], vals[min(nodes - 1, i + 1)])
                err = abs(best - float(nb))
        return best, err
    total = 0.0
    total_half = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ts = np.exp(np.linspace(math.log(a), math.log(b), nodes))
        fs = np.array([t ** (-r * p - 1.0) * g(t) ** p for t in ts])
        total += _trapz(fs, ts)
        total_half += _trapz(fs[::2], ts[::2])
    total *= 2.0
    total_half *= 2.0
    value = total ** (1.0 / p)
    qerr = abs(value - total_half ** (1.0 / p))
    return value, qerr


def _j_multiplier(m, eps, r):
    """J_m(eps) = 2 int_eps^1 (cos 2 pi m t - 1) t^-r dt, with error term."""
    if m == 0:
        return 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        osc, oerr = quad(lambda t: t ** (-r), eps, 1.0,
                         weight="cos", wvar=2.0 * math.pi * m)
    if r == 1.0:
        plain = math.log(1.0 / eps)
    else:
        plain = (1.0 - eps ** (1.0 - r)) / (1.0 - r)
    return 2.0 * (osc - plain), 2.0 * oerr


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
        best, best_err, best_eps = 0.0, 0.0, eps_grid[0]
        for eps in eps_grid:
            j = functools.cache(functools.partial(_j_multiplier, eps=eps, r=r))

            def factor(offs):
                ms, inv = np.unique(np.abs(offs), return_inverse=True)
                vals = np.array([j(int(m))[0] for m in ms])
                return vals[inv].reshape(offs.shape)

            v = operator_norm_l2(offset_multiplier(A, factor))
            if v > best:
                best = v
                best_err = sum(j(m)[1] for m in range(A.n))
                best_eps = eps
        return SeminormEstimate(best, best_err, 0.0,
                                {"p": "sup", "r": r, "k": 1, "eps": best_eps,
                                 "ambient": ambient})

    ms, w, geo = _offset_weights(A, ambient, method, margin)
    best, best_err, best_eps = 0.0, 0.0, eps_grid[0]
    for eps in eps_grid:
        if ms.size:
            pairs = [_j_multiplier(int(m), eps, r) for m in ms]
            jabs = np.array([abs(v) for v, _ in pairs])
            jerr = np.array([e for _, e in pairs])
            if kind == "c0":
                tot = float((jabs * w).sum())
                err = float((jerr * w).sum())
            else:
                i = int(np.argmax(jabs * w))
                tot = float(jabs[i] * w[i])
                err = float(jerr[i] * w[i])
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
