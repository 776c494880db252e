"""Smoothness seminorms built from phase-difference moduli.

Every function measures in one ambient at a time, "c0" or "operator"
(norms.normalize_ambient), on the whole of its input: a symbol, or a
section, whose inner block is read as a section of its own.
The key reduction: the decay profile of Delta_t^k(A) is exactly
(2|sin pi m t|)^k d_A(m) on offset m, so c0-ambient moduli are
one-dimensional integrals over t of explicit profile sums.  Where the
integrand is linear in the profile (p = 1 in the c0 ambient, and the
hypersingular multipliers) the integral separates over offsets, and
u = m t reduces every offset to one antiderivative
F(x) = int_1^x u^{-s-1} |2 sin pi u|^k du, tabulated by Gauss-Legendre;
its unit cells [j, j+1] share one row of sines per rule, since there
u - j is the node itself, and an integer x reads F from their sums.  A
family of profiles at one (r, k) reads one F on the union of its
offsets (identification_rate_check, which measures at p = 1 alone).
The c0 modulus at k = 1 of a symbol's geometric tail scale rho^m is
summed by its runs of constant sign (_tail_runs): on {m : j <= m u <
j + 1}, u = dist(t, Z), the sign of sin pi m u is (-1)^j, so each run is
one geometric sum, and the tail costs a sine per run boundary (about
M u) instead of a sine per offset (M).  _modulus takes it per point
where that is the cheaper count (u below about 0.4), and keeps the
direct sum on the finite part, on sections and at k >= 2.
Elsewhere at finite p the integral is folded onto u in [0, 1/2]: the
offsets are integers, so the modulus is 1-periodic and even in t, and
the integral over [t_min, t_max] is one over u against a kernel summed
over the images j +- u in range.  It runs over cells cut at the kinks
j/m, one fixed Gauss-Legendre rule per cell.  Every rule reports its
difference from the rule with half its nodes, plus the worst-case
rounding of its sums, as its error.  At p = inf the sup of t^-r g(t) is
searched on a log grid of the dyadic shells and zoomed, and only where
it can still be: closed-form bounds on g over each chunk of a grid, and
on the slope of t^-r g(t) over each shell, skip every chunk and every
zoom that stays below a value already found.  Values are computed on
[t_min, t_max]; the near-zero and far-tail contributions are returned as
a separate rigorous bound, never silently added, read from ||D^k A||
(norms.dk_norm_log) and ||A|| (norms.ambient_norm).  Operator-ambient
moduli all come from modulus_profile; their p = inf error is a proven
bound, from the c0 bounds on the modulus and its slope, which hold for
the operator norm by the Schur test.  The hypersingular multiplier
|J_m(eps)| falls as the cutoff eps grows, so the c0 sup over the cutoffs
is read at the finest one alone; the operator ambient takes every
cutoff.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .lattice import (difference_power, offset_multiplier, operator_norm_l2,
                      require_section)
from .norms import (ambient_norm, banded_error, decay_profile, dk_norm_log,
                    normalize_ambient)
from .weights import LOG_MAX, exp_or_inf

_PROFILE_CUT = 1e-18
_LOG2 = math.log(2.0)
_EPS = np.finfo(float).eps
# difference orders k from here on are rejected: the moduli grow like 2^k,
# and every route stays finite below it on a 32-point window (p = 2, which
# squares them, up to k = 509; the p = inf chunk bounds are formed in logs
# and do not limit k)
_MAX_ORDER = 207
# the Gauss-Legendre rule of the antiderivative, and its half-node check,
# whose difference from the rule overstates the rule's own error
_GL_NODES = (24, 12)
_BLOCK = 1 << 14      # elements of a node matrix evaluated at once
# p = inf search: log-grid points per shell, points per chunk of that grid
# (bounded, and so skipped or evaluated, as one), points and rounds of the
# zoom on each shell that can still hold the sup
_SUP_COARSE, _CHUNK, _SUP_ZOOM, _SUP_ROUNDS = 256, 16, 17, 14
_OP_NODES = 33        # operator ambient: trapezoid (or p = inf) nodes per shell
# general route: Gauss-Legendre nodes per cell (the check takes half),
# and the kink count above which the folded domain is cut into _PANELS
# equal panels per piece instead (the check takes half as many)
_GL_RULE, _MAX_KINKS, _PANELS = 8, 1 << 15, 512
# the hypersingular sup's cutoffs, finest first, so that it wins a tie
_EPS_GRID = (0.01, 0.03, 0.1, 0.3)
# a run boundary of _tail_runs costs about as much as _RUN_COST offsets of
# the direct sum (a sine, a square root, an exponential and a dozen cheap
# passes, against a sine and four), and one call about _RUN_SETUP offsets
_RUN_COST, _RUN_SETUP = 2.5, 4096
_SPLIT = 134217729.0  # 2^27 + 1: splits a float into two 26-bit halves
_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class SeminormEstimate:
    value: float
    quadrature_error: float
    tail_bound: float
    parameters: dict


def _blocks(rows, width):
    """Slices covering range(rows) that keep a rows x width matrix block
    within _BLOCK elements.

    OpenBLAS sums the last rows of a product, past its last whole group of
    four, in another order, so where a row sits in its block can move its
    last bit: _BLOCK and the row order of every `@ wts` and `@ w` here fix
    the last bits of every Besov value.
    """
    step = max(1, _BLOCK // width)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _abs_sine(x, k):
    """|2 sin x|^k, formed in place of x."""
    np.sin(x, out=x)
    np.abs(x, out=x)
    x *= 2.0
    if k != 1:
        x **= k
    return x


@functools.cache
def _legendre(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (1.0 + x), 0.5 * w


def _cell_integrals(a, h, s, k, n, units):
    """int_a^{a+h} u^{-s-1} |2 sin pi u|^k du for each (a, h), n-point rule.

    Each interval lies in one cell [j, j+1] or [2^-i-1, 2^-i] on which the
    integrand is analytic.  The sine is taken at u - floor(a), whose
    magnitude stays at most 1 however far out the cell lies.  The first
    `units` intervals are whole unit cells, where u - floor(a) is the node
    itself, so they share one row of sines.
    """
    tau, wts = _legendre(n)
    unit = _abs_sine(np.pi * tau, k)
    out = np.empty(a.shape)
    for sl in _blocks(a.size, n):
        aa, hh = a[sl, None], h[sl, None]
        cut = min(max(units - sl.start, 0), aa.shape[0])
        f = np.empty((aa.shape[0], n))
        f[:cut] = unit
        f[cut:] = (aa[cut:] - np.floor(aa[cut:])) + hh[cut:] * tau
        _abs_sine(np.multiply(f[cut:], np.pi, out=f[cut:]), k)
        f *= (aa + hh * tau) ** (-s - 1.0)
        out[sl] = h[sl] * (f @ wts)
    return out


def _antiderivative(x, s, k):
    """F(x) = int_1^x u^{-s-1} |2 sin pi u|^k du at every x > 0.

    Gauss-Legendre on the unit cells [j, j+1] above 1 and the dyadic cells
    [2^-i-1, 2^-i] below it, summed cumulatively, plus one partial cell per
    point off those knots; an integer point reads F from its knot.  Returns
    (F, cells): F has one row per rule of _GL_NODES, the rows' difference
    the error estimate, and cells counts the cell integrals summed into F
    at each x, floor(x) - 1 unit cells above 1 or -e dyadic ones below it
    (x in [2^(e-1), 2^e)), and one partial cell.
    """
    x = np.asarray(x, dtype=float)
    below = x < 1.0
    e = np.frexp(x)[1]                     # x in [2^(e-1), 2^e)
    anchor = np.where(below, np.ldexp(1.0, e), np.floor(x))
    top = int(anchor[~below].max()) if (~below).any() else 1
    depth = int(-e[below].min()) if below.any() else 0
    starts = np.arange(1.0, top)           # [j, j+1], j = 1 .. top-1
    tops = np.ldexp(1.0, -np.arange(depth))  # [2^-i-1, 2^-i], walked down
    part = x != anchor
    a = np.concatenate([starts, tops, anchor[part]])
    h = np.concatenate([np.ones(starts.size), -0.5 * tops,
                        (x - anchor)[part]])
    # F at the anchors: 1, 2, .., top, then 2^0, 2^-1, .., 2^-depth
    knot = np.where(below, top - e, anchor - 1.0).astype(int)
    rows = []
    for n in _GL_NODES:
        ints = _cell_integrals(a, h, s, k, n, starts.size)
        up, down = np.split(ints[:starts.size + depth], [starts.size])
        knots = np.concatenate([[0.0], np.cumsum(up), [0.0], np.cumsum(down)])
        F = knots[knot]
        F[part] += ints[starts.size + depth:]
        rows.append(F)
    return np.array(rows), np.where(below, 1 - e, anchor)


def _direct_modulus(ts, ms, w, k):
    """g at each of the flat ts, one sine per point and offset, a block of
    ts at a time; _modulus passes u = dist(t, Z), where the angle pi m u
    rounds to eps of itself and not of pi m t."""
    out = np.zeros(ts.size)
    if ms.size:
        col, pm = ts.reshape(-1, 1), np.pi * ms
        for sl in _blocks(ts.size, ms.size):
            out[sl] = _abs_sine(pm * col[sl], k) @ w
    return out


def _modulus(ts, ms, w, k, geo=None):
    """g(t) = sum_m |2 sin pi m t|^k w(m) at every t, evaluated in blocks
    of ts.

    At k = 1 the geometric tail geo = (scale, rho, m0, M) of
    _offset_weights, w(m) = scale rho^m on m0 <= m <= M, is summed by its
    runs of constant sign (_tail_runs) at every t where that saves work:
    where its run boundaries, _RUN_COST offsets of the direct sum each,
    number fewer than the tail's offsets in ms, and only when the points
    together save more than the _RUN_SETUP offsets that the runs cost once
    per call.  The finite part, m < m0, stays a direct sum.  g is
    1-periodic and even, so every form is taken at u = dist(t, Z), which
    t - round(t) gives exactly.
    """
    ts = np.asarray(ts, dtype=float)
    u = np.abs(ts - np.round(ts)).ravel()
    if ms.size == 0 or geo is None or k != 1:
        return _direct_modulus(u, ms, w, k).reshape(ts.shape)
    sc, rho, m0, M = geo
    head = int(np.searchsorted(ms, m0))
    gain = (ms.size - head) - (np.floor(M * u) - np.floor(m0 * u)
                               + 2.0) * _RUN_COST
    runs = gain > 0
    if gain[runs].sum() <= _RUN_SETUP:
        return _direct_modulus(u, ms, w, k).reshape(ts.shape)
    out = np.empty(u.size)
    out[~runs] = _direct_modulus(u[~runs], ms, w, k)
    out[runs] = (_direct_modulus(u[runs], ms[:head], w[:head], k)
                 + _tail_runs(u[runs], sc, rho, m0, M))
    return out.reshape(ts.shape)


def _tail_runs(u, sc, rho, m0, M):
    """sum_{m0 <= m <= M} sc rho^m |2 sin pi m u| at each u in [0, 1/2].

    On the run R_j = {m : j <= m u < j + 1} the sign of sin pi m u is
    (-1)^j, so with z = rho e^{i pi u} the run [a, b] sums to
    2 sc (-1)^j Im[(z^a - z^(b+1)) / (1 - z)].  Over the runs j0 =
    floor(m0 u) .. J = floor(M u) this telescopes to
    2 sc Im[N (1 - conj z)] / |1 - z|^2, N = (-1)^j0 z^m0 - (-1)^J z^(M+1)
    + 2 sum_{j0 < j <= J} (-1)^j z^(a_j), a_j = ceil(j / u): one term per
    run boundary.  (-1)^j z^a = rho^a e^{i pi d}, d = a u - j, and
    Im[e^{i pi d} (1 - conj z)] = A sin pi d + B cos pi d with
    A = 1 - rho cos pi u and B = rho sin pi u, both >= 0.  At a boundary
    a_j, d lies in [0, u), so its term is a sum of two nonnegative parts
    and cos pi d = sqrt(1 - sin^2 pi d); d is formed from the halves of u
    (_SPLIT), exact but for a last rounding, as a_j u is within 1 of j.
    A boundary that the rounding of j / u moves by one offset only moves a
    term with |sin pi m u| within a few ulps of 0.  The points are taken
    in groups of at most _BLOCK / 4 boundaries, so that no array of a
    group, the four per-point columns repeated to its boundaries the
    largest, holds more than _BLOCK elements (a point with more boundaries
    alone, as a row of the direct sum would be).
    """
    half = np.sin(0.5 * np.pi * u)
    A = (1.0 - rho) + 2.0 * rho * half * half
    B = rho * np.sin(np.pi * u)
    c = _SPLIT * u
    hi = c - (c - u)
    lo = u - hi
    j0, J = np.floor(m0 * u), np.floor(M * u)
    # the first boundary m0 of run j0, less the end M + 1 read from run J
    a = np.array([[m0], [M + 1.0]])
    d = np.pi * ((a * hi - np.stack([j0, J])) + a * lo)
    ends = rho ** a * (A * np.sin(d) + B * np.cos(d))
    total = ends[0] - ends[1]
    count = (J - j0).astype(int)
    stop = np.cumsum(count)
    per_point = np.stack([u, hi, lo, j0 + 1.0])
    lr = math.log(rho)
    p = 0
    while p < u.size:
        q = max(p + 1, int(np.searchsorted(
            stop, stop[p] - count[p] + _BLOCK // 4, side="right")))
        pts = p + np.flatnonzero(count[p:q])
        p = q
        if not pts.size:
            continue
        n = count[pts]
        at = np.cumsum(n) - n
        uu, hh, ll, first = np.repeat(per_point[:, pts], n, axis=1)
        # boundary i of point p is j = j0 + 1 + i
        j = first + (np.arange(float(n.sum())) - np.repeat(at, n))
        a = np.ceil(j / uu)
        d = np.pi * ((a * hh - j) + a * ll)
        sin = np.sin(d)
        parts = np.exp(a * lr) * np.stack([sin, np.sqrt(1.0 - sin * sin)])
        sums = np.add.reduceat(parts, at, axis=1)
        total[pts] += 2.0 * (A[pts] * sums[0] + B[pts] * sums[1])
    den = (1.0 - rho) ** 2 + 4.0 * rho * half * half
    return 2.0 * sc * (total / den)


def _offset_weights(A):
    """Per-|m| reduced c0 profile w(m) = d(m) + d(-m) for m >= 1.

    Returns (ms, w, geo): ms runs up to the cut M, and geo = (scale, rho,
    m0, M) describes the geometric tail scale rho^m of the profile from
    offset m0 on, whose weights are w(m) = scale rho^m on m0 <= m <= M and
    whose mass beyond M is left out, or is None.  m0 > M when the finite
    part reaches past the cut.
    """
    prof = decay_profile(A)
    M = prof.tail_start - 1
    geo = None
    if prof.scale:
        M = max(M, int(math.log(_PROFILE_CUT) / math.log(prof.rho)) + 1, 1)
        geo = (prof.scale, prof.rho, max(prof.tail_start, 1), M)
    ms = np.arange(1, M + 1)
    w = prof.at(ms) + prof.at(-ms)
    keep = w > 0
    return ms[keep], w[keep], geo


def _moment(ms, w, r):
    """The homogeneous decay moment sum_m m^r w(m) of the reduced c0
    profile (ms, w) over m >= 1."""
    return float((ms.astype(float) ** r * w).sum())


def _difference_order(k):
    """k as an int; a ParameterError unless it is an integer in [1, 207)."""
    if not (float(k).is_integer() and 1 <= k < _MAX_ORDER):
        raise ParameterError(f"k must be an integer >= 1 and < {_MAX_ORDER}")
    return int(k)


def modulus_profile(A, ts, k, ambient="c0"):
    """||Delta_t^k A||_ambient for each t: the offset reduction in c0, one
    SVD of the section's difference per t in the operator ambient.

    k must be an integer >= 1 and every t finite; anything else is a
    ParameterError."""
    k = _difference_order(k)
    kind = normalize_ambient(ambient)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.isfinite(ts).all():
        raise ParameterError("modulus_profile needs a finite t")
    if kind == "operator":
        require_section(A, "the operator ambient")
        return np.array([operator_norm_l2(difference_power(A, float(t), k))
                         for t in ts])
    ms, w, geo = _offset_weights(A)
    return _modulus(ts, ms, w, k, geo)


def _tail_bounds(A, k, r, p, t_min, t_max, ambient):
    """Bound on the part outside [t_min, t_max], by ||Delta_t^k A|| <=
    (2 pi t)^k ||D^k A|| below t_min (in c0, which bounds the operator
    norm by the Schur test) and <= 2^k ||A|| above t_max; inf unless
    k > r, and where it overflows."""
    if k <= r:
        return math.inf
    amb = ambient_norm(A, ambient)
    log_near = (k * math.log(2 * math.pi) + dk_norm_log(A, k)
                + (k - r) * math.log(t_min))
    if p == math.inf:
        far = 2.0 ** k * amb * t_max ** (-r)
    else:
        far = 2.0 ** k * amb * (2.0 / (r * p)) ** (1.0 / p) * t_max ** (-r)
        log_near += math.log(2.0 / ((k - r) * p)) / p
    return exp_or_inf(log_near) + far


def besov_seminorm(A, p, r, k=None, ambient="c0", t_min=1e-6, t_max=4.0):
    """Phase-difference smoothness seminorm of order r, integrability p.

    The integral (covering both signs of t) runs over t_min <= |t| <= t_max;
    contributions outside are covered by tail_bound.  k defaults to
    floor(r)+1, the smallest order keeping the integral convergent at 0.
    The ambient is "c0" or "operator"; the operator ambient needs a
    section, and reads the whole of it.

    The route depends on the input.  p = 1 in the c0 ambient separates
    over offsets (one tabulated antiderivative); p = inf searches a log
    grid of the dyadic shells and zooms in on each shell's best point,
    skipping every chunk of a grid whose closed-form bound (_shell_bounds)
    falls below a value already found and every zoom that a slope bound
    (_slope_bounds) keeps below it, and parameters["shells_searched"] holds
    (shells zoomed, total); other p fold the integral onto u in [0, 1/2]
    and take a fixed Gauss-Legendre rule on cells free of kinks (equal
    panels when the kinks are too many), and parameters["cells"] holds the
    number of cells; the operator ambient takes a trapezoid rule over
    window singular values, or at p = inf their best node, with the shells
    pruned by the same bound, and parameters["shells_searched"] holds
    (shells searched, total).  At p = inf parameters["points"] counts the
    t at which the modulus was evaluated.  quadrature_error is each
    route's own estimate: the difference from a coarser rule, or the
    zoom's gain for p = inf in c0; at p = inf in the operator ambient it
    is a bound, the largest of each searched shell's best node plus its
    slope bound times half its widest node gap, less the value.

    r must be finite and positive, k an integer in [1, 207), and t_min,
    t_max finite with 0 < t_min < t_max; anything else is a ParameterError.
    """
    k = _seminorm_order(p, r, k, t_min, t_max)
    kind = normalize_ambient(ambient)
    edges = _shell_edges(t_min, t_max)
    searched = cells = None

    if kind == "operator":
        require_section(A, "the operator ambient")
        if p == math.inf:
            # ||Delta_t^k A||_op is at most sum_m |2 sin pi m t|^k d(m) by
            # the Schur test, the c0 modulus of the section whose singular
            # values the route takes
            ms, w, _ = _offset_weights(A)
            value, qerr, searched = _operator_sup(A, r, k, edges, ms, w)
            points = _OP_NODES * searched
        else:
            value, qerr = _operator_route(A, p, r, k, edges)
    else:
        ms, w, geo = _offset_weights(A)
        if p == 1:
            [(value, qerr)] = _separable_p1([(ms, w)], r, k, t_min, t_max)
        elif p == math.inf:
            value, qerr, searched, points = _sup_search(ms, w, k, edges, r,
                                                        geo)
        else:
            value, qerr, cells = _cell_route(ms, w, k, edges, r, p, geo)

    tail = _tail_bounds(A, k, r, p, t_min, t_max, ambient)
    params = {"p": p, "r": r, "k": k, "ambient": ambient,
              "t_min": t_min, "t_max": t_max}
    if searched is not None:
        params["shells_searched"] = (searched, edges.size - 1)
        params["points"] = points
    if cells is not None:
        params["cells"] = cells
    return SeminormEstimate(value=value, quadrature_error=qerr,
                            tail_bound=tail, parameters=params)


def _seminorm_order(p, r, k, t_min, t_max):
    """besov_seminorm's argument checks; returns the difference order k,
    floor(r) + 1 when k is None."""
    if not (math.isfinite(r) and r > 0):
        raise ParameterError("besov_seminorm needs a finite r > 0")
    if not (p == math.inf or p >= 1):
        raise ParameterError("p must be in [1, inf]")
    if not 0 < t_min < t_max < math.inf:
        raise ParameterError("need a finite 0 < t_min < t_max")
    return _difference_order(math.floor(r) + 1 if k is None else k)


def _shell_edges(t_min, t_max):
    edges = [t_max]
    while edges[-1] / 2.0 > t_min:
        edges.append(edges[-1] / 2.0)
    edges.append(t_min)
    return np.array(edges[::-1])


def _separable_p1(profiles, r, k, t_min, t_max):
    """p = 1, c0 ambient: g is linear in w, so the integral is
    2 sum_m w(m) m^r [F(m t_max) - F(m t_min)], F = _antiderivative(., r, k),
    for each reduced profile (ms, w) of a family, all read from one F on
    the union of their offsets.

    The error is the difference from the half-node rule plus the
    worst-case rounding of the sums: eps per cell summed into F and per
    offset, times the sum of the magnitudes.  Returns (value, error) per
    profile; an empty profile reads (0.0, 0.0).
    """
    union = np.unique(np.concatenate([ms for ms, _ in profiles]))
    F, cells = _antiderivative(np.concatenate([union * t_max, union * t_min]),
                               r, k)
    hi, lo = np.split(F, 2, axis=1)
    cells_hi, cells_lo = np.split(cells, 2)
    # np.take keeps rows contiguous, as the product's summation order needs
    diff, size = hi - lo, np.abs(hi[0]) + np.abs(lo[0])
    out = []
    for ms, w in profiles:
        if ms.size == 0:
            out.append((0.0, 0.0))
            continue
        at = np.searchsorted(union, ms)
        c = w * ms.astype(float) ** r
        vals = 2.0 * (np.take(diff, at, axis=1) @ c)
        # F's cell count grows with x above 1 and falls with it below 1
        most = max(cells_hi[at[-1]], cells_lo[at[0]])
        err = (abs(vals[1] - vals[0])
               + _EPS * (most + ms.size) * 2.0 * (size[at] @ c))
        out.append((float(vals[0]), float(err)))
    return out


def _slack(ms, k, r):
    """1 + 4 (M + k + r + 4) eps, M = ms.size: covers the rounding of a
    bound's sum and of g computed at a point a few ulps outside its interval
    (r is in it because a grid point can sit a few ulps below a).

    It covers g summed by runs of constant sign (_tail_runs) too.  There
    every term of the telescoped sum is a sum of two nonnegative products,
    each within a few ulps, but the last, below the profile cut, and the
    first, whose products cancel only where the tail starts past the
    middle of a run, and then by at most about 1 / gamma = M / 41 (rho =
    e^-gamma, cut at rho^M = 1e-18) against the runs that follow.  So the
    runs are within a few ulps per run boundary, plus M / 41, of g, and
    _modulus takes them only where their boundaries number fewer than M
    / _RUN_COST.  The search's pruning rests on this: no value computed
    on an interval exceeds its bound.
    """
    return 1.0 + 4.0 * (ms.size + k + r + 4) * np.finfo(float).eps


def _capped_sums(ms, w, a, b, e, j, q):
    """a^-e sum_m m^j min(2, 2 pi m b)^q w(m) on every [a, b].

    ms is increasing, so the offsets with 2 pi m b < 2 are a prefix: the
    sum is (2 pi b)^q times a prefix sum of m^(j+q) w, plus 2^q times a
    suffix sum of m^j w.  An offset that the rounding of 1/(pi b) puts on
    the wrong side only raises the result.  It is formed in logs, so no
    power of m, b or a overflows on the way, and a result past float range
    reads inf.  Its log is raised by (2M + 16) eps times
    2 + q + log(1 + M) + the largest |log| of a term + |log (2 pi b)^q|
    + |log a^e|, M = ms.size: more than the rounding of the logs and of
    the log-sum-exp's M steps, each within eps of its value plus 2 eps.
    """
    m = ms.astype(float)
    lm, lw = np.log(m), np.log(w)
    acc = np.logaddexp.accumulate
    low = np.append(-np.inf, acc((j + q) * lm + lw))
    high = np.append(acc((j * lm + lw)[::-1])[::-1], -np.inf)
    n = np.searchsorted(m, 1.0 / (np.pi * b))
    lb, la = q * np.log(2.0 * np.pi * b), e * np.log(a)
    lo, hi = lb - la + low[n], q * _LOG2 - la + high[n]
    top = np.logaddexp(lo, hi)
    size = 2.0 + q + math.log1p(m.size) + float(
        np.max((j + q) * lm + np.abs(lw), initial=0.0))
    top += (2 * m.size + 16) * _EPS * (size + np.abs(lb) + np.abs(la))
    return np.where(top > LOG_MAX, np.inf, np.exp(np.minimum(top, LOG_MAX)))


def _shell_bounds(ms, w, k, a, b, r):
    """Upper bound on t^-r g(t) over each interval [a, b], a and b arrays of
    one shape: a^-r sum_m min(2, 2 pi m b)^k w(m) (_capped_sums), since
    |2 sin pi m t| <= min(2, 2 pi m t) and t^-r <= a^-r there.  The _slack
    factor covers the rounding, so no value _sup_search computes on an
    interval exceeds its bound.
    """
    return _capped_sums(ms, w, a, b, r, 0, k) * _slack(ms, k, r)


def _slope_bounds(ms, w, k, a, b, r):
    """Lipschitz constant of t^-r g(t) on each interval [a, b]:
    r a^(-r-1) sum_m min(2, 2 pi m b)^k w(m)
    + a^-r sum_m 2 pi k m min(2, 2 pi m b)^(k-1) w(m) (_capped_sums), since
    |2 sin pi m t|^k has slope at most 2 pi k m |2 sin pi m t|^(k-1);
    times _slack.
    """
    value = _capped_sums(ms, w, a, b, r + 1.0, 0, k)
    slope = 2.0 * np.pi * k * _capped_sums(ms, w, a, b, r, 1, k - 1)
    return (r * value + slope) * _slack(ms, k, r)


def _sup_search(ms, w, k, edges, r, geo=None):
    """sup of t^-r g(t) over the shells: argmax on a log grid of a shell,
    then rounds of zooming in on a finer grid around it.

    Only the points that can still hold the sup are evaluated.  Each
    shell's grid is cut into chunks of _CHUNK points, bounded by
    _shell_bounds on their ends: the chunk with the largest bound is
    evaluated first, then every chunk whose bound reaches the best value
    found, until no bound does.  A shell is zoomed only when M + L d / 2
    reaches the best grid value, M the largest of its values and its
    unevaluated chunks' bounds, L its _slope_bounds and d its widest grid
    step (every zoom point lies within d / 2 of a grid point), times _slack,
    since a computed zoom value can exceed the exact one by a few ulps.
    Its remaining chunks are evaluated first, so the zoom starts from the
    argmax of its whole grid.  Every point left out lies below a value
    found, so the winning shell, its grid value and its zoom are those of a
    search over every shell.  The error is the gain of the zoom over the
    grid, in the winning shell.  Returns (value, error, shells zoomed,
    points at which g was evaluated); an empty profile (g = 0) is not
    searched.
    """
    if ms.size == 0:
        return 0.0, 0.0, 0, 0

    def h(ts):
        return ts ** (-r) * _modulus(ts, ms, w, k, geo)

    ts = np.exp(np.linspace(np.log(edges[:-1]), np.log(edges[1:]),
                            _SUP_COARSE, axis=1))
    chunks = ts.reshape(ts.shape[0], -1, _CHUNK)
    bound = _shell_bounds(ms, w, k, chunks[..., 0], chunks[..., -1], r)
    vals = np.zeros(chunks.shape)
    done = np.zeros(bound.shape, dtype=bool)
    pick = done.copy()
    pick.flat[bound.argmax()] = True
    peak = 0.0
    while pick.any():
        vals[pick] = h(chunks[pick])
        done |= pick
        peak = max(peak, float(vals[pick].max()))
        pick = ~done & (bound >= peak)
    top = np.where(done[..., None], vals, bound[..., None]).max(axis=(1, 2))
    slope = _slope_bounds(ms, w, k, edges[:-1], edges[1:], r)
    reach = (top + slope * (ts[:, -1] - ts[:, -2]) / 2.0) * _slack(ms, k, r)
    live = np.flatnonzero(reach >= peak)
    pick[live] = ~done[live]
    vals[pick] = h(chunks[pick])
    points = _CHUNK * int((done | pick).sum())
    ts, vals = ts[live], vals[live].reshape(live.size, -1)
    rows = np.arange(live.size)
    i = vals.argmax(axis=1)
    coarse = vals[rows, i]
    best = coarse
    lo = ts[rows, np.maximum(i - 1, 0)]
    hi = ts[rows, np.minimum(i + 1, _SUP_COARSE - 1)]
    # np.linspace(lo, hi, _SUP_ZOOM, axis=1), bit for bit
    frac = np.arange(float(_SUP_ZOOM))
    for _ in range(_SUP_ROUNDS):
        pts = frac * ((hi - lo) / (_SUP_ZOOM - 1))[:, None] + lo[:, None]
        pts[:, -1] = hi
        vals = h(pts)
        points += vals.size
        j = vals.argmax(axis=1)
        best = np.maximum(best, vals[rows, j])
        lo = pts[rows, np.maximum(j - 1, 0)]
        hi = pts[rows, np.minimum(j + 1, _SUP_ZOOM - 1)]
    win = int(best.argmax())
    return float(best[win]), float(best[win] - coarse[win]), live.size, points


def _kink_cells(edges, ms):
    """The edges together with every kink j/m (m in ms) strictly inside
    [edges[0], edges[-1]], sorted and merged, or None when there are more
    than _MAX_KINKS kinks (a point shared by several offsets counted once
    per offset).

    The points j/(2M), M = max(ms), are cut too: with them no cell spans
    more than half a hump of the fastest term, where _GL_RULE nodes reach
    roundoff.
    """
    lo, hi = edges[0], edges[-1]
    ms = np.append(ms, 2 * ms[-1])
    first = np.floor(ms * lo) + 1.0
    counts = np.maximum(np.ceil(ms * hi) - first, 0.0).astype(int)
    if counts.sum() > _MAX_KINKS:
        return None
    starts = np.cumsum(counts) - counts
    rank = np.arange(counts.sum()) - np.repeat(starts, counts)
    kinks = (np.repeat(first, counts) + rank) / np.repeat(ms, counts)
    kinks = kinks[(kinks > lo) & (kinks < hi)]
    return np.unique(np.concatenate([edges, kinks]))


def _folded_edges(shells):
    """The cut points of the folded domain.

    u = dist(t, Z) maps [t_min, t_max] onto one interval [lo, hi] of
    [0, 1/2], the support of the kernel K.  It is cut at the images
    dist(e, Z) of the shell edges e: at t_min and t_max an image of u
    enters or leaves the range, the edges below 1/2 keep the steep kernel
    near t_min resolved, and those above keep the images j - u and j + u
    resolved where the kinks are sparse.
    """
    t_min, t_max = shells[0], shells[-1]
    pts = np.abs(shells - np.round(shells))
    if math.floor(t_max) >= t_min:          # an integer t: u = 0
        pts = np.append(pts, 0.0)
    if math.floor(t_max - 0.5) + 0.5 >= t_min:  # a half-integer: u = 1/2
        pts = np.append(pts, 0.5)
    return np.unique(pts)


def _fold_kernel(u, t_min, t_max, e):
    """K(u) = sum of t^e over the images t = j + u, j - u (j >= 0) of u
    that lie in [t_min, t_max]."""
    K = np.zeros(u.shape)
    for j in range(math.floor(t_max + 0.5) + 1):
        for t in (j + u, j - u):
            inside = (t >= t_min) & (t <= t_max)
            K[inside] += t[inside] ** e
    return K


def _rule_on_cells(edges, f, n):
    """The n-node Gauss-Legendre rule for int f(u) du on each cell between
    consecutive edges."""
    tau, wts = _legendre(n)
    h = np.diff(edges)
    us = edges[:-1, None] + h[:, None] * tau
    return h * (f(us) @ wts)


def _cell_route(ms, w, k, shells, r, p, geo=None):
    """Finite p other than 1, where g enters the integrand nonlinearly,
    folded onto u in [0, 1/2].

    g is 1-periodic and even, so int_{t_min}^{t_max} t^(-rp-1) g(t)^p dt
    is int K(u) g(u)^p du over _folded_edges, with K = _fold_kernel.  The
    cells are cut at the kinks j/m of |2 sin pi m u|^k, so the integrand
    is analytic on each (on the cell at u = 0 only for integer kp, as
    g^p ~ u^(kp) there); the value is the _GL_RULE-node rule per cell, and
    the error the sum over cells of its difference from the half-node rule.
    Above _MAX_KINKS kinks each piece of the folded domain is cut into
    _PANELS equal panels instead, and the error is the sum over pairs of
    panels of the difference from one panel spanning the pair.  Either
    error also counts the worst-case rounding of the sum over the cells,
    eps per cell, which is all that is left where the two rules agree to
    the last bit.  Returns (value, error, number of cells).
    """
    if ms.size == 0:
        return 0.0, 0.0, 0
    t_min, t_max = shells[0], shells[-1]

    def integrand(u):
        return (_fold_kernel(u, t_min, t_max, -r * p - 1.0)
                * _modulus(u, ms, w, k, geo) ** p)

    base = _folded_edges(shells)
    cells = _kink_cells(base, ms)
    if cells is None:
        panels = np.linspace(base[:-1], base[1:], _PANELS + 1, axis=1)
        cells = np.append(panels[:, :-1].ravel(), base[-1])
        coarse = _rule_on_cells(cells[::2], integrand, _GL_RULE)
    else:
        coarse = _rule_on_cells(cells, integrand, _GL_RULE // 2)
    fine = _rule_on_cells(cells, integrand, _GL_RULE)
    total = 2.0 * float(fine.sum())
    err = (2.0 * float(np.abs(fine.reshape(coarse.size, -1).sum(axis=1)
                              - coarse).sum())
           + np.finfo(float).eps * fine.size * total)
    value = total ** (1.0 / p)
    return value, (total + err) ** (1.0 / p) - value, fine.size


def _operator_sup(A, r, k, edges, ms, w):
    """p = inf in the operator ambient: the best of _OP_NODES log-spaced
    nodes per shell, one window SVD each.

    By the Schur test, the operator norm of Delta_t^k A and of its
    derivative in t are at most the c0 sums of the window's profile
    (ms, w), so _shell_bounds bounds t^-r ||Delta_t^k A|| on each shell and
    _slope_bounds its Lipschitz constant; a further factor 1 + 4 n eps
    covers the rounding of the SVD.  Shells are visited in decreasing order
    of their bound, the visit stops at the first bound below the best
    value, and ties go to the lower shell, so the result is that of a visit
    of every shell.  Every t of a visited shell s lies within d_s / 2 of a
    node, d_s the widest gap between its nodes, so the sup there is at most
    min(bound, (its best node + slope d_s / 2) (1 + 4 n eps)); the error
    is the largest of these less the value, and every shell left out is
    below the value.  Returns (value, error, shells searched).
    """
    slack = 1.0 + 4.0 * A.n * np.finfo(float).eps
    bound = _shell_bounds(ms, w, k, edges[:-1], edges[1:], r) * slack
    slope = _slope_bounds(ms, w, k, edges[:-1], edges[1:], r)
    best, top, win, searched = 0.0, 0.0, edges.size, 0
    for s in np.argsort(-bound, kind="stable"):
        if bound[s] < best:
            break
        searched += 1
        ts = np.exp(np.linspace(math.log(edges[s]), math.log(edges[s + 1]),
                                _OP_NODES))
        gs = modulus_profile(A, ts, k, "operator")
        vals = np.array([t ** (-r) * g for t, g in zip(ts, gs)])
        i = int(np.argmax(vals))
        if vals[i] > best or (vals[i] == best and s < win):
            best, win = float(vals[i]), s
        reach = (vals[i] + slope[s] * np.diff(ts).max() / 2.0) * slack
        top = max(top, float(min(bound[s], reach)))
    return best, top - best, searched


def _operator_route(A, p, r, k, edges):
    """Finite p in the operator ambient: the trapezoid rule on _OP_NODES
    log-spaced nodes per shell, one window SVD each; the error is the
    difference from every other node."""
    total = 0.0
    total_half = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        ts = np.exp(np.linspace(math.log(a), math.log(b), _OP_NODES))
        gs = modulus_profile(A, ts, k, "operator")
        fs = np.array([t ** (-r * p - 1.0) * g ** p for t, g in zip(ts, gs)])
        total += _trapz(fs, ts)
        total_half += _trapz(fs[::2], ts[::2])
    total *= 2.0
    total_half *= 2.0
    value = total ** (1.0 / p)
    qerr = abs(value - total_half ** (1.0 / p))
    return value, qerr


def _j_multipliers(ms, eps, r):
    """J_m(eps) = 2 int_eps^1 (cos 2 pi m t - 1) t^-r dt for every eps
    (rows) and m >= 1 (columns), with the error of _separable_p1: the
    difference from the half-node rule plus eps per cell summed into F.

    2 (cos 2 pi u - 1) = -|2 sin pi u|^2, so with u = m t
    J_m(eps) = -m^(r-1) [F(m) - F(m eps)], F = _antiderivative(., r-1, 2).
    """
    ms = np.asarray(ms, dtype=float)
    eps = np.asarray(eps, dtype=float)
    x = np.concatenate([ms, np.outer(eps, ms).ravel()])
    F, cells = _antiderivative(x, r - 1.0, 2)
    F = F.reshape(len(_GL_NODES), eps.size + 1, ms.size)
    cells = cells.reshape(eps.size + 1, ms.size)
    scale = ms ** (r - 1.0)
    J = -scale * (F[:, :1] - F[:, 1:])
    size = scale * (np.abs(F[0, :1]) + np.abs(F[0, 1:]))
    return J[0], np.abs(J[1] - J[0]) + _EPS * (cells[:1] + cells[1:]) * size


def _j_cap(eps, r):
    """Upper bound for |J_m(eps)| uniform in m."""
    if r < 1.0:
        return 4.0 / (1.0 - r)
    if r == 1.0:
        return 4.0 * math.log(1.0 / eps)
    return 4.0 * eps ** (1.0 - r) / (r - 1.0)


def hypersingular_seminorm(A, r, ambient="c0"):
    """sup over _EPS_GRID of || int_{eps<=|t|<=1} Delta_t(A) |t|^-r dt ||.

    The inner integral acts entrywise: offset m picks up the real factor
    J_m(eps) = 2 int_eps^1 (cos 2 pi m t - 1) t^-r dt, on every offset of
    the reduced profile w(m) = d(m) + d(-m) (in the operator ambient, the
    section's; it is 0 elsewhere).  |J_m(eps)| falls as eps grows, so in
    the c0 ambient, where the norm is the sum over m of |J_m(eps)| w(m),
    the sup is the value at the finest cutoff, first in _EPS_GRID, and only
    it is computed.  The operator norm is not monotone in eps, so that
    ambient takes every cutoff of the grid, the first strict maximum
    winning.  In both ambients the error is sum_m err_m w(m) over the
    multipliers' errors err_m, which in the operator ambient bounds the
    norm of the error's multiplier by the Schur test, plus the mass of a
    geometric tail cut off the profile times its bound on |J_m(eps)|.
    """
    if not 0 < r < 2:
        raise ParameterError("hypersingular_seminorm needs 0 < r < 2")
    kind = normalize_ambient(ambient)
    if kind == "operator":
        require_section(A, "the operator ambient")
    ms, w, geo = _offset_weights(A)
    grid = _EPS_GRID if kind == "operator" else _EPS_GRID[:1]
    J, Jerr = _j_multipliers(ms, grid, r)
    # the mass of the geometric tail past the cut M, left out of w
    mass = banded_error(A, geo[3]) if geo else 0.0
    best, best_err, best_eps = 0.0, 0.0, _EPS_GRID[0]
    # no offset (a diagonal A, or a 1 x 1 window) leaves the seminorm at 0
    for row, eps in enumerate(grid if ms.size else ()):
        if kind == "operator":
            factor = np.zeros(A.n)
            factor[ms] = J[row]
            tot = operator_norm_l2(
                offset_multiplier(A, lambda offs: factor[np.abs(offs)]))
        else:
            tot = float((np.abs(J[row]) * w).sum())
        err = float((Jerr[row] * w).sum()) + mass * _j_cap(eps, r)
        if tot > best:
            best, best_err, best_eps = tot, err, eps
    return SeminormEstimate(best, best_err, 0.0,
                            {"p": "sup", "r": r, "k": 1, "eps": best_eps,
                             "ambient": ambient})


def identification_rate_check(family, r, t_min=1e-6, t_max=4.0):
    """The p = 1 Besov seminorm, at the default order floor(r) + 1, against
    the matching homogeneous decay moment sum_m |m|^r w(m), both in the c0
    ambient.

    Returns a row per member, in the family's order, and the drift max/min
    of the ratios, which the offset reduction predicts to be
    family-constant.  The whole family's seminorms come from one
    antiderivative (_separable_p1), each within rounding of
    besov_seminorm's and with no tail bound, which no row reads.
    """
    k = _seminorm_order(1, r, None, t_min, t_max)
    profiles = [_offset_weights(A)[:2] for A in family]
    moments = [_moment(ms, w, r) for ms, w in profiles]
    ests = _separable_p1(profiles, r, k, t_min, t_max) if profiles else []
    rows = []
    for mom, (value, qerr) in zip(moments, ests):
        ratio = value / mom if mom > 0 else math.nan
        rows.append({"moment": mom, "seminorm": value,
                     "quadrature_error": qerr, "ratio": ratio})
    ratios = [row["ratio"] for row in rows if math.isfinite(row["ratio"])]
    drift = max(ratios) / min(ratios) if ratios else math.nan
    return {"rows": rows, "drift": drift}
