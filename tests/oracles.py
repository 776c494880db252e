"""Reference implementations that the tests check the package against.

These are the paper's literal formulas: sums over ordered compositions
with multinomial weights, the binomial expansion of the difference
power, and the offset multiplier entry by entry; the quotient-rule
verifier one order at a time; a Besov integral by adaptive quad on the
cells between its kinks, or by the fixed kink-cell rule on [t_min, t_max]
itself; the p = inf grid-and-zoom search on every dyadic shell; the
hypersingular sup over every cutoff; and the norm of D^k A one order at
a time.  The package evaluates the same
quantities by cheaper routes (first-part recurrences, one pass up to the
top order, a closed entrywise factor, one offset table, a closed form,
one fixed rule per cell, the integral folded onto [0, 1/2], a search of
only the shells a closed-form bound cannot rule out, one row of sines
shared by the unit cells of an antiderivative, a block of derivation
orders at once, one recurrence over the orders for the sums of a
geometric tail, rescaled only at the edges of a band, a Dales-Davie
sum that reads each order once, and the finest cutoff alone), so nothing
here is imported from src but the Besov block layout, whose row
positions fix the last bits of a product, the decay profile and the
exact argmax of a tail, which the per-order derivation norms must match
bit for bit, the one-order derivation norm with the Dales-Davie stop
rule's constants, which the per-order Dales-Davie sum reads, and the
reduced profile, multipliers and tail mass of the hypersingular sup,
which its finest cutoff must match bit for bit; a tail's sums are
checked against 50-digit mpmath values.
pytest does not collect this module.
"""

import functools
import itertools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln

from decayinv import (LatticeMatrix, ParameterError, apply_automorphism,
                      derivation_power, difference_power, operator_norm_l2)
from decayinv.besov import (_blocks, _dropped_mass, _j_cap, _j_multipliers,
                            _offset_weights)
from decayinv.norms import (_DD_BLOCK, _DD_KCAP, _DD_TOL, DalesDavieValue,
                            decay_profile, dk_norm_log, normalize_ambient)
from decayinv.weights import poly_geometric_max


def compositions(k, m):
    """Ordered tuples of m positive integers summing to k.

    There are binom(k-1, m-1) of them.
    """
    if m < 1:
        raise ParameterError("compositions need m >= 1")
    if k < m:
        return []
    out = []
    for cuts in itertools.combinations(range(1, k), m - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(k - prev)
        out.append(tuple(parts))
    return out


def multinomial(k, parts):
    if sum(parts) != k:
        raise ParameterError("parts must sum to k")
    v = math.factorial(k)
    for p in parts:
        v //= math.factorial(p)
    return v


def derivation_quotient_literal(A, Ainv, k):
    """D^k(A^{-1}) as the composition sum

    sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k} k!/(k_1! ... k_m!) *
        A^{-1} D^{k_1}(A) A^{-1} D^{k_2}(A) ... A^{-1} D^{k_m}(A) A^{-1}
    """
    inv = Ainv.entries
    dpow = {j: derivation_power(A, j).entries for j in range(1, k + 1)}
    acc = np.zeros_like(inv)
    for m in range(1, k + 1):
        for parts in compositions(k, m):
            prod = inv
            for kj in parts:
                prod = prod @ dpow[kj] @ inv
            acc = acc + (-1) ** m * multinomial(k, parts) * prod
    return acc


def difference_quotient_literal(A, Ainv, t, k):
    """Delta_t^k(A^{-1}) as the composition sum

    psi_{kt}(A^{-1}) sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k}
        k!/(k_1! ... k_m!) prod_{j=1..m} psi_{(k - k_1 - ... - k_j) t}( Delta_t^{k_j}(A) A^{-1} )

    The product is taken left to right; the last factor carries no shift.
    """
    inv = Ainv.entries
    n = A.n
    blocks = {j: LatticeMatrix(A.window, difference_power(A, t, j).entries @ inv)
              for j in range(1, k + 1)}
    acc = np.zeros((n, n), dtype=complex)
    for m in range(1, k + 1):
        for parts in compositions(k, m):
            prod = np.eye(n, dtype=complex)
            run = 0
            for kj in parts:
                run += kj
                prod = prod @ apply_automorphism(blocks[kj], (k - run) * t).entries
            acc = acc + (-1) ** m * multinomial(k, parts) * prod
    return apply_automorphism(Ainv, k * t).entries @ acc


def _derivation_quotient_order(A, Ainv, k):
    """D^k(A^{-1}) by the X_j recurrence, rebuilt from X_0 for this k."""
    inv = Ainv.entries
    dpow = {i: derivation_power(A, i).entries for i in range(1, k + 1)}
    X = [inv]
    for j in range(1, k + 1):
        acc = sum(math.comb(j, i) * (dpow[i] @ X[j - i])
                  for i in range(1, j + 1))
        X.append(-(inv @ acc))
    return X[k]


def _difference_product_order(A, B, t, k):
    """Delta_t^k(AB) by the twisted Leibniz rule, every factor rebuilt."""
    acc = np.zeros((A.n, A.n), dtype=complex)
    for l in range(0, k + 1):
        left = apply_automorphism(difference_power(A, t, l), (k - l) * t).entries
        right = difference_power(B, t, k - l).entries
        acc = acc + math.comb(k, l) * (left @ right)
    return acc


def _difference_quotient_order(A, Ainv, t, k):
    """Delta_t^k(A^{-1}) by the T_j recurrence, rebuilt from T_0 for this k."""
    inv = Ainv.entries
    blocks = {i: LatticeMatrix(A.window, difference_power(A, t, i).entries @ inv)
              for i in range(1, k + 1)}
    T = [np.eye(A.n, dtype=complex)]
    for j in range(1, k + 1):
        acc = sum(math.comb(j, i)
                  * (apply_automorphism(blocks[i], (j - i) * t).entries @ T[j - i])
                  for i in range(1, j + 1))
        T.append(-acc)
    return apply_automorphism(Ainv, k * t).entries @ T[k]


def verify_identity_per_order(A, identity, k, t=None, B=None, Ainv=None,
                              margin=0):
    """One identity at one order, with every difference power, recurrence
    and phase-shifted factor rebuilt for this (k, t), compared on
    copies of the margin-shrunk window."""
    if identity == "difference_product":
        lhs = difference_power(
            LatticeMatrix(A.window, A.entries @ B.entries), t,
            k).entries
        rhs = _difference_product_order(A, B, t, k)
    elif identity == "derivation_quotient":
        lhs = derivation_power(Ainv, k).entries
        rhs = _derivation_quotient_order(A, Ainv, k)
    elif identity == "difference_quotient":
        lhs = difference_power(Ainv, t, k).entries
        rhs = _difference_quotient_order(A, Ainv, t, k)
    else:
        lhs = _difference_product_order(A, Ainv, t, k)
        rhs = np.zeros_like(lhs)
    inner = slice(margin, A.n - margin)
    li = lhs[inner, inner].copy()
    ri = rhs[inner, inner].copy()
    max_abs = float(np.abs(li - ri).max())
    scale = float(max(np.abs(li).max(), np.abs(ri).max()))
    if identity == "telescoping":
        scale = float(max(np.abs(A.entries).max(), np.abs(Ainv.entries).max()))
    rel = max_abs / scale if scale > 0 else 0.0
    return {"identity": identity, "k": k, "t": t, "max_abs_err": max_abs,
            "scale": scale, "max_rel_err": rel}


def quotient_rows_per_order(A, B, Ainv, kmax, t_values, margin):
    """The quotient-verify rows of one instance, one verifier call per
    (identity, k, t), in the order the runner writes them."""
    rows = []
    for k in range(1, kmax + 1):
        rows.append(verify_identity_per_order(
            A, "derivation_quotient", k, Ainv=Ainv, margin=margin))
        for t in t_values:
            for name in ("difference_product", "difference_quotient",
                         "telescoping"):
                rows.append(verify_identity_per_order(
                    A, name, k, t=t, B=B, Ainv=Ainv, margin=margin))
    return rows


def _offsets(window):
    """The n x n matrix of offsets k - l on the window."""
    idx = window.indices()
    return idx[:, None] - idx[None, :]


def offset_multiplier_entrywise(A, f):
    """Entries of the Schur multiplier by f, with f called on the full
    n x n offset matrix: f(k - l) A(k, l)."""
    return f(_offsets(A.window)) * A.entries


def difference_power_binomial(A, t, k):
    """Entries of (psi_t - id)^k A expanded as
    sum_j binom(k,j) (-1)^{k-j} psi_{jt}(A)."""
    out = np.zeros_like(A.entries)
    offs = _offsets(A.window)
    for j in range(k + 1):
        term = math.comb(k, j) * (-1) ** (k - j)
        out += term * np.exp(2j * np.pi * offs * (j * t)) * A.entries
    return out


def a_m_bruteforce(seq, m, kmax=15):
    """A_m from the definition: sup over orders k <= kmax and ordered
    compositions of k into m parts of (k!/M_k) prod M_{k_j}/k_j!, m-th root."""
    if m < 1:
        raise ParameterError("a_m needs m >= 1")
    hard = seq.kmax
    cap = min(kmax, hard) if hard is not None else kmax
    if cap < m:
        raise ParameterError(f"kmax {kmax} too small for m = {m}")
    best = float("-inf")
    for k in range(m, cap + 1):
        base = float(gammaln(k + 1)) - seq.log_Ms([k])[0]
        for parts in compositions(k, m):
            t = base
            for kj in parts:
                t += seq.log_Ms([kj])[0] - float(gammaln(kj + 1))
            if t > best:
                best = t
    return math.exp(best / m)


def dk_norm_log_per_order(A, k, ambient="c0", margin=0):
    """log of the ambient norm of D^k A, -inf when it is zero, one order at
    a time: sum_m |m|^k d(m) (max_m |m|^k (1+|m|)^s d(m) for jaffard) by its
    own log-sum-exp (or max) over the offsets where d > 0, with 0^0 = 1, and
    a geometric tail's sum from log_power_tails (its max from the exact
    argmax)."""
    kind, s = normalize_ambient(ambient)
    if kind == "operator":
        A.window.shrink(margin)
        M = derivation_power(A, k).entries
        top = np.abs(M).max()
        if top == 0.0:
            return -math.inf
        v = operator_norm_l2(LatticeMatrix(A.window, M / top))
        return math.log(top) + (math.log(v) if v > 0 else -math.inf)
    prof = decay_profile(A, margin)
    jaffard = kind == "jaffard"
    mask = prof.d > 0
    om = np.abs(prof.offsets[mask]).astype(float)
    logs = np.log(prof.d[mask]) + k * np.log(np.maximum(om, 1.0))
    if k > 0:
        logs[om == 0] = -math.inf
    if jaffard:
        logs = logs + s * np.log1p(om)
    if prof.scale:
        if jaffard:
            tail, _ = poly_geometric_max(k, s, prof.rho, prof.tail_start)
        else:
            tail, = log_power_tails(prof.rho, prof.tail_start, [k])
        logs = np.append(logs, math.log(prof.scale) + tail)
    top = float(logs.max(initial=-math.inf))
    if jaffard or top == -math.inf:
        return top
    return top + math.log(np.exp(logs - top).sum())


def dales_davie_per_order(A, seq, ambient="c0", margin=0):
    """sum_k ||D^k A|| / M_k with norms.dales_davie_norm's stop rule, each
    order read by its own dk_norm_log call (a tail's recurrence rerun from
    order 0 every time); dk_logs runs to the end of the block of _DD_BLOCK
    orders (one order in the operator ambient) that holds the last term."""
    hard = seq.kmax
    last = hard if hard is not None else _DD_KCAP
    total_log, quiet, dk_logs = -math.inf, 0, []
    for k in range(last + 1):
        dk_logs.append(dk_norm_log(A, k, ambient, margin))
        lt = dk_logs[k] - seq.log_Ms([k])[0]
        total_log = float(np.logaddexp(total_log, lt))
        if total_log > -math.inf and lt < total_log + math.log(_DD_TOL):
            quiet += 1
            if quiet >= 3 and k >= 8:
                break
        else:
            quiet = 0
    converged = (hard is not None and k >= hard) or quiet >= 3
    tail_ratio = math.exp(lt - total_log) if total_log > -math.inf else 0.0
    value = math.exp(total_log) if total_log < 709.0 else float("inf")
    block = 1 if normalize_ambient(ambient)[0] == "operator" else _DD_BLOCK
    read = min(-(-(k + 1) // block) * block, last + 1)
    dk_logs += [dk_norm_log(A, j, ambient, margin) for j in range(k + 1, read)]
    return DalesDavieValue(value=value, log_value=total_log, kmax_used=k,
                           converged=bool(converged), tail_ratio=tail_ratio,
                           dk_logs=tuple(dk_logs))


def polylog_tails_rescaled_each_order(rho, m0, kmax):
    """[log sum_{m >= m0} m^k rho^m for k = 0..kmax] by the shift identity
    (1 - rho) V_k = m0^k rho^m0 + rho sum_{i<k} C(k, i) V_i, with every
    held value rescaled at each order so that the newest lies in
    [1/2, 1)."""
    binom, nxt = np.zeros(kmax + 2), np.zeros(kmax + 2)   # Pascal rows
    binom[0] = nxt[0] = 1.0
    held, logs = np.zeros(kmax + 1), np.empty(kmax + 1)   # held: rho V_i
    head, E = 1.0, 0                                      # m0^k
    for k in range(kmax + 1):
        mant, e = math.frexp((head + binom[:k] @ held[:k]) / (1.0 - rho))
        E += e
        logs[k] = math.log(mant) + E * math.log(2.0)
        np.ldexp(held[:k], -e, out=held[:k])
        held[k] = rho * mant
        head = math.ldexp(head, -e) * m0
        np.add(binom[1:k + 2], binom[:k + 1], out=nxt[1:k + 2])
        binom, nxt = nxt, binom
    return logs + m0 * math.log(rho)


@functools.lru_cache(maxsize=None)
def _stirling_row(n):
    """(S(n, j) for j = 0..n), the Stirling numbers of the second kind."""
    if n == 0:
        return (1,)
    prev = _stirling_row(n - 1) + (0,)
    return (0,) + tuple(j * prev[j] + prev[j - 1] for j in range(1, n + 1))


@functools.lru_cache(maxsize=None)
def _power_sum(rho, i):
    """sum_{n >= 0} n^i rho^n with 0^0 = 1, to 50 digits, by the closed
    form Li_{-i}(rho) = sum_{j <= i} j! S(i+1, j+1) w^(j+1), w =
    rho / (1 - rho), whose terms are all positive."""
    with mp.workdps(50):
        w = mp.mpf(rho) / (1 - mp.mpf(rho))
        row = _stirling_row(i + 1)
        acc = mp.mpf(0)
        for j in range(i, -1, -1):          # Horner in w
            acc = acc * w + math.factorial(j) * row[j + 1]
        return (i == 0) + acc * w


def log_power_tails(rho, m0, ks):
    """[log sum_{m >= m0} m^k rho^m for k in ks] with 0^0 = 1 and
    0 < rho < 1, to 50 digits, each rounded once to a float.

    Where the terms of the top order fall by half or more from m0 on
    (those of lower orders fall faster) the sums are direct.  Elsewhere
    (m0 + n)^k is expanded over n >= 0: the sum is rho^m0 k! sum_{i <= k}
    m0^(k-i)/(k-i)! L_i/i!, with L_i = _power_sum(rho, i).  Neither route
    subtracts, so nothing cancels.
    """
    with mp.workdps(50):
        z = mp.mpf(rho)
        if m0 and z * (1 + mp.mpf(1) / m0) ** max(ks) <= 0.5:
            sums, m = [mp.mpf(0)] * len(ks), m0
            while True:
                terms = [z ** m * mp.mpf(m) ** k for k in ks]
                sums = [a + b for a, b in zip(sums, terms)]
                if all(b < a * mp.mpf(10) ** -55 for a, b in zip(sums, terms)):
                    return [float(mp.log(a)) for a in sums]
                m += 1
        top = max(ks)
        head = [mp.mpf(m0) ** j / mp.factorial(j) for j in range(top + 1)]
        needs = range(top + 1) if m0 else ks       # the L_i the sums read
        body = {i: _power_sum(rho, i) / mp.factorial(i) for i in needs}
        return [float(m0 * mp.log(z) + mp.log(mp.factorial(k) * mp.fsum(
            head[k - i] * body[i] for i in (range(k + 1) if m0 else [k]))))
            for k in ks]


def besov_integral_cells(ms, w, k, r, p, t_min, t_max, jaffard=False):
    """(2 int_{t_min}^{t_max} t^(-rp-1) g(t)^p dt)^(1/p) by adaptive quad
    on every cell between the kinks j/m, with g(t) the sum (or, jaffard,
    the max) over m of w(m) |2 sin(pi m t)|^k.

    In the jaffard case each kink cell is sampled on a uniform grid, and
    wherever the maximizing offset changes from i to j between two samples
    the cell is cut at the root of branch i minus branch j (brentq).
    """
    ms = np.asarray(ms, dtype=float)
    w = np.asarray(w, dtype=float)

    def branches(t):
        return w * np.abs(2.0 * np.sin(np.pi * ms * t)) ** k

    def f(t):
        b = branches(t)
        return t ** (-r * p - 1.0) * (b.max() if jaffard else b.sum()) ** p

    kinks = {j / m for m in ms for j in range(1, int(m * t_max) + 1)}
    edges = sorted({t_min, t_max, *(x for x in kinks if t_min < x < t_max)})
    cuts = []
    if jaffard:
        grid = np.linspace(edges[:-1], edges[1:], 17, axis=1).ravel()
        top = (w * np.abs(2.0 * np.sin(np.pi * np.outer(grid, ms))) ** k
               ).argmax(axis=1).reshape(-1, 17)
        grid = grid.reshape(-1, 17)
        for c, s in zip(*np.nonzero(top[:, 1:] != top[:, :-1])):
            i, j = top[c, s], top[c, s + 1]
            cuts.append(brentq(lambda t: branches(t)[i] - branches(t)[j],
                               grid[c, s], grid[c, s + 1], xtol=1e-300,
                               rtol=4 * np.finfo(float).eps))
    edges = sorted(set(edges) | set(cuts))
    total = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=100)[0]
                for a, b in zip(edges[:-1], edges[1:]))
    return (2.0 * total) ** (1.0 / p)


def _modulus_rows(ts, ms, w, k, jaffard):
    """g(t) = sum (or, jaffard, max) over m of w(m) |2 sin(pi m t)|^k at
    every t, 64 points at a time."""
    flat = ts.ravel()
    out = np.zeros(flat.size)
    if len(ms) == 0:
        return out.reshape(ts.shape)
    for lo in range(0, flat.size, 64):
        S = (2.0 * np.abs(np.sin(np.pi * ms * flat[lo:lo + 64, None]))) ** k
        out[lo:lo + 64] = (S * w).max(axis=1) if jaffard else S @ w
    return out.reshape(ts.shape)


def sup_search_all_shells(ms, w, k, kind, edges, r):
    """sup of t^-r g(t) over the shells between the edges: the argmax on a
    256-point log grid of every shell, then 14 rounds of zooming in on 17
    points around it; the error is the zoom's gain in the winning shell.
    Returns (value, error)."""
    def h(ts):
        return ts ** (-r) * _modulus_rows(ts, ms, w, k, kind == "jaffard")

    coarse_n, zoom_n = 256, 17
    ts = np.exp(np.linspace(np.log(edges[:-1]), np.log(edges[1:]),
                            coarse_n, axis=1))
    vals = h(ts)
    rows = np.arange(ts.shape[0])
    i = vals.argmax(axis=1)
    coarse = vals[rows, i]
    best = coarse
    lo = ts[rows, np.maximum(i - 1, 0)]
    hi = ts[rows, np.minimum(i + 1, coarse_n - 1)]
    for _ in range(14):
        pts = np.linspace(lo, hi, zoom_n, axis=1)
        vals = h(pts)
        j = vals.argmax(axis=1)
        best = np.maximum(best, vals[rows, j])
        lo = pts[rows, np.maximum(j - 1, 0)]
        hi = pts[rows, np.minimum(j + 1, zoom_n - 1)]
    win = int(best.argmax())
    return float(best[win]), float(best[win] - coarse[win])


def hypersingular_every_cutoff(A, r, ambient):
    """The c0 or jaffard hypersingular seminorm of A as the sup over every
    cutoff eps of 0.01, 0.03, 0.1, 0.3 in turn of the sum (c0) or the max
    (jaffard) over m of |J_m(eps)| w(m), a later cutoff winning only when
    it is strictly larger; its error is the multipliers' node-doubled
    error on the same terms plus the left-out tail's mass times the bound
    on |J_m(eps)|.  Each cutoff's multipliers come from a call of their
    own.  Returns (value, error, eps)."""
    kind, s = normalize_ambient(ambient)
    ms, w, geo = _offset_weights(A, ambient, 0)
    mass = _dropped_mass(geo, kind, s)
    best = (0.0, 0.0, 0.01)
    for eps in ((0.01, 0.03, 0.1, 0.3) if ms.size else ()):
        J, Jerr = _j_multipliers(ms, [eps], r)
        if kind == "c0":
            tot = float((np.abs(J[0]) * w).sum())
            err = float((Jerr[0] * w).sum())
        else:
            i = int(np.argmax(np.abs(J[0]) * w))
            tot = float(abs(J[0, i]) * w[i])
            err = float(Jerr[0, i] * w[i])
        if tot > best[0]:
            best = (tot, err + mass * _j_cap(eps, r), eps)
    return best


def operator_sup_all_shells(A, r, k, t_min, t_max):
    """sup of t^-r ||Delta_t^k A||_op over 33 log-spaced nodes on every
    dyadic shell of [t_min, t_max], the shells visited upwards and a later
    node winning only when it is larger; the error is the gap from the
    winner to its larger neighbour node.  Returns (value, error)."""
    edges = [t_max]
    while edges[-1] / 2.0 > t_min:
        edges.append(edges[-1] / 2.0)
    edges = edges[::-1]
    best, err = 0.0, 0.0
    for a, b in zip([t_min] + edges[:-1], edges):
        ts = np.exp(np.linspace(math.log(a), math.log(b), 33))
        vals = np.array([t ** (-r) * operator_norm_l2(
            difference_power(A, float(t), k)) for t in ts])
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            err = abs(best - float(max(vals[max(0, i - 1)],
                                       vals[min(32, i + 1)])))
    return best, err


def besov_cells_unfolded(ms, w, k, r, p, t_min, t_max, jaffard=False):
    """The kink-cell Gauss-Legendre rule on [t_min, t_max] itself, with no
    fold: (2 int_{t_min}^{t_max} t^(-rp-1) g(t)^p dt)^(1/p), g the sum (or,
    jaffard, the max) over m of w(m) |2 sin(pi m t)|^k.

    The cells are cut at the dyadic shell edges t_max 2^-i above t_min,
    at every j/m and j/(2M), M = max(ms), and, jaffard, where the maximizing
    offset switches: probed at 8 rule nodes and 1e-12 (relative) inside the
    ends of each cell, where branches can tie, bisected 60 times, and
    dropped within 1e-12 of a cell edge, in up to 8 rounds that each probe
    the cells the previous one cut.  The value is the 8-node rule per cell;
    the error is the summed difference from the 4-node rule plus eps per
    cell of the total.  Returns (value, error, number of cells).
    """
    ms = np.asarray(ms, dtype=float)
    w = np.asarray(w, dtype=float)

    def over_branches(how, ts):
        """how(axis=1) of w(m) |2 sin(pi m t)|^k, 2048 points at a time."""
        flat = ts.ravel()
        return np.concatenate([
            how(w * np.abs(2.0 * np.sin(np.pi * ms * part[:, None])) ** k,
                axis=1)
            for part in np.array_split(flat, flat.size // 2048 + 1)
        ]).reshape(ts.shape)

    def rule(edges, n):
        x, wts = np.polynomial.legendre.leggauss(n)
        h = np.diff(edges)
        ts = edges[:-1, None] + h[:, None] * 0.5 * (1.0 + x)
        g = over_branches(np.max if jaffard else np.sum, ts)
        return h * ((ts ** (-r * p - 1.0) * g ** p) @ (0.5 * wts))

    shells = [t_max]
    while shells[-1] / 2.0 > t_min:
        shells.append(shells[-1] / 2.0)
    shells.append(t_min)
    kinks = [j / m for m in [*ms, 2.0 * ms[-1]]
             for j in range(math.floor(m * t_min) + 1, math.ceil(m * t_max))]
    cells = np.unique([*shells, *(x for x in kinks if t_min < x < t_max)])
    if jaffard:
        x, _ = np.polynomial.legendre.leggauss(8)
        frac = np.concatenate([[1e-12], 0.5 * (1.0 + x), [1.0 - 1e-12]])
        a, b = cells[:-1], cells[1:]
        for _ in range(8):
            probes = a[:, None] + (b - a)[:, None] * frac
            top = over_branches(np.argmax, probes)
            switch = top[:, 1:] != top[:, :-1]
            lo, hi = probes[:, :-1][switch], probes[:, 1:][switch]
            left = top[:, :-1][switch]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                same = over_branches(np.argmax, mid) == left
                lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
            i = np.searchsorted(cells, hi)
            hi = hi[np.minimum(hi - cells[i - 1], cells[i] - hi) > 1e-12]
            if not hi.size:
                break
            cells = np.union1d(cells, hi)
            i = np.searchsorted(cells, hi)
            a = np.concatenate([cells[i - 1], cells[i]])
            b = np.concatenate([cells[i], cells[i + 1]])
    fine, coarse = rule(cells, 8), rule(cells, 4)
    total = 2.0 * fine.sum()
    err = (2.0 * np.abs(fine - coarse).sum()
           + np.finfo(float).eps * fine.size * total)
    value = total ** (1.0 / p)
    return value, (total + err) ** (1.0 / p) - value, fine.size


def cell_integrals_per_cell(a, h, s, k, n, units):
    """int_a^{a+h} u^{-s-1} |2 sin pi u|^k du for each (a, h) by the n-point
    Gauss-Legendre rule, each interval's sines taken at its own nodes
    u - floor(a), over the package's blocks of rows.  units (the count of
    leading unit cells) is ignored."""
    x, wts = np.polynomial.legendre.leggauss(n)
    tau, wts = 0.5 * (1.0 + x), 0.5 * wts
    out = np.empty(a.shape)
    for sl in _blocks(a.size, n):
        aa, hh = a[sl, None], h[sl, None]
        u = aa + hh * tau
        v = (aa - np.floor(aa)) + hh * tau
        f = u ** (-s - 1.0) * np.abs(2.0 * np.sin(np.pi * v)) ** k
        out[sl] = h[sl] * (f @ wts)
    return out
