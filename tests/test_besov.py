"""Besov seminorm quadrature, hypersingular route, identification ratios.

Target values were frozen from direct quadrature of the exact symbol
series (scipy on [0.01, 4] for the seminorms, mpmath for the multiplier
integrals); matching here exercises the separable Gauss-Legendre route
against an independent oracle.  FROZEN_P1 came from scipy and is 3.0e-5
off the 25-digit mpmath value MPMATH_P1; it keeps its 5e-4 tolerance,
and MPMATH_P1 is checked at relative 1e-12.  FROZEN_P2 comes from a
kink-split Gauss-Legendre rule instead (the scipy value was 5.3e-5 off);
the route must land within relative 1e-13 of it and within its own
reported quadrature error.  The jaffard-ambient p = 2 value is checked
against adaptive quad on the cells between the kinks and the switches of
the max (tests/oracles.py).  The finite-p cell route, folded onto
[0, 1/2], is checked against the same rule on [t_min, t_max] itself
(tests/oracles.py).  The p = inf search is checked against the same
grid-and-zoom search run on every shell (tests/oracles.py).
"""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from decayinv import (GeometricTail, IndexWindow, LatticeMatrix,
                      ParameterError, ToeplitzSymbol, besov_seminorm,
                      geometric_inverse_toeplitz, hypersingular_seminorm,
                      identification_rate_check, make_toeplitz,
                      modulus_profile, random_decay_matrix)
from decayinv import besov
from decayinv.besov import (_antiderivative, _argmax_branch, _blocks,
                            _cell_route, _folded_edges, _j_multipliers,
                            _kink_cells, _modulus, _offset_weights,
                            _shell_bounds, _shell_edges, _slope_bounds,
                            _sup_search, _switch_cells, _tail_runs)
from decayinv.lattice import difference_power, geometric_inverse_symbol
from decayinv.norms import cv_norm
from decayinv.weights import Weight
from oracles import (besov_cells_unfolded, besov_integral_cells,
                     cell_integrals_per_cell, hypersingular_every_cutoff,
                     operator_sup_all_shells, sup_search_all_shells)

W = IndexWindow(-32, 31)
INV = geometric_inverse_symbol(0.5)
# its section, for the operator ambient, which needs a window
INV_W = make_toeplitz(INV, W)

# independent quadrature of 2 int_0.01^4 (t^-r g(t))^p dt/t with
# g(t) = sum_m 2|sin(pi m t)| e^{-m/2}, r = 1/2, k = 1
FROZEN_P1 = 41.3493713622352
FROZEN_SUP = 5.61290009498663
# p = 2 by a Gauss-Legendre rule on the kink-free cells between the points
# j/m, the same value at 8, 16 and 24 nodes per cell
FROZEN_P2 = 13.055822762701984
# the same p = 1 integral in mpmath at 25 digits, integrated in t with
# every kink j/m of |sin(pi m t)| as a breakpoint (about 90 s to compute);
# integrating each offset in u = m t between the integers agrees to 17 digits
MPMATH_P1 = 41.34934141009299
# the jaffard(2)-ambient p = 2 value on [0.01, 4], k = 1, by the
# kink-and-switch cell rule with and without cuts at the integers alike
FROZEN_JAFFARD_P2 = 45.1223377468054


def test_besov_p1_frozen():
    est = besov_seminorm(INV, 1, 0.5, 1, t_min=0.01, t_max=4.0)
    assert est.value == pytest.approx(FROZEN_P1, abs=5e-4)
    assert est.quadrature_error < 1e-3


def test_besov_p1_mpmath_reference():
    est = besov_seminorm(INV, 1, 0.5, 1, t_min=0.01, t_max=4.0)
    assert est.value == pytest.approx(MPMATH_P1, rel=1e-12)
    assert est.quadrature_error <= 1e-10


def _shift_seminorm_mpmath(m, r, k, t_min, t_max, p=1):
    """(2 int_{t_min}^{t_max} t^(-rp-1) |2 sin(pi m t)|^(kp) dt)^(1/p) in
    mpmath, split at the kinks j/m and at the decades below 1."""
    with mpmath.workdps(20):
        knots = [mpmath.mpf(j) / m for j in range(1, int(m * t_max) + 1)]
        decades = [mpmath.mpf(10) ** e
                   for e in range(math.floor(math.log10(t_min)) + 1, 0)]
        pts = sorted({mpmath.mpf(t_min), mpmath.mpf(t_max),
                      *[x for x in knots + decades if t_min < x < t_max]})
        rp, kp = mpmath.mpf(r) * p, mpmath.mpf(k) * p
        val = 2 * mpmath.quad(lambda t: t ** (-rp - 1)
                              * abs(2 * mpmath.sin(mpmath.pi * m * t)) ** kp,
                              pts)
        return float(val ** (1 / mpmath.mpf(p)))


# p = 1 separates over offsets; p = 2 (odd k) and p = 1.5 (even k) take the
# Gauss-Legendre rule on the cells between the kinks
@pytest.mark.parametrize("m, r, k, t_min, p", [(3, 0.5, 1, 0.01, 1),
                                               (5, 1.5, 2, 1e-6, 1),
                                               (3, 0.5, 1, 0.01, 2),
                                               (5, 1.5, 2, 1e-6, 1.5)])
def test_besov_shift_mpmath_oracle(m, r, k, t_min, p):
    T = ToeplitzSymbol({m: 1.0})
    est = besov_seminorm(T, p, r, k, t_min=t_min, t_max=4.0)
    want = _shift_seminorm_mpmath(m, r, k, t_min, 4.0, p)
    assert est.value == pytest.approx(want, rel=1e-13)


def test_routes_raise_no_warnings():
    # no route emits a warning, and none is silenced
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1, 2, math.inf):
            besov_seminorm(INV, p, 0.5, 1, t_min=0.01, t_max=4.0)
        hypersingular_seminorm(INV, 0.5)
        hypersingular_seminorm(INV_W, 1.5, ambient="operator")


def test_besov_p2_frozen():
    est = besov_seminorm(INV, 2, 0.5, 1, t_min=0.01, t_max=4.0)
    assert est.value == pytest.approx(FROZEN_P2, rel=1e-13)
    assert est.quadrature_error <= 1e-10
    assert abs(est.value - FROZEN_P2) <= est.quadrature_error


def test_besov_jaffard_p2_matches_quad_on_cells():
    # the branch of the max switches 11 times inside the kink cells on
    # [0.01, 1]; the rule without those cuts is 2.8e-7 off.  The profile
    # stops where e^(-m/2) drops below 1e-18, as the route's does.
    ms = np.arange(1, 84)
    w = np.exp(-0.5 * ms) * (1.0 + ms) ** 2
    want = besov_integral_cells(ms, w, 1, 0.5, 2, 0.01, 1.0, jaffard=True)
    est = besov_seminorm(INV, 2, 0.5, 1, ambient=("jaffard", 2),
                         t_min=0.01, t_max=1.0)
    assert est.value == pytest.approx(want, rel=1e-10)
    assert abs(est.value - want) <= est.quadrature_error


def test_jaffard_switch_cuts_clear_the_kink_edges():
    # at u = 0 every branch of the max vanishes, and the argmax there reads
    # only the rounding of pi m u: no switch may be cut within roundoff of
    # an edge the folded cells already have
    ms, w, _ = _offset_weights(INV, ("jaffard", 2), 0)
    cells = _kink_cells(_folded_edges(_shell_edges(0.01, 4.0)), ms)
    cuts = np.setdiff1d(_switch_cells(cells, ms, w, 1), cells)
    i = np.searchsorted(cells, cuts)
    gap = np.minimum(cuts - cells[i - 1], cells[i] - cuts)
    assert cuts.size and gap.min() > 1e-12
    est = besov_seminorm(INV, 2, 0.5, 1, ambient=("jaffard", 2),
                         t_min=0.01, t_max=4.0)
    assert abs(est.value - FROZEN_JAFFARD_P2) <= est.quadrature_error


@pytest.mark.parametrize("profile", [{1: 1.0, 2: 1.0, 3: 28.0},
                                     {1: 11.0, 2: 1.0, 4: 5.0, 6: 9.0}],
                         ids=["tie at a kink", "two switches in a probe"])
def test_every_jaffard_switch_is_cut(profile):
    # w = (1, 1, 28): at u = 1/3, the kink of offset 3, the branches of
    # offsets 1 and 2 tie, so the argmax at that cell end reads only the
    # tie, and offset 3 takes the max back 0.0033 to the right of it.
    # w = (11, 1, 5, 9): the switches at u = 0.1357 and 0.1450 share one
    # interval between probes, and one bisection finds only one of them.
    # Every switch seen on a fine grid of (0, 1/2], away from the kinks
    # the cells already have, is cut within a grid step
    ms = np.array(sorted(profile))
    w = np.array([profile[m] for m in ms])
    cells = _kink_cells(_folded_edges(_shell_edges(1.0, 2.0)), ms)
    cuts = np.setdiff1d(_switch_cells(cells, ms, w, 1), cells)
    u = np.linspace(0.0, 0.5, 100_001)[1:]
    top = (w * np.abs(np.sin(np.pi * np.outer(u, ms)))).argmax(axis=1)
    seen = u[1:][top[1:] != top[:-1]]
    step = u[1] - u[0]
    seen = seen[np.abs(seen[:, None] - cells).min(axis=1) > step]
    assert cuts.size == seen.size
    assert np.abs(cuts - seen).max() <= step


def test_besov_above_cell_cap_within_reported_error(monkeypatch):
    # gamma = 0.1 keeps 415 offsets, about 43k kinks on the folded domain
    # [0, 1/2]: past the cell cap, so the route takes equal panels per
    # piece of it.  The reference is the kink-cell rule with the cap lifted.
    A = geometric_inverse_symbol(0.1)
    ms, _, _ = _offset_weights(A, "c0", 0)
    assert _kink_cells(_folded_edges(_shell_edges(0.01, 4.0)), ms) is None
    est = besov_seminorm(A, 2, 0.5, 1, t_min=0.01, t_max=4.0)
    monkeypatch.setattr(besov, "_MAX_KINKS", math.inf)
    ref = besov_seminorm(A, 2, 0.5, 1, t_min=0.01, t_max=4.0)
    assert ref.quadrature_error <= 1e-9
    assert abs(est.value - ref.value) <= est.quadrature_error


@pytest.mark.parametrize("ambient, most", [("c0", 1200),
                                           (("jaffard", 2), 1300)])
def test_cell_route_work_on_the_frozen_matrix(ambient, most):
    # the unfolded route cut 8,895 and 8,935 cells on [0.01, 4]; the fold
    # cuts only those on [0, 1/2]
    est = besov_seminorm(INV, 2, 0.5, 1, ambient=ambient,
                         t_min=0.01, t_max=4.0)
    assert 0 < est.parameters["cells"] <= most


@seed(23)
@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 0.35), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["c0", "jaffard"]), st.sampled_from([1.5, 2.0, 3.0]),
       st.integers(1, 2), st.floats(0.1, 2.5), st.floats(0.005, 2.0),
       st.floats(0.05, 2.5))
@example(0.3, 1, "c0", 2.0, 1, 0.5, 0.02, 0.38)
@example(0.2, 2, "jaffard", 3.0, 2, 1.5, 0.7, 1.6)
@example(0.25, 3, "jaffard", 1.5, 1, 0.3, 0.01, 3.99)
def test_folded_route_matches_the_unfolded_one(rho, draw, kind, p, k, r,
                                               t_min, width):
    # the same integral, cut on [t_min, t_max] itself or folded onto
    # [0, 1/2]: t_max < 1/2, t_min > 1/2 and non-integer t_max included.
    # The profile decays like a matrix's, w(m) = a(m) rho^m with a(m) in
    # [1/2, 2], down to 1e-18.  At an integer t every branch vanishes and
    # g^p behaves like |t - j|^(kp); for integer kp that is analytic and
    # both rules reach roundoff, otherwise each converges only
    # algebraically on the cells at the integers, which the two routes cut
    # differently, and they agree within their reported errors
    ms = np.arange(1, math.ceil(math.log(1e-18) / math.log(rho)) + 1)
    w = np.random.default_rng(draw).uniform(0.5, 2.0, ms.size) * rho ** ms
    t_max = t_min + width
    value, err, _ = _cell_route(ms, w, k, kind, _shell_edges(t_min, t_max),
                                r, p)
    want, want_err, _ = besov_cells_unfolded(ms, w, k, r, p, t_min, t_max,
                                             jaffard=kind == "jaffard")
    if (k * p).is_integer():
        assert value == pytest.approx(want, rel=1e-13)
    assert abs(value - want) <= err + want_err


def test_operator_tail_bound_covers_the_left_out_mass():
    # p = 1, r = 1/2, k = 1 on [0.01, 4] with g(t) = ||Delta_t INV||_op.
    # Near zero, t = u^2 makes 2 int_0^0.01 t^-1.5 g dt a smooth integral
    # 4 int_0^0.1 g(u^2) u^-2 du.  g has period 1, and
    # sum_{j>=4} (j+v)^-1.5 >= 2/sqrt(5) on [0, 1], so the mass beyond
    # t = 4 is at least 4/sqrt(5) int_0^1 g.
    est = besov_seminorm(INV_W, 1, 0.5, 1, ambient="operator",
                         t_min=0.01, t_max=4.0)
    x, wts = np.polynomial.legendre.leggauss(16)
    u = 0.05 * (x + 1.0)
    near = 0.2 * wts @ (modulus_profile(INV_W, u ** 2, 1, "operator")
                        / u ** 2)
    v = (np.arange(256) + 0.5) / 256
    far = 4.0 / math.sqrt(5.0) * modulus_profile(INV_W, v, 1,
                                                 "operator").mean()
    assert near > 9.7 and far > 2.9
    assert est.tail_bound >= near + far


def test_operator_tail_bound_counts_the_whole_window_under_a_margin():
    # the value takes the singular values of the whole window, so the mass
    # below t_min is that of the whole window too: the corner entry 5 on
    # offset 31 carries most of it, and a margin of 4 must not drop it.
    # t = u^2 makes 2 int_0^0.05 t^-1.5 g dt = 4 int_0^sqrt(0.05) g(u^2)/u^2
    # du, a smooth integral; 64 Gauss-Legendre nodes put it at 550.
    entries = np.eye(32)
    entries[0, 31] = 5.0
    A = LatticeMatrix(IndexWindow(-16, 15), entries)
    x, wts = np.polynomial.legendre.leggauss(64)
    top = math.sqrt(0.05)
    u = 0.5 * top * (x + 1.0)
    g = modulus_profile(A, u ** 2, 1, "operator")
    near = 2.0 * top * (wts @ (g / u ** 2))
    assert near > 544.0
    for margin in (0, 4):
        est = besov_seminorm(A, 1, 0.5, 1, ambient="operator",
                             margin=margin, t_min=0.05, t_max=4.0)
        assert est.tail_bound >= near


def _shift_left_out_mpmath(m, r, k, t_min, t_max, p):
    """The part outside [t_min, t_max] of the shift T_m's seminorm, with
    g(t) = |2 sin(pi m t)|^k, in mpmath: for p = 1, 2 int t^(-r-1) g dt
    over (0, t_min) and (t_max, inf); for p = inf, the sup of t^-r g there.

    With u = m t the far integral sums the unit cells above m t_max (an
    integer) into a Hurwitz zeta, int_0^1 |2 sin pi v|^k zeta(r+1, m t_max
    + v) dv.  At p = inf, t^-r g rises on (0, t_min] (pi m t_min < 0.1, so
    k x cot x > r at x = pi m t), and past t_max it is largest in the first
    period, at the zero of its log's slope in the half period after t_max.
    """
    with mpmath.workdps(20):
        mp_m, mp_r = mpmath.mpf(m), mpmath.mpf(r)

        def g(u):
            return abs(2 * mpmath.sin(mpmath.pi * u)) ** k

        if p == 1:
            near = mpmath.quad(lambda u: u ** (-mp_r - 1) * g(u),
                               [0, m * t_min])
            far = mpmath.quad(lambda v: g(v) * mpmath.zeta(mp_r + 1,
                                                           m * t_max + v),
                              [0, 1])
            return float(2 * mp_m ** mp_r * (near + far))
        peak = mpmath.findroot(
            lambda t: k * mpmath.pi * mp_m * mpmath.cot(mpmath.pi * mp_m * t)
            - mp_r / t, (t_max + mpmath.mpf(1e-9) / m, t_max + 0.5 / m),
            solver="anderson")
        return float(max(mpmath.mpf(t_min) ** -mp_r * g(m * t_min),
                         peak ** -mp_r * g(m * peak)))


def _left_out_numeric(ms, w, k, r, t_min, t_max, p, jaffard):
    """The same part for g(t) the sum (or, jaffard, the max) over m of
    w(m) |2 sin(pi m t)|^k, in double precision.

    p = 1: near zero by quad against the weight t^(k-r-1); beyond the
    integer t_max, g has period 1, so the far part is int_0^1 g(v)
    zeta(r+1, t_max + v) dv, by 8-node Gauss-Legendre on 4096 panels.
    p = inf: the largest of t^-r g on a log grid of (0, t_min] and on a
    grid of [t_max, t_max + 1] (the first period holds the sup beyond
    t_max), refined around each grid's best point.
    """
    def g(t, over_tk=False):
        """g(t), or g(t) / t^k, finite at t = 0, by sin(pi x) = pi x
        sinc(x)."""
        x = np.multiply.outer(np.asarray(t, dtype=float), ms)
        if over_tk:
            S = w * np.abs(2.0 * np.pi * ms * np.sinc(x)) ** k
        else:
            S = w * np.abs(2.0 * np.sin(np.pi * x)) ** k
        return S.max(axis=-1) if jaffard else S.sum(axis=-1)

    if p == 1:
        near = quad(lambda t: g(t, over_tk=True), 0.0, t_min, weight="alg",
                    wvar=(k - r - 1.0, 0.0), epsabs=0.0, epsrel=1e-12,
                    limit=200)[0]
        x, wts = np.polynomial.legendre.leggauss(8)
        edges = np.linspace(0.0, 1.0, 4097)
        v = edges[:-1, None] + 0.5 * (x + 1.0) / 4096
        far = (g(v) * zeta(r + 1.0, t_max + v)) @ wts / 8192
        return 2.0 * (near + far.sum())

    def h(t):
        return -(t ** -r) * g(t)

    best = 0.0
    for ts in (np.geomspace(1e-8, t_min, 4096),
               np.linspace(t_max, t_max + 1.0, 1 << 16)):
        i = int(np.argmin(h(ts)))
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
        res = minimize_scalar(h, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        best = max(best, -float(h(ts[i])), -float(res.fun))
    return best


@pytest.mark.parametrize("r, k", [(0.5, 1), (1.5, 2)])
@pytest.mark.parametrize("p", [1, math.inf])
@pytest.mark.parametrize("name", ["shift 1", "shift 3", "inverse 0.5"])
def test_tail_bound_covers_the_left_out_part(name, p, r, k):
    # c0 and jaffard(1) ambients on [0.01, 4]: tail_bound is at least the
    # part of the seminorm left out below t_min and above t_max.  For a
    # shift the jaffard modulus is (1+m) times the c0 one
    t_min, t_max = 0.01, 4.0
    for ambient in ("c0", ("jaffard", 1.0)):
        if name.startswith("shift"):
            m = int(name.split()[1])
            A = ToeplitzSymbol({m: 1.0})
            scale = 1.0 if ambient == "c0" else 1.0 + m
            left_out = scale * _shift_left_out_mpmath(m, r, k, t_min, t_max,
                                                      p)
        else:
            A = INV
            ms, w, _ = _offset_weights(INV, ambient, 0)
            left_out = _left_out_numeric(ms, w, k, r, t_min, t_max, p,
                                         jaffard=ambient != "c0")
        est = besov_seminorm(A, p, r, k, ambient=ambient, t_min=t_min,
                             t_max=t_max)
        assert est.tail_bound >= left_out, (ambient, est.tail_bound,
                                            left_out)


def test_besov_sup_frozen():
    est = besov_seminorm(INV, math.inf, 0.5, 1, t_min=0.01, t_max=4.0)
    assert est.value == pytest.approx(FROZEN_SUP, rel=1e-13)


# difference orders and smoothness, both sides of r = k; the gamma = 0.05
# inverse (829 offsets) takes only the order of criterion 10's sup
SUP_ORDERS = [(1, 0.3), (1, 0.6), (1, 1.6), (2, 1.6), (2, 2.5), (3, 2.5)]
SUP_MATRICES = {
    **{f"inverse {g}": geometric_inverse_symbol(g) for g in (1.0, 0.2, 0.05)},
    **{f"shift {m}": ToeplitzSymbol({m: 1.0}) for m in (1, 2, 4)},
    "random": random_decay_matrix(W, 2.0, 0.3, seed=[5, 0]),
    "empty profile": ToeplitzSymbol({0: 1.0}),
}


@pytest.mark.parametrize("ambient", ["c0", ("jaffard", 1.0)])
@pytest.mark.parametrize("name", list(SUP_MATRICES))
def test_sup_search_matches_the_search_of_every_shell(name, ambient):
    # the pruned search finds the winner of the search over every shell, so
    # it differs only by the rounding of g, which moves with a point's row
    # in the matrix product, and (c0 at k = 1, on an inverse's geometric
    # tail) with the runs of constant sign that sum it; the error is a
    # difference of two of its values, so it is compared on the scale of
    # the value
    ms, w, geo = _offset_weights(SUP_MATRICES[name], ambient, 0)
    kind = "c0" if ambient == "c0" else "jaffard"
    edges = _shell_edges(1e-6, 4.0)
    for k, r in SUP_ORDERS[1:2] if name == "inverse 0.05" else SUP_ORDERS:
        value, err, searched, _ = _sup_search(ms, w, k, kind, edges, r, geo)
        want, want_err = sup_search_all_shells(ms, w, k, kind, edges, r)
        assert value == pytest.approx(want, rel=1e-14, abs=0.0)
        assert err == pytest.approx(want_err, rel=0.0, abs=1e-14 * want)
        if ms.size == 0:
            assert searched == 0
        else:
            assert 1 <= searched <= edges.size - 1


@seed(17)
@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(1, 300), st.floats(1e-3, 1e3),
                       min_size=1, max_size=8),
       st.integers(1, 3), st.floats(0.1, 3.0),
       st.sampled_from(["c0", "jaffard"]), st.floats(1e-6, 0.5),
       st.sampled_from([1, 16]))
def test_shell_bounds_cover_the_modulus_on_each_shell(profile, k, r, kind,
                                                      t_min, pieces):
    ms = np.array(sorted(profile))
    w = np.array([profile[m] for m in ms])
    edges = _shell_edges(t_min, 4.0)
    # the search's own grid of each shell, its end points included, cut
    # into pieces: whole shells between the edges, or the search's chunks
    # between their first and last grid points
    ts = np.exp(np.linspace(np.log(edges[:-1]), np.log(edges[1:]), 256,
                            axis=1)).reshape(edges.size - 1, pieces, -1)
    if pieces == 1:
        a, b = edges[:-1, None], edges[1:, None]
    else:
        a, b = ts[..., 0], ts[..., -1]
    bound = _shell_bounds(ms, w, k, kind, a, b, r)
    vals = ts ** (-r) * _modulus(ts, ms, w, k, kind)
    assert (vals <= bound[..., None]).all()


@seed(18)
@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(1, 300), st.floats(1e-3, 1e3),
                       min_size=1, max_size=8),
       st.integers(1, 3), st.floats(0.1, 3.0),
       st.sampled_from(["c0", "jaffard"]), st.floats(1e-6, 0.5),
       st.integers(0, 2 ** 32 - 1))
def test_slope_bounds_are_lipschitz_constants_on_each_shell(profile, k, r,
                                                            kind, t_min,
                                                            draw):
    # |h(t) - h(t')| <= L |t - t'| for t, t' in a shell, h = t^-r g(t),
    # plus the rounding of the two computed values of h
    ms = np.array(sorted(profile))
    w = np.array([profile[m] for m in ms])
    edges = _shell_edges(t_min, 4.0)
    L = _slope_bounds(ms, w, k, kind, edges[:-1], edges[1:], r)
    rng = np.random.default_rng(draw)
    u = rng.random((edges.size - 1, 2, 64))
    # pairs spread over the shell, and pairs a grid step apart
    u[:, 1, 32:] = u[:, 0, 32:] + rng.uniform(-1.0, 1.0, 32) / 256
    u = np.clip(u, 0.0, 1.0)
    a, b = edges[:-1, None, None], edges[1:, None, None]
    ts = a + (b - a) * u
    vals = ts ** (-r) * _modulus(ts, ms, w, k, kind)
    rounding = 4.0 * (ms.size + k + r + 4) * np.finfo(float).eps
    gap = np.abs(vals[:, 0] - vals[:, 1])
    allowed = (L[:, None] * np.abs(ts[:, 0] - ts[:, 1])
               + rounding * vals.max(axis=1))
    assert (gap <= allowed).all()


def test_sup_search_work_on_criterion_10():
    # criterion 10 a's gamma = 0.05 inverse at r = 0.6, k = 1: the sup
    # (685, near t = 0.008) is above the bound of every chunk of the grid
    # outside [0.0039, 0.022], and the slope bound leaves only the zooms of
    # the two shells that meet at t = 1/128: 1,100 points, where a search of
    # every shell evaluates g at 10,868
    scale = 1.0 + 2.0 ** 0.5 * math.exp(-0.05)
    inv = geometric_inverse_symbol(0.05, scale=scale)
    est = besov_seminorm(inv, math.inf, 0.6, 1)
    zoomed, total = est.parameters["shells_searched"]
    assert total == 22 and zoomed <= 3
    assert est.parameters["points"] <= 1300


def test_sup_search_zooms_a_shell_whose_grid_misses_its_peak():
    # jaffard max of |2 sin pi m t| w(m) at m = 1 and m = 7, r = 1/2: each
    # offset alone peaks at the same height, and the log grid lands 2.2e-7
    # below the peak for m = 1 and 5.1e-7 below it for m = 7.  With w(7)
    # raised by 1.5e-7 the sup is in the shell of m = 7, whose grid value is
    # not the best; only the slope bound keeps that shell's zoom
    ms, r = np.array([1, 7]), 0.5
    w = np.array([1.0, 7.0 ** -r * (1.0 + 1.5e-7)])
    edges = _shell_edges(1e-6, 4.0)
    value, err, zoomed, _ = _sup_search(ms, w, 1, "jaffard", edges, r)
    want, want_err = sup_search_all_shells(ms, w, 1, "jaffard", edges, r)
    assert value == pytest.approx(want, rel=1e-14, abs=0.0)
    assert err == pytest.approx(want_err, rel=0.0, abs=1e-14 * want)
    assert zoomed == 2


@pytest.mark.parametrize("t_min", [1e-6, 1e-200])
def test_sup_search_of_an_empty_profile_evaluates_no_point(t_min):
    # g = 0 on the identity, so the sup is 0 without a search; evaluating
    # every chunk took 10,868 points at t_min = 1e-6
    identity = ToeplitzSymbol({0: 1.0})
    est = besov_seminorm(identity, math.inf, 2.0, t_min=t_min)
    assert est.value == 0.0 and est.quadrature_error == 0.0
    assert est.parameters["points"] == 0
    assert est.parameters["shells_searched"][0] == 0


def test_sup_search_bounds_stay_finite_at_a_tiny_t_min():
    # a^-r overflows at a = 1e-200, r = 2, but the bounds of the shells
    # there, ~ a^(k-r), are tiny: no warning, and the search evaluates the
    # points it evaluates at t_min = 1e-6
    A = geometric_inverse_symbol(0.5)
    want = besov_seminorm(A, math.inf, 2.0, t_min=1e-6)
    est = besov_seminorm(A, math.inf, 2.0, t_min=1e-200)
    assert est.value == want.value == 577.2220003999349
    assert est.parameters["points"] == want.parameters["points"] == 1482


@pytest.mark.parametrize("A", [make_toeplitz(ToeplitzSymbol({3: 1.0}),
                                             IndexWindow(-8, 7)),
                               geometric_inverse_toeplitz(
                                   1.0, IndexWindow(-8, 7))],
                         ids=["shift 3", "inverse 1"])
@pytest.mark.parametrize("k, r", [(1, 0.5), (2, 1.5)])
def test_operator_sup_prunes_shells_and_keeps_the_value(A, k, r,
                                                        monkeypatch):
    want = operator_sup_all_shells(A, r, k, 1e-6, 4.0)
    norm, calls = besov.operator_norm_l2, []

    def counted(M):
        calls.append(M)
        return norm(M)

    monkeypatch.setattr(besov, "operator_norm_l2", counted)
    est = besov_seminorm(A, math.inf, r, k, ambient="operator")
    assert (est.value, est.quadrature_error) == want
    searched, total = est.parameters["shells_searched"]
    assert len(calls) == 33 * searched < 33 * total


def test_default_order_is_floor_plus_one():
    est = besov_seminorm(INV, 1, 1.5)
    assert est.parameters["k"] == 2
    est = besov_seminorm(INV, 1, 2.0)
    assert est.parameters["k"] == 3


def test_seminorm_estimate_fields():
    est = besov_seminorm(INV, 1, 0.5, 1)
    assert est.quadrature_error >= 0.0
    assert est.tail_bound >= 0.0
    assert est.parameters["p"] == 1
    assert est.parameters["t_min"] == 1e-6


def test_modulus_profile_matches_difference_norm():
    # the profile is exactly the ambient norm of the k-th difference
    A = ToeplitzSymbol({0: 1.0, 1: -math.exp(-0.5)})
    for k in (1, 2):
        ts = [0.07, 0.26, 0.5]
        prof = modulus_profile(A, ts, k)
        direct = [cv_norm(difference_power(make_toeplitz(A, W), t, k),
                          Weight.poly(0.0)) for t in ts]
        assert np.allclose(prof, direct, rtol=1e-13)


def test_modulus_profile_geometric_closed_form():
    ts = [0.1, 0.26]
    prof = modulus_profile(INV, ts, 1)
    for t, got in zip(ts, prof):
        want = sum(2.0 * abs(math.sin(math.pi * m * t)) * math.exp(-0.5 * m)
                   for m in range(1, 400))
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [0, -1, 1.5, math.nan])
@pytest.mark.parametrize("ambient", ["c0", "operator"])
def test_modulus_profile_rejects_an_order_besov_seminorm_rejects(k, ambient):
    # k = 0 would drop the diagonal in the c0 route (1.54149, not cv_norm's
    # 2.54149) and k = -1 blow up (2.76e13); every k that besov_seminorm
    # rejects is rejected with its message
    A = geometric_inverse_toeplitz(0.5, IndexWindow(-8, 7))
    with pytest.raises(ParameterError, match="integer >= 1"):
        modulus_profile(A, [0.1], k, ambient)
    with pytest.raises(ParameterError, match="integer >= 1"):
        besov_seminorm(A, 1, 0.5, k, ambient)


@pytest.mark.parametrize("p", [1, 2, math.inf])
@pytest.mark.parametrize("ambient", ["c0", ("jaffard", 1.0), "operator"])
def test_besov_stays_finite_at_the_order_cap(p, ambient):
    # the last admitted order on a 32-point section: no route overflows
    # (every warning is an error here)
    A = geometric_inverse_toeplitz(0.5, IndexWindow(-16, 15))
    est = besov_seminorm(A, p, 0.5, besov._MAX_ORDER - 1, ambient,
                         t_min=0.01, t_max=0.5)
    assert math.isfinite(est.value) and est.value > 0
    assert math.isfinite(est.quadrature_error)
    assert math.isfinite(est.tail_bound)


@pytest.mark.parametrize("k", [165, 206])
@pytest.mark.parametrize("ambient", ["c0", ("jaffard", 1.0)])
def test_besov_sup_stays_finite_below_the_cap_on_a_wide_profile(k, ambient):
    # the symbol route of this inverse reaches offset 83, and 83^k
    # overflows from k = 161 on; the p = inf chunk bounds are formed in
    # logs, so they cover the modulus and the search finds the winner of
    # the search over every shell, with no warning
    A = geometric_inverse_symbol(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            est = besov_seminorm(A, math.inf, 0.5, k, ambient, t_min=0.01,
                                 t_max=0.5)
        except ParameterError:
            return
        ms, w, _ = _offset_weights(A, ambient, 0)
        kind = "c0" if ambient == "c0" else "jaffard"
        edges = _shell_edges(0.01, 0.5)
        ts = np.exp(np.linspace(np.log(edges[:-1]), np.log(edges[1:]), 256,
                                axis=1))
        bound = _shell_bounds(ms, w, k, kind, edges[:-1], edges[1:], 0.5)
        vals = ts ** -0.5 * _modulus(ts, ms, w, k, kind)
        want, _ = sup_search_all_shells(ms, w, k, kind, edges, 0.5)
    assert k * math.log(ms[-1]) > math.log(np.finfo(float).max)
    assert math.isfinite(est.value) and est.value > 0
    assert (vals <= bound[:, None]).all() and np.isfinite(bound).all()
    assert est.value == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("p", [1, 2, math.inf])
@pytest.mark.parametrize("ambient", ["c0", ("jaffard", 1.0), "operator"])
def test_besov_rejects_an_order_whose_power_of_two_overflows(p, ambient):
    # from the first order past the cap on, every besov route is refused
    # with a ParameterError; at k = 1023 each overflowed, and from 1024 on
    # 2^k itself overflows a float
    A = geometric_inverse_toeplitz(0.5, IndexWindow(-8, 7))
    for k in (besov._MAX_ORDER, 1023, 1024, 1100):
        with pytest.raises(ParameterError, match="< 207"):
            besov_seminorm(A, p, 0.5, k, ambient, t_min=0.01, t_max=0.5)
        with pytest.raises(ParameterError, match="< 207"):
            modulus_profile(A, [0.1], k, ambient)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_modulus_profile_rejects_a_non_finite_t(t):
    A = geometric_inverse_toeplitz(0.5, IndexWindow(-8, 7))
    with pytest.raises(ParameterError):
        modulus_profile(A, [0.1, t], 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_modulus_and_branch_equal_the_sines_taken_whole(k):
    # the in-place |2 sin pi m t|^k gives, bit for bit, what the whole
    # expression gives over the same blocks; 300 offsets and 200 points
    # span four blocks
    rng = np.random.default_rng(k)
    ms = np.arange(1, 301)
    w = rng.uniform(0.1, 2.0, ms.size) * 0.97 ** ms
    ts = rng.uniform(1e-4, 4.0, 200)
    assert len(list(_blocks(ts.size, ms.size))) >= 3
    want = {"c0": np.empty(ts.size), "jaffard": np.empty(ts.size)}
    branch = np.empty(ts.size, dtype=int)
    for sl in _blocks(ts.size, ms.size):
        S = (2.0 * np.abs(np.sin(np.pi * ms * ts[sl, None]))) ** k
        want["c0"][sl] = S @ w
        want["jaffard"][sl] = (S * w).max(axis=1)
        branch[sl] = (S * w).argmax(axis=1)
    for kind, values in want.items():
        assert np.array_equal(_modulus(ts, ms, w, k, kind), values)
    assert np.array_equal(_argmax_branch(ts, ms, w, k), branch)


# geometric tails with M = 42, 829 and 8290 offsets, and one after a
# finite part on offsets -3..5
RUN_TAILS = {
    "inverse 1": geometric_inverse_symbol(1.0),
    "inverse 0.05": geometric_inverse_symbol(0.05, 2.4),
    "inverse 0.005": geometric_inverse_symbol(0.005),
    "finite part": ToeplitzSymbol({-3: 0.5, 0: 1.0, 2: -0.7, 5: 0.3},
                                  GeometricTail(math.exp(-0.05), 1.3)),
}


@pytest.mark.parametrize("name", list(RUN_TAILS))
def test_runs_of_constant_sign_match_the_direct_sum(name, monkeypatch):
    # the tail alone by its runs, and the whole c0 modulus as _modulus
    # dispatches it, against the direct sum at u = dist(t, Z), where the
    # direct sum is accurate: t on both sides of the crossover (the runs
    # cost more past u = 0.4) and past 1/2, away from simple fractions
    ms, w, geo = _offset_weights(RUN_TAILS[name], "c0", 0)
    sc, rho, m0, M = geo
    ts = np.concatenate([np.geomspace(1e-3, 0.45, 40),
                         [0.61, 1.23, 2.77, 3.91]])
    u = np.abs(ts - np.round(ts))
    tail = ms >= m0
    want = _modulus(u, ms[tail], w[tail], 1, "c0")
    assert _tail_runs(u, sc, rho, m0, M) == pytest.approx(want, rel=1e-14)
    taken = []
    monkeypatch.setattr(besov, "_tail_runs", lambda u, *args: taken.append(
        u.size) or _tail_runs(u, *args))
    got = _modulus(ts, ms, w, 1, "c0", geo)
    assert got == pytest.approx(_modulus(u, ms, w, 1, "c0"), rel=1e-14)
    if name == "inverse 1":
        # 42 offsets save less than one call of the runs costs
        assert taken == []
        assert np.array_equal(got, _modulus(ts, ms, w, 1, "c0"))
    else:
        assert len(taken) == 1 and 0 < taken[0] < ts.size


def test_runs_of_constant_sign_match_mpmath():
    # the gamma = 0.05 inverse's 829 offsets summed at 30 digits, the float
    # rho taken exactly, at 24 points of [0.001, 0.15]
    ms, _, (sc, rho, m0, M) = _offset_weights(geometric_inverse_symbol(0.05),
                                              "c0", 0)
    ts = np.geomspace(0.001, 0.15, 24)
    with mpmath.workdps(30):
        r = mpmath.mpf(rho)
        want = [float(mpmath.fsum(
            r ** m * abs(2 * mpmath.sin(mpmath.pi * m * mpmath.mpf(t)))
            for m in range(m0, M + 1))) for t in ts]
    assert ms.size == M == 829
    assert _tail_runs(ts, sc, rho, m0, M) == pytest.approx(want, rel=2e-15)


@seed(24)
@settings(max_examples=25, deadline=None)
@given(st.floats(math.log(0.005), 0.0), st.floats(0.5, 4.0),
       st.floats(0.1, 3.0), st.floats(1e-6, 0.5), st.booleans())
@example(math.log(0.005), 1.0, 0.6, 1e-6, False)
@example(math.log(0.05), 2.4, 0.3, 1e-3, True)
def test_chunk_bounds_cover_the_runs_form(log_gamma, scale, r, t_min,
                                          finite):
    # the search skips a chunk of its grid whose _shell_bounds falls below
    # a value found, so no value h computes on a chunk may exceed that
    # chunk's bound, on the runs of constant sign as on the direct sum
    tail = GeometricTail(math.exp(-math.exp(log_gamma)), scale)
    A = ToeplitzSymbol({-2: 0.4, 1: -1.1, 3: 0.2} if finite else {}, tail)
    ms, w, geo = _offset_weights(A, "c0", 0)
    edges = _shell_edges(t_min, 4.0)
    ts = np.exp(np.linspace(np.log(edges[:-1]), np.log(edges[1:]), 256,
                            axis=1)).reshape(edges.size - 1, -1, 16)
    bound = _shell_bounds(ms, w, 1, "c0", ts[..., 0], ts[..., -1], r)
    vals = ts ** (-r) * _modulus(ts, ms, w, 1, "c0", geo)
    assert (vals <= bound[..., None]).all()


def test_antiderivative_reads_integer_points_from_its_knots(monkeypatch):
    # an integer point x >= 1 is the end of the unit cells below it: F(x)
    # is their cumulative sum, and no cell of zero width is integrated
    seen = []

    def spy(a, h, s, k, n, units):
        ints = cell_integrals(a, h, s, k, n, units)
        seen.append((h, units, ints))
        return ints

    cell_integrals = besov._cell_integrals
    monkeypatch.setattr(besov, "_cell_integrals", spy)
    x = np.array([3.0, 2.5, 1.0, 7.0, 0.3, 5.0, 7.0, 0.25])
    F = _antiderivative(x, 0.5, 1)
    on = np.flatnonzero(x == np.floor(x))
    assert len(seen) == len(F)
    for row, (h, units, ints) in zip(F, seen):
        assert (h != 0).all()
        knots = np.concatenate([[0.0], np.cumsum(ints[:units])])
        assert np.array_equal(row[on], knots[x[on].astype(int) - 1])


@seed(20)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 4000).map(float),
                          st.integers(-40, 11).map(lambda e: 2.0 ** e),
                          st.floats(1e-12, 2.0 ** -20),
                          st.floats(2.0 ** -20, 4000.0)),
                min_size=1, max_size=30),
       st.floats(-0.9, 2.5), st.sampled_from([1, 2, 3]))
def test_antiderivative_equals_the_per_cell_rule(x, s, k):
    # the unit cells' shared row of sines changes no bit of F
    x = np.array(x)
    got = _antiderivative(x, s, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(besov, "_cell_integrals", cell_integrals_per_cell)
        want = _antiderivative(x, s, k)
    assert np.array_equal(got, want, equal_nan=True)


def test_multiplier_frozen_values():
    # mpmath quadrature of 2 int_eps^1 (cos(2 pi m t) - 1) t^-r dt
    targets = {1: -3.02333530303822, 2: -3.29845670811517,
               5: -3.54986598186379}
    got, err = _j_multipliers(list(targets), [0.01], 0.5)
    assert got[0] == pytest.approx(list(targets.values()), abs=1e-10)
    assert (err < 1e-6).all()


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_multiplier_matches_quad_cos_weight(r):
    ms = np.arange(1, 400)
    eps_grid = [0.3, 0.1, 0.03, 0.01]
    got, _ = _j_multipliers(ms, eps_grid, r)
    for row, eps in zip(got, eps_grid):
        if r == 1.0:
            plain = math.log(1.0 / eps)
        else:
            plain = (1.0 - eps ** (1.0 - r)) / (1.0 - r)
        want = [2.0 * (quad(lambda t: t ** (-r), eps, 1.0, weight="cos",
                            wvar=2.0 * math.pi * m, full_output=1)[0]
                       - plain) for m in ms]
        assert row == pytest.approx(want, abs=1e-9)


def test_hypersingular_frozen_values():
    h = hypersingular_seminorm(INV, 0.5)
    assert h.value == pytest.approx(5.03411662621746, rel=1e-9)
    h = hypersingular_seminorm(INV, 1.5)
    assert h.value == pytest.approx(22.5236972847762, rel=1e-9)


def test_hypersingular_sup_attained_at_smallest_eps():
    # |J_m(eps)| falls as eps grows, so the sup over every cutoff of the
    # grid is the finest one's, which the c0 and jaffard ambients read
    # alone: value, error and cutoff bit for bit, on inverses (0.05 with
    # its 829 offsets), a shift and a section
    family = [INV, geometric_inverse_symbol(0.05, 2.4),
              ToeplitzSymbol({3: 1.0}),
              random_decay_matrix(W, 2.0, 0.3, seed=[5, 0])]
    for A, ambient, r in itertools.product(family, ["c0", ("jaffard", 1.0)],
                                           [0.5, 1.0, 1.5]):
        est = hypersingular_seminorm(A, r, ambient)
        got = (est.value, est.quadrature_error, est.parameters["eps"])
        assert got == hypersingular_every_cutoff(A, r, ambient)
        assert got[2] == 0.01


@pytest.mark.parametrize("ambient", ["c0", ("jaffard", 1.0), "operator"])
@pytest.mark.parametrize("A", [make_toeplitz(ToeplitzSymbol({0: 1.0}), w)
                               for w in (IndexWindow(0, 0), W)],
                         ids=["1 x 1 window", "diagonal"])
def test_hypersingular_of_an_empty_profile_is_zero(A, ambient):
    # no offset has a multiplier: every ambient reads 0, with no error
    est = hypersingular_seminorm(A, 0.5, ambient=ambient)
    assert (est.value, est.quadrature_error) == (0.0, 0.0)


def test_hypersingular_range_check():
    with pytest.raises(ParameterError):
        hypersingular_seminorm(INV, 2.5)
    with pytest.raises(ParameterError):
        hypersingular_seminorm(INV, 0.0)


def test_identification_ratios_on_shifts():
    fam = [(f"T{m}", ToeplitzSymbol({m: 1.0})) for m in (1, 2, 4)]
    chk = identification_rate_check(fam, 0.5)
    assert len(chk["rows"]) == 3
    # moment of T_m at order r is m^r; ratios stay within a tight band
    assert chk["rows"][0]["moment"] == pytest.approx(1.0)
    assert chk["rows"][2]["moment"] == pytest.approx(2.0)
    assert chk["drift"] == pytest.approx(1.0586019211703772, rel=1e-6)
    assert chk["drift"] < 1.2


def test_identification_mixed_family():
    fam = [("inv05", INV), ("inv03", geometric_inverse_symbol(0.3))]
    chk = identification_rate_check(fam, 0.5)
    assert chk["drift"] < 1.5
    for row in chk["rows"]:
        assert row["seminorm"] > 0 and row["moment"] > 0


def test_besov_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        besov_seminorm(INV, 0.5, 1.0)
    with pytest.raises(ParameterError):
        besov_seminorm(INV, 1, -1.0)
    with pytest.raises(ParameterError):
        besov_seminorm(INV, 1, 0.5, 1, t_min=0.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: besov_seminorm(INV, 1, math.nan), id="r nan"),
    pytest.param(lambda: besov_seminorm(INV, 1, math.inf), id="r inf"),
    pytest.param(lambda: besov_seminorm(INV, 1, 0.5, 1.7), id="k 1.7"),
    pytest.param(lambda: besov_seminorm(INV, math.inf, 0.5, 1, t_min=0.01,
                                        t_max=math.inf), id="t_max inf"),
    pytest.param(lambda: besov_seminorm(INV, 1, 0.5, 1, t_min=math.nan),
                 id="t_min nan"),
])
def test_besov_inputs_out_of_range_raise_parameter_error(call):
    # a finite r > 0, an integral k >= 1 and a finite 0 < t_min < t_max;
    # anything else is a ParameterError, never a bare ValueError, a silent
    # truncation or a loop that never returns
    with pytest.raises(ParameterError):
        call()
