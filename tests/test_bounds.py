"""Inversion bounds: series factors, geometric-factor and closed bounds.

The series factor closed forms used as oracles:
    sum_k (1+k) x^k   = 1/(1-x)^2
    sum_k (1+k)^2 x^k = (1+x)/(1-x)^3
with x = 1 - beta, so ell_1 = 8 n /beta^2 and ell_2 = 8 n (2-beta)/beta^3.
"""

import math
import timeit

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv import (IndexWindow, LatticeMatrix, NumericalError,
                      ParameterError, RangeError, SingularityError,
                      ToeplitzSymbol, Weight, apply_automorphism,
                      baskakov_bound_Cr, baskakov_bound_Jr, besov_bound,
                      bessel_rate_bound, constant_Cr_numeric,
                      dales_davie_bound, dd_domain_bound, ell_r,
                      ell_tilde_r, explicit_bound_Cr, explicit_bound_Jr,
                      integral_test_bracket, invert_truncated, jaffard_norm,
                      make_toeplitz, operator_norm_l2, phi_Ar,
                      random_decay_matrix, weighted_geometric_series, cv_norm)
from decayinv import bounds
from decayinv.bounds import condition_data, derived_constant_Jr_log, gamma_r
from decayinv.lattice import geometric_inverse_symbol
from decayinv.norms import banded_error, dales_davie_norm
from decayinv.weights import (SmoothnessSequence, log_concave_sum,
                              log_phi_r, log_poly_geometric)

W = IndexWindow(-32, 31)


def resolvent(gamma):
    x = math.exp(-gamma)
    return ToeplitzSymbol({0: 1.0, 1: -x})


def test_weighted_series_closed_forms():
    for q in (0.3, 0.9, 0.99):
        total, _ = weighted_geometric_series(q, 0.0)
        assert total == pytest.approx(1.0 / (1.0 - q), rel=1e-12)
        total, _ = weighted_geometric_series(q, 1.0)
        assert total == pytest.approx((1.0 - q) ** -2, rel=1e-12)
        total, _ = weighted_geometric_series(q, 2.0)
        assert total == pytest.approx((1.0 + q) / (1.0 - q) ** 3, rel=1e-12)


def test_weighted_series_fractional_vs_mpmath():
    q, r = 0.95, 2.5
    total, terms = weighted_geometric_series(q, r)
    want = float(mp.nsum(lambda k: (1 + k) ** r * mp.mpf(q) ** k,
                         [0, mp.inf]))
    assert total == pytest.approx(want, rel=1e-10)
    assert terms > 100


def test_ell_r_at_a_large_condition_number():
    # an integer r reads the polylog tail in r + 1 steps, so kappa = 1e5
    # (5e9 terms of the direct sum) is no harder than kappa = 2
    kappa = 1e5
    el = ell_r(1.0, kappa, 2.0)
    q = 1.0 - 1.0 / (24.0 * kappa + 1.0)
    with mp.workdps(40):
        want = (1 + mp.mpf(q)) / (1 - mp.mpf(q)) ** 3
        err = float(abs(el.series / want - 1))
    bound = (3 * 7 + 5 * abs(math.log(el.series))
             + 12 * abs(math.log(q)) + 7) * 2.0 ** -53
    assert err <= bound
    assert el.terms == 3 and el.value == 8.0 * el.series
    assert min(timeit.repeat(lambda: ell_r(1.0, kappa, 2.0), number=1,
                             repeat=5)) < 1e-3


def test_fractional_r_keeps_the_log_concave_sum(monkeypatch):
    # r = 2.5 sums term by term, bit for bit as before, and still meets
    # the term cap at kappa = 1e5
    calls = []

    def counted(*args):
        calls.append(args)
        return log_concave_sum(*args)
    monkeypatch.setattr(bounds, "log_concave_sum", counted)
    q = 0.95
    log_value, terms = log_concave_sum(
        lambda ks: log_poly_geometric(ks, 0.0, 2.5, q), 0)
    assert weighted_geometric_series(q, 2.5) == (math.exp(log_value), terms)
    assert len(calls) == 1
    with pytest.raises(NumericalError, match="50000000 terms"):
        ell_r(1.0, 1e5, 2.5)
    assert len(calls) == 2


def test_bracket_upper_holds_lower_depends_on_r():
    # Sum_k (1+k)^r e^{-gamma k} <= 2 e^gamma Gamma(r+1) gamma^{-r-1}
    # always holds on this grid; the matching lower bound only holds for
    # r = 3, with a limiting deficit of zeta(-r) for r in {1, 2}
    for gamma in (0.5, 0.2, 0.1, 0.05):
        for r in (1.0, 2.0, 3.0):
            total, _ = weighted_geometric_series(math.exp(-gamma), r)
            lo, hi = integral_test_bracket(gamma, r)
            assert hi == pytest.approx(2.0 * lo, rel=1e-15)
            assert total <= hi
            if r == 3.0:
                assert total >= lo
            else:
                assert total < lo  # known deficit, see below


def test_bracket_deficit_limits():
    # gamma -> 0: Sum - lo -> zeta(-r); negative for r in {1, 2}
    gamma = 0.005
    for r, lim in ((1.0, -1.0 / 12.0), (3.0, 1.0 / 120.0)):
        total, _ = weighted_geometric_series(math.exp(-gamma), r)
        lo, _ = integral_test_bracket(gamma, r)
        assert total - lo == pytest.approx(lim, abs=5e-3)


def test_ell_r_closed_forms():
    A = resolvent(0.5)
    kappa, _, nainv = condition_data(A)
    beta = 1.0 / (24.0 * kappa + 1.0)
    el1 = ell_r(nainv, kappa, 1.0)
    assert el1.beta == pytest.approx(beta, rel=1e-14)
    assert el1.value == pytest.approx(8.0 * nainv / beta ** 2, rel=1e-10)
    el2 = ell_r(nainv, kappa, 2.0)
    assert el2.value == pytest.approx(
        8.0 * nainv * (2.0 - beta) / beta ** 3, rel=1e-10)
    assert el2.bracket_high == pytest.approx(2.0 * el2.bracket_low, rel=1e-15)
    with pytest.raises(ParameterError):
        ell_r(1.0, 0.5, 1.0)


def test_ell_tilde_dominated_by_series_factor():
    # sup_k <= Sum_k term by term, so ell~_r <= (gamma_r/8) ell_r
    A = resolvent(0.3)
    kappa, _, nainv = condition_data(A)
    for r in (1.5, 2.0, 3.0):
        elt = ell_tilde_r(nainv, kappa, r)
        el = ell_r(nainv, kappa, r)
        assert elt.value <= gamma_r(r) / 8.0 * el.value * (1 + 1e-12)
        # argmax matches a direct scan
        ks = np.arange(0, 10000)
        scan = (1.0 - elt.beta) ** ks * (1.0 + ks) ** r
        assert elt.argmax_k == int(scan.argmax())


def test_gamma_r_values_and_blowup():
    assert gamma_r(2.0) == 24.0
    assert gamma_r(3.0) == 32.0
    assert gamma_r(1.1) == pytest.approx(2.0 ** 2.1 * 2.1 / 0.1, rel=1e-14)
    assert gamma_r(1.01) > 800.0 > gamma_r(1.1) > 24.0
    with pytest.raises(ParameterError):
        gamma_r(1.0)


def test_phi_Ar_is_minimal():
    A = resolvent(2.0)
    r, t = 2.0, 0.5
    kappa, _, nainv = condition_data(A)
    el = ell_r(nainv, kappa, r)
    na = cv_norm(A, Weight.poly(r))
    phi = phi_Ar(A, r, t, na, el.value, nainv)

    def crit(k):
        dec = 2.0 * 3.0 ** r * k ** (-r) * na * el.value
        tail = 2.0 * banded_error(A, k) * nainv
        return max(dec, tail) <= t

    assert crit(phi)
    assert phi == 1 or not crit(phi - 1)
    # literal scan agrees
    k = 1
    while not crit(k):
        k += 1
    assert k == phi


def test_phi_Ar_frozen_regression():
    A = resolvent(0.2)
    kappa, _, nainv = condition_data(A)
    el = ell_r(nainv, kappa, 2.0)
    na = cv_norm(A, Weight.poly(2.0))
    phi = phi_Ar(A, 2.0, 0.5, na, el.value, nainv)
    assert phi == 437771
    # minimality at scale: both neighbours behave as required
    c1 = 2.0 * 9.0 * na * el.value
    assert c1 * phi ** -2.0 <= 0.5 < c1 * (phi - 1.0) ** -2.0


def test_phi_Ar_rejects_bad_t():
    A = resolvent(1.0)
    for t in (0.0, 0.6, -0.1):
        with pytest.raises(ParameterError):
            phi_Ar(A, 1.0, t, 1.0, 1.0, 1.0)


def test_baskakov_bounds_on_resolvent():
    A = resolvent(0.5)
    inv = geometric_inverse_symbol(0.5)
    rep = baskakov_bound_Cr(A, 2.0, inverse=inv)
    assert rep.satisfied
    assert rep.bound_value == pytest.approx(
        4.0 * rep.intermediates["ell_r"] * rep.intermediates["Phi"]
        * (1.0 + rep.intermediates["Phi"]) ** 2.0, rel=1e-12)
    repj = baskakov_bound_Jr(A, 2.0, inverse=inv)
    assert repj.satisfied
    assert repj.measured_value == pytest.approx(jaffard_norm(inv, 2.0),
                                                rel=1e-13)


@seed(13)
@settings(max_examples=50, deadline=None)
@given(st.sampled_from([1.5, 2.0, 3.0]), st.floats(0.05, 0.3),
       st.integers(0, 2 ** 32 - 1))
def test_bounds_hold_on_random_decay_instances(r, eps, rng_seed):
    # the bound set of the inversion benchmark's random instances, with
    # the margin a quarter of the window as there
    A = random_decay_matrix(W, r, eps, seed=rng_seed)
    inv = invert_truncated(A)
    margin = W.n // 4
    na_op, ninv_op = operator_norm_l2(A), operator_norm_l2(inv)
    reports = [
        baskakov_bound_Cr(A, r, method="window", margin=margin, inverse=inv),
        baskakov_bound_Jr(A, r, method="window", margin=margin, inverse=inv),
        explicit_bound_Cr(cv_norm(A, Weight.poly(r)), na_op, ninv_op, r,
                          measured=cv_norm(inv, Weight.poly(r),
                                           margin=margin)),
        explicit_bound_Jr(jaffard_norm(A, r), na_op, ninv_op, r,
                          measured=jaffard_norm(inv, r, margin=margin))]
    for rep in reports:
        assert rep.satisfied, rep


def test_baskakov_t_grid_picks_smaller_bound():
    A = resolvent(1.0)
    inv = geometric_inverse_symbol(1.0)
    base = baskakov_bound_Cr(A, 1.0, inverse=inv)
    refined = baskakov_bound_Cr(A, 1.0, t_grid=[0.1, 0.25, 0.5], inverse=inv)
    assert refined.bound_value <= base.bound_value


def test_constant_Cr_numeric_exact_at_one():
    assert constant_Cr_numeric(1.0) == 409600.0
    # 128 * 50^2 * 64^(1/2) * Gamma(3)^(3/2) = 128*2500*8*2^1.5
    assert constant_Cr_numeric(2.0) == pytest.approx(
        128.0 * 2500.0 * 8.0 * 2.0 ** 1.5, rel=1e-14)
    with pytest.raises(RangeError):
        constant_Cr_numeric(150.0)


def test_explicit_Cr_report_shape():
    rep = explicit_bound_Cr(2.0, 1.8, 10.0, 2.0)
    want = (constant_Cr_numeric(2.0) * 2.0 ** 1.5 * 1.8 ** 8.0
            * 10.0 ** 10.0)
    assert rep.bound_value == pytest.approx(want, rel=1e-12)
    assert rep.intermediates["rate_exponent"] == 10.0
    # operator norm below the algebra norm keeps the simplified form above
    assert rep.intermediates["simplified_bound"] >= rep.bound_value
    with pytest.raises(ParameterError):
        explicit_bound_Cr(2.0, 0.5, 1.0, 2.0)  # ||A||*||A^{-1}|| < 1


def test_explicit_Jr_dominates_baskakov_Jr():
    # the derived constant was assembled to absorb the per-instance
    # geometric factors for kappa >= 1, so the closed bound sits above
    for gamma in (0.2, 0.5, 1.0):
        A = resolvent(gamma)
        inv = geometric_inverse_symbol(gamma)
        _, na_op, ninv_op = condition_data(A)
        rep_b = baskakov_bound_Jr(A, 2.0, inverse=inv)
        rep_e = explicit_bound_Jr(jaffard_norm(A, 2.0), na_op, ninv_op, 2.0)
        assert rep_e.bound_value >= rep_b.bound_value
        assert rep_e.intermediates["power_form_bound"] >= rep_e.bound_value


def test_derived_constant_Jr_monotone_pieces():
    # blows up as r -> 1 and grows with r through the (25r/e)^r factor
    assert derived_constant_Jr_log(1.05) > derived_constant_Jr_log(1.5)
    assert derived_constant_Jr_log(4.0) > derived_constant_Jr_log(2.0)


@pytest.mark.parametrize("r", [1.5, 2.0, 500.0, 2000.0])
def test_derived_constant_Jr_log_matches_mpmath(r):
    # the constant's own formula at 30 digits; at r = 500 the float
    # product 2 3^r gamma_r once overflowed to inf and dropped the factor
    # mu^r, and at r = 2000 3.0 ** r raised OverflowError
    with mp.workdps(30):
        R = mp.mpf(r)
        g = 2 ** (R + 1) * (R + 1) / (R - 1)
        G = g * mp.mpf(25) / 24 * (25 * R / mp.e) ** R
        x0 = 2 * 3 ** R * g / (2 * mp.zeta(R) - 1)
        mu = 1 + 2 * x0 ** (-1 / (R - 1))
        want = mp.log(4 * mu ** R * (2 * 3 ** R) ** (R / (R - 1))
                      * G ** (2 + 1 / (R - 1)))
    assert derived_constant_Jr_log(r) == pytest.approx(float(want), rel=1e-13)


def test_Jr_bounds_read_inf_past_float_range():
    # the constant's log is finite, its value is not: the bounds read inf,
    # and gamma_r raises a RangeError carrying its log
    rep = explicit_bound_Jr(1.0, 1.0, 1.0, 2000.0)
    assert rep.intermediates["C_tilde_r"] == math.inf
    assert rep.bound_value == math.inf
    assert math.isfinite(rep.intermediates["log_bound"])
    with pytest.raises(RangeError) as info:
        gamma_r(2000.0)
    assert info.value.log_value == pytest.approx(
        2001.0 * math.log(2.0) + math.log(2001.0 / 1999.0), rel=1e-14)


def test_explicit_Jr_rejects_a_condition_number_below_one():
    # as explicit_bound_Cr does: ||A|| ||A^{-1}|| < 1 is no pair of norms
    with pytest.raises(ParameterError):
        explicit_bound_Jr(2.0, 0.5, 1.0, 2.0)


def test_condition_routes_agree():
    A = resolvent(0.5)
    k_sym = condition_data(A)[0]
    k_win = condition_data(make_toeplitz(A, W))[0]
    x = math.exp(-0.5)
    assert k_sym == pytest.approx((1.0 + x) / (1.0 - x), rel=1e-10)
    # the finite section is better conditioned than the symbol sup
    assert k_win <= k_sym * (1 + 1e-9)
    assert k_win == pytest.approx(k_sym, rel=0.05)


def test_window_norm_data_tridiagonal_closed_form():
    # tridiag(1/4, 1, 1/4) is positive definite with eigenvalues
    # 1 + cos(j pi/(n+1))/2, so its singular values are known without
    # LAPACK; the phase automorphism is a unitary similarity
    for n in (16, 64, 128):
        c = 0.5 * math.cos(math.pi / (n + 1))
        hi, lo = 1.0 + c, 1.0 - c
        T = make_toeplitz(ToeplitzSymbol({-1: 0.25, 0: 1.0, 1: 0.25}),
                          IndexWindow(0, n - 1))
        for A in (T, apply_automorphism(T, 0.3)):
            assert operator_norm_l2(A) == pytest.approx(hi, rel=1e-13)
            got = condition_data(A)
            assert got == pytest.approx((hi / lo, hi, 1.0 / lo), rel=1e-13)


def test_condition_data_window_rejects_rank_one():
    A = LatticeMatrix(W, np.ones((W.n, W.n), dtype=complex))
    s = np.linalg.svd(A.entries, compute_uv=False)
    with pytest.raises(SingularityError) as info:
        condition_data(A)
    assert info.value.rcond == s[-1] / s[0]


def test_baskakov_window_method_reads_the_section():
    # the one method keyword left only checks: a section is read alike
    # under "auto" and "window", field for field, and "window" refuses
    # a symbol, which has no window
    T = resolvent(0.5)
    S = make_toeplitz(T, W)
    assert baskakov_bound_Cr(S, 2.0, method="window") == \
        baskakov_bound_Cr(S, 2.0)
    assert baskakov_bound_Jr(S, 2.0, method="window") == \
        baskakov_bound_Jr(S, 2.0)
    inv = geometric_inverse_symbol(0.5)
    for bound in (baskakov_bound_Cr, baskakov_bound_Jr):
        with pytest.raises(ParameterError, match="needs a window"):
            bound(T, 2.0, method="window", inverse=inv)


@pytest.mark.parametrize("method", ["windw", "symbol"])
def test_baskakov_bounds_reject_an_unknown_method(method):
    T = resolvent(0.5)
    with pytest.raises(ParameterError, match="unknown method"):
        baskakov_bound_Cr(T, 2.0, method=method)
    with pytest.raises(ParameterError, match="unknown method"):
        baskakov_bound_Jr(T, 2.0, method=method)


def test_dd_domain_bound_routes():
    rep = dd_domain_bound(3.0, 2.0, 4)
    q = 6.0
    gsum = (q ** 4 - 1.0) / (q - 1.0)
    assert rep.bound_value == pytest.approx(9.0 * 2.0 * gsum, rel=1e-13)
    # simplified overestimate is attached and dominates
    simp = rep.intermediates["simplified_bound"]
    assert simp == pytest.approx(2.0 * 3.0 ** 5 * 2.0 ** 4, rel=1e-13)
    assert simp >= rep.bound_value
    assert rep.intermediates["rate_exponent"] == 5.0
    # q = 1 limit
    rep = dd_domain_bound(1.0, 1.0, 7)
    assert rep.bound_value == 7.0


def test_besov_bound_first_order_rule():
    # floor(r) = 0 collapses to ||a^{-1}||^2 ||a||
    rep = besov_bound(5.0, 0.3, 0.5)
    assert rep.bound_value == pytest.approx(25.0 * 0.3, rel=1e-13)
    assert rep.intermediates["rate_exponent"] == 2.0
    rep = besov_bound(5.0, 0.3, 1.5)
    q = 1.5
    assert rep.bound_value == pytest.approx(
        25.0 * 0.3 * (q ** 2 - 1.0) / (q - 1.0), rel=1e-13)
    assert rep.intermediates["rate_exponent"] == 3.0


def test_geometric_factor_bounds_overflow_to_inf():
    # q^n past float range reads inf in both bounds; ||a^{-1}||^2 past it
    # does not overflow a bound that fits, ||a^{-1}|| q (q^n - 1)/(q - 1)
    assert besov_bound(1e100, 1e100, 2.5).bound_value == math.inf
    assert dd_domain_bound(1e100, 1e100, 3).bound_value == math.inf
    assert besov_bound(1e200, 1e-300, 2.5).bound_value == \
        pytest.approx(1e100, rel=1e-13)
    assert dd_domain_bound(1e200, 1e-300, 3).bound_value == \
        pytest.approx(3e100, rel=1e-13)


def test_bessel_rate_bound():
    rep = bessel_rate_bound(4.0, 0.7, 0.5)
    assert rep.bound_value == pytest.approx(64.0 * 0.49, rel=1e-13)
    assert rep.intermediates["rate_exponent"] == 3.0
    with pytest.raises(ParameterError):
        bessel_rate_bound(4.0, 0.7, 1.2)


def test_bessel_rate_bound_overflows_to_inf():
    # ||a^{-1}||^3 past float range does not overflow a bound that fits
    assert bessel_rate_bound(1e200, 1e-200, 0.5).bound_value == \
        pytest.approx(1e200, rel=1e-12)
    assert bessel_rate_bound(1e200, 1.0, 0.5).bound_value == math.inf


def test_dales_davie_bound_gevrey_matches_composition():
    rep = dales_davie_bound(8.0, mode="gevrey", gevrey_r=2.0)
    want = math.log(8.0) + log_phi_r(8.0, 1.0)
    assert math.log(rep.bound_value) == pytest.approx(want, rel=1e-12)


def test_dales_davie_bound_general_crossover():
    # A_m = 1/m! crosses delta/2 quickly; bound is finite and above 1/delta
    ams = [1.0 / math.factorial(m) for m in range(1, 30)]
    rep = dales_davie_bound(4.0, a_m=ams, mode="general")
    assert rep.intermediates["m_delta"] is not None
    assert math.isfinite(rep.bound_value)
    assert rep.bound_value > 4.0
    # constant sequence never crosses: inconclusive, bound inf
    rep = dales_davie_bound(4.0, a_m=[1.0] * 50, mode="general")
    assert rep.intermediates["inconclusive"]
    assert rep.bound_value == math.inf


def test_dales_davie_bound_actually_controls_resolvent():
    # normalized family: a = C~_gamma with ||a||_DD <= 1 under gevrey(2)
    gamma = 0.5
    A = resolvent(gamma)
    seq = SmoothnessSequence.gevrey(2.0)
    na = dales_davie_norm(A, seq).value
    inv_n = geometric_inverse_symbol(gamma, scale=na)
    ninv = cv_norm(inv_n, Weight.poly(0.0))
    measured = dales_davie_norm(inv_n, seq).value
    rep = dales_davie_bound(ninv, mode="gevrey", gevrey_r=2.0,
                            measured=measured)
    assert rep.satisfied


def test_bound_report_satisfaction_flag():
    rep = besov_bound(2.0, 1.0, 0.5, measured=3.9)
    assert rep.satisfied is True
    rep = besov_bound(2.0, 1.0, 0.5, measured=4.1)
    assert rep.satisfied is False
    assert rep.bound_name == "besov_control"
    assert rep.measured_value == 4.1
