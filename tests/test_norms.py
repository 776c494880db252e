"""Decay norms: closed-form Toeplitz values, dual routes, Dales-Davie."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv import (IndexWindow, LatticeMatrix, ParameterError,
                      ToeplitzSymbol, Weight, ambient_norm, banded_error,
                      baskakov_bound_Jr, cv_norm, dales_davie_norm,
                      geometric_inverse_toeplitz, jaffard_norm,
                      make_toeplitz, random_decay_matrix)
from decayinv.besov import decay_moment
from decayinv.norms import a_m_gevrey, dk_norm_log, side_diag_sup
from decayinv.weights import SmoothnessSequence, log_phi_r

from oracles import a_m_bruteforce

W = IndexWindow(-32, 31)
GAMMAS = (0.1, 0.2, 0.5, 1.0)


def resolvent(gamma, window=W):
    x = math.exp(-gamma)
    return make_toeplitz(ToeplitzSymbol({0: 1.0, 1: -x}), window)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_resolvent_cv_norm_closed_form(gamma, r):
    A = resolvent(gamma)
    want = 1.0 + 2.0 ** r * math.exp(-gamma)
    assert abs(cv_norm(A, Weight.poly(r)) - want) < 1e-14 * want


@pytest.mark.parametrize("gamma", GAMMAS)
def test_inverse_c0_norm_closed_form(gamma):
    inv = geometric_inverse_toeplitz(gamma, W)
    want = 1.0 / (1.0 - math.exp(-gamma))
    assert abs(cv_norm(inv, Weight.poly(0.0)) - want) < 1e-12 * want


FINITE_SYMBOLS = st.dictionaries(
    st.integers(-20, 20),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12)


@seed(5)
@settings(max_examples=50, deadline=None)
@given(FINITE_SYMBOLS, st.sampled_from([0.0, 0.5, 1.0, 2.5]),
       st.integers(0, 22))
def test_symbol_and_window_routes_agree_on_finite_symbol(coeffs, r, k):
    # the window holds every offset of the symbol, so the routes read the
    # same profile and may differ only in summation order
    A = make_toeplitz(ToeplitzSymbol(coeffs), W)
    S = LatticeMatrix(W, A.entries)
    w = Weight.poly(r)
    for norm in (lambda B: cv_norm(B, w),
                 lambda B: jaffard_norm(B, r),
                 lambda B: banded_error(B, k),
                 lambda B: decay_moment(B, r)):
        s, v = norm(A), norm(S)
        assert math.isclose(s, v, rel_tol=1e-13), (s, v)
    for ambient in ("c0", ("jaffard", r)):
        for order in (0, 1, 3):
            s = dk_norm_log(A, order, ambient)
            v = dk_norm_log(S, order, ambient)
            # logs: relative 1e-13 on the norm
            assert s == v or abs(s - v) <= 1e-13, (ambient, order, s, v)


def test_side_diag_sup_matches_diagonal_loop():
    rng = np.random.default_rng(5)
    E = rng.normal(size=(W.n, W.n)) + 1j * rng.normal(size=(W.n, W.n))
    A = LatticeMatrix(W, E)
    for margin in (0, 5):
        offs, d = side_diag_sup(A, margin)
        inner = E[margin:W.n - margin, margin:W.n - margin]
        want = [np.abs(np.diagonal(inner, -m)).max() for m in offs]
        assert np.array_equal(d, want)


@pytest.mark.parametrize("margin", [-1, -5])
def test_negative_margin_is_rejected(margin):
    # margin = -1 once sliced a one-entry corner block out of the window,
    # so cv_norm read 0.8805 for the 1.6678 of margin 0; the symbol route,
    # which ignores the margin, checks it all the same
    A = random_decay_matrix(W, 2.0, 0.3, seed=[0, 1])
    for B in (A, resolvent(0.5)):
        with pytest.raises(ParameterError, match="nonnegative"):
            cv_norm(B, Weight.poly(0.0), margin=margin)
    with pytest.raises(ParameterError, match="nonnegative"):
        side_diag_sup(A, margin)
    with pytest.raises(ParameterError, match="nonnegative"):
        baskakov_bound_Jr(A, 2.0, margin=margin)


def test_window_route_truncates_geometric_tail():
    inv = geometric_inverse_toeplitz(0.5, W)
    w = Weight.poly(1.0)
    full = cv_norm(inv, w)
    trunc = cv_norm(LatticeMatrix(W, inv.entries), w)
    assert trunc <= full
    # missing mass is the tail beyond the window width
    tail = sum((1 + m) * math.exp(-0.5 * m) for m in range(W.n, W.n + 200))
    assert full - trunc == pytest.approx(tail, rel=1e-6)


def test_banded_error_geometric():
    inv = geometric_inverse_toeplitz(0.4, W)
    x = math.exp(-0.4)
    for k in (0, 1, 5):
        want = x ** (k + 1) / (1.0 - x)
        assert banded_error(inv, k) == pytest.approx(want, rel=1e-13)


def test_banded_error_past_the_band_is_float_zero():
    got = banded_error(resolvent(0.3), 1)
    assert type(got) is float and got == 0.0


def test_jaffard_norm_values():
    inv = geometric_inverse_toeplitz(0.5, W)
    # sup_m (1+m)^r e^{-0.5 m}: maximized near m = r/0.5 - 1
    r = 2.0
    want = max((1.0 + m) ** r * math.exp(-0.5 * m) for m in range(0, 50))
    assert jaffard_norm(inv, r) == pytest.approx(want, rel=1e-13)
    rng = np.random.default_rng(3)
    entries = rng.normal(size=(W.n, W.n))
    A = LatticeMatrix(W, entries)
    off = np.abs(np.arange(W.n)[:, None] - np.arange(W.n)[None, :])
    want = np.max(np.abs(entries) * (1.0 + off) ** r)
    assert jaffard_norm(A, r) == pytest.approx(want, rel=1e-13)


def test_ambient_norms():
    inv = geometric_inverse_toeplitz(0.5, W)
    assert ambient_norm(inv, "c0") == cv_norm(inv, Weight.poly(0.0))
    assert ambient_norm(inv, ("jaffard", 2.0)) == jaffard_norm(inv, 2.0)
    # finite section sits just below the infinite-lattice symbol sup
    x = math.exp(-0.5)
    got = ambient_norm(inv, "operator")
    assert got <= 1.0 / (1.0 - x) + 1e-9
    assert got == pytest.approx(1.0 / (1.0 - x), rel=2e-2)


@pytest.mark.parametrize("k", [1, 2, 4, 10, 40, 160])
def test_derivation_norm_is_polylog(k):
    # ||D^k inv||_C0 = sum_m m^k e^{-gamma m} = Li_{-k}(e^{-gamma}), whose
    # terms peak near m = k/gamma (16000 at the far corner); compared in
    # log space since the value passes float range there
    for gamma in (0.5, 0.3, 0.1, 0.05, 0.01):
        inv = geometric_inverse_toeplitz(gamma, W)
        got = dk_norm_log(inv, k, "c0")
        with mp.workdps(30):
            want = float(mp.log(mp.polylog(-k, mp.exp(-gamma))))
        assert abs(math.expm1(got - want)) <= 1e-11, gamma


def test_dk_norm_routes_agree_when_window_holds_mass():
    # gamma large enough that the tail past the window is negligible
    inv = geometric_inverse_toeplitz(1.5, W)
    for k in (1, 3):
        s = dk_norm_log(inv, k, "c0")
        w = dk_norm_log(LatticeMatrix(W, inv.entries), k, "c0")
        assert s == pytest.approx(w, abs=1e-10)


def test_dales_davie_norm_finite_matches_manual_sum():
    inv = geometric_inverse_toeplitz(0.8, W)
    K = 6
    manual = sum(math.exp(dk_norm_log(inv, m, "c0"))
                 / math.factorial(m) for m in range(0, K + 1))
    got = dales_davie_norm(inv, SmoothnessSequence.finite(K))
    assert got.value == pytest.approx(manual, rel=1e-13)


def test_dales_davie_norm_tracks_phi_shape():
    # r = 2: the full norm behaves like gamma^{-1} phi_1(1/gamma)
    gamma = 0.3
    inv = geometric_inverse_toeplitz(gamma, W)
    val = dales_davie_norm(inv, SmoothnessSequence.gevrey(2.0))
    assert val.converged
    comp = math.log(1.0 / gamma) + log_phi_r(1.0 / gamma, 1.0)
    ratio = math.exp(val.log_value - comp)
    assert 0.9 < ratio < 1.1


@pytest.mark.parametrize("gamma", [0.1, 0.05, 0.02])
def test_dales_davie_norm_meets_phi_shape(gamma):
    # gevrey(2): sum_k Li_{-k}(e^{-gamma})/k! -> gamma^{-1} phi_1(1/gamma)
    # as gamma -> 0; a tail cut short of the peak k/gamma reads low
    inv = geometric_inverse_toeplitz(gamma, W)
    val = dales_davie_norm(inv, SmoothnessSequence.gevrey(2.0))
    comp = math.log(1.0 / gamma) + log_phi_r(1.0 / gamma, 1.0)
    assert abs(math.exp(val.log_value - comp) - 1.0) <= 1e-5


def test_dales_davie_finite_sequence_stops_at_kmax():
    inv = geometric_inverse_toeplitz(0.5, W)
    val = dales_davie_norm(inv, SmoothnessSequence.finite(3))
    assert val.kmax_used <= 3
    manual = cv_norm(inv, Weight.poly(0.0)) + sum(
        math.exp(dk_norm_log(inv, k, "c0") - math.lgamma(k + 1.0))
        for k in range(1, 4))
    assert val.value == pytest.approx(manual, rel=1e-12)


def test_dales_davie_finite_sequence_beyond_the_order_cap():
    # a sequence with a last order past the cap of unbounded ones is summed
    # through it: ||D^k A|| = 200^k here, so the norm is
    # sum_{k <= 500} 200^k / k!, whose terms peak at k = 200
    A = make_toeplitz(ToeplitzSymbol({200: 1.0}), IndexWindow(-4, 3))
    val = dales_davie_norm(A, SmoothnessSequence.finite(500))
    logs = [k * math.log(200.0) - math.lgamma(k + 1.0) for k in range(501)]
    top = max(logs)
    ref = top + math.log(math.fsum(math.exp(x - top) for x in logs))
    assert val.converged and val.kmax_used > 200
    assert val.log_value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_gevrey_comparison_scale_oracle(r):
    for m in range(1, 6):
        brute = a_m_bruteforce(SmoothnessSequence.gevrey(r), m, kmax=15)
        closed = a_m_gevrey(r, m)
        assert abs(brute - closed) < 1e-12


def test_gevrey_scale_monotone_below_one():
    for r in (1.5, 2.0):
        vals = [a_m_gevrey(r, m) for m in range(1, 12)]
        assert all(v <= 1.0 + 1e-15 for v in vals)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
