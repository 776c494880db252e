"""Decay norms: closed-form Toeplitz values, dual routes, Dales-Davie."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv import (GeometricTail, IndexWindow, LatticeMatrix,
                      ParameterError, ToeplitzSymbol, Weight, ambient_norm,
                      banded_error,
                      baskakov_bound_Jr, besov_seminorm, cv_norm,
                      dales_davie_norm, geometric_inverse_toeplitz,
                      hypersingular_seminorm, jaffard_norm, make_toeplitz,
                      modulus_profile, random_decay_matrix)
from decayinv.besov import decay_moment
from decayinv.lattice import geometric_inverse_symbol
from decayinv import norms
from decayinv.norms import (a_m_gevrey, decay_profile, dk_norm_log,
                            dk_norm_logs, side_diag_sup)
from decayinv.weights import SmoothnessSequence, log_concave_sum, log_phi_r

from oracles import (a_m_bruteforce, dales_davie_per_order,
                     dk_norm_log_per_order)

W = IndexWindow(-32, 31)
GAMMAS = (0.1, 0.2, 0.5, 1.0)


def resolvent(gamma):
    x = math.exp(-gamma)
    return ToeplitzSymbol({0: 1.0, 1: -x})


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_resolvent_cv_norm_closed_form(gamma, r):
    A = resolvent(gamma)
    want = 1.0 + 2.0 ** r * math.exp(-gamma)
    assert abs(cv_norm(A, Weight.poly(r)) - want) < 1e-14 * want


@pytest.mark.parametrize("gamma", GAMMAS)
def test_inverse_c0_norm_closed_form(gamma):
    inv = geometric_inverse_symbol(gamma)
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
    A = ToeplitzSymbol(coeffs)
    S = make_toeplitz(A, W)
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


@seed(17)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 130), st.data())
def test_side_diag_sup_matches_diagonal_loop_at_every_size(k, data):
    margin = data.draw(st.integers(0, 64))
    n = k + 2 * margin
    window = IndexWindow(-(n // 2), n - n // 2 - 1)
    rng = np.random.default_rng([k, margin])
    E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    offs, d = side_diag_sup(LatticeMatrix(window, E), margin)
    inner = E[margin:n - margin, margin:n - margin]
    assert np.array_equal(offs, np.arange(-(k - 1), k))
    assert np.array_equal(d, [np.abs(np.diagonal(inner, -m)).max()
                              for m in offs])


OPERATOR_ROUTES = {
    "ambient_norm": lambda A, m: ambient_norm(A, "operator", margin=m),
    "dk_norm_log": lambda A, m: dk_norm_log(A, 1, "operator", margin=m),
    "dales_davie_norm": lambda A, m: dales_davie_norm(
        A, SmoothnessSequence.finite(2), "operator", margin=m).value,
    "modulus_profile": lambda A, m: modulus_profile(
        A, [0.1, 0.3], 1, "operator", margin=m),
    "besov_seminorm": lambda A, m: besov_seminorm(
        A, math.inf, 0.5, ambient="operator", margin=m, t_min=0.1,
        t_max=0.5).value,
    "hypersingular_seminorm": lambda A, m: hypersingular_seminorm(
        A, 0.5, ambient="operator", margin=m).value,
}


@pytest.mark.parametrize("route", sorted(OPERATOR_ROUTES))
def test_operator_ambient_checks_the_margin(route):
    # the operator ambient reads the whole section, so a margin changes
    # nothing, but one that the c0 and Jaffard ambients reject (negative,
    # or emptying the window) is rejected here too
    A = random_decay_matrix(W, 2.0, 0.3, seed=[0, 1])
    call = OPERATOR_ROUTES[route]
    for margin in (-1, -3, W.n // 2, 40):
        with pytest.raises(ParameterError):
            call(A, margin)
    assert np.array_equal(call(A, 5), call(A, 0))


@pytest.mark.parametrize("margin", [-1, -5])
def test_negative_margin_is_rejected(margin):
    # margin = -1 once sliced a one-entry corner block out of the window,
    # so cv_norm read 0.8805 for the 1.6678 of margin 0; a symbol has no
    # window, and refuses every nonzero margin
    A = random_decay_matrix(W, 2.0, 0.3, seed=[0, 1])
    with pytest.raises(ParameterError, match="nonnegative"):
        cv_norm(A, Weight.poly(0.0), margin=margin)
    with pytest.raises(ParameterError, match="needs a window"):
        cv_norm(resolvent(0.5), Weight.poly(0.0), margin=margin)
    with pytest.raises(ParameterError, match="nonnegative"):
        side_diag_sup(A, margin)
    with pytest.raises(ParameterError, match="nonnegative"):
        baskakov_bound_Jr(A, 2.0, margin=margin)


def test_window_route_truncates_geometric_tail():
    w = Weight.poly(1.0)
    full = cv_norm(geometric_inverse_symbol(0.5), w)
    trunc = cv_norm(geometric_inverse_toeplitz(0.5, W), w)
    assert trunc <= full
    # missing mass is the tail beyond the window width
    tail = sum((1 + m) * math.exp(-0.5 * m) for m in range(W.n, W.n + 200))
    assert full - trunc == pytest.approx(tail, rel=1e-6)


def test_banded_error_geometric():
    inv = geometric_inverse_symbol(0.4)
    x = math.exp(-0.4)
    for k in (0, 1, 5):
        want = x ** (k + 1) / (1.0 - x)
        assert banded_error(inv, k) == pytest.approx(want, rel=1e-13)


def test_banded_error_past_the_band_is_float_zero():
    got = banded_error(resolvent(0.3), 1)
    assert type(got) is float and got == 0.0


def test_jaffard_norm_values():
    inv = geometric_inverse_symbol(0.5)
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
    inv = geometric_inverse_symbol(0.5)
    assert ambient_norm(inv, "c0") == cv_norm(inv, Weight.poly(0.0))
    assert ambient_norm(inv, ("jaffard", 2.0)) == jaffard_norm(inv, 2.0)
    # the operator ambient needs a window: the finite section sits just
    # below the infinite-lattice symbol sup
    with pytest.raises(ParameterError, match="needs a window"):
        ambient_norm(inv, "operator")
    x = math.exp(-0.5)
    got = ambient_norm(make_toeplitz(inv, W), "operator")
    assert got <= 1.0 / (1.0 - x) + 1e-9
    assert got == pytest.approx(1.0 / (1.0 - x), rel=2e-2)


@pytest.mark.parametrize("k", [1, 2, 4, 10, 40, 160])
def test_derivation_norm_is_polylog(k):
    # ||D^k inv||_C0 = sum_m m^k e^{-gamma m} = Li_{-k}(e^{-gamma}), whose
    # terms peak near m = k/gamma (16000 at the far corner); compared in
    # log space since the value passes float range there
    for gamma in (0.5, 0.3, 0.1, 0.05, 0.01):
        got = dk_norm_log(geometric_inverse_symbol(gamma), k, "c0")
        with mp.workdps(30):
            want = float(mp.log(mp.polylog(-k, mp.exp(-gamma))))
        assert abs(math.expm1(got - want)) <= 1e-12, gamma


def test_dk_norm_routes_agree_when_window_holds_mass():
    # gamma large enough that the tail past the window is negligible
    for k in (1, 3):
        s = dk_norm_log(geometric_inverse_symbol(1.5), k, "c0")
        w = dk_norm_log(geometric_inverse_toeplitz(1.5, W), k, "c0")
        assert s == pytest.approx(w, abs=1e-10)


def test_dales_davie_norm_finite_matches_manual_sum():
    inv = geometric_inverse_symbol(0.8)
    K = 6
    manual = sum(math.exp(dk_norm_log(inv, m, "c0"))
                 / math.factorial(m) for m in range(0, K + 1))
    got = dales_davie_norm(inv, SmoothnessSequence.finite(K))
    assert got.value == pytest.approx(manual, rel=1e-13)


def test_dales_davie_norm_tracks_phi_shape():
    # r = 2: the full norm behaves like gamma^{-1} phi_1(1/gamma)
    gamma = 0.3
    inv = geometric_inverse_symbol(gamma)
    val = dales_davie_norm(inv, SmoothnessSequence.gevrey(2.0))
    assert val.converged
    comp = math.log(1.0 / gamma) + log_phi_r(1.0 / gamma, 1.0)
    ratio = math.exp(val.log_value - comp)
    assert 0.9 < ratio < 1.1


@pytest.mark.parametrize("gamma", [0.1, 0.05, 0.02])
def test_dales_davie_norm_meets_phi_shape(gamma):
    # gevrey(2): sum_k Li_{-k}(e^{-gamma})/k! -> gamma^{-1} phi_1(1/gamma)
    # as gamma -> 0; a tail cut short of the peak k/gamma reads low
    inv = geometric_inverse_symbol(gamma)
    val = dales_davie_norm(inv, SmoothnessSequence.gevrey(2.0))
    comp = math.log(1.0 / gamma) + log_phi_r(1.0 / gamma, 1.0)
    assert abs(math.exp(val.log_value - comp) - 1.0) <= 1e-5


def test_dales_davie_finite_sequence_stops_at_kmax():
    inv = geometric_inverse_symbol(0.5)
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
    A = ToeplitzSymbol({200: 1.0})
    val = dales_davie_norm(A, SmoothnessSequence.finite(500))
    logs = [k * math.log(200.0) - math.lgamma(k + 1.0) for k in range(501)]
    top = max(logs)
    ref = top + math.log(math.fsum(math.exp(x - top) for x in logs))
    assert val.converged and val.kmax_used > 200
    assert val.log_value == pytest.approx(ref, rel=1e-12)


@st.composite
def decay_matrices(draw):
    """A section with some diagonals zeroed, or a symbol with or without a
    finite part and a geometric tail; scaled away from 1."""
    window = IndexWindow(-8, 7)
    scale = draw(st.sampled_from([1.0, 1e-3, 0.37, 25.0]))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        E = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        offsets = np.subtract.outer(np.arange(16), np.arange(16))
        E[np.isin(offsets, rng.integers(-15, 16, size=6))] = 0.0
        return LatticeMatrix(window, scale * E)
    coeffs = draw(st.dictionaries(st.integers(-12, 12),
                                  st.floats(-5.0, 5.0).filter(bool),
                                  max_size=6))
    tail = None
    if draw(st.booleans()) or not coeffs:
        ratio = draw(st.sampled_from([0.0, 0.2, -0.6, 0.9j, 0.97]))
        tail = GeometricTail(ratio, scale)
    return ToeplitzSymbol(coeffs, tail)


AMBIENTS = ["c0", ("jaffard", 0.0), ("jaffard", 1.5), "operator"]


@seed(23)
@settings(max_examples=40, deadline=None)
@given(decay_matrices(), st.sampled_from([0, 3]), st.sampled_from(AMBIENTS),
       st.permutations(range(41)))
def test_dk_norm_logs_match_the_per_order_reference(A, margin, ambient, ks):
    # the block route (one 2-D log-sum-exp, one recurrence for a tail's
    # sums) reproduces every order's own evaluation, in any order: bit for
    # bit where no c0 tail enters, and a c0 tail's sums to the 50-digit
    # reference; a one-order call is the block's row, bit for bit.  A
    # symbol refuses a margin and the operator ambient; its section does not
    if isinstance(A, ToeplitzSymbol) and (margin or ambient == "operator"):
        with pytest.raises(ParameterError, match="needs a window"):
            dk_norm_logs(A, ks, ambient, margin)
        A = make_toeplitz(A, IndexWindow(-8, 7))
    got = dk_norm_logs(A, ks, ambient, margin)
    want = [dk_norm_log_per_order(A, k, ambient, margin) for k in ks]
    if ambient == "c0" and decay_profile(A).scale:
        assert all(abs(math.expm1(g - w)) <= 1e-12 for g, w in zip(got, want))
    else:
        assert got == want
    assert got == [dk_norm_log(A, k, ambient, margin) for k in ks]


@pytest.mark.parametrize("k", [-1, 1.5])
@pytest.mark.parametrize("ambient", AMBIENTS)
def test_dk_norm_logs_rejects_an_order_that_is_not_a_natural_number(k,
                                                                    ambient):
    # an order indexes the tail's recurrence, so 1.5 must not read order 1
    A = geometric_inverse_symbol(0.5)
    if ambient == "operator":
        A = make_toeplitz(A, IndexWindow(-8, 7))
    with pytest.raises(ParameterError, match="integer >= 0"):
        dk_norm_logs(A, [2, k], ambient)


DD_SEQUENCES = {
    "gevrey(2)": SmoothnessSequence.gevrey(2.0),
    "gevrey(3)": SmoothnessSequence.gevrey(3.0),
    "finite(12)": SmoothnessSequence.finite(12),
    "custom": SmoothnessSequence.custom(
        [math.factorial(k) * 1.5 ** k for k in range(20)]),
}
DD_MATRICES = {
    **{f"inverse {g}": geometric_inverse_symbol(g)
       for g in (0.5, 0.1, 0.02)},
    "random section": random_decay_matrix(IndexWindow(-8, 7), 2.0, 0.3,
                                          seed=[0, 1]),
    "coefficients and a tail": ToeplitzSymbol(
        {-2: 0.4, 1: -0.3}, GeometricTail(0.7, 0.9)),
}


@pytest.mark.parametrize("seq", sorted(DD_SEQUENCES))
@pytest.mark.parametrize("ambient", ["c0", ("jaffard", 1.0)])
@pytest.mark.parametrize("name", sorted(DD_MATRICES))
def test_dales_davie_norm_is_the_per_order_sum(seq, ambient, name):
    # the sum reads each order once from one pass over the decay profile
    # (a tail's recurrence stepped once per order, in blocks); every field
    # is that of the sum that reads each order by its own dk_norm_log
    A, sequence = DD_MATRICES[name], DD_SEQUENCES[seq]
    got = dales_davie_norm(A, sequence, ambient)
    assert got == dales_davie_per_order(A, sequence, ambient)


@pytest.mark.parametrize("ambient", ["c0", ("jaffard", 1.0)])
@pytest.mark.parametrize("name", sorted(DD_MATRICES))
def test_dales_davie_norm_hands_back_the_norms_it_read(ambient, name):
    # every order of each block it opened, bit for bit dk_norm_logs
    A = DD_MATRICES[name]
    for seq in DD_SEQUENCES.values():
        got = dales_davie_norm(A, seq, ambient)
        read = len(got.dk_logs)
        assert got.kmax_used < read
        assert read % 12 == 0 or read == seq.kmax + 1
        assert got.dk_logs == tuple(dk_norm_logs(A, range(read), ambient))
    got = dales_davie_norm(DD_MATRICES["random section"],
                           DD_SEQUENCES["gevrey(2)"], "operator")
    assert got.dk_logs == tuple(dk_norm_logs(
        DD_MATRICES["random section"], range(got.kmax_used + 1), "operator"))


@pytest.mark.parametrize("weight", [Weight.poly(0.5), Weight.poly(2.5),
                                    Weight.subexp(0.5, 2.0)])
def test_other_weights_sum_their_tail_as_before(weight):
    # a weight that is not (1+m)^r with an integer r keeps the log-concave
    # sum, bit for bit
    A = DD_MATRICES["coefficients and a tail"]
    prof = decay_profile(A)
    lr = math.log(prof.rho)
    log_tail, _ = log_concave_sum(
        lambda ms: ms * lr + np.log(weight.value(ms)), prof.tail_start)
    want = float((prof.d * weight.value(prof.offsets)).sum()) \
        + prof.scale * math.exp(log_tail)
    assert cv_norm(A, weight) == want


def test_dales_davie_operator_ambient_evaluates_no_order_past_the_stop(
        monkeypatch):
    # each order costs an SVD there, so the orders are read one at a time
    calls = []

    def counted(A):
        calls.append(A)
        return operator_norm_l2(A)
    operator_norm_l2 = norms.operator_norm_l2
    monkeypatch.setattr(norms, "operator_norm_l2", counted)
    A = random_decay_matrix(IndexWindow(-8, 7), 2.0, 0.3, seed=[0, 1])
    val = dales_davie_norm(A, SmoothnessSequence.gevrey(2.0), "operator")
    assert val.converged and val.kmax_used % 8 != 7
    assert len(calls) == val.kmax_used + 1


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
