"""Weight admissibility and the entire-function comparison scale."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv import ParameterError, Weight, weights
from decayinv.weights import (_SADDLE_PEAK, SmoothnessSequence,
                              log_concave_sum, log_factorial, log_factorials,
                              log_phi_r, log_phi_r_from_log,
                              log_poly_geometric, log_weight_tail,
                              poly_geometric_max, polylog_tail_logs, zeta)

from oracles import log_power_tails, polylog_tails_rescaled_each_order


def test_poly_weight_values():
    w = Weight.poly(2.0)
    assert w.value(0) == 1.0
    assert w.value(3) == 16.0
    assert w.value(-3) == 16.0
    with pytest.raises(ParameterError):
        Weight.poly(-0.5)


def test_phi_r_small_values():
    # phi_1(x) = e^x, phi_r(0) = 1
    assert log_phi_r(0.0, 2.0) == 0.0
    assert log_phi_r(1.7, 1.0) == pytest.approx(1.7, abs=1e-15)
    # r = 2: sum x^l/(l!)^2 = I_0(2 sqrt x), check a frozen midpoint
    assert log_phi_r(4.0, 2.0) == pytest.approx(math.log(11.3019219521363),
                                                rel=1e-10)


def test_phi_r_exact_vs_saddle_crossover():
    # the evaluator switches from exact summation to a saddle-point form
    # for huge arguments; force both on overlapping inputs via the log gate
    for r in (1.5, 2.0, 3.0):
        for x in (10.0, 300.0, 2000.0):
            direct = log_phi_r(x, r)
            vialog = log_phi_r_from_log(math.log(x), r)
            assert direct == pytest.approx(vialog, rel=1e-12)


def test_phi_r_saddle_point_matches_the_direct_sum():
    # peak x^(1/r) = 5.1e6, just past _SADDLE_PEAK: the saddle-point form
    # against the log-concave sum the branch below the peak takes
    r = 2.0
    lx = r * math.log(5.1e6)
    assert math.exp(lx / r) > _SADDLE_PEAK
    direct = log_concave_sum(lambda ls: ls * lx - r * log_factorial(ls), 0)[0]
    assert log_phi_r_from_log(lx, r) == pytest.approx(direct, rel=1e-14)


def mp_log_phi_r(x, r):
    """log phi_r(x) summed term by term in 30 digits until the terms past
    the peak x^(1/r) fall below 1e-25 of the sum."""
    with mp.workdps(30):
        lx, peak = mp.log(x), x ** (1.0 / r)
        total, l = mp.mpf(0), 0
        while True:
            term = mp.exp(l * lx - r * mp.loggamma(l + 1))
            total += term
            if l > peak and term < total * mp.mpf(10) ** -25:
                return float(mp.log(total))
            l += 1


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75, 1.5, 3.0])
def test_phi_r_matches_direct_sum(r):
    # fractional r < 1 peaks far out (x^(1/r) terms); a fixed cap past
    # the peak read phi_0.25(10) 3e-5 low
    for x in (0.5, 2.0, 5.0, 10.0, 30.0):
        if x ** (1.0 / r) > 1e4:
            continue
        got = log_phi_r(x, r)
        assert abs(math.expm1(got - mp_log_phi_r(x, r))) <= 1e-11, (r, x)


@seed(11)
@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=44.0),
       gamma=st.floats(min_value=0.005, max_value=3.0),
       m0=st.integers(min_value=0, max_value=50))
def test_poly_geometric_sum_and_max(s, gamma, m0):
    # (1+m)^s rho^m against fsum and a dense argmax over m0..60000, far
    # past the peak s/gamma - 1 < 8800: the last term is below
    # e^-160 of the largest
    rho = math.exp(-gamma)
    ms = np.arange(m0, 60001, dtype=float)
    logs = s * np.log1p(ms) + ms * math.log(rho)
    j = int(logs.argmax())
    top = float(logs[j])
    want = top + math.log(math.fsum(np.exp(logs - top)))
    got, terms = log_concave_sum(
        lambda m: log_poly_geometric(m, s, rho), m0)
    assert abs(math.expm1(got - want)) <= 1e-12
    assert terms < ms.size
    log_max, argmax = poly_geometric_max(s, rho, m0)
    assert argmax == m0 + j
    assert log_max == pytest.approx(top, rel=1e-15, abs=1e-15)


TAIL_GAMMAS = (0.005, 0.02, 0.1, 0.5, 2.0, 30.0)


def polylog_tails(rho, m0, kmax):
    """[log V_k for k = 0..kmax] read from one polylog_tail_logs stream."""
    return np.fromiter(polylog_tail_logs(rho, m0), float, kmax + 1)


def _close_to_mp(got, want):
    # relative 1e-12 in the value, beyond the rounding of a log as large as
    # m0 gamma = 30000
    return abs(got - want) <= 1e-12 + 2.0 ** -52 * abs(want)


@pytest.mark.parametrize("gamma", TAIL_GAMMAS)
@pytest.mark.parametrize("m0", [0, 1, 5, 40, 1000])
def test_polylog_tails_match_mpmath(gamma, m0):
    # sum_{m >= m0} m^k rho^m for k <= 160 from one call, against the
    # 50-digit sums at every order up to 20 and every tenth beyond
    rho = math.exp(-gamma)
    got = polylog_tails(rho, m0, 160)
    ks = [*range(20), *range(20, 161, 10)]
    assert got.shape == (161,)
    for k, want in zip(ks, log_power_tails(rho, m0, ks)):
        assert _close_to_mp(got[k], want), k


@pytest.mark.parametrize("gamma, m0", [(g, 0) for g in TAIL_GAMMAS]
                         + [(30.0, 1000)])
def test_polylog_tails_at_order_500(gamma, m0):
    rho = math.exp(-gamma)
    got = polylog_tails(rho, m0, 500)[500]
    assert _close_to_mp(got, log_power_tails(rho, m0, [500])[0])


# near rho = 1 the values pass float range, and at m0 gamma = 30000 rho^m0
# lies far below it
RANGE_ENDS = ((1.0 - 2.0 ** -20, 0), (math.exp(-30.0), 1000), (1e-300, 0),
              (1e-300, 7), (0.5, 10 ** 6))


def test_polylog_tails_stay_finite_at_their_range_ends():
    for rho, m0 in RANGE_ENDS:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            logs = polylog_tails(rho, m0, 1000)
        assert np.isfinite(logs).all(), (rho, m0)
    for bad in ((0.0, 0, 3), (1.0, 0, 3), (0.5, -1, 3)):
        with pytest.raises(ParameterError):
            polylog_tails(*bad)


def test_polylog_tails_are_prefixes_of_one_recurrence():
    # each array is the head of one resumable recurrence: a shorter call is
    # a prefix of a longer one, bit for bit
    for rho, m0 in RANGE_ENDS:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            full = polylog_tails(rho, m0, 1000)
            for k in [*range(12), *range(12, 1000, 37), 999]:
                assert np.array_equal(polylog_tails(rho, m0, k),
                                      full[:k + 1]), (rho, m0, k)
    # the arrays read the stream, which refuses the order past the last
    stream = polylog_tail_logs(rho, m0)
    assert [next(stream) for _ in range(1001)] == full.tolist()
    with pytest.raises(ParameterError, match="stop at order 1000"):
        next(stream)


@pytest.mark.parametrize("gamma", [1e-6, 1e-3, 0.02, 0.5, 2.0, 30.0, 690.0])
@pytest.mark.parametrize("m0", [0, 1, 7, 1000, 10 ** 6])
def test_polylog_tails_rescale_only_at_the_band_edges(gamma, m0):
    # a power of two scales exactly, so moving the scale only when the
    # newest value leaves its band gives the values of a rescale at every
    # order, bit for bit, up to the last order
    rho = math.exp(-gamma)
    want = polylog_tails_rescaled_each_order(rho, m0, 1000)
    assert np.array_equal(polylog_tails(rho, m0, 1000), want)


def integer_weight_tail_mp(r, rho, m0):
    """sum_{m >= m0} (1+m)^r rho^m to 60 digits: (Li_{-r}(rho) - the
    terms n = 1..m0) / rho."""
    with mp.workdps(60):
        z = mp.mpf(rho)
        head = mp.fsum(mp.mpf(n) ** r * z ** n for n in range(1, m0 + 1))
        return (mp.polylog(-r, z) - head) / z


@pytest.mark.parametrize("r", [0, 1, 2, 3, 5, 8])
@pytest.mark.parametrize("m0", [0, 1, 7])
def test_integer_weight_tails_within_their_stated_bound(r, m0):
    # 1 - rho down to 1e-13, where the log reaches about 280 and its
    # rounding, not the recurrence, is most of the error
    for delta in [10.0 ** -j for j in range(2, 14)]:
        rho = 1.0 - delta
        log_sum, steps = log_weight_tail(float(r), rho, m0)
        assert steps == r + 1
        bound = ((r + 1) * (r + 5) + 5 * abs(log_sum)
                 + 6 * (m0 + 2) * abs(math.log(rho)) + 7) * 2.0 ** -53
        want = integer_weight_tail_mp(r, rho, m0)
        with mp.workdps(60):
            err = abs(mp.mpf(math.exp(log_sum)) / want - 1)
        assert err <= bound, (delta, float(err), bound)


def test_integer_weight_tails_at_far_range_ends():
    # the largest float below 1, a tiny ratio, a far start (closed forms
    # sum_{m >= m0} (1+m) rho^m = rho^m0 ((m0+1)/(1-rho) + rho/(1-rho)^2)
    # and (1+rho)/(1-rho)^3 at r = 2), and the last order
    with mp.workdps(60):
        z = mp.mpf(1.0 - 2.0 ** -53)
        cases = [(2, 1.0 - 2.0 ** -53, 0, (1 + z) / (1 - z) ** 3),
                 (3, 1e-300, 0, integer_weight_tail_mp(3, 1e-300, 0)),
                 (1, 0.5, 10 ** 6, mp.mpf(0.5) ** 10 ** 6
                  * ((10 ** 6 + 1) / mp.mpf(0.5) + 2))]
        for r, rho, m0, want in cases:
            log_sum, _ = log_weight_tail(r, rho, m0)
            bound = ((r + 1) * (r + 5) + 5 * abs(log_sum)
                     + 6 * (m0 + 2) * abs(math.log(rho)) + 7) * 2.0 ** -53
            assert abs(mp.mpf(log_sum) - mp.log(want)) <= bound, (r, rho)
    assert math.isfinite(log_weight_tail(1000, 1.0 - 2.0 ** -53, 0)[0])


def test_only_integer_exponents_read_the_polylog_tail(monkeypatch):
    # any other exponent is one log_concave_sum over the terms, bit for bit
    want = log_concave_sum(lambda ms: log_poly_geometric(ms, 2.5, 0.5), 3)
    assert log_weight_tail(2.5, 0.5, 3) == want
    calls = []

    def summed(log_term, m0):
        calls.append(m0)
        return want
    monkeypatch.setattr(weights, "log_concave_sum", summed)
    for r in (0.5, 2.5, 1001.0, -1.0, math.inf, math.nan):
        assert log_weight_tail(r, 0.5, 3) is want
    assert calls == [3] * 6
    assert log_weight_tail(1000.0, 0.5, 3)[1] == 1001 and len(calls) == 6


def test_log_factorials_are_the_scalar_values():
    ns = range(0, 1001)
    assert log_factorials(ns) == [log_factorial(n) for n in ns]
    assert log_factorials(range(40, 52)) == [log_factorial(n)
                                             for n in range(40, 52)]
    for r in (1.0, 1.5, 2.0):
        seq = SmoothnessSequence.gevrey(r)
        for k0 in range(0, 201, 12):
            block = range(k0, min(k0 + 12, 201))
            assert seq.log_Ms(block) == [seq.log_Ms([k])[0] for k in block]
        with pytest.raises(ParameterError):
            seq.log_Ms(range(-1, 3))


def test_phi_r_rejects_bad_args():
    with pytest.raises(ParameterError):
        log_phi_r(-1.0, 2.0)
    with pytest.raises(ParameterError):
        log_phi_r(1.0, 0.0)


@seed(7)
@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=0.01, max_value=500.0),
       r=st.floats(min_value=1.05, max_value=4.0))
def test_phi_r_monotone_and_bounded(x, r):
    # sum is increasing in x and decreasing in r, and dominated by e^x
    lp = log_phi_r(x, r)
    assert lp <= x + 1e-9
    assert lp >= math.log1p(x) - 1e-9  # first two terms alone
    assert log_phi_r(x * 1.5, r) >= lp
    assert log_phi_r(x, r + 0.5) <= lp + 1e-9


def test_smoothness_sequences():
    ana = SmoothnessSequence.gevrey(1.0)
    assert ana.log_Ms([5])[0] == pytest.approx(math.lgamma(6.0), rel=1e-14)
    gev = SmoothnessSequence.gevrey(2.0)
    assert gev.log_Ms([5])[0] == pytest.approx(2.0 * math.lgamma(6.0), rel=1e-14)
    with pytest.raises(ParameterError):
        SmoothnessSequence.gevrey(0.5)


def test_zeta_matches_mpmath():
    with mp.workdps(40):
        for s in np.concatenate([np.linspace(1.001, 12.0, 120),
                                 [1.05, 1.5, 2.5, 3.0]]):
            want = mp.zeta(mp.mpf(float(s)))
            assert zeta(float(s)) == pytest.approx(float(want), rel=2e-15)
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=2e-15)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=2e-15)
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ParameterError):
            zeta(bad)


def test_log_factorial_matches_mpmath():
    # the table (n <= 12), both sides of its seam with Stirling's series,
    # and far out on the series
    ns = [float(n) for n in range(16)] + [1e2, 1e4, 1e6]
    got = log_factorial(np.array(ns))
    with mp.workdps(40):
        for n, value in zip(ns, got):
            want = float(mp.log(mp.factorial(int(n))))
            assert value == pytest.approx(want, rel=4e-16, abs=0.0)
            assert log_factorial(n) == value
    for n in range(13):
        assert got[n] == math.log(math.factorial(n))


def test_log_poly_geometric_at_zero_offset():
    # the m = 0 term is (1+0)^s rho^0 = 1, with no floating-point warning
    ms = np.array([0.0, 1.0, 2.0])
    with np.errstate(all="raise"):
        logs = log_poly_geometric(ms, 1.0, 0.5)
    assert logs[0] == 0.0
    assert logs[2] == pytest.approx(math.log(3.0 * 0.25), rel=1e-15)
