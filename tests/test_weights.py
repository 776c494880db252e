"""Weight admissibility and the entire-function comparison scale."""

import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv import ParameterError, RangeError, Weight, check_weight
from decayinv.weights import (SmoothnessSequence, log_phi_r,
                              log_phi_r_from_log, phi_r_eval)


def test_poly_weight_values():
    w = Weight.poly(2.0)
    assert w.value(0) == 1.0
    assert w.value(3) == 16.0
    assert w.value(-3) == 16.0


def test_subexp_weight_values():
    w = Weight.subexp(0.5, 2.0)
    assert w.value(0) == 1.0
    assert w.value(4) == pytest.approx(math.exp(0.5 * 2.0), rel=1e-14)
    with pytest.raises(ParameterError):
        Weight.subexp(0.5, 0.7)


def test_check_weight_flags():
    rep = check_weight(Weight.poly(1.5))
    assert rep["symmetric_ok"] and rep["submultiplicative_ok"]
    assert rep["grs_ok"] and rep["root_sequence"][-1] < 1.2
    # super-exponential table: the root sequence grows, trend flag trips
    bad = Weight.table([math.exp(0.01 * k * k) for k in range(49)])
    rep = check_weight(bad)
    assert not rep["grs_ok"]
    # plain exponential keeps a flat root sequence but far from 1
    expw = Weight.table([math.exp(0.3 * k) for k in range(49)])
    rep = check_weight(expw)
    assert rep["root_sequence"][-1] > 1.3


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


def test_phi_r_eval_range_error():
    with pytest.raises(RangeError) as info:
        phi_r_eval(1e9, 1.2)
    assert info.value.log_value > 700


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
    fin = SmoothnessSequence.finite(4)
    assert fin.kmax == 4
    ana = SmoothnessSequence.analytic()
    assert ana.log_M(5) == pytest.approx(math.lgamma(6.0), rel=1e-14)
    gev = SmoothnessSequence.gevrey(2.0)
    assert gev.log_M(5) == pytest.approx(2.0 * math.lgamma(6.0), rel=1e-14)


def test_custom_sequence_admissibility():
    # M_k = k! is admissible; a dip below the binomial envelope is not
    good = SmoothnessSequence.custom([math.factorial(k) for k in range(8)])
    assert good.kmax == 7
    with pytest.raises(ParameterError):
        SmoothnessSequence.custom([1.0, 1.0, 0.001, 6.0])
