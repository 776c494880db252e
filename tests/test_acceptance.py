"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and pins its tolerances explicitly.  Note on
criterion 1: the stated estimate for sum_{k>=0} (1+k)^r e^{-gamma k} is
[L, 2L] with L = e^gamma Gamma(r+1) gamma^{-r-1}.  Its upper edge 2L
holds, but L is not a lower bound for r in {1, 2}: sum - L converges to
e^gamma zeta(-r) as gamma -> 0, which is -1/12 for r = 1 and, for r = 2,
approaches 0 from below as -e^gamma gamma/120 (zeta(-3) = 1/120).  The
criterion therefore asserts the lower edge the integral test does give,
L - e^gamma (r/(e gamma))^r: with f(x) = x^r e^{-gamma x}, unimodal with
maximum (r/(e gamma))^r, sum_{j>=1} f(j) >= int_0^inf f - max f, and the
series is e^gamma sum_{j>=1} f(j).  It also checks the sum against its
closed form for integer r.
"""

import math
import time

from decayinv import (ExperimentConfig, IndexWindow, ToeplitzSymbol, Weight,
                      baskakov_bound_Cr, baskakov_bound_Jr,
                      besov_bound, constant_Cr_numeric, cv_norm,
                      dd_domain_bound, explicit_bound_Cr, explicit_bound_Jr,
                      integral_test_bracket, invert_truncated, jaffard_norm,
                      operator_norm_l2, random_decay_matrix, symbol_range,
                      weighted_geometric_series)
from decayinv import weights
from decayinv.lattice import geometric_inverse_symbol
from decayinv.experiments import (run_besov_report, run_dd_sharpness,
                                  run_quotient_verify,
                                  run_toeplitz_sharpness)
from decayinv.norms import a_m_gevrey
from decayinv.weights import SmoothnessSequence

from oracles import a_m_bruteforce


def resolvent(gamma):
    """The lattice operator 1 - e^{-gamma} z, as its symbol."""
    x = math.exp(-gamma)
    return ToeplitzSymbol({0: 1.0, 1: -x})


def test_criterion_01_series_bracket():
    # sum_{k>=0} (1+k)^r x^k, x = e^{-gamma}, against its closed form
    # (truncation 1e-12 only) and the integral-test bracket
    # [L - e^gamma (r/(e gamma))^r, 2L], L = e^gamma Gamma(r+1) gamma^{-r-1}
    exact = {1.0: lambda x: 1.0 / (1.0 - x) ** 2,
             2.0: lambda x: (1.0 + x) / (1.0 - x) ** 3,
             3.0: lambda x: (1.0 + 4.0 * x + x * x) / (1.0 - x) ** 4}
    t0 = time.monotonic()
    failures = []
    for gamma in (0.5, 0.2, 0.1, 0.05):
        x = math.exp(-gamma)
        for r in (1.0, 2.0, 3.0):
            total, _ = weighted_geometric_series(x, r)
            want = exact[r](x)
            if abs(total - want) > 1e-11 * want:
                failures.append("gamma=%g r=%g: sum=%.15g, exact %.15g"
                                % (gamma, r, total, want))
            L = math.exp(gamma) * math.gamma(r + 1.0) * gamma ** (-r - 1.0)
            lo = L - math.exp(gamma) * (r / (math.e * gamma)) ** r
            _, hi = integral_test_bracket(gamma, r)
            if not lo <= total <= hi:
                failures.append(
                    "gamma=%g r=%g: sum=%.6f outside [%.6f, %.6f]"
                    % (gamma, r, total, lo, hi))
    assert time.monotonic() - t0 < 1.0
    assert not failures, "series sum is wrong:\n" + "\n".join(failures)


def test_criterion_02_resolvent_norms():
    t0 = time.monotonic()
    for gamma in (0.5, 0.2, 0.1, 0.05):
        x = math.exp(-gamma)
        A = resolvent(gamma)
        inv = geometric_inverse_symbol(gamma)
        for r in (0.5, 1.0, 2.0, 3.0):
            want = 1.0 + 2.0 ** r * x
            got = cv_norm(A, Weight.poly(r))
            assert abs(got - want) <= 1e-14 * want, (gamma, r, got, want)
        want = 1.0 / (1.0 - x)
        got = cv_norm(inv, Weight.poly(0.0))
        assert abs(got - want) <= 1e-12 * want, (gamma, got, want)
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_sharpness_slope():
    t0 = time.monotonic()
    cfg = ExperimentConfig(experiment="toeplitz-sharpness",
                           gamma_grid=[0.4, 0.2, 0.1, 0.05, 0.025],
                           r_list=[1.0, 2.0], window_N=64)
    res = run_toeplitz_sharpness(cfg)
    for r in (1.0, 2.0):
        slope = res["fits"][r].slope
        assert abs(slope + (r + 1.0)) <= 0.15, (r, slope)
    assert time.monotonic() - t0 < 10.0


def test_criterion_04_quotient_identities():
    t0 = time.monotonic()
    cfg = ExperimentConfig(experiment="quotient-verify", window_N=64, seed=0,
                           tolerances={"instances": 20, "kmax": 5,
                                       "margin": 16})
    res = run_quotient_verify(cfg)
    assert len(res["rows"]) == 20 * (5 + 2 * 3 * 5)
    for row in res["rows"]:
        assert row["max_rel_err"] <= 1e-10, row
    assert time.monotonic() - t0 < 30.0


def criterion_05_resolvent_reports():
    # the lattice operators: their operator norms are the sups of their
    # symbols
    reports = []
    for gamma in (0.05, 0.1, 0.2, 0.5, 1.0):
        A = resolvent(gamma)
        inv = geometric_inverse_symbol(gamma)
        na_op = symbol_range(A)[1]
        ninv_op = symbol_range(inv)[1]
        for r in (1.0, 2.0):
            reports.append(baskakov_bound_Cr(A, r, inverse=inv))
            reports.append(explicit_bound_Cr(
                cv_norm(A, Weight.poly(r)), na_op, ninv_op, r,
                measured=cv_norm(inv, Weight.poly(r))))
            if r > 1.0:
                reports.append(baskakov_bound_Jr(A, r, inverse=inv))
                reports.append(explicit_bound_Jr(
                    jaffard_norm(A, r), na_op, ninv_op, r,
                    measured=jaffard_norm(inv, r)))
    return reports


def test_criterion_05_bound_satisfaction():
    t0 = time.monotonic()
    reports = criterion_05_resolvent_reports()
    W128 = IndexWindow(-64, 63)
    r, eps, margin = 2.0, 0.3, 32
    for idx in range(20):
        A = random_decay_matrix(W128, r, eps, seed=[5, idx])
        inv = invert_truncated(A)
        na_op = operator_norm_l2(A)
        ninv_op = operator_norm_l2(inv)
        reports.append(baskakov_bound_Cr(A, r, method="window",
                                         margin=margin, inverse=inv))
        reports.append(baskakov_bound_Jr(A, r, method="window",
                                         margin=margin, inverse=inv))
        reports.append(explicit_bound_Cr(
            cv_norm(A, Weight.poly(r)), na_op, ninv_op, r,
            measured=cv_norm(inv, Weight.poly(r), margin=margin)))
        reports.append(explicit_bound_Jr(
            jaffard_norm(A, r), na_op, ninv_op, r,
            measured=jaffard_norm(inv, r, margin=margin)))
    bad = [(rep.bound_name, rep.measured_value, rep.bound_value)
           for rep in reports if not rep.satisfied]
    assert not bad, bad
    assert len(reports) == 5 * (2 + 2 + 1 + 1) + 20 * 4
    assert time.monotonic() - t0 < 120.0



def test_criterion_05_resolvent_tails_need_no_log_concave_sum(monkeypatch):
    # every geometric tail there has an integer weight (1+m)^r, which the
    # polylog recurrence sums; log_concave_sum, which only weights reads,
    # is never reached
    def refused(*args):
        raise AssertionError("an integer-weight tail reached log_concave_sum")
    monkeypatch.setattr(weights, "log_concave_sum", refused)
    reports = criterion_05_resolvent_reports()
    assert len(reports) == 30
    assert all(rep.satisfied for rep in reports)

def test_criterion_06_rate_exponents():
    t0 = time.monotonic()

    def slope(f, x1=1e12, x2=1e13):
        return ((math.log(f(x2)) - math.log(f(x1)))
                / (math.log(x2) - math.log(x1)))

    for r in (1.0, 1.5, 2.0, 3.0):
        # slope of log_bound in log ||a^{-1}||, all other norms fixed at 1
        l1 = explicit_bound_Cr(1.0, 1.0, 1e12, r).intermediates["log_bound"]
        l2 = explicit_bound_Cr(1.0, 1.0, 1e13, r).intermediates["log_bound"]
        got = (l2 - l1) / (math.log(1e13) - math.log(1e12))
        want = 2.0 * r + 2.0 / r + 5.0
        assert abs(got - want) <= 1e-9, (r, got, want)
    for r in (1.5, 2.0, 3.0):
        l1 = explicit_bound_Jr(1.0, 1.0, 1e12, r).intermediates["log_bound"]
        l2 = explicit_bound_Jr(1.0, 1.0, 1e13, r).intermediates["log_bound"]
        got = (l2 - l1) / (math.log(1e13) - math.log(1e12))
        want = 2.0 * r + 3.0 + 2.0 / (r - 1.0)
        assert abs(got - want) <= 1e-9, (r, got, want)
    for k in (1, 2, 3, 4):
        got = slope(lambda x: dd_domain_bound(x, 1.0, k).bound_value)
        assert abs(got - (k + 1.0)) <= 1e-9, (k, got)
    for r in (0.5, 1.5, 2.5):
        got = slope(lambda x: besov_bound(x, 1.0, r).bound_value)
        want = math.floor(r) + 2.0
        assert abs(got - want) <= 1e-9, (r, got, want)
    assert time.monotonic() - t0 < 1.0


def test_criterion_07_gevrey_oracle():
    t0 = time.monotonic()
    for r in (1.5, 2.0, 3.0):
        seq = SmoothnessSequence.gevrey(r)
        for m in range(1, 6):
            brute = a_m_bruteforce(seq, m, kmax=15)
            closed = a_m_gevrey(r, m)
            assert abs(brute - closed) <= 1e-12, (r, m, brute, closed)
    assert time.monotonic() - t0 < 5.0


def test_criterion_08_dd_ratio_band():
    t0 = time.monotonic()
    cfg = ExperimentConfig(experiment="dd-sharpness",
                           gamma_grid=[0.5, 0.4, 0.3, 0.2, 0.1],
                           r_list=[2.0], window_N=64)
    res = run_dd_sharpness(cfg)
    for row in res["rows"]:
        assert 0.5 <= row["ratio"] <= 2.0, row
        assert row["converged"]
    assert time.monotonic() - t0 < 30.0


def test_criterion_09_constant_exact():
    assert constant_Cr_numeric(1.0) == 409600.0


def test_criterion_10_calibration_drifts():
    # unknown leading constants are accepted through stability of the
    # measured/bound ratios across the resolvent family: max/min <= 10
    cfg = ExperimentConfig(experiment="besov-report",
                           gamma_grid=[1.0, 0.5, 0.2, 0.1, 0.05],
                           r_list=[0.5], window_N=64)
    res = run_besov_report(cfg)
    cal = res["calibrations"][0.5]
    for name in ("identification", "first_order", "embedding"):
        entry = cal[name]
        assert entry["ratios"], name
        assert all(math.isfinite(v) for v in entry["ratios"]), name
        assert entry["drift"] <= 10.0, (name, entry["drift"])
    # the cubic-rate ratio needs the moderate-decay part of the family;
    # its denominator degenerates cubically as gamma -> 0
    cfg = ExperimentConfig(experiment="besov-report",
                           gamma_grid=[0.5, 0.4, 0.35, 0.3, 0.25],
                           r_list=[0.5], window_N=64)
    res = run_besov_report(cfg)
    entry = res["calibrations"][0.5]["bessel"]
    assert all(math.isfinite(v) for v in entry["ratios"])
    assert entry["drift"] <= 10.0, entry["drift"]
