"""Experiment config validation, determinism, and table round trips."""

import csv
import json
import math
import os
import unittest

import pytest

from decayinv import (ConfigError, ExperimentConfig, SlopeFit, besov,
                      besov_bound, bessel_rate_bound, bounds,
                      dales_davie_bound, experiments, explicit_bound_Jr,
                      invert_truncated, jaffard_norm, lattice, norms,
                      random_decay_matrix, weights)
from decayinv.bounds import condition_data
from decayinv.cli import build_parser, resolve_config
from decayinv.experiments import (RUNNERS, centered_window, run_besov_report,
                                  run_dd_sharpness, run_jaffard_check,
                                  run_quotient_verify, run_toeplitz_sharpness,
                                  write_rows)


def read_rows(path, fmt):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh)) if fmt == "csv" else json.load(fh)


class ConfigTest(unittest.TestCase):
    def test_defaults_validate(self):
        cfg = ExperimentConfig(experiment="x", gamma_grid=[0.4, 0.2],
                               r_list=[1.0])
        cfg.validate()

    def test_unknown_key_rejected(self):
        with self.assertRaises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "x", "windowN": 64})

    def test_window_floor(self):
        with self.assertRaises(ConfigError):
            ExperimentConfig(experiment="x", window_N=16).validate()

    def test_grid_must_decrease(self):
        with self.assertRaises(ConfigError):
            ExperimentConfig(experiment="x",
                             gamma_grid=[0.1, 0.2]).validate()
        with self.assertRaises(ConfigError):
            ExperimentConfig(experiment="x",
                             gamma_grid=[0.2, -0.1]).validate()

    def test_format_checked(self):
        with self.assertRaises(ConfigError):
            ExperimentConfig(experiment="x", format="xml").validate()

    def test_from_json(self):
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            json.dump({"experiment": "toeplitz-sharpness",
                       "gamma_grid": [0.4, 0.2, 0.1, 0.05],
                       "r_list": [1.0], "seed": 3}, fh)
            path = fh.name
        try:
            cfg = ExperimentConfig.from_json(path)
            self.assertEqual(cfg.seed, 3)
            self.assertEqual(cfg.window_N, 64)
        finally:
            os.unlink(path)


class SlopeFitTest(unittest.TestCase):
    def test_exact_line_recovered(self):
        pts = [(x, -2.0 * x + 1.0) for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
        fit = SlopeFit.fit(pts)
        self.assertAlmostEqual(fit.slope, -2.0, places=12)
        self.assertAlmostEqual(fit.intercept, 1.0, places=12)
        self.assertLess(fit.residual, 1e-12)

    def test_uses_last_half(self):
        # first two points are garbage; the fitted tail is clean
        pts = [(0.0, 50.0), (1.0, -3.0)] + \
              [(x, 2.0 * x) for x in (2.0, 3.0, 4.0)]
        fit = SlopeFit.fit(pts)
        self.assertAlmostEqual(fit.slope, 2.0, places=10)

    def test_needs_two_points(self):
        with self.assertRaises(ValueError):
            SlopeFit.fit([(1.0, 1.0)])


class RunnerGateTest(unittest.TestCase):
    def test_toeplitz_needs_four_points(self):
        cfg = ExperimentConfig(experiment="toeplitz-sharpness",
                               gamma_grid=[0.4, 0.2, 0.1], r_list=[1.0])
        with self.assertRaises(ConfigError):
            run_toeplitz_sharpness(cfg)

    def test_dd_needs_r_above_one(self):
        cfg = ExperimentConfig(experiment="dd-sharpness",
                               gamma_grid=[0.4, 0.2], r_list=[1.0])
        with self.assertRaises(ConfigError):
            run_dd_sharpness(cfg)

    def test_jaffard_epsilon_range(self):
        cfg = ExperimentConfig(experiment="jaffard-check", r_list=[2.0],
                               tolerances={"epsilon": 0.7})
        with self.assertRaises(ConfigError):
            run_jaffard_check(cfg)

    def test_besov_r_range(self):
        cfg = ExperimentConfig(experiment="besov-report",
                               gamma_grid=[0.5], r_list=[3.5])
        with self.assertRaises(ConfigError):
            run_besov_report(cfg)

    def test_every_runner_rejects_unknown_tolerances(self):
        for name, runner in RUNNERS.items():
            cfg = ExperimentConfig(experiment=name,
                                   tolerances={"instnaces": 1})
            with self.assertRaisesRegex(ConfigError, "instnaces"):
                runner(cfg)


class DeterminismTest(unittest.TestCase):
    def run_twice(self, runner, cfg):
        a = runner(cfg)
        b = runner(cfg)
        return a, b

    def test_jaffard_rows_identical(self):
        cfg = ExperimentConfig(experiment="jaffard-check", r_list=[2.0],
                               seed=21, window_N=32,
                               tolerances={"instances": 3})
        a, b = self.run_twice(run_jaffard_check, cfg)
        self.assertEqual(a["rows"], b["rows"])

    def test_quotient_rows_identical(self):
        cfg = ExperimentConfig(experiment="quotient-verify", seed=4,
                               window_N=32,
                               tolerances={"instances": 4, "kmax": 3})
        a, b = self.run_twice(run_quotient_verify, cfg)
        self.assertEqual(a["rows"], b["rows"])


class TableRoundTripTest(unittest.TestCase):
    def test_csv_lossless(self):
        import tempfile
        rows = [{"a": 1, "x": math.pi, "flag": True, "label": "t", "v": None},
                {"a": 2, "x": 1e-17, "flag": False, "label": "u", "v": 3.5}]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            write_rows(rows, path, "csv")
            back = read_rows(path, "csv")
        self.assertEqual(len(back), 2)
        self.assertEqual(float(back[0]["x"]), math.pi)
        self.assertEqual(float(back[1]["x"]), 1e-17)
        self.assertEqual(back[0]["flag"], "true")
        self.assertEqual(back[0]["v"], "")

    def test_json_round_trip(self):
        import tempfile
        rows = [{"a": 1, "x": 0.1}]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            write_rows(rows, path, "json")
            back = read_rows(path, "json")
        self.assertEqual(back, rows)


class SlopeBandTest(unittest.TestCase):
    def test_toeplitz_slopes_in_band(self):
        cfg = ExperimentConfig(experiment="toeplitz-sharpness",
                               gamma_grid=[0.4, 0.2, 0.1, 0.05, 0.025],
                               r_list=[1.0, 2.0])
        res = run_toeplitz_sharpness(cfg)
        for r, fit in res["fits"].items():
            self.assertLess(abs(fit.slope + (r + 1.0)), 0.15, (r, fit.slope))
        # frozen regression of the exact symbol-route slopes
        self.assertAlmostEqual(res["fits"][1.0].slope, -1.964981, places=5)
        self.assertAlmostEqual(res["fits"][2.0].slope, -2.941647, places=5)

    def test_dd_ratio_band(self):
        cfg = ExperimentConfig(experiment="dd-sharpness",
                               gamma_grid=[0.5, 0.3, 0.1], r_list=[2.0])
        res = run_dd_sharpness(cfg)
        for row in res["rows"]:
            self.assertTrue(0.5 <= row["ratio"] <= 2.0, row)
            self.assertTrue(row["converged"])
            # upper half of the per-order bracket always holds
            self.assertTrue(row["bracket_upper_ok_all"])


# Row provenance: each column a library function names must equal that
# function evaluated on the row's own inputs, not a copy of its formula.

def test_besov_report_columns_come_from_the_bounds():
    cfg = ExperimentConfig(experiment="besov-report",
                           gamma_grid=[0.5, 0.3, 0.2], r_list=[0.5])
    rows = [row for row in run_besov_report(cfg)["rows"]
            if row["family"] == "resolvent"]
    assert len(rows) == 3
    for row in rows:
        ncb = besov_bound(row["norm_inv_C0"], row["seminorm_A"], row["r"],
                          measured=row["seminorm_inv"])
        assert row["ncb_rhs"] == ncb.bound_value, row
        assert row["ncb_ok"] is ncb.satisfied
        rate = bessel_rate_bound(row["norm_inv_C0"], row["hyper_A"],
                                 row["r"])
        assert row["bessel_rate"] == rate.bound_value, row


def test_dd_log_comparison_is_the_gevrey_bound():
    cfg = ExperimentConfig(experiment="dd-sharpness",
                           gamma_grid=[0.5, 0.3, 0.1], r_list=[2.0, 3.0])
    for row in run_dd_sharpness(cfg)["rows"]:
        rep = dales_davie_bound(1.0 / row["gamma"], row["r"])
        assert row["log_comparison"] == rep.intermediates["log_bound"]


def test_dd_sharpness_steps_each_tail_recurrence_once_per_order(monkeypatch):
    # ||D^k A|| of the geometric tail comes from one recurrence per
    # Dales-Davie sum, never from a log-concave series, and the bracket
    # checks read the norms the sum read; each step is one order read, in
    # blocks of 12 (rerunning the recurrence from order 0 at every block
    # took 466 steps, and a second pass per bracket check 55 more)
    def refused(*args):
        raise AssertionError("norms summed a log-concave series")
    streams, steps = [], []
    stream = norms.polylog_tail_logs

    def counted(*args):
        streams.append(args)
        for value in stream(*args):
            steps.append(value)
            yield value
    monkeypatch.setattr(norms, "polylog_tail_logs", counted)
    monkeypatch.setattr(weights, "log_concave_sum", refused)
    rows = run_dd_sharpness(resolve_config(build_parser().parse_args(
        ["dd-sharpness"])))["rows"]
    assert len(streams) == 5
    assert len(steps) == sum(12 * math.ceil((row["kmax_used"] + 1) / 12)
                             for row in rows) <= 219


def test_toeplitz_sharpness_tails_need_no_log_concave_sum(monkeypatch):
    # its series are geometric tails with the weights (1+m)^r, r in
    # r_list = [1, 2] and r = 0, which the polylog recurrence sums;
    # log_concave_sum, which only weights reads, is never reached
    def refused(*args):
        raise AssertionError("an integer-weight tail reached log_concave_sum")
    monkeypatch.setattr(weights, "log_concave_sum", refused)
    result = run_toeplitz_sharpness(resolve_config(build_parser().parse_args(
        ["toeplitz-sharpness"])))
    assert len(result["rows"]) == 10 and result["violations"] == []


def test_jaffard_bound_explicit_is_the_library_bound():
    cfg = ExperimentConfig(experiment="jaffard-check", r_list=[2.0],
                           seed=5, window_N=32, tolerances={"instances": 3})
    rows = run_jaffard_check(cfg)["rows"]
    window = centered_window(cfg.window_N)
    for idx, row in enumerate(rows):
        A = random_decay_matrix(window, row["r"], row["epsilon"],
                                seed=[cfg.seed, idx, row["regenerated"]])
        _, na_op, ninv_op = condition_data(A)
        rep = explicit_bound_Jr(jaffard_norm(A, row["r"]), na_op, ninv_op,
                                row["r"], measured=row["measured"])
        assert row["bound_explicit"] == rep.bound_value, row
        assert row["measured"] == jaffard_norm(invert_truncated(A), row["r"],
                                               margin=cfg.window_N // 8)


# Work counts: a second seminorm pass or extra SVDs per instance fail here.

def count_calls(monkeypatch, name, *modules):
    """A list that grows by one on every call of the function name, which
    each of modules binds to the same object."""
    original = getattr(modules[0], name)
    assert all(getattr(mod, name) is original for mod in modules)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_besov_report_computes_each_seminorm_once(monkeypatch):
    calls = count_calls(monkeypatch, "besov_seminorm", besov, experiments)
    grid, shifts = [0.5, 0.3], [1, 2]
    r_list = [0.5, 1.5, 2.5]
    cfg = ExperimentConfig(experiment="besov-report", gamma_grid=grid,
                           r_list=r_list, window_N=32,
                           tolerances={"shift_offsets": shifts})
    run_besov_report(cfg)
    allowed = sum(2 * len(grid) + len(shifts) + (len(grid) if r < 2 else 0)
                  for r in r_list)
    assert 0 < len(calls) <= allowed


def test_toeplitz_sharpness_takes_each_gammas_c0_norm_once(monkeypatch):
    # the resolvent, its inverse and the inverse's C0 norm serve every r
    norms_taken = count_calls(monkeypatch, "cv_norm", experiments)
    cfg = resolve_config(build_parser().parse_args(["toeplitz-sharpness"]))
    run_toeplitz_sharpness(cfg)
    grid, r_list = cfg.gamma_grid, cfg.r_list
    assert len(norms_taken) == len(grid) * (1 + 2 * len(r_list))


@pytest.mark.parametrize("command", ["toeplitz-sharpness", "dd-sharpness",
                                     "besov-report"])
def test_symbol_runners_build_no_matrix(monkeypatch, command):
    # they read the resolvent family as symbols, so no section is built
    builds = count_calls(monkeypatch, "make_toeplitz", *[
        mod for mod in (lattice, experiments) if hasattr(mod, "make_toeplitz")])
    matrices = []
    init = lattice.LatticeMatrix.__post_init__
    monkeypatch.setattr(lattice.LatticeMatrix, "__post_init__",
                        lambda self: matrices.append(1) or init(self))
    RUNNERS[command](resolve_config(build_parser().parse_args([command])))
    assert (len(builds), len(matrices)) == (0, 0)


def test_jaffard_check_takes_one_svd_per_instance(monkeypatch):
    calls = count_calls(monkeypatch, "singular_values", lattice, bounds)
    cfg = ExperimentConfig(experiment="jaffard-check", r_list=[2.0, 3.0],
                           seed=2, window_N=32, tolerances={"instances": 3})
    rows = run_jaffard_check(cfg)["rows"]
    assert 0 < len(calls) <= len(rows)


if __name__ == "__main__":
    unittest.main()
