"""Experiment config validation, determinism, and table round trips."""

import csv
import json
import math
import os
import unittest

from decayinv import ConfigError, ExperimentConfig, SlopeFit
from decayinv.experiments import (run_besov_report, run_dd_sharpness,
                                  run_jaffard_check, run_quotient_verify,
                                  run_toeplitz_sharpness, write_rows)


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


if __name__ == "__main__":
    unittest.main()
