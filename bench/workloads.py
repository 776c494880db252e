"""The four benchmark workloads, built from the decayinv public API and
`cli.main` only.

One run of a workload is a fixed sequence of parts.  `parts()` lists them
as (label, run, check): `run()` is timed and returns the part's outputs;
`check(result)` computes every reference after the timer has stopped and
yields one (label, ok) pair per check.  `result["rows"]` holds the part's
output rows, which must be bit-identical every time the part runs.
`warmup()` is the small untimed first call that ends set-up.

Functions are looked up through their module at call time (`di.cv_norm`,
`cli.main`), so the tracer's wrappers are used when it is installed.
"""

import contextlib
import csv
import functools
import io
import math
import os

import numpy as np

import decayinv as di
from decayinv import cli, experiments

# relative tolerance of operator_norm_l2 against LAPACK singular values
OPNORM_RTOL = 1e-6

# tests/test_besov.py: window [-32, 31], inverse resolvent at gamma = 0.5,
# r = 1/2, k = 1, t in [0.01, 4]; (value, tolerance, absolute or relative)
FROZEN = {
    "besov_p1": (41.3493713622352, 5e-4, "abs"),
    "besov_p2": (13.0558760935290, 2e-4, "abs"),
    "besov_sup": (5.61290009498663, 1e-9, "abs"),
    "hyper_r0.5": (5.03411662621746, 1e-9, "rel"),
    "hyper_r1.5": (22.5236972847762, 1e-9, "rel"),
}
FROZEN_P1_QUAD_ERR = 1e-3

# the two criterion-10 configs (r = 1/2) and the drifts each one gates
CRITERION_10 = [
    ([1.0, 0.5, 0.2, 0.1, 0.05], ("identification", "first_order",
                                  "embedding")),
    ([0.5, 0.4, 0.35, 0.3, 0.25], ("bessel",)),
]


def _rel_close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def _resolvent(gamma, window):
    x = math.exp(-gamma)
    return di.make_toeplitz(di.ToeplitzSymbol({0: 1.0, 1: -x}), window)


def _frozen_inverse():
    """The matrix of the frozen besov test values."""
    return di.geometric_inverse_toeplitz(0.5, di.IndexWindow(-32, 31))


class Workload:
    seeded = False

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir

    def _cli(self, command, *extra):
        """Run one CLI experiment; its exit code and its rows file bytes."""
        path = os.path.join(self.out_dir, f"{command}.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--out", path, *extra])
        with open(path, "rb") as fh:
            return {"exit": code, "rows": fh.read()}

    @staticmethod
    def _csv(result):
        return list(csv.DictReader(io.StringIO(result["rows"].decode())))


class Inversion(Workload):
    """jaffard-check at its defaults, then the criterion-05 bound set.

    The instances are fixed: the CLI default seed 0 and the acceptance
    test's seeds [5, idx].  Power-iteration cost differs by up to 3.7x
    between seeds (jaffard-check 0.48-1.77 s over 12 seeds), which would
    swamp the run-to-run spread, and at seed 56 the N = 128 instance 5
    makes operator_norm_l2 raise NumericalError (no convergence in 20000
    steps).
    """

    GAMMAS = (0.05, 0.1, 0.2, 0.5, 1.0)
    RANDOM_SEED = 5

    def parts(self):
        return [
            ("jaffard-check", functools.partial(self._cli, "jaffard-check"),
             self._check_jaffard),
            ("criterion-05 resolvents",
             functools.partial(self._resolvent_set, self.GAMMAS),
             self._check_bounds),
            ("criterion-05 random 0-9",
             functools.partial(self._random_set, range(0, 10)),
             self._check_bounds),
            ("criterion-05 random 10-19",
             functools.partial(self._random_set, range(10, 20)),
             self._check_bounds),
        ]

    def warmup(self):
        self._resolvent_set((0.5,))

    @staticmethod
    def _result(reports, opnorms, expected):
        rows = ([(r.bound_name, r.bound_value, r.measured_value)
                 for r in reports] + [v for _, v in opnorms])
        return {"rows": rows, "reports": reports, "opnorms": opnorms,
                "expected": expected}

    def _resolvent_set(self, gammas):
        reports, opnorms = [], []
        W = di.IndexWindow(-32, 31)
        for gamma in gammas:
            A = _resolvent(gamma, W)
            inv = di.geometric_inverse_toeplitz(gamma, W)
            na_op = di.operator_norm_l2(A)
            ninv_op = di.operator_norm_l2(inv)
            opnorms += [(A.entries, na_op), (inv.entries, ninv_op)]
            for r in (1.0, 2.0):
                reports.append(di.baskakov_bound_Cr(A, r, inverse=inv))
                reports.append(di.explicit_bound_Cr(
                    di.cv_norm(A, di.Weight.poly(r)), na_op, ninv_op, r,
                    measured=di.cv_norm(inv, di.Weight.poly(r))))
                if r > 1.0:
                    reports.append(di.baskakov_bound_Jr(A, r, inverse=inv))
                    reports.append(di.explicit_bound_Jr(
                        di.jaffard_norm(A, r), na_op, ninv_op, r,
                        measured=di.jaffard_norm(inv, r)))
        return self._result(reports, opnorms, 6 * len(gammas))

    def _random_set(self, indices):
        reports, opnorms = [], []
        W = di.IndexWindow(-64, 63)
        r, eps, margin = 2.0, 0.3, 32
        for idx in indices:
            A = di.random_decay_matrix(W, r, eps, seed=[self.RANDOM_SEED, idx])
            inv = di.invert_truncated(A)
            na_op = di.operator_norm_l2(A)
            ninv_op = di.operator_norm_l2(inv)
            opnorms += [(A.entries, na_op), (inv.entries, ninv_op)]
            reports.append(di.baskakov_bound_Cr(A, r, method="window",
                                                margin=margin, inverse=inv))
            reports.append(di.baskakov_bound_Jr(A, r, method="window",
                                                margin=margin, inverse=inv))
            reports.append(di.explicit_bound_Cr(
                di.cv_norm(A, di.Weight.poly(r)), na_op, ninv_op, r,
                measured=di.cv_norm(inv, di.Weight.poly(r), margin=margin)))
            reports.append(di.explicit_bound_Jr(
                di.jaffard_norm(A, r), na_op, ninv_op, r,
                measured=di.jaffard_norm(inv, r, margin=margin)))
        return self._result(reports, opnorms, 4 * len(indices))

    def _check_jaffard(self, res):
        yield "jaffard-check exit code 0", res["exit"] == 0
        rows = self._csv(res)
        yield "jaffard-check has 20 rows", len(rows) == 20
        for row in rows:
            yield f"jaffard-check seed={row['seed']} satisfied", \
                row["satisfied"] == "true"

    def _check_bounds(self, res):
        yield f"{res['expected']} bound reports", \
            len(res["reports"]) == res["expected"]
        for i, rep in enumerate(res["reports"]):
            yield f"report {i} {rep.bound_name} satisfied", \
                rep.satisfied is True
        for i, (entries, value) in enumerate(res["opnorms"]):
            ref = float(np.linalg.norm(entries, 2))
            yield f"operator_norm_l2 value {i} within {OPNORM_RTOL} of SVD", \
                _rel_close(value, ref, OPNORM_RTOL)


class Identities(Workload):
    """quotient-verify at its defaults: 20 instances, k <= 5, two shifts."""

    seeded = True

    def parts(self):
        return [("quotient-verify",
                 functools.partial(self._cli, "quotient-verify", "--seed",
                                   str(self.seed)),
                 self._check)]

    def warmup(self):
        W = experiments.centered_window(64)
        A = di.random_decay_matrix(W, 2.0, 0.3, seed=[self.seed, 0])
        B = di.random_decay_matrix(W, 2.0, 0.3, seed=[self.seed, 0, 1])
        inv = di.invert_truncated(A)
        di.verify_identity(A, "derivation_quotient", 1, Ainv=inv, margin=16)
        di.verify_identity(A, "difference_product", 1, t=0.17, B=B,
                           margin=16)
        for name in ("difference_quotient", "telescoping"):
            di.verify_identity(A, name, 1, t=0.17, Ainv=inv, margin=16)

    def _check(self, res):
        yield "quotient-verify exit code 0", res["exit"] == 0
        rows = self._csv(res)
        yield "quotient-verify has 700 rows", len(rows) == 700
        for row in rows:
            yield (f"{row['identity']} instance={row['instance']} k={row['k']}"
                   f" t={row['t']} max_rel_err <= 1e-10"), \
                float(row["max_rel_err"]) <= 1e-10


class Smoothness(Workload):
    """besov-report at its defaults, the two criterion-10 configs, and the
    frozen seminorm and hypersingular values of the besov tests."""

    def parts(self):
        return [
            ("besov-report", functools.partial(self._cli, "besov-report"),
             self._check_exit),
            ("criterion-10 a", functools.partial(self._criterion_10, 0),
             self._check_drifts),
            ("criterion-10 b", functools.partial(self._criterion_10, 1),
             self._check_drifts),
            ("frozen values", self._frozen_values, self._check_frozen),
        ]

    def warmup(self):
        inv = _frozen_inverse()
        di.besov_seminorm(inv, 1, 0.5, 1, t_min=0.01, t_max=4.0)
        di.hypersingular_seminorm(inv, 0.5)

    def _criterion_10(self, which):
        grid, names = CRITERION_10[which]
        cfg = di.ExperimentConfig(experiment="besov-report", gamma_grid=grid,
                                  r_list=[0.5], window_N=64)
        cal = experiments.run_besov_report(cfg)["calibrations"][0.5]
        return {"rows": [(name, cal[name]["ratios"], cal[name]["drift"])
                         for name in names]}

    def _frozen_values(self):
        inv = _frozen_inverse()
        p1 = di.besov_seminorm(inv, 1, 0.5, 1, t_min=0.01, t_max=4.0)
        p2 = di.besov_seminorm(inv, 2, 0.5, 1, t_min=0.01, t_max=4.0)
        sup = di.besov_seminorm(inv, math.inf, 0.5, 1, t_min=0.01, t_max=4.0)
        return {"rows": {
            "besov_p1": p1.value, "besov_p1_quad_err": p1.quadrature_error,
            "besov_p2": p2.value, "besov_sup": sup.value,
            "hyper_r0.5": di.hypersingular_seminorm(inv, 0.5).value,
            "hyper_r1.5": di.hypersingular_seminorm(inv, 1.5).value,
        }}

    def _check_exit(self, res):
        yield "besov-report exit code 0", res["exit"] == 0

    def _check_drifts(self, res):
        for name, ratios, drift in res["rows"]:
            yield f"criterion-10 {name} drift {drift:.4g} <= 10", \
                bool(ratios) and all(math.isfinite(v) for v in ratios) \
                and drift <= 10.0

    def _check_frozen(self, res):
        got = res["rows"]
        for name, (want, tol, kind) in FROZEN.items():
            err = abs(got[name] - want)
            yield f"frozen {name} within {kind} {tol}", \
                err <= (tol if kind == "abs" else tol * abs(want))
        yield f"frozen besov_p1 quadrature error < {FROZEN_P1_QUAD_ERR}", \
            got["besov_p1_quad_err"] < FROZEN_P1_QUAD_ERR


class SymbolSweeps(Workload):
    """toeplitz-sharpness and dd-sharpness at their defaults, back to back."""

    def parts(self):
        return [
            ("toeplitz-sharpness",
             functools.partial(self._cli, "toeplitz-sharpness"),
             self._check_toeplitz),
            ("dd-sharpness", functools.partial(self._cli, "dd-sharpness"),
             self._check_dd),
        ]

    def warmup(self):
        for _, run, _ in self.parts():
            run()

    def _check_dd(self, res):
        yield "dd-sharpness exit code 0", res["exit"] == 0

    def _check_toeplitz(self, res):
        yield "toeplitz-sharpness exit code 0", res["exit"] == 0
        rows = self._csv(res)
        yield "toeplitz-sharpness has 10 rows", len(rows) == 10
        # criterion 02 closed forms on the resolvent and its inverse
        for row in rows:
            gamma, r = float(row["gamma"]), float(row["r"])
            x = math.exp(-gamma)
            yield f"cv_norm(A) = 1 + 2^r e^-gamma at gamma={gamma} r={r}", \
                _rel_close(float(row["norm_A_Cr"]), 1.0 + 2.0 ** r * x, 1e-14)
            inv_c0 = float(row["norm_inv_C0"]) / float(row["normalizer"])
            yield f"cv_norm(inv) = 1/(1 - e^-gamma) at gamma={gamma} r={r}", \
                _rel_close(inv_c0, 1.0 / (1.0 - x), 1e-12)


WORKLOADS = {
    "inversion": Inversion,
    "identities": Identities,
    "smoothness": Smoothness,
    "symbol-sweeps": SymbolSweeps,
}
