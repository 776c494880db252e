"""Experiment runners: sharpness sweeps, bound verification, report tables.

Every runner is deterministic for a fixed (config, seed): summation orders
are fixed and random instances draw from per-row child seeds.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .besov import besov_seminorm, decay_moment, hypersingular_seminorm
from .bounds import (baskakov_bound_Jr, explicit_bound_Jr,
                     integral_test_bracket)
from .errors import ConfigError, ParameterError, SingularityError
from .lattice import (IndexWindow, LatticeMatrix, ToeplitzSymbol,
                      geometric_inverse_toeplitz, invert_truncated,
                      make_toeplitz, operator_norm_l2, rcond_estimate)
from .norms import cv_norm, dales_davie_norm, dk_norm_log, jaffard_norm
from .quotient import verify_identity
from .weights import SmoothnessSequence, Weight, log_phi_r

_BRACKET_KMAX = 10   # dd-sharpness checks the bracket of ||D^k|| for k <= this
_CONFIG_FIELDS = {"experiment", "gamma_grid", "r_list", "window_N", "seed",
                  "tolerances", "output", "format"}


@dataclass
class ExperimentConfig:
    experiment: str = ""
    gamma_grid: list = field(default_factory=list)
    r_list: list = field(default_factory=list)
    window_N: int = 64
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output: str = ""
    format: str = "csv"

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(data)

    def validate(self):
        if not isinstance(self.window_N, int) or self.window_N < 32:
            raise ConfigError(f"window_N must be an integer >= 32, "
                              f"got {self.window_N!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, "
                              f"got {self.seed!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if any(g <= 0 for g in self.gamma_grid):
            raise ConfigError("gamma_grid entries must be positive")
        for a, b in zip(self.gamma_grid, self.gamma_grid[1:]):
            if b >= a:
                raise ConfigError("gamma_grid must decrease strictly toward 0")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must be a map")
        return self


@dataclass
class SlopeFit:
    points: list
    slope: float
    intercept: float
    residual: float

    @classmethod
    def fit(cls, points):
        """Least squares on the last ceil(half) of the points (the
        asymptotic end of the grid); residual is the max absolute
        deviation over the fitted points."""
        if len(points) < 2:
            raise ParameterError("need at least two points to fit")
        m = max(2, math.ceil(len(points) / 2))
        sub = points[-m:]
        xs = np.array([p[0] for p in sub], dtype=float)
        ys = np.array([p[1] for p in sub], dtype=float)
        coef, *_ = np.linalg.lstsq(np.vstack([xs, np.ones_like(xs)]).T, ys,
                                   rcond=None)
        slope, intercept = float(coef[0]), float(coef[1])
        residual = float(np.abs(ys - (slope * xs + intercept)).max())
        return cls(points=[tuple(p) for p in points], slope=slope,
                   intercept=intercept, residual=residual)


def _accept_tolerances(cfg, *keys):
    """Raise ConfigError on a tolerances key outside keys: the ones the
    runner and its gate in cli.find_violations read."""
    unknown = set(cfg.tolerances) - set(keys)
    if unknown:
        raise ConfigError(f"unknown tolerances {sorted(unknown)}; "
                          f"accepted: {sorted(keys)}")


def centered_window(n):
    return IndexWindow(-(n // 2), n - n // 2 - 1)


def resolvent_matrix(gamma, window, normalizer=1.0):
    """Bidiagonal 1 - e^{-gamma} shift, optionally divided by normalizer."""
    x = math.exp(-gamma)
    sym = ToeplitzSymbol({0: 1.0 / normalizer, 1: -x / normalizer})
    return make_toeplitz(sym, window)


def random_decay_matrix(window, r, eps, seed):
    """A = I - eps*B with |B(k,l)| <= (1+|k-l|)^{-r} and unit-disc phases."""
    rng = np.random.default_rng(seed)
    n = window.n
    radius = np.sqrt(rng.uniform(size=(n, n)))
    angle = rng.uniform(size=(n, n))
    u = radius * np.exp(2j * np.pi * angle)
    om = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    b = u * (1.0 + om) ** (-float(r))
    return LatticeMatrix(window, np.eye(n) - eps * b, "general")


def run_toeplitz_sharpness(cfg):
    """Inverse-norm growth of the normalized resolvent family.

    Per (gamma, r): closed-form algebra norms, the integral-test bracket
    of the inverse series, delta = 1/norm_inv_C0, and a slope fit of
    log norm_inv_Cr against log delta (expected -(r+1))."""
    cfg.validate()
    _accept_tolerances(cfg, "slope_tol")
    if len(cfg.gamma_grid) < 4:
        raise ConfigError("toeplitz sharpness needs at least 4 grid points")
    if not cfg.r_list:
        raise ConfigError("r_list must not be empty")
    window = centered_window(cfg.window_N)
    rows, fits = [], {}
    for r in cfg.r_list:
        def one(gamma, r=r):
            x = math.exp(-gamma)
            s = 1.0 + 2.0 ** r * x
            A = resolvent_matrix(gamma, window)
            inv = geometric_inverse_toeplitz(gamma, window)
            norm_A = cv_norm(A, Weight.poly(r))
            series = cv_norm(inv, Weight.poly(r))
            lo, hi = integral_test_bracket(gamma, r)
            inv_c0 = cv_norm(inv, Weight.poly(0.0))
            return {
                "gamma": gamma, "r": r, "norm_A_Cr": norm_A, "normalizer": s,
                "series_Cr": series, "bracket_low": lo, "bracket_high": hi,
                "bracket_ok": bool(lo <= series <= hi),
                "norm_inv_C0": s * inv_c0, "norm_inv_Cr": s * series,
                "delta": 1.0 / (s * inv_c0),
            }
        rrows = [one(gamma) for gamma in cfg.gamma_grid]
        pts = [(math.log(row["delta"]), math.log(row["norm_inv_Cr"]))
               for row in rrows]
        fits[r] = SlopeFit.fit(pts)
        rows.extend(rrows)
    return {"rows": rows, "fits": fits}


def run_dd_sharpness(cfg):
    """Iterated-derivation norm growth of the resolvent inverse.

    Per gamma: the Dales-Davie norm under gevrey(r), the comparison shape
    gamma^{-1} phi_{r-1}(1/gamma), their ratio, and per-order bracket
    checks for ||D^k|| with k <= _BRACKET_KMAX."""
    cfg.validate()
    _accept_tolerances(cfg, "ratio_low", "ratio_high")
    if not cfg.gamma_grid:
        raise ConfigError("gamma_grid must not be empty")
    if not cfg.r_list or any(r <= 1 for r in cfg.r_list):
        raise ConfigError("dd sharpness needs r_list with every r > 1")
    window = centered_window(cfg.window_N)
    rows, fits = [], {}
    for r in cfg.r_list:
        seq = SmoothnessSequence.gevrey(r)

        def one(gamma, r=r, seq=seq):
            inv = geometric_inverse_toeplitz(gamma, window)
            dd = dales_davie_norm(inv, seq, ambient="c0", method="symbol")
            log_comp = math.log(1.0 / gamma) + log_phi_r(1.0 / gamma, r - 1.0)
            ratio = math.exp(dd.log_value - log_comp)
            checked, ok_all, upper_all = 0, True, True
            for k in range(1, _BRACKET_KMAX + 1):
                series_k = math.exp(dk_norm_log(inv, k, "c0", "symbol"))
                lo, hi = integral_test_bracket(gamma, float(k))
                lo, hi = math.exp(-gamma) * lo, math.exp(-gamma) * hi
                checked += 1
                ok_all = ok_all and (lo <= series_k <= hi)
                upper_all = upper_all and (series_k <= hi)
            return {
                "gamma": gamma, "r": r, "dd_norm": dd.value,
                "log_dd": dd.log_value, "kmax_used": dd.kmax_used,
                "converged": dd.converged, "log_comparison": log_comp,
                "ratio": ratio, "bracket_checked": checked,
                "bracket_ok_all": ok_all, "bracket_upper_ok_all": upper_all,
            }
        rrows = [one(gamma) for gamma in cfg.gamma_grid]
        pts = [(row["log_comparison"], row["log_dd"]) for row in rrows]
        fits[r] = SlopeFit.fit(pts) if len(pts) >= 2 else None
        rows.extend(rrows)
    return {"rows": rows, "fits": fits}


def run_jaffard_check(cfg):
    """Seeded I - eps*B instances against the J_r inversion bounds."""
    cfg.validate()
    _accept_tolerances(cfg, "epsilon", "instances", "margin")
    if not cfg.r_list or any(r <= 1 for r in cfg.r_list):
        raise ConfigError("jaffard check needs r_list with every r > 1")
    eps = float(cfg.tolerances.get("epsilon", 0.3))
    if not 0 <= eps <= 0.5:
        raise ConfigError("epsilon must lie in [0, 0.5]")
    count = int(cfg.tolerances.get("instances", 20))
    margin = int(cfg.tolerances.get("margin", cfg.window_N // 8))
    window = centered_window(cfg.window_N)
    rows = []
    for r in cfg.r_list:
        def one(idx, r=r):
            salt, regenerated = 0, 0
            while True:
                A = random_decay_matrix(window, r, eps,
                                        seed=[cfg.seed, idx, salt])
                try:
                    inv = invert_truncated(A)
                    break
                except SingularityError:
                    salt += 1
                    regenerated += 1
                    if salt > 8:
                        raise
            na_j = jaffard_norm(A, r)
            na_op = operator_norm_l2(A)
            ninv_op = operator_norm_l2(inv)
            measured = jaffard_norm(inv, r, margin=margin)
            measured_full = jaffard_norm(inv, r)
            rep_e = explicit_bound_Jr(na_j, na_op, ninv_op, r,
                                      measured=measured)
            rep_b = baskakov_bound_Jr(A, r, method="window", margin=margin,
                                      inverse=inv)
            return {
                "seed": idx, "r": r, "epsilon": eps, "measured": measured,
                "measured_margin0": measured_full,
                "bound_explicit": rep_e.bound_value,
                "bound_baskakov": rep_b.bound_value,
                "ratio_explicit": measured / rep_e.bound_value,
                "ratio_baskakov": measured / rep_b.bound_value,
                "satisfied": bool(rep_e.satisfied and rep_b.satisfied),
                "regenerated": regenerated,
            }
        rows.extend(one(idx) for idx in range(count))
    return {"rows": rows}


def run_quotient_verify(cfg):
    """Max relative errors of the four smoothness identities on seeded
    random decay instances."""
    cfg.validate()
    _accept_tolerances(cfg, "kmax", "epsilon", "decay_r", "instances",
                       "t_values", "margin", "max_rel_err")
    kmax = int(cfg.tolerances.get("kmax", 5))
    if not 1 <= kmax <= 8:
        raise ConfigError("kmax must lie in [1, 8]")
    eps = float(cfg.tolerances.get("epsilon", 0.3))
    decay_r = float(cfg.tolerances.get("decay_r", 2.0))
    count = int(cfg.tolerances.get("instances", 20))
    ts = list(cfg.tolerances.get("t_values", [0.17, 0.31]))
    margin = int(cfg.tolerances.get("margin", cfg.window_N // 4))
    window = centered_window(cfg.window_N)

    def one(idx):
        A = random_decay_matrix(window, decay_r, eps, seed=[cfg.seed, idx])
        B = random_decay_matrix(window, decay_r, eps, seed=[cfg.seed, idx, 1])
        inv = invert_truncated(A)
        rc = rcond_estimate(A, inv)
        out = []
        for k in range(1, kmax + 1):
            res = verify_identity(A, "derivation_quotient", k, Ainv=inv,
                                  margin=margin)
            out.append({"instance": idx, "identity": "derivation_quotient",
                        "k": k, "t": None, "max_rel_err": res["max_rel_err"],
                        "rcond": rc})
            for t in ts:
                for name, extra in (("difference_product", {"B": B}),
                                    ("difference_quotient", {"Ainv": inv}),
                                    ("telescoping", {"Ainv": inv})):
                    res = verify_identity(A, name, k, t=t, margin=margin,
                                          **extra)
                    out.append({"instance": idx, "identity": name, "k": k,
                                "t": t, "max_rel_err": res["max_rel_err"],
                                "rcond": rc})
        return out

    rows = [row for idx in range(count) for row in one(idx)]
    worst = {}
    for row in rows:
        key = row["identity"]
        worst[key] = max(worst.get(key, 0.0), row["max_rel_err"])
    return {"rows": rows, "worst": worst}


def run_besov_report(cfg):
    """Smoothness seminorms across the resolvent and shift families.

    Carries the first-order norm-control check (constant 1) for r < 1,
    hypersingular/Besov embedding ratios, moment-identification ratios,
    and cubic-rate calibration data."""
    cfg.validate()
    _accept_tolerances(cfg, "shift_offsets", "t_min", "t_max")
    if not cfg.gamma_grid:
        raise ConfigError("gamma_grid must not be empty")
    if not cfg.r_list or any(not 0 < r <= 3 for r in cfg.r_list):
        raise ConfigError("besov report needs r_list within (0, 3]")
    window = centered_window(cfg.window_N)
    shift_offsets = [int(m) for m in cfg.tolerances.get("shift_offsets",
                                                        [1, 2, 4])]
    t_min = float(cfg.tolerances.get("t_min", 1e-6))
    t_max = float(cfg.tolerances.get("t_max", 4.0))
    rows = []
    calibrations = {}
    for r in cfg.r_list:
        k = math.floor(r) + 1

        def one(gamma, r=r, k=k):
            x = math.exp(-gamma)
            s = 1.0 + 2.0 ** r * x
            A = resolvent_matrix(gamma, window, normalizer=s)
            inv = geometric_inverse_toeplitz(gamma, window, scale=s)
            inv_c0 = cv_norm(inv, Weight.poly(0.0))
            sem_A = besov_seminorm(A, 1, r, k, t_min=t_min, t_max=t_max)
            sem_inv = besov_seminorm(inv, 1, r, k, t_min=t_min, t_max=t_max)
            moment = decay_moment(inv, r)
            row = {
                "family": "resolvent", "param": gamma, "r": r,
                "seminorm_A": sem_A.value, "seminorm_inv": sem_inv.value,
                "quad_err": sem_inv.quadrature_error,
                "moment": moment, "ratio_ident": sem_inv.value / moment,
                "norm_inv_C0": inv_c0,
            }
            if r < 1:
                rhs = inv_c0 ** 2 * sem_A.value
                row["ncb_lhs"] = sem_inv.value
                row["ncb_rhs"] = rhs
                row["ncb_ok"] = bool(sem_inv.value <= rhs)
            else:
                row["ncb_lhs"] = row["ncb_rhs"] = None
                row["ncb_ok"] = None
            for key in ("hyper_inv", "hyper_A", "lambda_inf", "embed_ratio",
                        "bessel_rate", "bessel_ratio"):
                row[key] = None
            if 0 < r < 2:
                hyp_inv = hypersingular_seminorm(inv, r)
                hyp_A = hypersingular_seminorm(A, r)
                lam_inf = besov_seminorm(inv, math.inf, r + 0.1, 1,
                                         t_min=t_min, t_max=t_max)
                row["hyper_inv"] = hyp_inv.value
                row["hyper_A"] = hyp_A.value
                row["lambda_inf"] = lam_inf.value
                row["embed_ratio"] = hyp_inv.value / lam_inf.value
            if 0 < r < 1:
                # cubic-rate comparison only makes sense below order one
                row["bessel_rate"] = inv_c0 ** 3 * hyp_A.value ** 2
                row["bessel_ratio"] = hyp_inv.value / row["bessel_rate"]
            return row

        rrows = [one(gamma) for gamma in cfg.gamma_grid]
        rows.extend(rrows)
        for m in shift_offsets:
            T = make_toeplitz(ToeplitzSymbol({m: 1.0}), window)
            sem = besov_seminorm(T, 1, r, k, t_min=t_min, t_max=t_max)
            mom = float(m) ** r
            rows.append({
                "family": "shift", "param": m, "r": r, "seminorm_A": sem.value,
                "seminorm_inv": None, "quad_err": sem.quadrature_error,
                "moment": mom, "ratio_ident": sem.value / mom,
                "norm_inv_C0": None, "ncb_lhs": None, "ncb_rhs": None,
                "ncb_ok": None, "hyper_inv": None, "hyper_A": None,
                "lambda_inf": None, "embed_ratio": None, "bessel_rate": None,
                "bessel_ratio": None,
            })
        cal = {}
        ident = [row["ratio_ident"] for row in rows
                 if row["r"] == r and row["ratio_ident"] is not None]
        cal["identification"] = _drift(ident)
        if r < 1:
            fo = [row["ncb_lhs"] / row["ncb_rhs"] for row in rrows]
            cal["first_order"] = _drift(fo)
            cal["bessel"] = _drift([row["bessel_ratio"] for row in rrows])
        if 0 < r < 2:
            emb = [row["embed_ratio"] for row in rrows]
            cal["embedding"] = _drift(emb)
        calibrations[r] = cal
    return {"rows": rows, "calibrations": calibrations}


def _drift(ratios):
    vals = [v for v in ratios if v is not None and math.isfinite(v)]
    if not vals:
        return {"ratios": [], "drift": math.nan, "fitted_constant": math.nan}
    return {"ratios": vals, "drift": max(vals) / min(vals),
            "fitted_constant": max(vals)}


RUNNERS = {
    "toeplitz-sharpness": run_toeplitz_sharpness,
    "dd-sharpness": run_dd_sharpness,
    "jaffard-check": run_jaffard_check,
    "quotient-verify": run_quotient_verify,
    "besov-report": run_besov_report,
}


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def write_rows(rows, path, fmt="csv"):
    """Emit a row table; CSV floats use repr so parsing back is lossless."""
    if fmt == "csv":
        cols = list(rows[0].keys()) if rows else []
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(cols)
            for row in rows:
                wr.writerow([_cell(row.get(c)) for c in cols])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1, default=_json_default)
            fh.write("\n")
    else:
        raise ParameterError(f"unknown format {fmt!r}")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, SlopeFit):
        return asdict(obj)
    raise TypeError(f"not serializable: {type(obj)!r}")


def result_to_json(result):
    """JSON-ready copy of a runner result (fits expanded to dicts)."""
    out = {}
    for key, val in result.items():
        if key == "fits":
            out[key] = {str(r): (asdict(f) if f is not None else None)
                        for r, f in val.items()}
        elif key == "calibrations":
            out[key] = {str(r): v for r, v in val.items()}
        else:
            out[key] = val
    return out
