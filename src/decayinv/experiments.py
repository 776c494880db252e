"""Experiment runners: sharpness sweeps, bound verification, report tables.

Every runner is deterministic for a fixed (config, seed): summation orders
are fixed and random instances draw from per-row child seeds.  Every
bound and moment column is the value of the bounds or besov function that
names it (besov_bound, bessel_rate_bound, dales_davie_bound,
explicit_bound_Jr, baskakov_bound_Jr, identification_rate_check), never
a copy of its formula; every ratio column divides two such columns.

Each runner owns its settings and decides its own gate: it reads its
tolerances over one table of defaults (_tolerances), and its result
carries `violations`, one line per failed gate, for the CLI to print.

toeplitz-sharpness, dd-sharpness and besov-report read ToeplitzSymbols
and build no matrix; only jaffard-check and quotient-verify read window_N.
"""

import csv
import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .besov import (besov_seminorm, hypersingular_seminorm,
                    identification_rate_check)
from .bounds import (baskakov_bound_Jr, besov_bound, bessel_rate_bound,
                     dales_davie_bound, explicit_bound_Jr,
                     integral_test_bracket)
from .errors import ConfigError, ParameterError, SingularityError
from .lattice import (IndexWindow, LatticeMatrix, ToeplitzSymbol,
                      geometric_inverse_symbol, invert_truncated,
                      offset_table, rcond_estimate)
from .norms import cv_norm, dales_davie_norm, jaffard_norm
from .quotient import verify_instances
from .weights import SmoothnessSequence, Weight

_BRACKET_KMAX = 10   # dd-sharpness checks the bracket of ||D^k|| for k <= this
_KIND_NAMES = {int: "an integer", float: "a real number",
               (int,): "a list of integers",
               (float,): "a list of finite real numbers"}


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
        unknown = set(data) - {f.name for f in fields(cls)}
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
        if not _is_a(self.window_N, int) or self.window_N < 32:
            raise ConfigError(f"window_N must be an integer >= 32, "
                              f"got {self.window_N!r}")
        if not _is_a(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, "
                              f"got {self.seed!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        for name in ("gamma_grid", "r_list"):
            if not _is_a(getattr(self, name), (float,)):
                raise ConfigError(f"{name} must be {_KIND_NAMES[(float,)]}, "
                                  f"got {getattr(self, name)!r}")
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


def _is_a(value, kind):
    """Whether value is of kind, a key of _KIND_NAMES: float takes any
    real number, and (kind,) a list of finite values of kind."""
    if isinstance(kind, tuple):
        return (isinstance(value, (list, tuple))
                and all(_is_a(v, kind[0]) and math.isfinite(v)
                        for v in value))
    number = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, number) and not isinstance(value, bool)


def _tolerances(cfg, **defaults):
    """cfg.tolerances over defaults, the map of every key the runner and
    its gate read to its default value.  A key takes the kind of its
    default (int, float or a list of either; see _is_a): a key outside
    defaults, or a value not of its key's kind, is a ConfigError.  Real
    numbers are cast to float; integers and lists pass through as given."""
    unknown = set(cfg.tolerances) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown tolerances {sorted(unknown)}; "
                          f"accepted: {sorted(defaults)}")
    tol = dict(defaults)
    for key, value in cfg.tolerances.items():
        default = defaults[key]
        kind = ((type(default[0]),) if isinstance(default, list)
                else type(default))
        if not _is_a(value, kind):
            raise ConfigError(f"tolerance {key} must be "
                              f"{_KIND_NAMES[kind]}, got {value!r}")
        tol[key] = float(value) if kind is float else value
    return tol


def _check_sampling(cfg, tol):
    """Raise ConfigError unless tol's instances can be drawn: epsilon in
    [0, 0.5], at least one instance, and a margin that IndexWindow.shrink
    accepts on the window."""
    if not 0 <= tol["epsilon"] <= 0.5:
        raise ConfigError("epsilon must lie in [0, 0.5]")
    if tol["instances"] < 1:
        raise ConfigError(f"instances must be >= 1, got {tol['instances']}")
    try:
        centered_window(cfg.window_N).shrink(tol["margin"])
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def centered_window(n):
    return IndexWindow(-(n // 2), n - n // 2 - 1)


def resolvent_symbol(gamma, normalizer=1.0):
    """The symbol 1 - e^{-gamma} z, optionally divided by normalizer."""
    x = math.exp(-gamma)
    return ToeplitzSymbol({0: 1.0 / normalizer, 1: -x / normalizer})


def random_decay_matrix(window, r, eps, seed):
    """A = I - eps*B with |B(k,l)| <= (1+|k-l|)^{-r} and unit-disc phases."""
    rng = np.random.default_rng(seed)
    n = window.n
    radius = np.sqrt(rng.uniform(size=(n, n)))
    theta = 2 * np.pi * rng.uniform(size=(n, n))
    u = np.empty((n, n), complex)       # radius * exp(i theta), bit for bit
    u.real = radius * np.cos(theta)
    u.imag = radius * np.sin(theta)
    b = u * offset_table(n, lambda m: (1.0 + np.abs(m)) ** (-float(r)))
    return LatticeMatrix(window, np.eye(n) - eps * b)


def run_toeplitz_sharpness(cfg):
    """Inverse-norm growth of the normalized resolvent family.

    Per (gamma, r): closed-form algebra norms, the integral-test bracket
    of the inverse series, delta = 1/norm_inv_C0, and a slope fit of
    log norm_inv_Cr against log delta (expected -(r+1)).  A slope more
    than slope_tol away from it is a violation."""
    cfg.validate()
    band = _tolerances(cfg, slope_tol=0.15)["slope_tol"]
    if len(cfg.gamma_grid) < 4:
        raise ConfigError("toeplitz sharpness needs at least 4 grid points")
    if not cfg.r_list or any(r < 0 for r in cfg.r_list):
        raise ConfigError("toeplitz sharpness needs r_list with every r >= 0")
    # each inverse's C0 norm, which every r reads
    c0 = {gamma: cv_norm(geometric_inverse_symbol(gamma), Weight.poly(0.0))
          for gamma in cfg.gamma_grid}
    rows, fits = [], {}
    for r in cfg.r_list:
        def one(gamma, r=r):
            # the normalizer 1 + 2^r e^-gamma is the resolvent's C_r norm
            s = cv_norm(resolvent_symbol(gamma), Weight.poly(r))
            series = cv_norm(geometric_inverse_symbol(gamma), Weight.poly(r))
            lo, hi = integral_test_bracket(gamma, r)
            return {
                "gamma": gamma, "r": r, "norm_A_Cr": s, "normalizer": s,
                "series_Cr": series, "bracket_low": lo, "bracket_high": hi,
                "bracket_ok": bool(lo <= series <= hi),
                "norm_inv_C0": s * c0[gamma], "norm_inv_Cr": s * series,
                "delta": 1.0 / (s * c0[gamma]),
            }
        rrows = [one(gamma) for gamma in cfg.gamma_grid]
        pts = [(math.log(row["delta"]), math.log(row["norm_inv_Cr"]))
               for row in rrows]
        fits[r] = SlopeFit.fit(pts)
        rows.extend(rrows)
    violations = []
    for r, fit in fits.items():
        target = -(float(r) + 1.0)
        if abs(fit.slope - target) > band:
            violations.append(f"slope at r={r} is {fit.slope:.6f}, "
                              f"wanted {target} within {band}")
    return {"rows": rows, "fits": fits, "violations": violations}


def run_dd_sharpness(cfg):
    """Iterated-derivation norm growth of the resolvent inverse.

    Per gamma: the Dales-Davie norm under gevrey(r), the comparison shape
    gamma^{-1} phi_{r-1}(1/gamma), their ratio, and per-order bracket
    checks for ||D^k|| with k <= _BRACKET_KMAX, on the norms the sum read
    (its first block holds 12 orders).  A ratio outside
    [ratio_low, ratio_high] or an unconverged norm sum is a violation."""
    cfg.validate()
    tol = _tolerances(cfg, ratio_low=0.5, ratio_high=2.0)
    low, high = tol["ratio_low"], tol["ratio_high"]
    if not (math.isfinite(low) and math.isfinite(high) and 0 <= low < high):
        raise ConfigError(f"ratio_low and ratio_high must be finite with "
                          f"0 <= ratio_low < ratio_high, got {low}, {high}")
    if not cfg.gamma_grid:
        raise ConfigError("gamma_grid must not be empty")
    if not cfg.r_list or any(r <= 1 for r in cfg.r_list):
        raise ConfigError("dd sharpness needs r_list with every r > 1")
    rows, fits = [], {}
    for r in cfg.r_list:
        seq = SmoothnessSequence.gevrey(r)

        def one(gamma, r=r, seq=seq):
            inv = geometric_inverse_symbol(gamma)
            dd = dales_davie_norm(inv, seq, ambient="c0")
            log_comp = dales_davie_bound(1.0 / gamma,
                                         r).intermediates["log_bound"]
            ratio = math.exp(dd.log_value - log_comp)
            checked = dd.dk_logs[1:_BRACKET_KMAX + 1]
            ok_all = upper_all = True
            for k, dk_log in enumerate(checked, start=1):
                series_k = math.exp(dk_log)
                lo, hi = integral_test_bracket(gamma, float(k))
                lo, hi = math.exp(-gamma) * lo, math.exp(-gamma) * hi
                ok_all = ok_all and (lo <= series_k <= hi)
                upper_all = upper_all and (series_k <= hi)
            return {
                "gamma": gamma, "r": r, "dd_norm": dd.value,
                "log_dd": dd.log_value, "kmax_used": dd.kmax_used,
                "converged": dd.converged, "log_comparison": log_comp,
                "ratio": ratio, "bracket_checked": len(checked),
                "bracket_ok_all": ok_all, "bracket_upper_ok_all": upper_all,
            }
        rrows = [one(gamma) for gamma in cfg.gamma_grid]
        pts = [(row["log_comparison"], row["log_dd"]) for row in rrows]
        fits[r] = SlopeFit.fit(pts) if len(pts) >= 2 else None
        rows.extend(rrows)
    violations = []
    for row in rows:
        if not low <= row["ratio"] <= high:
            violations.append(f"ratio at gamma={row['gamma']} r={row['r']} is "
                              f"{row['ratio']:.6f}, outside [{low}, {high}]")
        if not row["converged"]:
            violations.append(f"norm sum at gamma={row['gamma']} "
                              f"r={row['r']} did not converge")
    return {"rows": rows, "fits": fits, "violations": violations}


def run_jaffard_check(cfg):
    """Seeded I - eps*B instances against the J_r inversion bounds."""
    cfg.validate()
    tol = _tolerances(cfg, epsilon=0.3, instances=20,
                      margin=cfg.window_N // 8)
    if not cfg.r_list or any(r <= 1 for r in cfg.r_list):
        raise ConfigError("jaffard check needs r_list with every r > 1")
    _check_sampling(cfg, tol)
    eps, margin = tol["epsilon"], tol["margin"]
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
            # one SVD of A (in condition_data) gives both operator norms
            rep_b = baskakov_bound_Jr(A, r, margin=margin, inverse=inv)
            measured = rep_b.measured_value
            rep_e = explicit_bound_Jr(jaffard_norm(A, r),
                                      rep_b.inputs["norm_A_op"],
                                      rep_b.inputs["norm_Ainv_op"], r,
                                      measured=measured)
            return {
                "seed": idx, "r": r, "epsilon": eps, "measured": measured,
                "measured_margin0": jaffard_norm(inv, r),
                "bound_explicit": rep_e.bound_value,
                "bound_baskakov": rep_b.bound_value,
                "ratio_explicit": measured / rep_e.bound_value,
                "ratio_baskakov": measured / rep_b.bound_value,
                "satisfied": bool(rep_e.satisfied and rep_b.satisfied),
                "regenerated": regenerated,
            }
        rows.extend(one(idx) for idx in range(tol["instances"]))
    violations = [f"instance seed={row['seed']} r={row['r']}: measured "
                  f"{row['measured']:.6e} exceeds a bound"
                  for row in rows if not row["satisfied"]]
    return {"rows": rows, "violations": violations}


def run_quotient_verify(cfg):
    """Max relative errors of the four smoothness identities on seeded
    random decay instances, gated by max_rel_err."""
    cfg.validate()
    tol = _tolerances(cfg, kmax=5, epsilon=0.3, decay_r=2.0, instances=20,
                      t_values=[0.17, 0.31], margin=cfg.window_N // 4,
                      max_rel_err=1e-8)
    if not 1 <= tol["kmax"] <= 8:
        raise ConfigError("kmax must lie in [1, 8]")
    _check_sampling(cfg, tol)
    eps, decay_r = tol["epsilon"], tol["decay_r"]
    if not (math.isfinite(decay_r) and decay_r >= 0):
        raise ConfigError(f"decay_r must be finite and >= 0, got {decay_r}")
    window = centered_window(cfg.window_N)

    rconds = []

    def instances():   # lazily, so that one instance is alive at a time
        for idx in range(tol["instances"]):
            A = random_decay_matrix(window, decay_r, eps, seed=[cfg.seed, idx])
            inv = invert_truncated(A)
            rconds.append(rcond_estimate(A, inv))
            yield A, random_decay_matrix(window, decay_r, eps,
                                         seed=[cfg.seed, idx, 1]), inv

    stream = verify_instances(instances(), tol["kmax"], tol["t_values"],
                              tol["margin"])
    rows = [{"instance": idx, "identity": res["identity"], "k": res["k"],
             "t": res["t"], "max_rel_err": res["max_rel_err"],
             "rcond": rconds[idx]}
            for idx, results in enumerate(stream) for res in results]
    worst = {}
    for row in rows:
        key = row["identity"]
        worst[key] = max(worst.get(key, 0.0), row["max_rel_err"])
    gate = tol["max_rel_err"]
    violations = [f"{name}: max relative error {err:.3e} > {gate}"
                  for name, err in sorted(worst.items()) if err > gate]
    return {"rows": rows, "worst": worst, "violations": violations}


_BESOV_COLUMNS = ("family", "param", "r", "seminorm_A", "seminorm_inv",
                  "quad_err", "moment", "ratio_ident", "norm_inv_C0",
                  "ncb_lhs", "ncb_rhs", "ncb_ok", "hyper_inv", "hyper_A",
                  "lambda_inf", "embed_ratio", "bessel_rate", "bessel_ratio")


def run_besov_report(cfg):
    """Smoothness seminorms across the resolvent and shift families.

    Per r, one identification_rate_check over the resolvent inverses and
    the shifts gives each row's seminorm, moment and ratio; besov_bound
    carries the first-order norm-control check (constant 1) for r < 1 and
    bessel_rate_bound the cubic rate; the hypersingular/Besov embedding
    ratios run for r < 2.  A failed first-order check is a violation."""
    cfg.validate()
    tol = _tolerances(cfg, shift_offsets=[1, 2, 4], t_min=1e-6, t_max=4.0)
    t_min, t_max = tol["t_min"], tol["t_max"]
    if not cfg.gamma_grid:
        raise ConfigError("gamma_grid must not be empty")
    if not cfg.r_list or any(not 0 < r <= 3 for r in cfg.r_list):
        raise ConfigError("besov report needs r_list within (0, 3]")
    if not 0 < t_min < t_max < math.inf:
        raise ConfigError(
            f"need a finite 0 < t_min < t_max, got {t_min}, {t_max}")
    shifts = [ToeplitzSymbol({m: 1.0}) for m in tol["shift_offsets"]]
    rows = []
    calibrations = {}
    for r in cfg.r_list:
        k = math.floor(r) + 1
        scales = [cv_norm(resolvent_symbol(g), Weight.poly(r))
                  for g in cfg.gamma_grid]
        invs = [geometric_inverse_symbol(g, scale=s)
                for g, s in zip(cfg.gamma_grid, scales)]
        ident = identification_rate_check(invs + shifts, r, t_min=t_min,
                                          t_max=t_max)

        def row_of(family, param, ident_row, **cols):
            row = dict.fromkeys(_BESOV_COLUMNS)
            row.update(family=family, param=param, r=r,
                       quad_err=ident_row["quadrature_error"],
                       moment=ident_row["moment"],
                       ratio_ident=ident_row["ratio"], **cols)
            return row

        rrows = []
        for gamma, s, inv, ident_row in zip(cfg.gamma_grid, scales, invs,
                                            ident["rows"]):
            A = resolvent_symbol(gamma, normalizer=s)
            inv_c0 = cv_norm(inv, Weight.poly(0.0))
            sem_A = besov_seminorm(A, 1, r, k, t_min=t_min, t_max=t_max)
            sem_inv = ident_row["seminorm"]
            row = row_of("resolvent", gamma, ident_row,
                         seminorm_A=sem_A.value, seminorm_inv=sem_inv,
                         norm_inv_C0=inv_c0)
            if r < 1:
                ncb = besov_bound(inv_c0, sem_A.value, r, measured=sem_inv)
                row.update(ncb_lhs=sem_inv, ncb_rhs=ncb.bound_value,
                           ncb_ok=ncb.satisfied)
            if r < 2:
                hyp_inv = hypersingular_seminorm(inv, r).value
                hyp_A = hypersingular_seminorm(A, r).value
                lam_inf = besov_seminorm(inv, math.inf, r + 0.1, 1,
                                         t_min=t_min, t_max=t_max).value
                row.update(hyper_inv=hyp_inv, hyper_A=hyp_A,
                           lambda_inf=lam_inf, embed_ratio=hyp_inv / lam_inf)
            if r < 1:
                # cubic-rate comparison only makes sense below order one
                rate = bessel_rate_bound(inv_c0, hyp_A, r).bound_value
                row.update(bessel_rate=rate, bessel_ratio=hyp_inv / rate)
            rrows.append(row)
        rows.extend(rrows)
        rows.extend(row_of("shift", m, ident_row,
                           seminorm_A=ident_row["seminorm"])
                    for m, ident_row in zip(tol["shift_offsets"],
                                            ident["rows"][len(invs):]))
        cal = {"identification": _drift([row["ratio"]
                                         for row in ident["rows"]])}
        if r < 1:
            cal["first_order"] = _drift([row["ncb_lhs"] / row["ncb_rhs"]
                                         for row in rrows])
            cal["bessel"] = _drift([row["bessel_ratio"] for row in rrows])
        if r < 2:
            cal["embedding"] = _drift([row["embed_ratio"] for row in rrows])
        calibrations[r] = cal
    violations = [f"first-order control failed at param={row['param']} "
                  f"r={row['r']}: {row['ncb_lhs']:.6e} > {row['ncb_rhs']:.6e}"
                  for row in rows if row["ncb_ok"] is False]
    return {"rows": rows, "calibrations": calibrations,
            "violations": violations}


def _drift(ratios):
    vals = [v for v in ratios if v is not None and math.isfinite(v)]
    if not vals:
        return {"ratios": [], "drift": math.nan}
    return {"ratios": vals, "drift": max(vals) / min(vals)}


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
    raise TypeError(f"not serializable: {type(obj)!r}")
