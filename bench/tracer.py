"""Per-layer tracing of the decayinv public functions, from outside the package.

`Tracer.install` replaces each listed function by a wrapper in every
`decayinv` module namespace that holds it (a name imported into several
modules, or stored in a module-level dict such as `experiments.RUNNERS`, is
patched everywhere).  A wrapper records a span (name, start, end, parent),
counts the call and adds its self time: the span's duration minus the time
covered by traced callees.  Counters read a function's return value; any
reference they need is computed after the span has closed, and that time is
taken out of the enclosing span's self time.

A listed function that the package no longer defines, or a counter whose
field its return value no longer carries, is reported in `absent` and its
metrics read 0.  Nothing here changes an argument or a return value.
"""

import functools
import sys
import time

import numpy as np

# layer (module under decayinv) -> public functions whose calls and self
# time are reported
FUNCTIONS = {
    "lattice": ["operator_norm_l2", "invert_truncated", "rcond_estimate",
                "make_toeplitz", "apply_automorphism", "difference_power",
                "derivation_power", "symbol_range"],
    "norms": ["side_diag_sup", "cv_norm", "jaffard_norm", "banded_error",
              "dk_norm_log", "dales_davie_norm"],
    "besov": ["besov_seminorm", "hypersingular_seminorm"],
    "bounds": ["condition_data", "ell_r", "weighted_geometric_series",
               "phi_Ar", "baskakov_bound_Cr", "baskakov_bound_Jr"],
    "quotient": ["verify_identity"],
    "weights": ["log_phi_r"],
    "experiments": ["run_toeplitz_sharpness", "run_dd_sharpness",
                    "run_jaffard_check", "run_quotient_verify",
                    "run_besov_report", "write_rows"],
    "cli": ["main"],
}


def _opnorm_error(result, args, kwargs):
    A = args[0] if args else kwargs["A"]
    ref = float(np.linalg.norm(A.entries, 2))
    return abs(result - ref) / ref if ref else abs(result)


# counter name -> (traced function, unit, combine, reader of one call)
COUNTERS = {
    "lattice.operator_norm_l2.rel_err_max":
        ("lattice.operator_norm_l2", "rel", max, _opnorm_error),
    "besov.besov_seminorm.quad_err_max":
        ("besov.besov_seminorm", "abs", max,
         lambda res, a, kw: res.quadrature_error),
    "bounds.weighted_geometric_series.terms":
        ("bounds.weighted_geometric_series", "count", sum,
         lambda res, a, kw: res[1]),
    "norms.dales_davie_norm.kmax_used":
        ("norms.dales_davie_norm", "count", max,
         lambda res, a, kw: res.kmax_used),
    "quotient.verify_identity.max_rel_err":
        ("quotient.verify_identity", "rel", max,
         lambda res, a, kw: res["max_rel_err"]),
    "experiments.regenerated":
        ("experiments.run_jaffard_check", "count", sum,
         lambda res, a, kw: sum(row["regenerated"] for row in res["rows"])),
    "experiments.bracket_ok_false":
        ("experiments.run_toeplitz_sharpness", "count", sum,
         lambda res, a, kw: sum(not row["bracket_ok"] for row in res["rows"])),
}


def function_names():
    return [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]


def metric_units():
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, (_, unit, _, _) in COUNTERS.items():
        units[name] = unit
    return units


def combine_parts(name, values):
    """A run's value of metric `name` from its values in each part."""
    combine = COUNTERS[name][2] if name in COUNTERS else sum
    return combine(values)


class Tracer:
    def __init__(self):
        self.absent = []
        self._counters_of = {}
        for cname, (fname, _, combine, read) in COUNTERS.items():
            self._counters_of.setdefault(fname, []).append(
                (cname, combine, read))
        self.spans = []
        self.reset()

    def reset(self):
        """Start a new traced part: clear call stats and counters."""
        self.stats = {name: [0, 0.0] for name in function_names()}
        self.counters = {name: 0 for name in COUNTERS}
        # each frame is [span index, time covered by traced callees]
        self._stack = [[None, 0.0]]

    def install(self, package="decayinv"):
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and
                   (name == package or name.startswith(package + "."))]
        for layer, fns in FUNCTIONS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                orig = getattr(home, fn, None)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                        elif isinstance(val, dict):
                            for key, item in list(val.items()):
                                if item is orig:
                                    val[key] = wrapper
        for cname, (fname, _, _, _) in COUNTERS.items():
            if fname in self.absent:
                self.absent.append(cname)

    def _wrap(self, name, fn):
        counters = self._counters_of.get(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1]
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                stats = self.stats[name]
                stats[0] += 1
                stats[1] += (t1 - t0) - frame[1]
                parent[1] += t1 - t0
                self.spans[frame[0]] = (name, t0, t1, parent[0])
            if counters:
                r0 = time.perf_counter()
                for cname, combine, read in counters:
                    try:
                        value = read(result, args, kwargs)
                    except (AttributeError, KeyError, IndexError, TypeError):
                        # the return value no longer carries this field
                        if cname not in self.absent:
                            self.absent.append(cname)
                        continue
                    self.counters[cname] = combine((self.counters[cname],
                                                    value))
                parent[1] += time.perf_counter() - r0
            return result

        return wrapper

    def metrics(self):
        """Per-layer values since reset(), keyed like metric_units()."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        return out

    def self_total(self):
        return sum(self_s for _, self_s in self.stats.values())
