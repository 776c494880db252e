"""Self-test of the benchmark: python3 -m pytest bench

Checks that traced and untraced runs produce bit-identical rows, that self
times sum to no more than wall time, that every metric name is well formed
and matches BENCHMARK.json, that a listed function missing from the package
is reported absent, and that the benchmark refuses to run without sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {**tracer.metric_units(), **run.TRACE_EXTRA}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names), names


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_is_correct_and_complete(workload):
    # the traced run alternates untraced and traced processes; run.py fails
    # a check when their rows differ or a unit's self times exceed its wall
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "absent" not in proc.stdout


def test_untraced_run_reports_end_to_end_metrics():
    proc = bench("--workload", "symbol-sweeps", "--seed", "0", "--seconds",
                 "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run.END_TO_END.items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "symbol-sweeps", "--seed", "0", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _fake_package():
    """A package `fakepkg` defining two of the listed functions."""
    pkg = types.ModuleType("fakepkg")
    lattice = types.ModuleType("fakepkg.lattice")
    cli = types.ModuleType("fakepkg.cli")

    def make_toeplitz(n):
        return types.SimpleNamespace(entries=2.0 * np.eye(n))

    def operator_norm_l2(A):
        return float(np.abs(A.entries).max())

    def main():
        return [lattice.operator_norm_l2(lattice.make_toeplitz(n))
                for n in (3, 4)]

    lattice.make_toeplitz = make_toeplitz
    lattice.operator_norm_l2 = operator_norm_l2
    cli.main = main
    cli.RUNNERS = {"main": main}
    pkg.lattice, pkg.cli = lattice, cli
    return {"fakepkg": pkg, "fakepkg.lattice": lattice, "fakepkg.cli": cli}


def test_tracer_self_time_spans_and_absent_names(monkeypatch):
    for name, mod in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, mod)
    tr = tracer.Tracer()
    tr.install("fakepkg")
    cli = sys.modules["fakepkg.cli"]
    assert cli.RUNNERS["main"] is cli.main  # dict entries are patched too

    assert "norms.cv_norm" in tr.absent and "cli.main" not in tr.absent
    assert "besov.besov_seminorm.quad_err_max" in tr.absent

    tr.reset()
    wall = time.perf_counter()
    assert cli.main() == [2.0, 2.0]
    wall = time.perf_counter() - wall
    m = tr.metrics()
    assert m["cli.main.calls"] == 1
    assert m["lattice.make_toeplitz.calls"] == 2
    assert m["lattice.operator_norm_l2.calls"] == 2
    assert m["lattice.operator_norm_l2.rel_err_max"] == 0.0
    assert m["norms.cv_norm.calls"] == 0
    assert 0.0 <= tr.self_total() <= wall
    assert all(m[n] >= 0.0 for n in m if n.endswith(".self_s"))

    names = [s[0] for s in tr.spans]
    assert names.count("cli.main") == 1 and len(names) == 5
    root = names.index("cli.main")
    assert tr.spans[root][3] is None
    assert all(s[3] == root for i, s in enumerate(tr.spans) if i != root)
    assert set(m) == set(tracer.metric_units())
