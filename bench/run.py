"""Benchmark of decayinv: four closed-loop workloads, one client, one thread.

    python3 bench/run.py --workload inversion --seed 0 --seconds 25 --trace 0
    python3 bench/run.py        # every workload in turn; exit 1 on a failure

A run starts fresh measuring processes (bench/worker.py) one after the other
until --seconds have passed.  Each imports numpy, scipy and decayinv from
./src, makes one untimed warm-up call, then runs the parts of the workload
(bench/workloads.py) in a fixed cycle, each part starting only after the
previous one returned; the next process continues the cycle where the last
one stopped.  Every reference is computed after a part's timer stopped.
BLAS and OpenMP are pinned to one thread before numpy loads, and
DECAYINV_THREADS is left unset.

End-to-end metrics (--trace 0):
  run_s        wall seconds of one run of the workload: the sum over its
               parts of each part's median time (quartiles and sample
               counts per part are printed)
  setup_s      process start to the end of the warm-up call; median over
               the run's processes
  peak_rss_mb  peak resident memory of a measuring process; median
  pass_frac    passed / attempted checks.  fail_frac = 1 - pass_frac is
               printed, and any failed check makes the run fail
Per-layer metrics (--trace 1): calls and self time of every public function
listed in bench/tracer.py, its counters, and trace.overhead_s: the traced
run_s minus the untraced run_s, both measured in the same run from
alternating untraced and traced processes.  Traced and untraced parts must
produce bit-identical rows, and self times may not exceed a part's wall
time.

Outputs go to .bench_out/: the rows files, spans-<workload>.jsonl (the spans
of the last traced process) and <workload>-seed<n>-trace<t>.json with every
sample, the environment and the failed checks.

Workloads (why each was chosen):
  inversion      jaffard-check and the criterion-05 bound set; most of the
                 time is lattice.operator_norm_l2 power iteration
  identities     quotient-verify; lattice offset multipliers and BLAS matmul
  smoothness     besov-report and the criterion-10 configs; Besov and
                 hypersingular quadrature, absent from the two above
  symbol-sweeps  toeplitz- and dd-sharpness; the exact-symbol route of norms
                 and weights, where inversion takes the window route
Only identities takes its inputs from --seed.  The others are deterministic:
inversion keeps fixed instances (see workloads.Inversion), and the rest
draw nothing at random.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("inversion", "identities", "smoothness", "symbol-sweeps")
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "ratio"}
TRACE_EXTRA = {"trace.run_s": "s", "trace.overhead_s": "s"}

# measuring processes of a run: untraced, or alternating untraced/traced
SCHEDULE = {0: (0, 0, 0), 1: (0, 1, 0, 1)}
MIN_PROCESSES = 2
# a run must end within 180 s
HARD_LIMIT_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("DECAYINV_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def quartiles(values):
    """(q1, median, q3, n) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, len(values)


class Run:
    """The measuring processes of one run of one workload."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.started = time.monotonic()
        self.procs = []                 # (worker output, traced)
        self.next_part = {0: 0, 1: 0}   # where each kind resumes the cycle
        self.estimates = {}             # part index -> last seconds

    def launch(self, traced, deadline, min_parts=1):
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--t0", repr(t0), "--deadline", repr(deadline),
               "--trace", str(traced),
               "--start-part", str(self.next_part[traced]),
               "--min-parts", str(min_parts),
               "--estimates", json.dumps(self.estimates),
               "--out-dir", OUT_DIR]
        timeout = HARD_LIMIT_S - (t0 - self.started)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              cwd=ROOT, timeout=max(timeout, 1.0), text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"measuring process exited with {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        for s in out["samples"]:
            self.estimates[s["part"]] = s["run_s"]
        self.next_part[traced] = ((out["samples"][-1]["part"] + 1)
                                  % len(out["parts"]))
        self.procs.append((out, traced))

    def measure(self):
        end = self.started + self.seconds
        schedule = SCHEDULE[self.trace]
        for i, traced in enumerate(schedule):
            now = time.monotonic()
            if i >= MIN_PROCESSES:
                setup = statistics.median(p["setup_s"] for p, _ in self.procs)
                part = self.estimates.get(self.next_part[traced], 0.0)
                if now + setup + part > end:
                    break
            self.launch(traced, now + (end - now) / (len(schedule) - i))
        # however short the run, each kind of process covers every part
        n = len(self.procs[0][0]["parts"])
        for traced in set(schedule):
            seen = {s["part"] for p, t in self.procs if t == traced
                    for s in p["samples"]}
            if len(seen) < n:
                self.launch(traced, time.monotonic(), min_parts=n - len(seen))

    def by_part(self, traced, key):
        parts = [[] for _ in self.procs[0][0]["parts"]]
        for p, t in self.procs:
            if t == traced:
                for s in p["samples"]:
                    parts[s["part"]].append(s[key])
        return parts

    def summarize(self):
        labels = self.procs[0][0]["parts"]
        plain = [p for p, t in self.procs if not t]
        samples = [s for p, _ in self.procs for s in p["samples"]]
        failures = [label for s in samples for label in s["failed"]]
        attempted = sum(s["attempted"] for s in samples) + len(labels)
        for i, label in enumerate(labels):
            digests = {s.get("digest") for s in samples if s["part"] == i}
            if len(digests) != 1:
                failures.append(f"{label}: rows differ between runs of the "
                                f"part ({len(digests)} digests)")

        times = self.by_part(0, "run_s")
        run_s = sum(statistics.median(v) for v in times)
        detail = {"parts": {label: quartiles(v)
                            for label, v in zip(labels, times)}}
        if self.trace:
            t_times = self.by_part(1, "run_s")
            t_run_s = sum(statistics.median(v) for v in t_times)
            detail["traced parts"] = {label: quartiles(v)
                                      for label, v in zip(labels, t_times)}
            layers = self.by_part(1, "layers")
            values = {name: tracer.combine_parts(
                          name, [statistics.median(d[name] for d in part)
                                 for part in layers])
                      for name in tracer.metric_units()}
            values["trace.run_s"] = t_run_s
            values["trace.overhead_s"] = t_run_s - run_s
            units = {**tracer.metric_units(), **TRACE_EXTRA}
        else:
            setup = [p["setup_s"] for p in plain]
            rss = [p["peak_rss_mb"] for p in plain]
            detail["setup_s"] = quartiles(setup)
            detail["peak_rss_mb"] = quartiles(rss)
            values = {"run_s": run_s, "setup_s": statistics.median(setup),
                      "peak_rss_mb": statistics.median(rss),
                      "pass_frac": (attempted - len(failures)) / attempted}
            units = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}

        env = dict(self.procs[0][0]["env"])
        env.update(nproc=os.cpu_count(),
                   cpus_allowed=len(os.sched_getaffinity(0)),
                   threads={var: "1" for var in THREAD_VARS},
                   seed=self.seed, seed_used=env.pop("workload_seeded"))
        detail.update(
            workload=self.workload, seconds=self.seconds, trace=self.trace,
            env=env, processes=len(self.procs), failed=failures,
            absent=sorted({a for p, t in self.procs if t for a in p["absent"]}))
        result = {"correct": not failures, "attempted": attempted,
                  "failed": len(failures), "metrics": metrics}
        return result, detail


def report(result, detail):
    w = detail["workload"]
    print(f"env {json.dumps(detail['env'], sort_keys=True)}")
    for key in ("parts", "traced parts"):
        for label, (q1, med, q3, n) in detail.get(key, {}).items():
            print(f"{w} {key[:-1]} {label}: median {med:.6g} s "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n {n})")
    for name, m in result["metrics"].items():
        extra = ""
        if name in ("setup_s", "peak_rss_mb"):
            q1, _, q3, n = detail[name]
            extra = f" (q1 {q1:.6g}, q3 {q3:.6g}, n {n})"
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}{extra}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"{w} fail_frac = {fail_frac:.6g} "
          f"({result['failed']} of {result['attempted']} checks)")
    for label in detail["failed"][:20]:
        print(f"FAILED: {label}")
    if detail["absent"]:
        print(f"absent (reported as 0): {', '.join(detail['absent'])}")


def bench(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds, trace)
    run.measure()
    result, detail = run.summarize()
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, **detail}, fh, indent=1)
    report(result, detail)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; default: each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "decayinv",
                                       "__init__.py")):
        sys.exit(f"no decayinv sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.workload:
        result = bench(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = [bench(w, args.seed, args.seconds, args.trace)
               for w in WORKLOADS]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
