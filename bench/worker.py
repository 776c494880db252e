"""One measuring process of the benchmark; started by run.py, never by hand.

It imports numpy, scipy and decayinv, makes the workload's untimed warm-up
call, then runs the workload's parts in their cycle order, from
--start-part, until the next part is expected to end after --deadline (at
least --min-parts parts).  Each part's outputs are checked after its timer stopped.
With --trace 1 the tracer's wrappers are installed before the warm-up.  The
last line of stdout is one JSON object for run.py.
"""

import argparse
import hashlib
import json
import os
import sys
import time
import traceback


def peak_rss_mb():
    """Peak resident memory of this process.

    ru_maxrss would also count the spawning process: Linux carries its
    high-water mark across exec.  VmHWM belongs to this address space only.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() at which run.py started us")
    ap.add_argument("--deadline", type=float, required=True,
                    help="time.monotonic() by which the last part should end")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--start-part", type=int, default=0)
    ap.add_argument("--min-parts", type=int, default=1)
    ap.add_argument("--estimates", default="{}",
                    help="JSON map of part index to expected seconds")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    import numpy
    import scipy

    import decayinv
    import decayinv.cli  # noqa: F401  (cli is not imported by the package)

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(decayinv.__file__).startswith(src + os.sep):
        sys.exit(f"decayinv imported from {decayinv.__file__}, not {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    parts = wl.parts()
    wl.warmup()
    setup_s = time.monotonic() - args.t0

    estimates = {int(k): v for k, v in json.loads(args.estimates).items()}
    samples = []
    index = args.start_part % len(parts)
    while True:
        label, run, check = parts[index]
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            result, error = run(), None
        except Exception:  # a raising program is a failed check, not a crash
            result, error = None, traceback.format_exc()
        run_s = time.perf_counter() - start
        sample = {"part": index, "run_s": run_s}
        if tracer is not None:
            sample["layers"] = tracer.metrics()
            self_total = tracer.self_total()
        if error is None:
            checks = list(check(result))
            sample["digest"] = hashlib.sha256(
                result["rows"] if isinstance(result["rows"], bytes)
                else repr(result["rows"]).encode()).hexdigest()
        else:
            print(error, file=sys.stderr)
            checks = [("raised " + error.strip().splitlines()[-1], False)]
        if tracer is not None:
            checks.append((f"self times {self_total:.6f} s <= wall "
                           f"{run_s:.6f} s", self_total <= run_s))
        sample["attempted"] = len(checks)
        sample["failed"] = [f"{label}: {name}" for name, ok in checks
                            if not ok]
        samples.append(sample)
        estimates[index] = time.perf_counter() - start
        index = (index + 1) % len(parts)
        if error is not None:
            break
        if len(samples) >= args.min_parts and \
                time.monotonic() + estimates.get(index, 0.0) > args.deadline:
            break

    if tracer is not None:
        spans_path = os.path.join(args.out_dir,
                                  f"spans-{args.workload}.jsonl")
        with open(spans_path, "w") as fh:
            for name, t0, t1, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "samples": samples,
        "parts": [label for label, _, _ in parts],
        "absent": tracer.absent if tracer is not None else [],
        "env": {"python": sys.version.split()[0],
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "workload_seeded": wl.seeded},
    }))


if __name__ == "__main__":
    main()
