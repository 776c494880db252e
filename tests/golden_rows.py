"""Golden rows: the output of every CLI experiment at its default config,
and of quotient-verify at --seed 3, pinned in tests/golden/<name>.json.

Each file holds the rows, calibrations and violations of one run, the
numpy, scipy and BLAS versions that made them, and a relative tolerance
per float column (1e-12 unless a column states its own error).  Rewrite
every file with

    PYTHONPATH=src python tests/golden_rows.py

A change that rewrites a file lists every moved column, with its largest
move and the reason, in CHANGES.md.  An existing file's tolerances are
kept.  The moves themselves, per file and column, come from

    PYTHONPATH=src python tests/golden_rows.py --diff

which runs every file's command afresh, prints the largest relative move
of each column that is not bit for bit the pinned one, and rewrites
nothing.
"""

import json
import math
import pathlib
import sys

import numpy as np
import scipy

from decayinv.cli import build_parser, resolve_config
from decayinv.experiments import RUNNERS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
# file name -> command line of the run it pins
RUNS = {name: (name,) for name in RUNNERS}
RUNS["quotient-verify.seed3"] = ("quotient-verify", "--seed", "3")
PINNED = ("rows", "calibrations", "violations")
TOLERANCE = 1e-12


def run(argv):
    """The runner's result for the command line argv, as the CLI makes it."""
    cfg = resolve_config(build_parser().parse_args(list(argv)))
    return RUNNERS[cfg.experiment](cfg)


def _plain(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)!r}")


def pinned(result):
    """The pinned parts of a runner's result, as JSON reads them back."""
    return json.loads(json.dumps({key: result[key] for key in PINNED
                                  if key in result}, default=_plain))


def leaves(value, path=()):
    """(path, value) of every leaf of a JSON value, in order."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from leaves(sub, path + (key,))
    elif isinstance(value, list):
        for idx, sub in enumerate(value):
            yield from leaves(sub, path + (idx,))
    else:
        yield path, value


def column(path):
    """The column of a leaf: its dict keys joined by dots, list indices
    left out ("rows.gamma", "calibrations.0.5.embedding.drift")."""
    return ".".join(key for key in path if isinstance(key, str))


def _same(got, want, tol):
    if isinstance(want, float) and isinstance(got, float):
        if math.isfinite(want):
            return abs(got - want) <= tol * abs(want)
        return got == want or (math.isnan(got) and math.isnan(want))
    return type(got) is type(want) and got == want


def differences(got, golden, tol=None):
    """(column, path, got, want) of each leaf where the pinned result got
    differs from the loaded golden file: a float by more than its column's
    relative tolerance (or tol, for every column), anything else at all,
    or a leaf present in one only."""
    tolerances = golden["tolerances"]
    have = dict(leaves(got))
    ref = dict(leaves({key: golden[key] for key in PINNED if key in golden}))
    for path in sorted(have.keys() | ref.keys(), key=str):
        if path not in have or path not in ref:
            yield column(path), path, have.get(path), ref.get(path)
            continue
        limit = tolerances.get(column(path), TOLERANCE) if tol is None else tol
        if not _same(have[path], ref[path], limit):
            yield column(path), path, have[path], ref[path]


def moves(got, golden):
    """{column: largest relative move |got - want| / |want|} over the
    leaves of the pinned result got that are not bit for bit those of the
    loaded golden file; a move from 0, to or from a non-finite float, of a
    value that is not a float, or of a leaf present in one only is inf."""
    out = {}
    for col, _, have, want in differences(got, golden, tol=0.0):
        move = math.inf
        if (isinstance(have, float) and isinstance(want, float)
                and math.isfinite(have) and math.isfinite(want) and want):
            move = abs(have - want) / abs(want)
        out[col] = max(out.get(col, 0.0), move)
    return out


def diff(names=tuple(RUNS)):
    """Print the moves of a fresh run of each named file, a line per moved
    column: file, column and largest relative move."""
    for name in names:
        moved = moves(pinned(run(RUNS[name])), load(name))
        for col, move in sorted(moved.items()):
            print(f"{name}.json {col} {move:.2g}")


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def load(name):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def write(name):
    """Run and pin one golden file; keep the tolerances an existing file
    states, and give every other float column TOLERANCE."""
    path = GOLDEN / f"{name}.json"
    old = json.loads(path.read_text())["tolerances"] if path.exists() else {}
    result = pinned(run(RUNS[name]))
    floats = sorted({column(p) for p, v in leaves(result)
                     if isinstance(v, float)})
    golden = {"argv": list(RUNS[name]), "versions": versions(),
              "tolerances": {c: old.get(c, TOLERANCE) for c in floats},
              **result}
    path.write_text(_dump(golden))


def _dump(golden):
    """golden as JSON with one top-level entry, row or list item a line."""
    parts = []
    for key, value in golden.items():
        if isinstance(value, (dict, list)) and value:
            items = (value.items() if isinstance(value, dict)
                     else ((None, v) for v in value))
            body = ",\n".join(
                "  " + (f"{json.dumps(k)}: " if k is not None else "")
                + json.dumps(v) for k, v in items)
            opening, closing = "{}" if isinstance(value, dict) else "[]"
            parts.append(f" {json.dumps(key)}: {opening}\n{body}\n {closing}")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        diff()
        sys.exit(0)
    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        write(name)
        print(f"wrote {GOLDEN.name}/{name}.json")
