"""Matrix persistence: Matrix Market payload plus a JSON sidecar.

The .mtx file carries the dense complex entries (written with enough
digits to round-trip float64 exactly); the sidecar path + ".json" keeps
the window and symbol so a load rebuilds the full LatticeMatrix, not
just its numbers.  A load ignores the structure tag of an older sidecar
and holds the entries to its bandwidth.
"""

import json

import numpy as np

from .errors import ParameterError
from .lattice import (ENTRY_ATOL, GeometricTail, IndexWindow, LatticeMatrix,
                      ToeplitzSymbol)


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _unpair(v):
    return complex(v[0], v[1])


def _symbol_to_dict(symbol):
    if symbol is None:
        return None
    out = {"coeffs": {str(m): _pair(c) for m, c in sorted(symbol.coeffs.items())}}
    if symbol.geometric is not None:
        out["geometric"] = {"ratio": _pair(symbol.geometric.ratio),
                            "scale": _pair(symbol.geometric.scale)}
    else:
        out["geometric"] = None
    return out


def _symbol_from_dict(data):
    if data is None:
        return None
    coeffs = {int(m): _unpair(v) for m, v in data["coeffs"].items()}
    geo = data.get("geometric")
    tail = None
    if geo is not None:
        tail = GeometricTail(_unpair(geo["ratio"]), _unpair(geo["scale"]))
    return ToeplitzSymbol(coeffs, tail)


def _normalize(path):
    path = str(path)
    # mmwrite appends .mtx on its own; do it here so the sidecar name agrees
    return path if path.endswith(".mtx") else path + ".mtx"


def sidecar_path(path):
    return _normalize(path) + ".json"


def save_matrix(A, path):
    """Write A's entries to path (Matrix Market) and its structure to
    path + ".json"."""
    import scipy.io   # slow to import, so only where it is used
    path = _normalize(path)
    scipy.io.mmwrite(path, np.asarray(A.entries, dtype=np.complex128),
                     precision=17)
    meta = {
        "lo": A.window.lo,
        "hi": A.window.hi,
        "symbol": _symbol_to_dict(A.symbol),
    }
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")


def load_matrix(path):
    import scipy.io
    path = _normalize(path)
    entries = scipy.io.mmread(path)
    if not isinstance(entries, np.ndarray):
        entries = entries.toarray()
    entries = np.asarray(entries, dtype=np.complex128)
    try:
        with open(sidecar_path(path)) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"missing sidecar for {path}: {exc}")
    window = IndexWindow(int(meta["lo"]), int(meta["hi"]))
    if entries.shape != (window.n, window.n):
        raise ParameterError(
            f"entry shape {entries.shape} does not match window "
            f"[{window.lo}, {window.hi}]")
    bw = meta.get("bandwidth")
    if bw is not None:
        bw = int(bw)
        beyond = np.triu(entries, bw + 1) + np.tril(entries, -bw - 1)
        if bw < 0 or np.any(np.abs(beyond) > ENTRY_ATOL):
            raise ParameterError(f"entries break the declared bandwidth {bw}")
    return LatticeMatrix(window, entries,
                         _symbol_from_dict(meta.get("symbol"))).validate()
