"""Matrices indexed by a finite window of the integer lattice.

A matrix lives on a window [lo, hi] and stores dense complex entries.
Structured matrices carry an exact Toeplitz symbol or a bandwidth
certificate; norm routines elsewhere dispatch on these to closed-form
summation over the whole lattice instead of the window.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError, SingularityError


@dataclass(frozen=True)
class IndexWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ParameterError(f"empty window [{self.lo}, {self.hi}]")

    @property
    def n(self):
        return self.hi - self.lo + 1

    def indices(self):
        return np.arange(self.lo, self.hi + 1)

    def shrink(self, margin):
        if margin < 0:
            raise ParameterError("margin must be nonnegative")
        if 2 * margin >= self.n:
            raise ParameterError(f"margin {margin} empties window of size {self.n}")
        return IndexWindow(self.lo + margin, self.hi - margin)


@dataclass(frozen=True)
class GeometricTail:
    """One-sided tail c(m) = scale * ratio**m for m >= 0."""

    ratio: complex
    scale: complex = 1.0 + 0j

    def __post_init__(self):
        if not abs(self.ratio) < 1:
            raise ParameterError("geometric ratio must satisfy |ratio| < 1")


@dataclass(frozen=True, eq=False)
class ToeplitzSymbol:
    """Summable coefficient sequence c(m), finitely many entries plus an
    optional geometric tail on the nonnegative offsets."""

    coeffs: dict = field(default_factory=dict)
    geometric: GeometricTail | None = None

    def __post_init__(self):
        clean = {int(m): complex(v) for m, v in self.coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, m):
        c = self.coeffs.get(int(m), 0j)
        if self.geometric is not None and m >= 0:
            c = c + self.geometric.scale * self.geometric.ratio ** int(m)
        return c

    def coefficients(self, offsets):
        out = np.zeros(len(offsets), dtype=complex)
        offsets = np.asarray(offsets)
        for m, v in self.coeffs.items():
            out[offsets == m] += v
        if self.geometric is not None:
            pos = offsets >= 0
            out[pos] += self.geometric.scale * self.geometric.ratio ** offsets[pos].astype(float)
        return out

    @property
    def is_finite(self):
        return self.geometric is None

    def max_offset(self):
        """Largest |m| with c(m) != 0 for finite symbols, else None."""
        if not self.is_finite:
            return None
        if not self.coeffs:
            return 0
        return max(abs(m) for m in self.coeffs)


@dataclass
class LatticeMatrix:
    window: IndexWindow
    entries: np.ndarray
    tag: str = "general"
    symbol: ToeplitzSymbol | None = None
    bandwidth: int | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        n = self.window.n
        if self.entries.shape != (n, n):
            raise ParameterError(
                f"entries shape {self.entries.shape} does not match window size {n}")
        if self.tag not in ("toeplitz", "banded", "general"):
            raise ParameterError(f"unknown tag {self.tag!r}")
        if self.tag == "toeplitz" and self.symbol is None:
            raise ParameterError("toeplitz tag requires a symbol")
        if self.tag == "banded" and self.bandwidth is None:
            raise ParameterError("banded tag requires a bandwidth")
        if self.bandwidth is not None and self.bandwidth < 0:
            raise ParameterError("bandwidth must be nonnegative")

    @property
    def n(self):
        return self.window.n

    def offsets(self):
        idx = self.window.indices()
        return idx[:, None] - idx[None, :]

    def validate(self, atol=1e-12):
        """Check the structural invariant for the tag; raises ParameterError."""
        if self.tag == "toeplitz":
            ref = make_toeplitz(self.symbol, self.window).entries
            if not np.allclose(self.entries, ref, rtol=0, atol=atol):
                raise ParameterError("entries do not match the declared symbol")
        if self.tag == "banded" or (self.tag == "toeplitz" and self.bandwidth is not None):
            mask = np.abs(self.offsets()) > self.bandwidth
            if np.any(np.abs(self.entries[mask]) > atol):
                raise ParameterError("nonzero entry beyond declared bandwidth")
        return self

    def copy(self):
        return LatticeMatrix(self.window, self.entries.copy(), self.tag,
                             self.symbol, self.bandwidth)


def identity_matrix(window):
    sym = ToeplitzSymbol({0: 1.0})
    return LatticeMatrix(window, np.eye(window.n, dtype=complex), "toeplitz", sym, 0)


def make_toeplitz(symbol, window):
    n = window.n
    offs = np.arange(-(n - 1), n)
    c = symbol.coefficients(offs)
    om = np.arange(n)[:, None] - np.arange(n)[None, :]
    entries = c[om + n - 1]
    bw = symbol.max_offset()
    return LatticeMatrix(window, entries, "toeplitz", symbol, bw)


def geometric_inverse_toeplitz(gamma, window, scale=1.0):
    """Section of the lower-triangular resolvent with entries scale*e^{-gamma(k-l)}."""
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    sym = ToeplitzSymbol({}, GeometricTail(math.exp(-gamma), scale))
    return make_toeplitz(sym, window)


def offset_multiplier(A, f):
    """Schur multiplier by a function of the offset: entry (k, l) becomes
    f(k - l) A(k, l).

    f maps an integer array of offsets to multipliers and must accept
    every offset of a finite symbol, which maps coefficientwise,
    c(m) -> f(m) c(m).  An infinite symbol is dropped.
    """
    entries = f(A.offsets()) * A.entries
    sym = A.symbol
    if sym is None or not sym.is_finite:
        tag = "banded" if A.bandwidth is not None else "general"
        return LatticeMatrix(A.window, entries, tag, None, A.bandwidth)
    return LatticeMatrix(A.window, entries, "toeplitz",
                         ToeplitzSymbol(_map_coeffs(sym, f)), A.bandwidth)


def _map_coeffs(symbol, f):
    """c(m) -> f(m) c(m) on the finite coefficients."""
    ms = np.array(list(symbol.coeffs), dtype=int)
    return dict(zip(symbol.coeffs,
                    f(ms) * np.array(list(symbol.coeffs.values()))))


def apply_automorphism(A, t):
    """psi_t: multiply entry (k, l) by e^{2 pi i (k-l) t}.  Period 1 in t.

    The tag is kept, and so is a geometric tail: the phase maps
    scale ratio^m to scale (ratio e^{2 pi i t})^m.
    """
    def phase(m):
        return np.exp(2j * np.pi * m * t)

    out = offset_multiplier(A, phase)
    sym = out.symbol
    if A.symbol is not None and not A.symbol.is_finite:
        geo = A.symbol.geometric
        sym = ToeplitzSymbol(_map_coeffs(A.symbol, phase),
                             GeometricTail(geo.ratio * phase(1), geo.scale))
    return LatticeMatrix(A.window, out.entries, A.tag, sym, A.bandwidth)


def derivation_power(A, k):
    """D^k: multiply entry (k, l) by (k-l)^k.  k = 0 returns a copy."""
    if k < 0:
        raise ParameterError("derivation order must be nonnegative")
    if k == 0:
        return A.copy()
    return offset_multiplier(A, lambda m: m.astype(float) ** k)


def difference_power(A, t, k):
    """(psi_t - id)^k applied to A: entry (k, l) times (e^{2 pi i m t} - 1)^k
    on offset m = k - l."""
    if k < 0:
        raise ParameterError("difference order must be nonnegative")
    if k == 0:
        return A.copy()
    return offset_multiplier(A, lambda m: (np.exp(2j * np.pi * m * t) - 1.0) ** k)


def inner_section(A, margin):
    """Restriction to the window shrunk by margin on both sides."""
    if margin == 0:
        return A.copy()
    w = A.window.shrink(margin)
    sub = A.entries[margin:A.n - margin, margin:A.n - margin].copy()
    bw = None if A.bandwidth is None else min(A.bandwidth, w.n - 1)
    return LatticeMatrix(w, sub, A.tag, A.symbol, bw)


def rcond_estimate(A, Ainv):
    """Reciprocal condition estimate from the 1-norms of A and its inverse."""
    inv = Ainv.entries if isinstance(Ainv, LatticeMatrix) else Ainv
    n1 = np.abs(A.entries).sum(axis=0).max()
    n2 = np.abs(inv).sum(axis=0).max()
    if n1 == 0 or n2 == 0:
        return 0.0
    return 1.0 / (n1 * n2)


def invert_truncated(A, rcond_floor=1e-12):
    """Dense inverse of the window section.

    Raises SingularityError when the reciprocal condition estimate falls
    below rcond_floor.
    """
    try:
        inv = np.linalg.inv(A.entries)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"window section is singular: {exc}", rcond=0.0)
    rc = rcond_estimate(A, inv)
    if not np.all(np.isfinite(inv)) or rc < rcond_floor:
        raise SingularityError(
            f"reciprocal condition {rc:.3e} below floor {rcond_floor:.1e}", rcond=rc)
    return LatticeMatrix(A.window, inv, "general")


def singular_values(A):
    """Singular values of the window section, largest first (LAPACK gesdd)."""
    if not np.all(np.isfinite(A.entries)):
        raise NumericalError("singular values of a matrix with non-finite entries")
    return np.linalg.svd(A.entries, compute_uv=False)


def operator_norm_l2(A):
    """Largest singular value of the window section."""
    return float(singular_values(A)[0])


def symbol_range(symbol, ngrid=1 << 13, refine=80):
    """(min, max) of |sigma(theta)| for the symbol's multiplier function.

    These are the exact operator norm data of the full-lattice Toeplitz
    operator: norm = max, inverse norm = 1/min (when min > 0).
    """
    def sig_abs(theta):
        z = np.zeros_like(theta, dtype=complex)
        for m, c in symbol.coeffs.items():
            z += c * np.exp(2j * np.pi * m * theta)
        if symbol.geometric is not None:
            g = symbol.geometric
            z += g.scale / (1 - g.ratio * np.exp(2j * np.pi * theta))
        return np.abs(z)

    grid = np.linspace(0.0, 1.0, ngrid, endpoint=False)
    vals = sig_abs(grid)
    out = []
    for pick in (np.argmin, np.argmax):
        i = pick(vals)
        lo, hi = grid[i] - 1.0 / ngrid, grid[i] + 1.0 / ngrid
        sign = 1.0 if pick is np.argmin else -1.0
        a, b = lo, hi
        for _ in range(refine):
            m1 = a + (b - a) / 3
            m2 = b - (b - a) / 3
            if sign * sig_abs(np.array([m1]))[0] < sign * sig_abs(np.array([m2]))[0]:
                b = m2
            else:
                a = m1
        cand = np.array([grid[i], (a + b) / 2])
        cv = sig_abs(cand)
        out.append(cv.min() if pick is np.argmin else cv.max())
    return out[0], out[1]
