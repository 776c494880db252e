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

# a window section, or a symbol range, whose reciprocal condition falls
# below this is singular
RCOND_FLOOR = 1e-12
_ENTRY_ATOL = 1e-12   # entry tolerance of LatticeMatrix.validate


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

    def validate(self):
        """Check the entries against the symbol and the bandwidth, whichever
        are set, whatever the tag; raises ParameterError."""
        if self.symbol is not None:
            ref = make_toeplitz(self.symbol, self.window).entries
            if not np.allclose(self.entries, ref, rtol=0, atol=_ENTRY_ATOL):
                raise ParameterError("entries do not match the declared symbol")
        if self.bandwidth is not None:
            mask = np.abs(self.offsets()) > self.bandwidth
            if np.any(np.abs(self.entries[mask]) > _ENTRY_ATOL):
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


def invert_truncated(A):
    """Dense inverse of the window section.

    Raises SingularityError when the reciprocal condition estimate falls
    below RCOND_FLOOR.
    """
    try:
        inv = np.linalg.inv(A.entries)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"window section is singular: {exc}", rcond=0.0)
    rc = rcond_estimate(A, inv)
    if not np.all(np.isfinite(inv)) or rc < RCOND_FLOOR:
        raise SingularityError(
            f"reciprocal condition {rc:.3e} below floor {RCOND_FLOOR:.1e}", rcond=rc)
    return LatticeMatrix(A.window, inv, "general")


def singular_values(A):
    """Singular values of the window section, largest first (LAPACK gesdd)."""
    if not np.all(np.isfinite(A.entries)):
        raise NumericalError("singular values of a matrix with non-finite entries")
    return np.linalg.svd(A.entries, compute_uv=False)


def operator_norm_l2(A):
    """Largest singular value of the window section."""
    return float(singular_values(A)[0])


def symbol_range(symbol):
    """(min, max) of |sigma(theta)| for the symbol's multiplier function.

    These are the exact operator norm data of the full-lattice Toeplitz
    operator: norm = max, inverse norm = 1/min (when min > 0).

    On z = e^{2 pi i theta}, sigma = z^lo N(z) / Q(z) with N a polynomial
    and Q = 1 - ratio z (Q = 1 without a geometric tail).  On the circle
    |P|^2 is the Laurent polynomial R_P(z) = sum_j r_j z^j, so every
    critical point of |sigma|^2 = R_N / R_Q is the argument of a root of
    R_N' R_Q - R_N R_Q', where R' = sum_j j r_j z^j.  |sigma| is summed
    directly at theta = 0, at every root's argument, and there again after
    two Newton steps in theta: near a zero of sigma, |sigma| grows linearly
    off its minimum, so the roots' roundoff would show.  Every candidate is
    a point of the circle, so a root off it only adds a value that |sigma|
    attains.
    """
    def sig_abs(theta):
        z = np.zeros_like(theta, dtype=complex)
        for m, c in symbol.coeffs.items():
            z += c * np.exp(2j * np.pi * m * theta)
        if symbol.geometric is not None:
            g = symbol.geometric
            z += g.scale / (1 - g.ratio * np.exp(2j * np.pi * theta))
        return np.abs(z)

    def laurent_square(p):
        """r_j and j r_j of R_P, ascending from j = 1 - len(p)."""
        r = np.convolve(p, np.conj(p[::-1]))
        return r, (np.arange(r.size) - (p.size - 1)) * r

    geo = symbol.geometric
    offs = [*symbol.coeffs, *([0] if geo is not None else [])]
    lo = min(offs, default=0)
    N = np.zeros(max(offs, default=0) - lo + 1, dtype=complex)
    for m, c in symbol.coeffs.items():
        N[m - lo] = c
    Q = np.ones(1, dtype=complex)
    if geo is not None:
        Q = np.array([1.0, -geo.ratio], dtype=complex)
        N = np.convolve(N, Q)
        N[-lo] += geo.scale
    rN, dN = laurent_square(N)
    rQ, dQ = laurent_square(Q)
    crit = np.convolve(dN, rQ) - np.convolve(rN, dQ)
    j = np.arange(crit.size) - crit.size // 2
    # end coefficients below the roundoff of the largest hold only roots
    # near 0 and infinity, and would swamp the companion matrix
    big = np.abs(crit) > np.finfo(float).eps * np.abs(crit).max()
    keep = slice(big.argmax(), big.size - big[::-1].argmax())
    crit, j = crit[keep], j[keep]
    roots = np.angle(np.roots(crit[::-1])) / (2.0 * np.pi)
    # on the circle crit is a constant times a real function of theta;
    # a Newton step of a period or more is not taken
    theta = roots
    for _ in range(2):
        E = np.exp(2j * np.pi * np.outer(theta, j))
        c, dc = E @ crit, E @ (2j * np.pi * j * crit)
        theta = theta - np.divide(c, dc, out=np.zeros_like(c),
                                  where=np.abs(dc) > np.abs(c)).real
    vals = sig_abs(np.concatenate([[0.0], roots, theta]))
    return float(vals.min()), float(vals.max())
