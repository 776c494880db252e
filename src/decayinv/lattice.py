"""Toeplitz symbols and matrices on a finite window of the integer lattice.

A ToeplitzSymbol is an operator on the whole lattice, read exactly.  A
LatticeMatrix is a section: a window [lo, hi] and its dense complex
entries, a read-only view (no copy) of the array given.  The one bridge
is make_toeplitz(symbol, window).  Every norm elsewhere takes either;
what needs a window (an SVD, an inverse, an offset multiplier, a margin)
refuses a symbol through require_section.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericalError, ParameterError, SingularityError

# a section or symbol range with reciprocal condition below this is singular
RCOND_FLOOR = 1e-12


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

    def coefficients(self, offsets):
        out = np.zeros(len(offsets), dtype=complex)
        offsets = np.asarray(offsets)
        for m, v in self.coeffs.items():
            out[offsets == m] += v
        if self.geometric is not None:
            pos = offsets >= 0
            out[pos] += self.geometric.scale * self.geometric.ratio ** offsets[pos].astype(float)
        return out


@dataclass
class LatticeMatrix:
    """The finite section of a matrix over window.

    entries becomes a read-only view, so no write goes through the matrix.
    The view is not a copy: a complex128 array passed in is aliased, and a
    later write into that array changes the matrix; any other array is
    converted, hence copied.
    """
    window: IndexWindow
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex).view()
        self.entries.flags.writeable = False
        n = self.window.n
        if self.entries.shape != (n, n):
            raise ParameterError(
                f"entries shape {self.entries.shape} does not match window size {n}")

    @property
    def n(self):
        return self.window.n


def require_section(A, needs):
    """A, when it is a section; a ParameterError naming what needs a
    window when A is a ToeplitzSymbol, which has none."""
    if isinstance(A, ToeplitzSymbol):
        raise ParameterError(f"{needs} needs a window: pass the section "
                             f"make_toeplitz(symbol, window)")
    return A


def make_toeplitz(symbol, window):
    # contiguous entries, not a strided view of the 2n - 1 values
    entries = offset_table(window.n, symbol.coefficients).copy()
    return LatticeMatrix(window, entries)


def geometric_inverse_symbol(gamma, scale=1.0):
    """The resolvent inverse c(m) = scale e^{-gamma m} on m >= 0."""
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    return ToeplitzSymbol({}, GeometricTail(math.exp(-gamma), scale))


def geometric_inverse_toeplitz(gamma, window, scale=1.0):
    """The section of geometric_inverse_symbol(gamma, scale) on window."""
    return make_toeplitz(geometric_inverse_symbol(gamma, scale), window)


def offset_table(n, f):
    """The n x n matrix f(k - l), from one call of f on the 2n - 1 window
    offsets n - 1, ..., -(n - 1): a read-only Toeplitz view of that call.
    Every Schur multiplier by a function of the offset multiplies by one."""
    vals = f(np.arange(n - 1, -n, -1))[n - 1:]
    step = vals.strides[0]
    return as_strided(vals, (n, n), (-step, step), writeable=False)


def offset_multiplier(A, f):
    """Schur multiplier by a function of the offset: entry (k, l) becomes
    f(k - l) A(k, l).

    f is called once, on the 1-D integer array of the 2n - 1 window
    offsets, and must act elementwise.
    """
    require_section(A, "an offset multiplier")
    return LatticeMatrix(A.window, offset_table(A.n, f) * A.entries)


def phase_factor(t):
    """m -> e^{2 pi i m t}, the offset factor of psi_t."""
    return lambda m: np.exp(2j * np.pi * m * t)


def difference_factor(t, k):
    """m -> (e^{2 pi i m t} - 1)^k, the offset factor of (psi_t - id)^k."""
    phase = phase_factor(t)
    return lambda m: (phase(m) - 1.0) ** k


def derivation_factor(k):
    """m -> m^k, the offset factor of D^k."""
    return lambda m: m.astype(float) ** k


def apply_automorphism(A, t):
    """psi_t: multiply entry (k, l) by e^{2 pi i (k-l) t}.  Period 1 in t."""
    return offset_multiplier(A, phase_factor(t))


def derivation_power(A, k):
    """D^k: multiply entry (k, l) by (k-l)^k; k = 0 copies A."""
    if k < 0:
        raise ParameterError("derivation order must be nonnegative")
    return offset_multiplier(A, derivation_factor(k))


def difference_power(A, t, k):
    """(psi_t - id)^k applied to A: entry (k, l) times (e^{2 pi i m t} - 1)^k
    on offset m = k - l; k = 0 copies A."""
    if k < 0:
        raise ParameterError("difference order must be nonnegative")
    return offset_multiplier(A, difference_factor(t, k))


def rcond_estimate(A, Ainv):
    """Reciprocal condition estimate from the 1-norms of A and its inverse."""
    inv = Ainv.entries if isinstance(Ainv, LatticeMatrix) else Ainv
    n1 = np.abs(require_section(A, "rcond_estimate").entries).sum(axis=0).max()
    n2 = np.abs(inv).sum(axis=0).max()
    if n1 == 0 or n2 == 0:
        return 0.0
    return 1.0 / (n1 * n2)


def invert_truncated(A):
    """Dense inverse of the section A.

    Raises SingularityError when the reciprocal condition estimate falls
    below RCOND_FLOOR.
    """
    try:
        inv = np.linalg.inv(require_section(A, "invert_truncated").entries)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"window section is singular: {exc}", rcond=0.0)
    rc = rcond_estimate(A, inv)
    if not np.all(np.isfinite(inv)) or rc < RCOND_FLOOR:
        raise SingularityError(
            f"reciprocal condition {rc:.3e} below floor {RCOND_FLOOR:.1e}", rcond=rc)
    return LatticeMatrix(A.window, inv)


def singular_values(A):
    """Singular values of the section A, largest first (LAPACK gesdd)."""
    if not np.all(np.isfinite(require_section(A, "an SVD").entries)):
        raise NumericalError("singular values of a matrix with non-finite entries")
    return np.linalg.svd(A.entries, compute_uv=False)


def operator_norm_l2(A):
    """Largest singular value of the section A."""
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
