"""Tests for windows, symbols and the basic matrix operations."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from decayinv import (GeometricTail, IndexWindow, LatticeMatrix,
                      NumericalError, ParameterError, SingularityError,
                      SmoothnessSequence, ToeplitzSymbol, Weight,
                      ambient_norm, apply_automorphism, banded_error,
                      baskakov_bound_Cr, baskakov_bound_Jr, besov_seminorm,
                      cv_norm, dales_davie_norm, derivation_power,
                      difference_power, geometric_inverse_toeplitz,
                      hypersingular_seminorm, invert_truncated, jaffard_norm,
                      make_toeplitz, modulus_profile, operator_norm_l2,
                      random_decay_matrix, singular_values, symbol_range,
                      verify_identity, verify_instances)
from decayinv.lattice import (geometric_inverse_symbol, offset_multiplier,
                              rcond_estimate)
from decayinv.norms import dk_norm_log

from oracles import difference_power_binomial, offset_multiplier_entrywise

W = IndexWindow(-16, 15)


def bidiag(gamma, window=W):
    x = math.exp(-gamma)
    return make_toeplitz(ToeplitzSymbol({0: 1.0, 1: -x}), window)


def test_window_basics():
    w = IndexWindow(-3, 4)
    assert w.n == 8
    assert list(w.indices()) == [-3, -2, -1, 0, 1, 2, 3, 4]
    inner = w.shrink(2)
    assert (inner.lo, inner.hi) == (-1, 2)
    with pytest.raises(ValueError):
        IndexWindow(5, 4)
    with pytest.raises(ValueError):
        w.shrink(4)


def test_symbol_coefficients():
    sym = ToeplitzSymbol({0: 1.0, 2: -0.25j})
    assert sym.geometric is None
    assert sym.coefficients([2])[0] == -0.25j
    assert sym.coefficients([-1])[0] == 0.0
    tail = GeometricTail(0.5, scale=2.0)
    geo = ToeplitzSymbol({0: 3.0}, tail)
    # m >= 0 picks up scale * ratio^m on top of the explicit coefficient
    assert geo.coefficients([0])[0] == 3.0 + 2.0
    assert geo.coefficients([3])[0] == 2.0 * 0.5 ** 3
    assert geo.geometric is tail
    with pytest.raises(ValueError):
        GeometricTail(1.0)


def test_make_toeplitz_entries():
    A = bidiag(0.5)
    x = math.exp(-0.5)
    n = W.n
    assert np.allclose(np.diag(A.entries), 1.0)
    assert np.allclose(np.diag(A.entries, -1), -x)
    off = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    assert np.all(A.entries[off > 1] == 0)


def test_automorphism_group_law():
    A = geometric_inverse_toeplitz(0.3, W)
    s, t = 0.21, 0.43
    left = apply_automorphism(apply_automorphism(A, s), t)
    right = apply_automorphism(A, s + t)
    assert np.max(np.abs(left.entries - right.entries)) < 1e-14
    ident = apply_automorphism(A, 0.0)
    assert np.array_equal(ident.entries, A.entries)
    # period 1 in t
    wrap = apply_automorphism(A, 1.0)
    assert np.max(np.abs(wrap.entries - A.entries)) < 1e-13
    # the phase multiplies by unit factors, so it keeps the decay norm of
    # the section
    P = apply_automorphism(A, s)
    w = Weight.poly(1.0)
    assert cv_norm(P, w) == pytest.approx(cv_norm(A, w), rel=1e-14)


def test_offset_multipliers_return_sections():
    # order 0 included, whose factor is 1
    T = geometric_inverse_toeplitz(0.3, W)
    for out in (apply_automorphism(T, 0.2), derivation_power(T, 0),
                derivation_power(T, 2), difference_power(T, 0.2, 0),
                difference_power(T, 0.2, 1)):
        assert isinstance(out, LatticeMatrix) and out.window == T.window
    assert np.array_equal(derivation_power(T, 0).entries, T.entries)
    assert np.array_equal(difference_power(T, 0.2, 0).entries, T.entries)


def test_automorphism_multiplicative():
    A = bidiag(0.4)
    B = geometric_inverse_toeplitz(0.4, W)
    t = 0.137
    lhs = apply_automorphism(LatticeMatrix(W, A.entries @ B.entries), t)
    rhs = apply_automorphism(A, t).entries @ apply_automorphism(B, t).entries
    assert np.max(np.abs(lhs.entries - rhs)) < 1e-14


def test_derivation_leibniz():
    A = bidiag(0.25)
    B = geometric_inverse_toeplitz(0.5, W)
    lhs = derivation_power(LatticeMatrix(W, A.entries @ B.entries), 1)
    rhs = derivation_power(A, 1).entries @ B.entries \
        + A.entries @ derivation_power(B, 1).entries
    assert np.max(np.abs(lhs.entries - rhs)) < 1e-12


def test_difference_closed_vs_binomial():
    A = geometric_inverse_toeplitz(0.35, W)
    for k in range(1, 9):
        c = difference_power(A, 0.29, k)
        b = difference_power_binomial(A, 0.29, k)
        scale = max(np.max(np.abs(c.entries)), 1e-300)
        assert np.max(np.abs(c.entries - b)) / scale < 1e-12, k


def test_difference_side_diagonal_factor():
    # the k-th difference multiplies side diagonal m by (e^{2pi i m t}-1)^k
    A = geometric_inverse_toeplitz(0.5, W)
    t, k = 0.173, 3
    D = difference_power(A, t, k)
    m = 4
    factor = (np.exp(2j * np.pi * m * t) - 1.0) ** k
    got = np.diag(D.entries, -m)
    want = factor * np.diag(A.entries, -m)
    assert np.max(np.abs(got - want)) < 1e-14


def test_window_inverse_matches_geometric_section():
    # the finite section of the bidiagonal resolvent is lower triangular,
    # so its inverse is exactly the truncated geometric symbol
    gamma = 0.3
    A = bidiag(gamma)
    inv = invert_truncated(A)
    geo = geometric_inverse_toeplitz(gamma, W)
    assert np.max(np.abs(inv.entries - geo.entries)) < 1e-13


def test_invert_truncated_identity_property():
    A = bidiag(0.7)
    inv = invert_truncated(A)
    eye = np.eye(W.n)
    assert np.max(np.abs(A.entries @ inv.entries - eye)) < 1e-12


def test_invert_singular_raises():
    entries = np.ones((W.n, W.n), dtype=complex)
    A = LatticeMatrix(W, entries)
    with pytest.raises(SingularityError):
        invert_truncated(A)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(42)
    for _ in range(5):
        entries = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        A = LatticeMatrix(IndexWindow(0, 19), entries)
        got = operator_norm_l2(A)
        want = np.linalg.svd(entries, compute_uv=False)[0]
        assert abs(got - want) < 1e-8 * want


def test_operator_norm_random_decay_instance():
    # the top two singular values differ by only 5e-5 relative, which
    # makes any iterative estimate of the largest one converge slowly
    A = random_decay_matrix(IndexWindow(-64, 63), 2.0, 0.3, seed=[56, 5])
    E = A.entries
    want = math.sqrt(np.linalg.eigvalsh(E.conj().T @ E)[-1])
    got = operator_norm_l2(A)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(1.2979364240212594, rel=1e-12)


def test_singular_values_reject_non_finite_entries():
    entries = np.eye(W.n)
    entries[3, 5] = np.nan
    A = LatticeMatrix(W, entries)
    with pytest.raises(NumericalError):
        singular_values(A)
    with pytest.raises(NumericalError):
        operator_norm_l2(A)


def test_symbol_range_resolvent():
    for gamma in (0.05, 0.1, 0.2, 0.4, 0.5, 1.0):
        x = math.exp(-gamma)
        lo, hi = symbol_range(ToeplitzSymbol({0: 1.0, 1: -x}))
        assert lo == pytest.approx(1.0 - x, rel=1e-14)
        assert hi == pytest.approx(1.0 + x, rel=1e-14)


def test_symbol_range_geometric_inverse():
    # |1/(1 - x e^{i theta})| ranges between 1/(1+x) and 1/(1-x)
    for gamma in (0.05, 0.1, 0.2, 0.4, 0.5, 1.0):
        x = math.exp(-gamma)
        lo, hi = symbol_range(geometric_inverse_symbol(gamma))
        assert lo == pytest.approx(1.0 / (1.0 + x), rel=1e-14)
        assert hi == pytest.approx(1.0 / (1.0 - x), rel=1e-14)


def test_symbol_range_singular_and_constant_symbols():
    assert symbol_range(ToeplitzSymbol({0: 1.0, 1: -1.0}))[0] == 0.0
    for m, c in ((0, 2.5), (3, 2.0 + 1.0j), (-7, -0.25j)):
        lo, hi = symbol_range(ToeplitzSymbol({m: c}))
        assert lo == pytest.approx(abs(c), rel=1e-14)
        assert hi == pytest.approx(abs(c), rel=1e-14)


SYMBOL_COEFFS = st.dictionaries(
    st.integers(-48, 48),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12)
GEOMETRIC_TAILS = st.none() | st.builds(
    lambda rho, phase, scale: GeometricTail(
        rho * cmath.exp(2j * math.pi * phase), scale),
    st.floats(0.0, 0.9), st.floats(0.0, 1.0),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False))
DENSE_GRID = np.linspace(0.0, 1.0, 1 << 15, endpoint=False)


@seed(3)
@settings(max_examples=30, deadline=None)
@given(SYMBOL_COEFFS, GEOMETRIC_TAILS)
@example({2: 1.0}, GeometricTail(1e-10, 1.0))
@example({1: 1.0}, GeometricTail(4.7e-269, 1.0))
def test_symbol_range_reaches_dense_grid(coeffs, tail):
    # every value symbol_range returns is attained, so it can only miss
    # an extremum; a dense grid shows whether it did.  The examples: sigma
    # nearly vanishes on the circle, where |sigma| is V-shaped at its
    # minimum; and a tail ratio whose products underflow to the edge of
    # the critical polynomial
    sym = ToeplitzSymbol(coeffs, tail)
    lo, hi = symbol_range(sym)
    z = sum(c * np.exp(2j * np.pi * m * DENSE_GRID)
            for m, c in sym.coeffs.items())
    if tail is not None:
        z = z + tail.scale / (1.0 - tail.ratio
                              * np.exp(2j * np.pi * DENSE_GRID))
    grid = np.abs(z)
    tol = 1e-13 * grid.max()
    assert lo <= grid.min() + tol
    assert hi >= grid.max() - tol


def _table_factor(rng):
    # shaped like the hypersingular factor of besov: a real table over
    # |m| >= 1, read by searchsorted, and zero on the diagonal
    ms = np.arange(1, 200)
    table = rng.standard_normal(ms.size)

    def factor(offs):
        out = np.zeros(offs.shape)
        nz = offs != 0
        out[nz] = table[np.searchsorted(ms, np.abs(offs[nz]))]
        return out
    return factor


def _multiplier_operand(kind, window, coeffs, tail, rng):
    n = window.n
    if kind == "finite":
        return make_toeplitz(ToeplitzSymbol(coeffs), window)
    if kind == "geometric":
        return make_toeplitz(ToeplitzSymbol(coeffs, tail), window)
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "banded":
        bw = int(rng.integers(0, n))
        om = np.arange(n)[:, None] - np.arange(n)[None, :]
        entries[np.abs(om) > bw] = 0.0
    return LatticeMatrix(window, entries)


@seed(9)
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 96), st.integers(-10 ** 6, 10 ** 6),
       st.sampled_from(["general", "banded", "finite", "geometric"]),
       st.sampled_from(["phase", "difference", "derivation", "table"]),
       st.floats(-1.0, 1.0), st.integers(1, 6), SYMBOL_COEFFS,
       GEOMETRIC_TAILS.filter(lambda g: g is not None),
       st.integers(0, 2 ** 32 - 1))
@example(1, 0, "general", "phase", 0.3, 1, {0: 1.0}, GeometricTail(0.5), 0)
def test_offset_multiplier_matches_entrywise(n, lo, kind, fname, t, k,
                                             coeffs, tail, rng_seed):
    # one call of f on the 2n - 1 offsets gives bit for bit the entries
    # of f on the full offset matrix, on the window of A
    rng = np.random.default_rng(rng_seed)
    A = _multiplier_operand(kind, IndexWindow(lo, lo + n - 1), coeffs, tail,
                            rng)
    f = {"phase": lambda m: np.exp(2j * np.pi * m * t),
         "difference": lambda m: (np.exp(2j * np.pi * m * t) - 1.0) ** k,
         "derivation": lambda m: m.astype(float) ** k,
         "table": _table_factor(rng)}[fname]
    out = offset_multiplier(A, f)
    assert np.array_equal(out.entries, offset_multiplier_entrywise(A, f))
    assert out.window == A.window


def test_entries_are_read_only():
    # no write goes through a matrix
    A = make_toeplitz(ToeplitzSymbol({0: 1.0}), W)
    with pytest.raises(ValueError):
        A.entries[0, 31] = 5.0
    with pytest.raises(ValueError):
        A.entries += 1.0
    assert cv_norm(A, Weight.poly(0)) == 1.0
    # a caller's array is not made read-only
    entries = np.eye(W.n, dtype=complex)
    LatticeMatrix(W, entries)
    entries[0, 1] = 2.0


def test_a_matrix_is_a_section():
    # a LatticeMatrix holds its window and entries and nothing else; the
    # lattice operator is the ToeplitzSymbol, and make_toeplitz bridges
    assert [f.name for f in dataclasses.fields(LatticeMatrix)] == \
        ["window", "entries"]
    with pytest.raises(TypeError):
        LatticeMatrix(W, np.eye(W.n), ToeplitzSymbol({0: 1.0}))
    sym = geometric_inverse_symbol(0.3, scale=2.0)
    T = make_toeplitz(sym, W)
    assert type(T) is LatticeMatrix
    assert np.array_equal(T.entries, geometric_inverse_toeplitz(
        0.3, W, scale=2.0).entries)
    offs = W.indices()[:, None] - W.indices()[None, :]
    assert np.array_equal(T.entries, sym.coefficients(offs.ravel())
                          .reshape(W.n, W.n))


RESOLVENT = ToeplitzSymbol({0: 1.0, 1: -math.exp(-0.5)})
RESOLVENT_INVERSE = geometric_inverse_symbol(0.5)
NEEDS_A_WINDOW = {
    "operator_norm_l2": lambda A: operator_norm_l2(A),
    "singular_values": lambda A: singular_values(A),
    "invert_truncated": lambda A: invert_truncated(A),
    "rcond_estimate": lambda A: rcond_estimate(A, np.eye(4)),
    "apply_automorphism": lambda A: apply_automorphism(A, 0.2),
    "derivation_power": lambda A: derivation_power(A, 2),
    "derivation_power k=0": lambda A: derivation_power(A, 0),
    "difference_power": lambda A: difference_power(A, 0.2, 1),
    "difference_power k=0": lambda A: difference_power(A, 0.2, 0),
    "margin cv_norm": lambda A: cv_norm(A, Weight.poly(1.0), margin=8),
    "margin jaffard_norm": lambda A: jaffard_norm(A, 2.0, margin=8),
    "margin banded_error": lambda A: banded_error(A, 1, margin=8),
    "margin dk_norm_log": lambda A: dk_norm_log(A, 1, margin=8),
    "margin besov_seminorm": lambda A: besov_seminorm(A, 1, 0.5, margin=8),
    "method window Cr": lambda A: baskakov_bound_Cr(
        A, 2.0, method="window", inverse=RESOLVENT_INVERSE),
    "method window Jr": lambda A: baskakov_bound_Jr(
        A, 2.0, method="window", inverse=RESOLVENT_INVERSE),
    "Cr with no inverse": lambda A: baskakov_bound_Cr(A, 2.0),
    "Jr with no inverse": lambda A: baskakov_bound_Jr(A, 2.0),
    "operator ambient_norm": lambda A: ambient_norm(A, "operator"),
    "operator dk_norm_log": lambda A: dk_norm_log(A, 1, "operator"),
    "operator dales_davie_norm": lambda A: dales_davie_norm(
        A, SmoothnessSequence.finite(2), "operator"),
    "operator modulus_profile": lambda A: modulus_profile(
        A, [0.1], 1, "operator"),
    "operator besov_seminorm": lambda A: besov_seminorm(
        A, 1, 0.5, ambient="operator"),
    "operator besov sup": lambda A: besov_seminorm(
        A, math.inf, 0.5, ambient="operator"),
    "operator hypersingular": lambda A: hypersingular_seminorm(
        A, 0.5, "operator"),
    "verify_identity": lambda A: verify_identity(A, "derivation_quotient",
                                                 1),
    "verify_identity B": lambda A: verify_identity(
        make_toeplitz(RESOLVENT, W), "difference_product", 1, t=0.2, B=A),
    "verify_instances": lambda A: list(verify_instances([(A, None, None)],
                                                        1, [0.2])),
}


@pytest.mark.parametrize("entry", sorted(NEEDS_A_WINDOW))
def test_what_needs_a_window_refuses_a_symbol(entry):
    # a symbol is the operator on the whole lattice: it has no window to
    # take an SVD, an inverse, an offset multiplier or a margin of, so each
    # refuses it by name rather than read a section no caller chose
    with pytest.raises(ParameterError, match="needs a window"):
        NEEDS_A_WINDOW[entry](RESOLVENT)
    # its section is read
    NEEDS_A_WINDOW[entry](make_toeplitz(RESOLVENT, W))
