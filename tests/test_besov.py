"""Besov seminorm quadrature, hypersingular route, identification ratios.

Target values were frozen from direct quadrature of the exact symbol
series (scipy on [0.01, 4] for the seminorms, mpmath for the multiplier
integrals); matching here exercises the separable Gauss-Legendre route
against an independent oracle.  FROZEN_P1 came from scipy and is 3.0e-5
off the 25-digit mpmath value MPMATH_P1; it keeps its 5e-4 tolerance,
and MPMATH_P1 is checked at relative 1e-12.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from decayinv import (IndexWindow, ParameterError, ToeplitzSymbol,
                      besov_seminorm, geometric_inverse_toeplitz,
                      hypersingular_seminorm, identification_rate_check,
                      make_toeplitz, modulus_profile)
from decayinv.besov import _j_multipliers
from decayinv.lattice import difference_power
from decayinv.norms import cv_norm
from decayinv.weights import Weight

W = IndexWindow(-32, 31)
INV = geometric_inverse_toeplitz(0.5, W)

# independent quadrature of 2 int_0.01^4 (t^-r g(t))^p dt/t with
# g(t) = sum_m 2|sin(pi m t)| e^{-m/2}, r = 1/2, k = 1
FROZEN_P1 = 41.3493713622352
FROZEN_P2 = 13.0558760935290
FROZEN_SUP = 5.61290009498663
# the same p = 1 integral in mpmath at 25 digits, integrated in t with
# every kink j/m of |sin(pi m t)| as a breakpoint (about 90 s to compute);
# integrating each offset in u = m t between the integers agrees to 17 digits
MPMATH_P1 = 41.34934141009299


def test_besov_p1_frozen():
    est = besov_seminorm(INV, 1, 0.5, 1, t_min=0.01, t_max=4.0)
    assert est.value == pytest.approx(FROZEN_P1, abs=5e-4)
    assert est.quadrature_error < 1e-3


def test_besov_p1_mpmath_reference():
    est = besov_seminorm(INV, 1, 0.5, 1, t_min=0.01, t_max=4.0)
    assert est.value == pytest.approx(MPMATH_P1, rel=1e-12)
    assert est.quadrature_error <= 1e-10


def _shift_seminorm_mpmath(m, r, k, t_min, t_max):
    """2 int_{t_min}^{t_max} t^(-r-1) |2 sin(pi m t)|^k dt in mpmath, split
    at the kinks j/m and at the decades below 1."""
    with mpmath.workdps(20):
        knots = [mpmath.mpf(j) / m for j in range(1, int(m * t_max) + 1)]
        decades = [mpmath.mpf(10) ** e
                   for e in range(math.floor(math.log10(t_min)) + 1, 0)]
        pts = sorted({mpmath.mpf(t_min), mpmath.mpf(t_max),
                      *[x for x in knots + decades if t_min < x < t_max]})
        rr = mpmath.mpf(r)
        val = 2 * mpmath.quad(lambda t: t ** (-rr - 1)
                              * abs(2 * mpmath.sin(mpmath.pi * m * t)) ** k,
                              pts)
        return float(val)


@pytest.mark.parametrize("m, r, k, t_min", [(3, 0.5, 1, 0.01),
                                            (5, 1.5, 2, 1e-6)])
def test_besov_p1_shift_mpmath_oracle(m, r, k, t_min):
    T = make_toeplitz(ToeplitzSymbol({m: 1.0}), W)
    est = besov_seminorm(T, 1, r, k, t_min=t_min, t_max=4.0)
    want = _shift_seminorm_mpmath(m, r, k, t_min, 4.0)
    assert est.value == pytest.approx(want, rel=1e-13)


def test_routes_raise_no_warnings():
    # quadrature shortfalls are counted, never emitted or silenced
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ests = {p: besov_seminorm(INV, p, 0.5, 1, t_min=0.01, t_max=4.0)
                for p in (1, 2, math.inf)}
        hypersingular_seminorm(INV, 0.5)
        hypersingular_seminorm(INV, 1.5, ambient="operator")
    # QUADPACK stops short of epsrel on 6 of the 9 shells of the p = 2
    # case with scipy 1.17; the quad-free routes count none
    assert 1 <= ests[2].parameters["quad_short_shells"] <= 9
    assert ests[1].parameters["quad_short_shells"] == 0
    assert ests[math.inf].parameters["quad_short_shells"] == 0


def test_besov_p2_frozen():
    est = besov_seminorm(INV, 2, 0.5, 1, t_min=0.01, t_max=4.0)
    assert est.value == pytest.approx(FROZEN_P2, abs=2e-4)


def test_besov_sup_frozen():
    est = besov_seminorm(INV, math.inf, 0.5, 1, t_min=0.01, t_max=4.0)
    assert est.value == pytest.approx(FROZEN_SUP, abs=1e-9)


def test_default_order_is_floor_plus_one():
    est = besov_seminorm(INV, 1, 1.5)
    assert est.parameters["k"] == 2
    est = besov_seminorm(INV, 1, 2.0)
    assert est.parameters["k"] == 3


def test_seminorm_estimate_fields():
    est = besov_seminorm(INV, 1, 0.5, 1)
    assert est.quadrature_error >= 0.0
    assert est.tail_bound >= 0.0
    assert est.parameters["p"] == 1
    assert est.parameters["t_min"] == 1e-6


def test_modulus_profile_matches_difference_norm():
    # the profile is exactly the ambient norm of the k-th difference
    A = make_toeplitz(ToeplitzSymbol({0: 1.0, 1: -math.exp(-0.5)}), W)
    for k in (1, 2):
        ts = [0.07, 0.26, 0.5]
        prof = modulus_profile(A, ts, k)
        direct = [cv_norm(difference_power(A, t, k), Weight.poly(0.0),
                          "window") for t in ts]
        assert np.allclose(prof, direct, rtol=1e-13)


def test_modulus_profile_geometric_closed_form():
    ts = [0.1, 0.26]
    prof = modulus_profile(INV, ts, 1)
    for t, got in zip(ts, prof):
        want = sum(2.0 * abs(math.sin(math.pi * m * t)) * math.exp(-0.5 * m)
                   for m in range(1, 400))
        assert got == pytest.approx(want, rel=1e-12)


def test_multiplier_frozen_values():
    # mpmath quadrature of 2 int_eps^1 (cos(2 pi m t) - 1) t^-r dt
    targets = {1: -3.02333530303822, 2: -3.29845670811517,
               5: -3.54986598186379}
    got, err = _j_multipliers(list(targets), [0.01], 0.5)
    assert got[0] == pytest.approx(list(targets.values()), abs=1e-10)
    assert (err < 1e-6).all()


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_multiplier_matches_quad_cos_weight(r):
    ms = np.arange(1, 400)
    eps_grid = [0.3, 0.1, 0.03, 0.01]
    got, _ = _j_multipliers(ms, eps_grid, r)
    for row, eps in zip(got, eps_grid):
        if r == 1.0:
            plain = math.log(1.0 / eps)
        else:
            plain = (1.0 - eps ** (1.0 - r)) / (1.0 - r)
        want = [2.0 * (quad(lambda t: t ** (-r), eps, 1.0, weight="cos",
                            wvar=2.0 * math.pi * m, full_output=1)[0]
                       - plain) for m in ms]
        assert row == pytest.approx(want, abs=1e-9)


def test_hypersingular_frozen_values():
    h = hypersingular_seminorm(INV, 0.5)
    assert h.value == pytest.approx(5.03411662621746, rel=1e-9)
    h = hypersingular_seminorm(INV, 1.5)
    assert h.value == pytest.approx(22.5236972847762, rel=1e-9)


def test_hypersingular_sup_attained_at_smallest_eps():
    # the grid sup should come from the finest cutoff for this family
    full = hypersingular_seminorm(INV, 0.5)
    coarse = hypersingular_seminorm(INV, 0.5, eps_grid=(0.3,))
    assert full.value >= coarse.value
    assert full.parameters["eps"] == 0.01


def test_hypersingular_range_check():
    with pytest.raises(ParameterError):
        hypersingular_seminorm(INV, 2.5)
    with pytest.raises(ParameterError):
        hypersingular_seminorm(INV, 0.0)


def test_identification_ratios_on_shifts():
    fam = [(f"T{m}", make_toeplitz(ToeplitzSymbol({m: 1.0}), W))
           for m in (1, 2, 4)]
    chk = identification_rate_check(fam, 0.5)
    assert len(chk["rows"]) == 3
    # moment of T_m at order r is m^r; ratios stay within a tight band
    assert chk["rows"][0]["moment"] == pytest.approx(1.0)
    assert chk["rows"][2]["moment"] == pytest.approx(2.0)
    assert chk["drift"] == pytest.approx(1.0586019211703772, rel=1e-6)
    assert chk["drift"] < 1.2


def test_identification_mixed_family():
    fam = [("inv05", INV), ("inv03", geometric_inverse_toeplitz(0.3, W))]
    chk = identification_rate_check(fam, 0.5)
    assert chk["drift"] < 1.5
    for row in chk["rows"]:
        assert row["seminorm"] > 0 and row["moment"] > 0


def test_besov_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        besov_seminorm(INV, 0.5, 1.0)
    with pytest.raises(ParameterError):
        besov_seminorm(INV, 1, -1.0)
    with pytest.raises(ParameterError):
        besov_seminorm(INV, 1, 0.5, 1, t_min=0.0)
