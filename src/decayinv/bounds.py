"""Norm-controlled inversion bounds with full audit trails.

Every bound evaluator returns a BoundReport carrying the input norms, all
named intermediate quantities, and (when a measurement is supplied or
computable) the measured inverse norm with a satisfied flag.  Products of
large factors are assembled in log space and reported as inf, never as
silent overflow.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import NumericalError, ParameterError, RangeError, SingularityError
from .lattice import (RCOND_FLOOR, ToeplitzSymbol, invert_truncated,
                      require_section, singular_values, symbol_range)
from .norms import banded_error, cv_norm, jaffard_norm
from .weights import (LOG_MAX, Weight, exp_or_inf, log_phi_r_from_log,
                      log_weight_tail, poly_geometric_max, zeta)

_PHI_KCAP = 10 ** 15   # phi_Ar raises when a criterion fails at a k above
_PHI_T = 0.5   # baskakov_bound_Cr's t, where its factor 2/(1-t) is 4


@dataclass
class BoundReport:
    bound_name: str
    inputs: dict
    intermediates: dict
    bound_value: float
    measured_value: Optional[float] = None
    satisfied: Optional[bool] = None


def _report(name, alg, op, inv, r, auxiliary, intermediates, bound,
            measured=None):
    """The BoundReport of bound, whose inputs are the algebra norm alg of
    A, its operator norm op, the norm inv of its inverse, r and the
    auxiliary parameters; satisfied compares measured, when given."""
    inputs = {"norm_A_alg": alg, "norm_A_op": op, "norm_Ainv_op": inv,
              "r": r, "auxiliary": auxiliary}
    sat = None if measured is None else bool(measured <= bound)
    return BoundReport(bound_name=name, inputs=inputs,
                       intermediates=intermediates, bound_value=bound,
                       measured_value=measured, satisfied=sat)


def weighted_geometric_series(q, r):
    """sum_{k>=0} (1+k)^r q^k; returns (value, terms_used).

    The sum is weights.log_weight_tail's.  An integer r <= 1000 takes
    r + 1 recurrence steps (terms_used counts them), within a relative
    ((r+1)(r+5) + 5 |log value| + 12 |log q| + 7) 2^-53, at any q < 1.
    Any other r is a log_concave_sum, which stops on a rigorous remainder
    bound at 2^-53 and raises NumericalError past its term cap (for ell_r
    at r = 2.5, condition numbers above about 5e4)."""
    if not 0.0 <= q < 1.0:
        raise ParameterError("need 0 <= q < 1")
    if r < 0:
        raise ParameterError("need r >= 0")
    if q == 0.0:
        return 1.0, 1
    log_value, terms = log_weight_tail(r, q, 0)
    return exp_or_inf(log_value), terms


def integral_test_bracket(gamma, r):
    """The stated estimate [L, 2L] for sum_{k>=0}(1+k)^r e^{-gamma k},
    with L = e^gamma Gamma(r+1) gamma^{-r-1}.

    The upper edge 2L is a bound.  The lower edge is not for r in {1, 2}:
    sum - L tends to e^gamma zeta(-r) <= 0 as gamma -> 0, so the sum falls
    below L, and the bracket_ok columns of ell_r and toeplitz-sharpness
    (and bracket_ok_all of dd-sharpness) read False there.  A rigorous
    lower edge is L - e^gamma (r/(e gamma))^r, since x^r e^{-gamma x} is
    unimodal with maximum (r/(e gamma))^r."""
    if gamma <= 0:
        raise ParameterError("bracket needs gamma > 0")
    if r < 0:
        raise ParameterError("bracket needs r >= 0")
    lo = math.exp(gamma) * math.gamma(r + 1.0) * gamma ** (-r - 1.0)
    return lo, 2.0 * lo


def _log_gamma_r(r):
    return (r + 1.0) * math.log(2.0) + math.log(r + 1.0) - math.log(r - 1.0)


def gamma_r(r):
    """The sup-form comparison constant 2^{r+1}(r+1)/(r-1), finite for r > 1;
    a RangeError carrying its log where it exceeds float range."""
    if r <= 1:
        raise ParameterError("gamma_r needs r > 1")
    log_g = _log_gamma_r(r)
    if log_g > LOG_MAX:
        raise RangeError(f"gamma_r overflows floats at r = {r}",
                         log_value=log_g)
    return 2.0 ** (r + 1) * (r + 1.0) / (r - 1.0)


def condition_data(A):
    """(kappa, norm_A_op, norm_Ainv_op) of A: of a ToeplitzSymbol from its
    multiplier range (exact full-lattice values), of a section from the
    extreme singular values of one SVD, ||A|| = s_max and ||A^{-1}|| =
    1/s_min.  Either way A is singular when min <= RCOND_FLOOR * max.
    """
    if isinstance(A, ToeplitzSymbol):
        lo, hi = symbol_range(A)
    else:
        s = singular_values(A)
        lo, hi = float(s[-1]), float(s[0])
    if lo <= RCOND_FLOOR * hi:
        raise SingularityError(f"not invertible: min {lo:.3e} <= "
                               f"{RCOND_FLOOR:.1e} * max {hi:.3e}",
                               rcond=lo / hi if hi else 0.0)
    nainv = 1.0 / lo
    return hi * nainv, hi, nainv


@dataclass
class SeriesFactor:
    value: float
    series: float
    beta: float
    gamma: float
    bracket_low: float
    bracket_high: float
    bracket_ok: bool
    terms: int


def _check_condition(kappa, message):
    """A ParameterError with message unless kappa = ||A|| ||A^{-1}|| is a
    condition number, kappa >= 1 (less 1e-9 for rounding)."""
    if kappa < 1.0 - 1e-9:
        raise ParameterError(message)


def _baskakov_beta(norm_ainv_op, kappa):
    """Baskakov's beta = 1/(24 kappa + 1), for a positive inverse norm and a
    condition number kappa."""
    if norm_ainv_op <= 0:
        raise ParameterError("need a positive inverse norm")
    _check_condition(kappa, f"kappa = {kappa} < 1 is not a condition number")
    return 1.0 / (24.0 * kappa + 1.0)


def ell_r(norm_ainv_op, kappa, r):
    """8 ||A^{-1}|| sum_k (1-beta)^k (1+k)^r with beta = 1/(24 kappa + 1).

    The integral-test bracket for the series (at gamma = log 1/(1-beta))
    is attached as data; bracket_ok records whether the sum fell inside.
    """
    beta = _baskakov_beta(norm_ainv_op, kappa)
    if r <= 0:
        raise ParameterError("need r > 0")
    q = 1.0 - beta
    gam = -math.log1p(-beta)
    series, terms = weighted_geometric_series(q, r)
    lo, hi = integral_test_bracket(gam, r)
    return SeriesFactor(value=8.0 * norm_ainv_op * series, series=series,
                        beta=beta, gamma=gam, bracket_low=lo, bracket_high=hi,
                        bracket_ok=bool(lo <= series <= hi), terms=terms)


@dataclass
class SupFactor:
    value: float
    sup_term: float
    argmax_k: int
    beta: float
    gamma_r: float


def ell_tilde_r(norm_ainv_op, kappa, r):
    """gamma_r ||A^{-1}|| max_k (1-beta)^k (1+k)^r, maximized exactly
    by weights.poly_geometric_max."""
    beta = _baskakov_beta(norm_ainv_op, kappa)
    g = gamma_r(r)
    log_best, best_k = poly_geometric_max(r, 1.0 - beta, 0)
    best = math.exp(log_best)
    return SupFactor(value=g * norm_ainv_op * best, sup_term=best,
                     argmax_k=best_k, beta=beta, gamma_r=g)


def _least_k(holds, what):
    """The least k >= 1 where holds(k), a predicate that once true stays
    true as k grows: doubling, then bisection.  A NumericalError when it
    fails at a k past _PHI_KCAP."""
    lo, hi = 0, 1
    while not holds(hi):
        if hi > _PHI_KCAP:
            raise NumericalError(f"{what} unmet at k = {hi} > {_PHI_KCAP}")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def phi_Ar(A, r, t, norm_a_alg, ell_value, norm_ainv_op, margin=0):
    """Minimal k >= 1 with max(2*3^r k^{-r} ||A||_Cr ell_r, 2 E_k ||A^{-1}||) <= t,
    given norm_a_alg = ||A||_Cr, ell_value = ell_r, norm_ainv_op = ||A^{-1}||.

    Both criteria are nonincreasing in k, so each threshold is found by
    doubling plus bisection (_least_k): the first on the decay term as
    computed in floats, the second on the banded-approximation error.
    """
    if not 0.0 < t <= 0.5:
        raise ParameterError("t must lie in (0, 1/2]")
    if r <= 0:
        raise ParameterError("need r > 0")
    c1 = 2.0 * 3.0 ** r * norm_a_alg * ell_value
    k1 = _least_k(lambda k: c1 * float(k) ** (-r) <= t,
                  f"decay criterion (c1 = {c1:.3e}, t = {t})")
    k2 = _least_k(
        lambda k: 2.0 * banded_error(A, k, margin) * norm_ainv_op <= t,
        "banded-tail criterion")
    return max(k1, k2)


def _check_method(A, method):
    """The Baskakov bounds keep method only because bench/workloads.py
    passes it: "auto", or "window", which refuses a ToeplitzSymbol."""
    if method not in ("auto", "window"):
        raise ParameterError(f"unknown method {method!r}")
    if method == "window":
        require_section(A, 'method "window"')


def baskakov_bound_Cr(A, r, method="auto", margin=0, inverse=None):
    """Geometric-factor bound 2/(1-t) * ell_r * Phi (1+Phi)^r on ||A^{-1}||_Cr
    at t = 1/2 (_PHI_T): 4 ell_r Phi (1+Phi)^r, Phi = phi_Ar at t.  A
    ToeplitzSymbol needs inverse=, as it has no window.
    """
    if r <= 0:
        raise ParameterError("need r > 0")
    _check_method(A, method)
    kappa, na_op, nainv_op = condition_data(A)
    el = ell_r(nainv_op, kappa, r)
    na_alg = cv_norm(A, Weight.poly(r), margin)
    phi = phi_Ar(A, r, _PHI_T, na_alg, el.value, nainv_op, margin)
    log_bound = (math.log(2.0 / (1.0 - _PHI_T)) + math.log(el.value)
                 + math.log(phi) + r * math.log1p(phi))
    bound = exp_or_inf(log_bound)
    inv = inverse if inverse is not None else invert_truncated(A)
    measured = cv_norm(inv, Weight.poly(r), margin)
    return _report(
        "baskakov_Cr", na_alg, na_op, nainv_op, r,
        {"t": _PHI_T, "margin": margin},
        {"kappa": kappa, "beta": el.beta, "ell_r": el.value,
         "series": el.series, "bracket_low": el.bracket_low,
         "bracket_high": el.bracket_high, "bracket_ok": el.bracket_ok,
         "Phi": phi, "log_bound": log_bound},
        bound, measured)


def baskakov_bound_Jr(A, r, method="auto", margin=0, inverse=None):
    """4 ell~_r (2 + (2*3^r ||A||_Jr ell~_r)^{1/(r-1)})^r on ||A^{-1}||_Jr;
    inverse= as for baskakov_bound_Cr."""
    if r <= 1:
        raise ParameterError("need r > 1")
    _check_method(A, method)
    kappa, na_op, nainv_op = condition_data(A)
    elt = ell_tilde_r(nainv_op, kappa, r)
    na_j = jaffard_norm(A, r, margin)
    log_x = (math.log(2.0 * 3.0 ** r) + math.log(na_j)
             + math.log(elt.value)) / (r - 1.0)
    if log_x <= LOG_MAX:
        log_inner = math.log(2.0 + math.exp(log_x))
    else:
        log_inner = log_x
    log_bound = math.log(4.0) + math.log(elt.value) + r * log_inner
    bound = exp_or_inf(log_bound)
    inv = inverse if inverse is not None else invert_truncated(A)
    measured = jaffard_norm(inv, r, margin)
    return _report(
        "baskakov_Jr", na_j, na_op, nainv_op, r, {"margin": margin},
        {"kappa": kappa, "beta": elt.beta, "gamma_r": elt.gamma_r,
         "ell_tilde_r": elt.value, "sup_argmax_k": elt.argmax_k,
         "log_bound": log_bound},
        bound, measured)


def constant_Cr_numeric(r):
    """128 * 50^r * 64^{1/r} * Gamma(r+1)^{1+1/r}; exact 409600 at r = 1."""
    if r <= 0:
        raise ParameterError("need r > 0")
    log_c = (math.log(128.0) + r * math.log(50.0) + math.log(64.0) / r
             + (1.0 + 1.0 / r) * math.lgamma(r + 1.0))
    if log_c > LOG_MAX:
        raise RangeError(f"constant overflows floats at r = {r}",
                         log_value=log_c)
    return 128.0 * 50.0 ** r * 64.0 ** (1.0 / r) * math.gamma(r + 1.0) ** (1.0 + 1.0 / r)


def _check_explicit(norm_alg, norm_op, norm_inv, r, r_min):
    """The explicit bounds' checks: positive norms, r > r_min and a
    condition number ||A|| ||A^{-1}||."""
    if min(norm_alg, norm_op, norm_inv) <= 0:
        raise ParameterError("norms must be positive")
    if r <= r_min:
        raise ParameterError(f"need r > {r_min}")
    _check_condition(norm_op * norm_inv, "||A|| ||A^{-1}|| >= 1 is violated")


def explicit_bound_Cr(norm_A_Cr, norm_A_op, norm_Ainv_op, r, measured=None):
    """Closed bound C_r ||A||_Cr^{1+1/r} ||A||^{2r+2/r+3} ||A^{-1}||^{2r+2/r+5}.

    The simplified single-norm form ||A||_Cr^{2r+3/r+4} ||A^{-1}||^{2r+2/r+5}
    is attached alongside.
    """
    _check_explicit(norm_A_Cr, norm_A_op, norm_Ainv_op, r, 0)
    C = constant_Cr_numeric(r)
    e_alg = 1.0 + 1.0 / r
    e_op = 2.0 * r + 2.0 / r + 3.0
    e_inv = 2.0 * r + 2.0 / r + 5.0
    log_bound = (math.log(C) + e_alg * math.log(norm_A_Cr)
                 + e_op * math.log(norm_A_op) + e_inv * math.log(norm_Ainv_op))
    log_simple = (math.log(C) + (2.0 * r + 3.0 / r + 4.0) * math.log(norm_A_Cr)
                  + e_inv * math.log(norm_Ainv_op))
    return _report(
        "explicit_Cr", norm_A_Cr, norm_A_op, norm_Ainv_op, r, {},
        {"C_r": C, "exponent_alg": e_alg, "exponent_op": e_op,
         "exponent_inv": e_inv, "rate_exponent": e_inv,
         "simplified_bound": exp_or_inf(log_simple),
         "simplified_exponent_alg": 2.0 * r + 3.0 / r + 4.0,
         "log_bound": log_bound},
        exp_or_inf(log_bound), measured)


def _log_embedding(r):
    """log (2 zeta(r) - 1), the constant of ||A||_op <= (2 zeta(r) - 1)
    ||A||_Jr for r > 1."""
    return math.log(2.0 * zeta(r) - 1.0)


def derived_constant_Jr_log(r):
    """log of the bookkeeping constant for the factored J_r bound.

    Assembled from gamma_r, the beta <= 1/25 envelope of the sup factor
    ((25/24)(25r/e)^r at kappa >= 1), and the operator-norm embedding
    ||A||_op <= (2 zeta(r) - 1) ||A||_Jr, each factor taken as its log, so
    that none overflows however large r is.
    """
    if r <= 1:
        raise ParameterError("need r > 1")
    log_g = _log_gamma_r(r)
    log_G = log_g + math.log(25.0 / 24.0) + r * (math.log(25.0 * r) - 1.0)
    log_2_3r = math.log(2.0) + r * math.log(3.0)
    log_x0 = log_2_3r + log_g - _log_embedding(r)
    mu = 1.0 + 2.0 * math.exp(-log_x0 / (r - 1.0))
    return (math.log(4.0) + r * math.log(mu) + (r / (r - 1.0)) * log_2_3r
            + (2.0 + 1.0 / (r - 1.0)) * log_G)


def explicit_bound_Jr(norm_A_Jr, norm_A_op, norm_Ainv_op, r, measured=None):
    """Factored bound C~_r ||A||_Jr^{1+1/(r-1)} ||A||^{2r+1+1/(r-1)}
    ||A^{-1}||^{2r+3+2/(r-1)}, plus the single-norm power form with
    C = ||A||_Jr and exponent 2r+2+2/(r-1)."""
    _check_explicit(norm_A_Jr, norm_A_op, norm_Ainv_op, r, 1)
    e_alg = 1.0 + 1.0 / (r - 1.0)
    e_op = 2.0 * r + 1.0 + 1.0 / (r - 1.0)
    e_inv = 2.0 * r + 3.0 + 2.0 / (r - 1.0)
    log_C = derived_constant_Jr_log(r)
    log_bound = (log_C + e_alg * math.log(norm_A_Jr)
                 + e_op * math.log(norm_A_op) + e_inv * math.log(norm_Ainv_op))
    # single-norm form: every ||A||_op replaced via the zeta embedding
    log_Cth = log_C + e_op * _log_embedding(r)
    log_thm = (log_Cth + (e_alg + e_op) * math.log(norm_A_Jr)
               + e_inv * math.log(norm_Ainv_op))
    return _report(
        "explicit_Jr", norm_A_Jr, norm_A_op, norm_Ainv_op, r, {},
        {"C_tilde_r": exp_or_inf(log_C), "exponent_alg": e_alg,
         "exponent_op": e_op, "exponent_inv": e_inv,
         "rate_exponent": e_inv, "power_form_exponent_alg": e_alg + e_op,
         "power_form_bound": exp_or_inf(log_thm), "log_bound": log_bound},
        exp_or_inf(log_bound), measured)


def _geometric_sum(q, n):
    """(q^n - 1)/(q - 1) for q > 0: n at q = 1, inf when q^n overflows."""
    if abs(q - 1.0) <= 1e-12:
        return float(n)
    if n * math.log(q) > LOG_MAX:
        return math.inf
    return (q ** n - 1.0) / (q - 1.0)


def dd_domain_bound(norm_ainv_ambient, seminorm_a_dd, k, measured=None):
    """||a^{-1}||^2 |a| max(k, (q^k - 1)/(q - 1)) with q = ||a^{-1}|| |a|.

    The simplified overestimate 2 ||a^{-1}||^{k+1} |a|^k is attached when
    q > max(2, k).  q = 1 is the geometric-sum limit, value k.
    """
    if min(norm_ainv_ambient, seminorm_a_dd) <= 0:
        raise ParameterError("inputs must be positive")
    if k < 1 or k != int(k):
        raise ParameterError("k must be a positive integer")
    k = int(k)
    q = norm_ainv_ambient * seminorm_a_dd
    gsum = _geometric_sum(q, k)
    bound = norm_ainv_ambient * q * max(float(k), gsum)
    simplified = None
    if q > max(2.0, float(k)):
        simplified = exp_or_inf((k + 1.0) * math.log(norm_ainv_ambient)
                                 + k * math.log(seminorm_a_dd) + math.log(2.0))
    return _report(
        "derivation_domain", seminorm_a_dd, None, norm_ainv_ambient, None,
        {"k": k},
        {"q": q, "geometric_sum": gsum, "simplified_bound": simplified,
         "rate_exponent": k + 1.0},
        bound, measured)


def besov_bound(norm_ainv_ambient, norm_a_besov, r, measured=None):
    """C ||a^{-1}||^2 ||a||_besov (q^{floor(r)+1} - 1)/(q - 1), q = product,
    with ||a||_besov the p = 1 seminorm.

    The leading constant is unknown, so C = 1 (a rate report).  floor(r) = 0
    recovers the first-order rule ||a^{-1}||^2 ||a||_besov exactly.
    """
    if min(norm_ainv_ambient, norm_a_besov) <= 0:
        raise ParameterError("inputs must be positive")
    if r <= 0:
        raise ParameterError("need r > 0")
    n = math.floor(r) + 1
    q = norm_ainv_ambient * norm_a_besov
    gsum = _geometric_sum(q, n)
    bound = norm_ainv_ambient * q * gsum
    return _report(
        "besov_control", norm_a_besov, None, norm_ainv_ambient, r, {"p": 1},
        {"q": q, "floor_r": n - 1, "geometric_sum": gsum, "constant": 1.0,
         "first_order": r < 1, "rate_exponent": float(n + 1)},
        bound, measured)


def bessel_rate_bound(norm_ainv_ambient, norm_a_bessel, r, measured=None):
    """Cubic-rate report C ||a^{-1}||^3 ||a||_P^2 for fractional r < 1, with
    the unknown constant C = 1."""
    if min(norm_ainv_ambient, norm_a_bessel) <= 0:
        raise ParameterError("inputs must be positive")
    if not 0 < r < 1:
        raise ParameterError("need 0 < r < 1")
    bound = exp_or_inf(3.0 * math.log(norm_ainv_ambient)
                        + 2.0 * math.log(norm_a_bessel))
    return _report(
        "bessel_control", norm_a_bessel, None, norm_ainv_ambient, r, {},
        {"constant": 1.0, "rate_exponent": 3.0},
        bound, measured)


def dales_davie_bound(norm_ainv_ambient, gevrey_r, measured=None):
    """Inversion bound in the normalized regime ||a||_DD <= 1, delta =
    1/||a^{-1}||, for the Gevrey sequence of order gevrey_r > 1: the closed
    form delta^{-1} phi_{r-1}(1/delta)."""
    if norm_ainv_ambient <= 0:
        raise ParameterError("need a positive inverse norm")
    if gevrey_r <= 1:
        raise ParameterError("the Dales-Davie bound needs gevrey_r > 1")
    log_idelta = math.log(norm_ainv_ambient)
    log_bound = log_idelta + log_phi_r_from_log(log_idelta, gevrey_r - 1.0)
    return _report(
        "dales_davie", 1.0, None, norm_ainv_ambient, gevrey_r,
        {"normalized": True},
        {"delta": 1.0 / norm_ainv_ambient, "gevrey_r": gevrey_r,
         "log_bound": log_bound},
        exp_or_inf(log_bound), measured)

