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

import numpy as np

from .errors import NumericalError, ParameterError, RangeError, SingularityError
from .lattice import (RCOND_FLOOR, ToeplitzSymbol, invert_truncated,
                      require_section, singular_values, symbol_range)
from .norms import banded_error, cv_norm, jaffard_norm
from .weights import (Weight, log_concave_sum, log_integer_weight_tail,
                      log_phi_r_from_log, log_poly_geometric,
                      poly_geometric_max, zeta)

_MAXLOG = math.log(np.finfo(float).max)
_PHI_KCAP = 10 ** 15   # phi_Ar raises when either criterion needs k above
_DD_MCAP = 400         # dales_davie_bound sums at most this many A_m


@dataclass
class BoundReport:
    bound_name: str
    inputs: dict
    intermediates: dict
    bound_value: float
    measured_value: Optional[float] = None
    satisfied: Optional[bool] = None


def _report(name, inputs, intermediates, bound, measured=None):
    sat = None if measured is None else bool(measured <= bound)
    return BoundReport(bound_name=name, inputs=inputs,
                       intermediates=intermediates, bound_value=bound,
                       measured_value=measured, satisfied=sat)


def _exp_or_inf(log_value):
    return math.exp(log_value) if log_value <= _MAXLOG else math.inf


def weighted_geometric_series(q, r):
    """sum_{k>=0} (1+k)^r q^k; returns (value, terms_used).

    An integer r <= 1000 reads the polylog tail of
    weights.log_integer_weight_tail in r + 1 recurrence steps (terms_used
    counts them), within a relative
    ((r+1)(r+5) + 5 |log value| + 12 |log q| + 7) 2^-53, at any q < 1.
    Any other r is a weights.log_concave_sum, which stops on a rigorous
    remainder bound at 2^-53 and raises NumericalError past its term cap
    (for ell_r at r = 2.5, condition numbers above about 5e4)."""
    if not 0.0 <= q < 1.0:
        raise ParameterError("need 0 <= q < 1")
    if r < 0:
        raise ParameterError("need r >= 0")
    if q == 0.0:
        return 1.0, 1
    tail = log_integer_weight_tail(r, q, 0)
    if tail is None:
        tail = log_concave_sum(lambda ks: log_poly_geometric(ks, 0.0, r, q), 0)
    log_value, terms = tail
    return _exp_or_inf(log_value), terms


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
    if log_g > _MAXLOG:
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


def ell_r(norm_ainv_op, kappa, r):
    """8 ||A^{-1}|| sum_k (1-beta)^k (1+k)^r with beta = 1/(24 kappa + 1).

    The integral-test bracket for the series (at gamma = log 1/(1-beta))
    is attached as data; bracket_ok records whether the sum fell inside.
    """
    if norm_ainv_op <= 0:
        raise ParameterError("need a positive inverse norm")
    if kappa < 1.0 - 1e-9:
        raise ParameterError(f"kappa = {kappa} < 1 is not a condition number")
    if r <= 0:
        raise ParameterError("need r > 0")
    beta = 1.0 / (24.0 * kappa + 1.0)
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
    if norm_ainv_op <= 0:
        raise ParameterError("need a positive inverse norm")
    if kappa < 1.0 - 1e-9:
        raise ParameterError(f"kappa = {kappa} < 1 is not a condition number")
    g = gamma_r(r)
    beta = 1.0 / (24.0 * kappa + 1.0)
    log_best, best_k = poly_geometric_max(0.0, r, 1.0 - beta, 0)
    best = math.exp(log_best)
    return SupFactor(value=g * norm_ainv_op * best, sup_term=best,
                     argmax_k=best_k, beta=beta, gamma_r=g)


def phi_Ar(A, r, t, norm_a_alg, ell_value, norm_ainv_op, margin=0):
    """Minimal k >= 1 with max(2*3^r k^{-r} ||A||_Cr ell_r, 2 E_k ||A^{-1}||) <= t,
    given norm_a_alg = ||A||_Cr, ell_value = ell_r, norm_ainv_op = ||A^{-1}||.

    Both criteria are nonincreasing in k, so the first is solved by its
    closed-form threshold (adjusted for float boundaries) and the second
    by doubling plus bisection on the banded-approximation error.
    """
    if not 0.0 < t <= 0.5:
        raise ParameterError("t must lie in (0, 1/2]")
    if r <= 0:
        raise ParameterError("need r > 0")

    c1 = 2.0 * 3.0 ** r * norm_a_alg * ell_value
    if c1 <= t:
        k1 = 1
    else:
        log_k = (math.log(c1) - math.log(t)) / r
        if log_k > math.log(_PHI_KCAP):
            raise NumericalError(
                f"decay criterion needs k > {_PHI_KCAP}: c1 = {c1:.3e}, "
                f"t = {t}")
        k1 = max(1, math.ceil(math.exp(log_k)))
        while k1 > 1 and c1 * (k1 - 1.0) ** (-r) <= t:
            k1 -= 1
        while c1 * float(k1) ** (-r) > t:
            k1 += 1

    def tail_ok(k):
        return 2.0 * banded_error(A, k, margin) * norm_ainv_op <= t

    if tail_ok(1):
        k2 = 1
    else:
        hi = 2
        while not tail_ok(hi):
            hi *= 2
            if hi > _PHI_KCAP:
                raise NumericalError(
                    f"banded-tail criterion unmet below {_PHI_KCAP}: E at cap"
                    f" = {banded_error(A, _PHI_KCAP, margin):.3e}")
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tail_ok(mid):
                hi = mid
            else:
                lo = mid
        k2 = hi
    return max(k1, k2)


def _check_method(A, method):
    """The Baskakov bounds keep method only because bench/workloads.py
    passes it: "auto", or "window", which refuses a ToeplitzSymbol."""
    if method not in ("auto", "window"):
        raise ParameterError(f"unknown method {method!r}")
    if method == "window":
        require_section(A, 'method "window"')


def baskakov_bound_Cr(A, r, t_grid=(0.5,), method="auto", margin=0,
                      inverse=None):
    """Geometric-factor bound 2/(1-t) * ell_r * Phi (1+Phi)^r on ||A^{-1}||_Cr,
    the smallest over t in t_grid.

    The default t = 1/2 gives 4 ell_r Phi (1+Phi)^r; a grid over (0, 1/2]
    refines it.  A ToeplitzSymbol needs inverse=, as it has no window.
    """
    if r <= 0:
        raise ParameterError("need r > 0")
    _check_method(A, method)
    kappa, na_op, nainv_op = condition_data(A)
    el = ell_r(nainv_op, kappa, r)
    na_alg = cv_norm(A, Weight.poly(r), margin)
    best = None
    for tv in t_grid:
        phi = phi_Ar(A, r, tv, na_alg, el.value, nainv_op, margin)
        log_b = (math.log(2.0 / (1.0 - tv)) + math.log(el.value)
                 + math.log(phi) + r * math.log1p(phi))
        if best is None or log_b < best[0]:
            best = (log_b, tv, phi)
    log_bound, t_used, phi = best
    bound = _exp_or_inf(log_bound)
    inv = inverse if inverse is not None else invert_truncated(A)
    measured = cv_norm(inv, Weight.poly(r), margin)
    return _report(
        "baskakov_Cr",
        {"norm_A_alg": na_alg, "norm_A_op": na_op, "norm_Ainv_op": nainv_op,
         "r": r, "auxiliary": {"t": t_used, "margin": margin}},
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
    if log_x <= _MAXLOG:
        log_inner = math.log(2.0 + math.exp(log_x))
    else:
        log_inner = log_x
    log_bound = math.log(4.0) + math.log(elt.value) + r * log_inner
    bound = _exp_or_inf(log_bound)
    inv = inverse if inverse is not None else invert_truncated(A)
    measured = jaffard_norm(inv, r, margin)
    return _report(
        "baskakov_Jr",
        {"norm_A_alg": na_j, "norm_A_op": na_op, "norm_Ainv_op": nainv_op,
         "r": r, "auxiliary": {"margin": margin}},
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
    if log_c > _MAXLOG:
        raise RangeError(f"constant overflows floats at r = {r}",
                         log_value=log_c)
    return 128.0 * 50.0 ** r * 64.0 ** (1.0 / r) * math.gamma(r + 1.0) ** (1.0 + 1.0 / r)


def explicit_bound_Cr(norm_A_Cr, norm_A_op, norm_Ainv_op, r, measured=None):
    """Closed bound C_r ||A||_Cr^{1+1/r} ||A||^{2r+2/r+3} ||A^{-1}||^{2r+2/r+5}.

    The simplified single-norm form ||A||_Cr^{2r+3/r+4} ||A^{-1}||^{2r+2/r+5}
    is attached alongside.
    """
    if min(norm_A_Cr, norm_A_op, norm_Ainv_op) <= 0:
        raise ParameterError("norms must be positive")
    if r <= 0:
        raise ParameterError("need r > 0")
    if norm_A_op * norm_Ainv_op < 1.0 - 1e-9:
        raise ParameterError("||A|| ||A^{-1}|| >= 1 is violated")
    C = constant_Cr_numeric(r)
    e_alg = 1.0 + 1.0 / r
    e_op = 2.0 * r + 2.0 / r + 3.0
    e_inv = 2.0 * r + 2.0 / r + 5.0
    log_bound = (math.log(C) + e_alg * math.log(norm_A_Cr)
                 + e_op * math.log(norm_A_op) + e_inv * math.log(norm_Ainv_op))
    log_simple = (math.log(C) + (2.0 * r + 3.0 / r + 4.0) * math.log(norm_A_Cr)
                  + e_inv * math.log(norm_Ainv_op))
    return _report(
        "explicit_Cr",
        {"norm_A_alg": norm_A_Cr, "norm_A_op": norm_A_op,
         "norm_Ainv_op": norm_Ainv_op, "r": r, "auxiliary": {}},
        {"C_r": C, "exponent_alg": e_alg, "exponent_op": e_op,
         "exponent_inv": e_inv, "rate_exponent": e_inv,
         "simplified_bound": _exp_or_inf(log_simple),
         "simplified_exponent_alg": 2.0 * r + 3.0 / r + 4.0,
         "log_bound": log_bound},
        _exp_or_inf(log_bound), measured)


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
    log_x0 = log_2_3r + log_g - math.log(2.0 * zeta(r) - 1.0)
    mu = 1.0 + 2.0 * math.exp(-log_x0 / (r - 1.0))
    return (math.log(4.0) + r * math.log(mu) + (r / (r - 1.0)) * log_2_3r
            + (2.0 + 1.0 / (r - 1.0)) * log_G)


def explicit_bound_Jr(norm_A_Jr, norm_A_op, norm_Ainv_op, r, measured=None):
    """Factored bound C~_r ||A||_Jr^{1+1/(r-1)} ||A||^{2r+1+1/(r-1)}
    ||A^{-1}||^{2r+3+2/(r-1)}, plus the single-norm power form with
    C = ||A||_Jr and exponent 2r+2+2/(r-1)."""
    if min(norm_A_Jr, norm_A_op, norm_Ainv_op) <= 0:
        raise ParameterError("norms must be positive")
    if r <= 1:
        raise ParameterError("need r > 1")
    if norm_A_op * norm_Ainv_op < 1.0 - 1e-9:
        raise ParameterError("||A|| ||A^{-1}|| >= 1 is violated")
    e_alg = 1.0 + 1.0 / (r - 1.0)
    e_op = 2.0 * r + 1.0 + 1.0 / (r - 1.0)
    e_inv = 2.0 * r + 3.0 + 2.0 / (r - 1.0)
    log_C = derived_constant_Jr_log(r)
    log_bound = (log_C + e_alg * math.log(norm_A_Jr)
                 + e_op * math.log(norm_A_op) + e_inv * math.log(norm_Ainv_op))
    # single-norm form: every ||A||_op replaced via the zeta embedding
    log_Cth = log_C + e_op * math.log(2.0 * zeta(r) - 1.0)
    log_thm = (log_Cth + (e_alg + e_op) * math.log(norm_A_Jr)
               + e_inv * math.log(norm_Ainv_op))
    return _report(
        "explicit_Jr",
        {"norm_A_alg": norm_A_Jr, "norm_A_op": norm_A_op,
         "norm_Ainv_op": norm_Ainv_op, "r": r, "auxiliary": {}},
        {"C_tilde_r": _exp_or_inf(log_C), "exponent_alg": e_alg,
         "exponent_op": e_op, "exponent_inv": e_inv,
         "rate_exponent": e_inv, "power_form_exponent_alg": e_alg + e_op,
         "power_form_bound": _exp_or_inf(log_thm), "log_bound": log_bound},
        _exp_or_inf(log_bound), measured)


def _geometric_sum(q, n):
    """(q^n - 1)/(q - 1) for q > 0: n at q = 1, inf when q^n overflows."""
    if abs(q - 1.0) <= 1e-12:
        return float(n)
    if n * math.log(q) > _MAXLOG:
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
        simplified = _exp_or_inf((k + 1.0) * math.log(norm_ainv_ambient)
                                 + k * math.log(seminorm_a_dd) + math.log(2.0))
    return _report(
        "derivation_domain",
        {"norm_A_alg": seminorm_a_dd, "norm_A_op": None,
         "norm_Ainv_op": norm_ainv_ambient, "r": None, "auxiliary": {"k": k}},
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
        "besov_control",
        {"norm_A_alg": norm_a_besov, "norm_A_op": None,
         "norm_Ainv_op": norm_ainv_ambient, "r": r, "auxiliary": {"p": 1}},
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
    bound = _exp_or_inf(3.0 * math.log(norm_ainv_ambient)
                        + 2.0 * math.log(norm_a_bessel))
    return _report(
        "bessel_control",
        {"norm_A_alg": norm_a_bessel, "norm_A_op": None,
         "norm_Ainv_op": norm_ainv_ambient, "r": r, "auxiliary": {}},
        {"constant": 1.0, "rate_exponent": 3.0},
        bound, measured)


def dales_davie_bound(norm_ainv_ambient, a_m=None, mode="general",
                      gevrey_r=None, measured=None):
    """Inversion bound in the normalized regime ||a||_DD <= 1, delta = 1/||a^{-1}||.

    general mode sums delta^{-1} + sum_m delta^{-m-1} A_m^m with the actual
    terms past the crossover index m_delta (first A_m < delta/2); if no
    crossover occurs within the supplied range the report is inconclusive
    (bound inf).  gevrey mode evaluates the closed form
    delta^{-1} phi_{r-1}(1/delta).
    """
    if norm_ainv_ambient <= 0:
        raise ParameterError("need a positive inverse norm")
    delta = 1.0 / norm_ainv_ambient
    log_idelta = math.log(norm_ainv_ambient)
    inter = {"delta": delta, "mode": mode}
    if mode == "gevrey":
        if gevrey_r is None or gevrey_r <= 1:
            raise ParameterError("gevrey mode needs gevrey_r > 1")
        log_bound = log_idelta + log_phi_r_from_log(log_idelta, gevrey_r - 1.0)
        inter.update({"gevrey_r": gevrey_r, "log_bound": log_bound})
        return _report(
            "dales_davie",
            {"norm_A_alg": 1.0, "norm_A_op": None,
             "norm_Ainv_op": norm_ainv_ambient, "r": gevrey_r,
             "auxiliary": {"normalized": True}},
            inter, _exp_or_inf(log_bound), measured)
    if mode != "general":
        raise ParameterError(f"unknown mode {mode!r}")
    if a_m is None:
        raise ParameterError("general mode needs the A_m sequence")
    seq = list(a_m)
    if any(v < 0 for v in seq):
        raise ParameterError("A_m values must be nonnegative")
    log_total = log_idelta
    m_delta = None
    used = 0
    for m, Am in enumerate(seq, start=1):
        lt = (m + 1.0) * log_idelta + (m * math.log(Am) if Am > 0 else -math.inf)
        log_total = float(np.logaddexp(log_total, lt))
        used = m
        if m_delta is None and Am < delta / 2.0:
            m_delta = m
        if m_delta is not None and lt < log_total + math.log(1e-16):
            break
        if m >= _DD_MCAP:
            break
    inter.update({"m_delta": m_delta, "terms_used": used,
                  "inconclusive": m_delta is None, "log_bound": log_total})
    bound = math.inf if m_delta is None else _exp_or_inf(log_total)
    return _report(
        "dales_davie",
        {"norm_A_alg": 1.0, "norm_A_op": None,
         "norm_Ainv_op": norm_ainv_ambient, "r": None,
         "auxiliary": {"normalized": True}},
        inter, bound, measured)

