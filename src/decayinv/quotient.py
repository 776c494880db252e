"""Iterated product and quotient expansions for derivations and phase
differences, with numerical verifiers.

All expansions are exact identities of finite window sections, so the
verification errors are pure floating-point roundoff.

`verify_orders` checks the four identities at every order k <= kmax in
one pass per instance.  D^i(A), the X_j recurrence and A B are computed
once per instance.  Per shift t, the difference powers of A, B and
A^{-1} up to kmax and the T_j recurrence are computed once, and each
phase-shifted left factor psi_{(k-l)t}(Delta_t^l A) once per (k, l); the
product rule and the telescoping sum share it.  One shift is finished
before the next starts.  `verify_identity` is the one-order view of the
same pass.
"""

import math

import numpy as np

from .errors import ParameterError
from .lattice import (LatticeMatrix, apply_automorphism, derivation_power,
                      difference_power, invert_truncated)


def derivation_quotient_rhs(A, Ainv, kmax):
    """D^k(A^{-1}) for k = 1..kmax, expanded in A^{-1} and D^j(A):

    sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k} k!/(k_1! ... k_m!) *
        A^{-1} D^{k_1}(A) A^{-1} D^{k_2}(A) ... A^{-1} D^{k_m}(A) A^{-1}

    The sum factors by its first part k_1 = i, which is the Leibniz rule
    for D^j(A A^{-1}) = 0: X_0 = A^{-1} and
    X_j = -A^{-1} sum_{i=1..j} binom(j,i) D^i(A) X_{j-i}, with X_k the sum.
    Returns {k: X_k}.
    """
    if kmax < 1:
        raise ParameterError("order must be >= 1")
    inv = Ainv.entries
    dpow = {i: derivation_power(A, i).entries for i in range(1, kmax + 1)}
    X = [inv]
    for j in range(1, kmax + 1):
        acc = sum(math.comb(j, i) * (dpow[i] @ X[j - i])
                  for i in range(1, j + 1))
        X.append(-(inv @ acc))
    return {k: LatticeMatrix(A.window, X[k]) for k in range(1, kmax + 1)}


def difference_quotient_rhs(Ainv, t, dA):
    """Delta_t^k(A^{-1}) for k = 1..kmax, expanded in phase-shifted
    difference blocks of the given dA[i] = Delta_t^i(A), i = 0..kmax:

    psi_{kt}(A^{-1}) sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k}
        k!/(k_1! ... k_m!) prod_{j=1..m} psi_{(k - k_1 - ... - k_j) t}( Delta_t^{k_j}(A) A^{-1} )

    The product is taken left to right; the last factor carries no shift.
    The sum factors by its first part k_1 = i, which is the twisted
    Leibniz rule for Delta_t^j(A A^{-1}) = 0: T_0 = I and
    T_j = -sum_{i=1..j} binom(j,i) psi_{(j-i)t}(Delta_t^i(A) A^{-1}) T_{j-i},
    with T_k the sum.  Returns {k: psi_{kt}(A^{-1}) T_k}.
    """
    kmax = len(dA) - 1
    if kmax < 1:
        raise ParameterError("order must be >= 1")
    inv = Ainv.entries
    blocks = {i: LatticeMatrix(Ainv.window, dA[i].entries @ inv)
              for i in range(1, kmax + 1)}
    T = [np.eye(Ainv.n, dtype=complex)]
    for j in range(1, kmax + 1):
        acc = sum(math.comb(j, i)
                  * (apply_automorphism(blocks[i], (j - i) * t).entries @ T[j - i])
                  for i in range(1, j + 1))
        T.append(-acc)
    return {k: LatticeMatrix(Ainv.window,
                             apply_automorphism(Ainv, k * t).entries @ T[k])
            for k in range(1, kmax + 1)}


def _twisted_leibniz(lefts, rights):
    """Delta_t^k(AB) = sum_{l=0..k} binom(k,l) psi_{(k-l)t}(Delta_t^l A)
    Delta_t^{k-l}(B), with k = len(lefts) - 1, lefts[l] the entries of
    psi_{(k-l)t}(Delta_t^l A) and rights[j] those of Delta_t^j(B)."""
    k = len(lefts) - 1
    acc = np.zeros_like(lefts[0])
    for l, left in enumerate(lefts):
        acc = acc + math.comb(k, l) * (left @ rights[k - l])
    return acc


def _derivation_pairs(A, Ainv, kmax):
    """(identity, k, t, lhs, rhs) of the derivation quotient rule at
    k = 1..kmax."""
    rhs = derivation_quotient_rhs(A, Ainv, kmax)
    for k in range(1, kmax + 1):
        yield ("derivation_quotient", k, None,
               derivation_power(Ainv, k).entries, rhs[k].entries)


def _shift_pairs(A, t, kmax, B=None, AB=None, Ainv=None):
    """(identity, k, t, lhs, rhs) of the shift identities at k = 1..kmax,
    for each k in the order difference_product, difference_quotient,
    telescoping.  The product rule runs when B and AB = A B are given, the
    other two when A^{-1} is; rhs None stands for zero."""
    dA = [difference_power(A, t, l) for l in range(kmax + 1)]
    if B is not None:
        dB = [difference_power(B, t, l).entries for l in range(kmax + 1)]
    if Ainv is not None:
        dI = [difference_power(Ainv, t, l).entries for l in range(kmax + 1)]
        quot = difference_quotient_rhs(Ainv, t, dA)
    for k in range(1, kmax + 1):
        lefts = [apply_automorphism(dA[l], (k - l) * t).entries
                 for l in range(k + 1)]
        if B is not None:
            yield ("difference_product", k, t,
                   difference_power(AB, t, k).entries,
                   _twisted_leibniz(lefts, dB))
        if Ainv is not None:
            yield "difference_quotient", k, t, dI[k], quot[k].entries
            # the twisted Leibniz rule at B = A^{-1} expands Delta_t^k(I),
            # which vanishes for k >= 1
            yield "telescoping", k, t, _twisted_leibniz(lefts, dI), None


def _row(pair, margin, operand_scale):
    """Error row of one (identity, k, t, lhs, rhs) on the margin-shrunk
    window: max_abs_err, the comparison scale (largest entry magnitude of
    either side) and max_abs_err / scale.  A residual against zero (rhs
    None) is scaled by operand_scale instead."""
    identity, k, t, lhs, rhs = pair
    inner = slice(margin, lhs.shape[0] - margin)
    li = lhs[inner, inner]
    if rhs is None:
        max_abs = float(np.abs(li).max())
        scale = operand_scale
    else:
        ri = rhs[inner, inner]
        max_abs = float(np.abs(li - ri).max())
        scale = float(max(np.abs(li).max(), np.abs(ri).max()))
    rel = max_abs / scale if scale > 0 else 0.0
    return {
        "identity": identity,
        "k": k,
        "t": t,
        "max_abs_err": max_abs,
        "scale": scale,
        "max_rel_err": rel,
    }


def _operand_scale(A, Ainv):
    return float(max(np.abs(A.entries).max(), np.abs(Ainv.entries).max()))


def _check_order(A, k, margin):
    if k < 1:
        raise ParameterError("order must be >= 1")
    A.window.shrink(margin)


def verify_orders(A, B, kmax, t_values, Ainv=None, margin=0):
    """Rows of the four identities at every order k = 1..kmax, in one pass.

    For each k in turn: the derivation quotient row, then for each t in
    t_values the difference_product, difference_quotient and telescoping
    rows.  Each row is the dict verify_identity returns; the rows of
    kmax are the first rows of any larger kmax.
    """
    _check_order(A, kmax, margin)
    if Ainv is None:
        Ainv = invert_truncated(A)
    operand_scale = _operand_scale(A, Ainv)
    AB = LatticeMatrix(A.window, A.entries @ B.entries)
    by_order = {k: [] for k in range(1, kmax + 1)}
    for pair in _derivation_pairs(A, Ainv, kmax):
        by_order[pair[1]].append(_row(pair, margin, operand_scale))
    for t in t_values:
        for pair in _shift_pairs(A, t, kmax, B=B, AB=AB, Ainv=Ainv):
            by_order[pair[1]].append(_row(pair, margin, operand_scale))
    return [row for k in range(1, kmax + 1) for row in by_order[k]]


IDENTITIES = ("derivation_quotient", "difference_product",
              "difference_quotient", "telescoping")


def verify_identity(A, identity, k, t=None, B=None, Ainv=None, margin=0):
    """Evaluate one identity at order k: the row verify_orders gives it,
    from the same pass run for that identity alone.

    Returns a dict with max_abs_err, the comparison scale (largest entry
    magnitude of either side on the margin-shrunk window), and the
    scale-relative error max_abs_err / scale.
    """
    if identity not in IDENTITIES:
        raise ParameterError(f"unknown identity {identity!r}")
    if identity != "derivation_quotient" and t is None:
        raise ParameterError(f"{identity} needs a shift t")
    _check_order(A, k, margin)
    if identity == "difference_product":
        if B is None:
            raise ParameterError("difference_product needs a second matrix B")
        AB = LatticeMatrix(A.window, A.entries @ B.entries)
        pairs = _shift_pairs(A, t, k, B=B, AB=AB)
        operand_scale = None
    else:
        if Ainv is None:
            Ainv = invert_truncated(A)
        operand_scale = _operand_scale(A, Ainv)
        if identity == "derivation_quotient":
            pairs = _derivation_pairs(A, Ainv, k)
        else:
            pairs = _shift_pairs(A, t, k, Ainv=Ainv)
    pair = next(p for p in pairs if p[0] == identity and p[1] == k)
    return _row(pair, margin, operand_scale)
