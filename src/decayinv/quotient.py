"""Iterated product and quotient expansions for derivations and phase
differences, with numerical verifiers.

All expansions are exact identities of finite window sections, so the
verification errors are pure floating-point roundoff.
"""

import math

import numpy as np

from .errors import ParameterError
from .lattice import (LatticeMatrix, apply_automorphism, derivation_power,
                      difference_power, inner_section, invert_truncated)


def derivation_quotient_rhs(A, Ainv, k):
    """D^k(A^{-1}) expanded in A^{-1} and D^j(A):

    sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k} k!/(k_1! ... k_m!) *
        A^{-1} D^{k_1}(A) A^{-1} D^{k_2}(A) ... A^{-1} D^{k_m}(A) A^{-1}

    The sum factors by its first part k_1 = i, which is the Leibniz rule
    for D^j(A A^{-1}) = 0: X_0 = A^{-1} and
    X_j = -A^{-1} sum_{i=1..j} binom(j,i) D^i(A) X_{j-i}, with X_k the sum.
    """
    if k < 1:
        raise ParameterError("order must be >= 1")
    inv = Ainv.entries
    dpow = {i: derivation_power(A, i).entries for i in range(1, k + 1)}
    X = [inv]
    for j in range(1, k + 1):
        acc = sum(math.comb(j, i) * (dpow[i] @ X[j - i])
                  for i in range(1, j + 1))
        X.append(-(inv @ acc))
    return LatticeMatrix(A.window, X[k], "general")


def difference_product_rhs(A, B, t, k):
    """Delta_t^k(AB) via the twisted Leibniz rule:

    sum_{l=0..k} binom(k,l) psi_{(k-l)t}(Delta_t^l A) Delta_t^{k-l}(B)
    """
    if k < 1:
        raise ParameterError("order must be >= 1")
    acc = np.zeros((A.n, A.n), dtype=complex)
    for l in range(0, k + 1):
        left = apply_automorphism(difference_power(A, t, l), (k - l) * t).entries
        right = difference_power(B, t, k - l).entries
        acc = acc + math.comb(k, l) * (left @ right)
    return LatticeMatrix(A.window, acc, "general")


def difference_quotient_rhs(A, Ainv, t, k):
    """Delta_t^k(A^{-1}) expanded in phase-shifted difference blocks:

    psi_{kt}(A^{-1}) sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k}
        k!/(k_1! ... k_m!) prod_{j=1..m} psi_{(k - k_1 - ... - k_j) t}( Delta_t^{k_j}(A) A^{-1} )

    The product is taken left to right; the last factor carries no shift.
    The sum factors by its first part k_1 = i, which is the twisted
    Leibniz rule for Delta_t^j(A A^{-1}) = 0: T_0 = I and
    T_j = -sum_{i=1..j} binom(j,i) psi_{(j-i)t}(Delta_t^i(A) A^{-1}) T_{j-i},
    with T_k the sum.
    """
    if k < 1:
        raise ParameterError("order must be >= 1")
    inv = Ainv.entries
    blocks = {i: LatticeMatrix(A.window, difference_power(A, t, i).entries @ inv)
              for i in range(1, k + 1)}
    T = [np.eye(A.n, dtype=complex)]
    for j in range(1, k + 1):
        acc = sum(math.comb(j, i)
                  * (apply_automorphism(blocks[i], (j - i) * t).entries @ T[j - i])
                  for i in range(1, j + 1))
        T.append(-acc)
    lead = apply_automorphism(Ainv, k * t).entries
    return LatticeMatrix(A.window, lead @ T[k], "general")


IDENTITIES = ("derivation_quotient", "difference_product",
              "difference_quotient", "telescoping")


def verify_identity(A, identity, k, t=None, B=None, Ainv=None, margin=0):
    """Evaluate one identity numerically.

    Returns a dict with max_abs_err, the comparison scale (largest entry
    magnitude of either side on the margin-shrunk window), and the
    scale-relative error max_abs_err / scale.
    """
    if identity not in IDENTITIES:
        raise ParameterError(f"unknown identity {identity!r}")
    needs_t = identity != "derivation_quotient"
    if needs_t and t is None:
        raise ParameterError(f"{identity} needs a shift t")
    if identity == "difference_product":
        if B is None:
            raise ParameterError("difference_product needs a second matrix B")
        lhs = difference_power(
            LatticeMatrix(A.window, A.entries @ B.entries, "general"), t, k)
        rhs = difference_product_rhs(A, B, t, k)
    else:
        if Ainv is None:
            Ainv = invert_truncated(A)
        if identity == "derivation_quotient":
            lhs = derivation_power(Ainv, k)
            rhs = derivation_quotient_rhs(A, Ainv, k)
        elif identity == "difference_quotient":
            lhs = difference_power(Ainv, t, k)
            rhs = difference_quotient_rhs(A, Ainv, t, k)
        else:
            # sum_l binom(k,l) psi_{lt}(Delta_t^{k-l} A) Delta_t^l(A^{-1}) is the
            # twisted Leibniz rule at B = A^{-1} (l -> k-l, binom(k,l) =
            # binom(k,k-l)): it expands Delta_t^k(I) and vanishes for k >= 1
            lhs = difference_product_rhs(A, Ainv, t, k)
            rhs = LatticeMatrix(A.window, np.zeros_like(lhs.entries), "general")
    li = inner_section(lhs, margin).entries
    ri = inner_section(rhs, margin).entries
    max_abs = float(np.abs(li - ri).max())
    scale = float(max(np.abs(li).max(), np.abs(ri).max()))
    if identity == "telescoping":
        # residual-vs-zero: scale against the operands instead
        scale = float(max(np.abs(A.entries).max(), np.abs(Ainv.entries).max()))
    rel = max_abs / scale if scale > 0 else 0.0
    return {
        "identity": identity,
        "k": k,
        "t": t,
        "max_abs_err": max_abs,
        "scale": scale,
        "max_rel_err": rel,
    }
