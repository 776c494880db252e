"""Iterated product and quotient expansions for derivations and phase
differences, with numerical verifiers.

All expansions are exact identities of finite window sections, so the
verification errors are pure floating-point roundoff.
"""

import itertools
import math

import numpy as np

from .errors import ParameterError
from .lattice import (LatticeMatrix, apply_automorphism, derivation_power,
                      difference_power, inner_section, invert_truncated)


def compositions(k, m):
    """Ordered tuples of m positive integers summing to k.

    There are binom(k-1, m-1) of them.
    """
    if m < 1:
        raise ParameterError("compositions need m >= 1")
    if k < m:
        return []
    out = []
    for cuts in itertools.combinations(range(1, k), m - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(k - prev)
        out.append(tuple(parts))
    return out


def multinomial(k, parts):
    if sum(parts) != k:
        raise ParameterError("parts must sum to k")
    v = math.factorial(k)
    for p in parts:
        v //= math.factorial(p)
    return v


def derivation_quotient_rhs(A, Ainv, k):
    """D^k(A^{-1}) expanded in A^{-1} and D^j(A):

    sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k} multinomial *
        A^{-1} D^{k_1}(A) A^{-1} D^{k_2}(A) ... A^{-1} D^{k_m}(A) A^{-1}
    """
    if k < 1:
        raise ParameterError("order must be >= 1")
    inv = Ainv.entries
    dpow = {j: derivation_power(A, j).entries for j in range(1, k + 1)}
    acc = np.zeros_like(inv)
    for m in range(1, k + 1):
        for parts in compositions(k, m):
            prod = inv
            for kj in parts:
                prod = prod @ dpow[kj] @ inv
            acc = acc + (-1) ** m * multinomial(k, parts) * prod
    return LatticeMatrix(A.window, acc, "general")


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

    psi_{kt}(A^{-1}) sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k} multinomial *
        prod_{j=1..m} psi_{(k - k_1 - ... - k_j) t}( Delta_t^{k_j}(A) A^{-1} )

    The product is taken left to right; the last factor carries no shift.
    """
    if k < 1:
        raise ParameterError("order must be >= 1")
    inv = Ainv.entries
    n = A.n
    blocks = {}
    for j in range(1, k + 1):
        dj = difference_power(A, t, j)
        blocks[j] = LatticeMatrix(A.window, dj.entries @ inv, "general")
    acc = np.zeros((n, n), dtype=complex)
    for m in range(1, k + 1):
        for parts in compositions(k, m):
            prod = np.eye(n, dtype=complex)
            run = 0
            for kj in parts:
                run += kj
                shifted = apply_automorphism(blocks[kj], (k - run) * t).entries
                prod = prod @ shifted
            acc = acc + (-1) ** m * multinomial(k, parts) * prod
    lead = apply_automorphism(Ainv, k * t).entries
    return LatticeMatrix(A.window, lead @ acc, "general")


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
