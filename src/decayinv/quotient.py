"""Iterated product and quotient expansions for derivations and phase
differences, with numerical verifiers.

All expansions are exact identities of finite window sections, so the
verification errors are pure floating-point roundoff.

`verify_orders` checks the four identities at every order k <= kmax in
one pass per instance.  D^i(A), the X_j recurrence and A B are computed
once per instance.  Per shift t, the offset tables of psi_{jt} for
j = 0..kmax and of Delta_t^l for l = 1..kmax are built once
(lattice.offset_table), and every factor of A, B and A^{-1} multiplies
by one of them: the difference powers, the T_j recurrence and each
phase-shifted left factor psi_{(k-l)t}(Delta_t^l A), which the product
rule and the telescoping sum share.  `verify_identity` is the one-order
view of the same pass.  A row reads each side on the margin-shrunk
window only, and the pass forms no more, as (XY)[I, J] = X[I, :] @
Y[:, J]: the X_j and T_j recurrences carry only its columns, and each
last product (a twisted Leibniz term, the lead psi_{kt}(A^{-1}) T_k,
A B) only its rows and columns.  So the left factors and the leads are
formed on its rows only, the differences of B and A^{-1} on its columns
only, and D^k(A^{-1}) on it alone; Delta_t^l A and the factors of T_j
stay whole, as a product reads all their rows.  Each entry is the same
elementwise product as in a whole multiplier and is summed as in the
full product (see _section), so the rows are bit-identical to slicing
full products.
"""

import math

import numpy as np

from .errors import ParameterError
from .lattice import (LatticeMatrix, derivation_factor, derivation_power,
                      difference_factor, invert_truncated, offset_table,
                      phase_factor)

# OpenBLAS's x86-64 zgemm kernels form a row-major product's columns four
# at a time from the first, and sum those of a shorter last group in
# another order.  (Measured in one thread; two threads split a product
# wider than 128 columns off these groups unless n is a multiple of 8.)
_GROUP = 4


def _section(window, margin):
    """(inner, block, sub): the margin-shrunk window, the whole column
    groups of a product on window that hold it, and its place in those.
    Rows are taken from block too, so that no product has the single row
    that numpy hands to gemv."""
    n, start = window.n, margin - margin % _GROUP
    stop = min(n, -(-(n - margin) // _GROUP) * _GROUP)
    return (window.shrink(margin), slice(start, stop),
            slice(margin - start, n - margin - start))


def derivation_quotient_rhs(A, Ainv, kmax, margin=0):
    """D^k(A^{-1}) for k = 1..kmax, expanded in A^{-1} and D^j(A):

    sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k} k!/(k_1! ... k_m!) *
        A^{-1} D^{k_1}(A) A^{-1} D^{k_2}(A) ... A^{-1} D^{k_m}(A) A^{-1}

    The sum factors by its first part k_1 = i, which is the Leibniz rule
    for D^j(A A^{-1}) = 0: X_0 = A^{-1} and
    X_j = -A^{-1} sum_{i=1..j} binom(j,i) D^i(A) X_{j-i}, with X_k the sum.
    Returns {k: X_k} as sections on the window shrunk by margin; the
    recurrence carries only the columns of their block (see _section).
    """
    if kmax < 1:
        raise ParameterError("order must be >= 1")
    inner, block, sub = _section(A.window, margin)
    inv = Ainv.entries
    dpow = {i: derivation_power(A, i).entries for i in range(1, kmax + 1)}
    X = [inv[:, block]]
    for j in range(1, kmax + 1):
        acc = sum(math.comb(j, i) * (dpow[i] @ X[j - i])
                  for i in range(1, j + 1))
        X.append(-(inv @ acc))
    return {k: LatticeMatrix(inner, X[k][block][sub, sub])
            for k in range(1, kmax + 1)}


def _differences(M, diffs, cols=slice(None)):
    """Delta_t^l(M) for l = 0..kmax on the given columns of the entries
    M, with diffs[l - 1] the offset table of Delta_t^l."""
    M = M[:, cols]
    return [M] + [d[:, cols] * M for d in diffs]


def difference_quotient_rhs(Ainv, dA, phases, margin=0):
    """Delta_t^k(A^{-1}) for k = 1..kmax, expanded in phase-shifted
    difference blocks of the entries dA[i] of Delta_t^i(A), i = 0..kmax:

    psi_{kt}(A^{-1}) sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k}
        k!/(k_1! ... k_m!) prod_{j=1..m} psi_{(k - k_1 - ... - k_j) t}( Delta_t^{k_j}(A) A^{-1} )

    The product is taken left to right; the last factor carries no shift.
    The sum factors by its first part k_1 = i, which is the twisted
    Leibniz rule for Delta_t^j(A A^{-1}) = 0: T_0 = I and
    T_j = -sum_{i=1..j} binom(j,i) psi_{(j-i)t}(Delta_t^i(A) A^{-1}) T_{j-i},
    with T_k the sum.  phases[j] is the offset table of psi_{jt},
    j = 0..kmax, on A's window.  Returns {k: psi_{kt}(A^{-1}) T_k} as
    sections on the window shrunk by margin; the recurrence carries only
    the columns of their block (see _section), and the lead factor is
    formed on its rows only.
    """
    kmax = len(dA) - 1
    if kmax < 1:
        raise ParameterError("order must be >= 1")
    inner, block, sub = _section(Ainv.window, margin)
    inv = Ainv.entries
    blocks = [None] + [dA[i] @ inv for i in range(1, kmax + 1)]
    T = [np.eye(Ainv.n, dtype=complex)[:, block]]
    for j in range(1, kmax + 1):
        acc = sum(math.comb(j, i) * ((phases[j - i] * blocks[i]) @ T[j - i])
                  for i in range(1, j + 1))
        T.append(-acc)
    return {k: LatticeMatrix(inner, ((phases[k][block] * inv[block])
                                     @ T[k])[sub, sub])
            for k in range(1, kmax + 1)}


def _twisted_leibniz(lefts, rights, sub):
    """Delta_t^k(AB) = sum_{l=0..k} binom(k,l) psi_{(k-l)t}(Delta_t^l A)
    Delta_t^{k-l}(B) on the window of _section's (block, sub), with
    k = len(lefts) - 1, lefts[l] the block rows of psi_{(k-l)t}(Delta_t^l A)
    and rights[j] the block columns of Delta_t^j(B)."""
    k = len(lefts) - 1
    return sum(math.comb(k, l) * (left @ rights[k - l])
               for l, left in enumerate(lefts))[sub, sub]


def _pairs(A, kmax, t_values, margin, B=None, Ainv=None):
    """(identity, k, t, lhs, rhs) with both sides on the margin-shrunk
    window: per t in turn, for each k = 1..kmax difference_product (when
    B is given), difference_quotient and telescoping (when A^{-1} is);
    then the derivation quotient rule at every k (when A^{-1} is).  rhs
    None stands for zero."""
    n = A.n
    inner, block, sub = _section(A.window, margin)
    if B is not None:
        AB = (A.entries[block] @ B.entries[:, block])[sub, sub]
    for t in t_values:
        phases = [offset_table(n, phase_factor(j * t))
                  for j in range(kmax + 1)]
        diffs = [offset_table(n, difference_factor(t, l))
                 for l in range(1, kmax + 1)]
        dA = _differences(A.entries, diffs)
        if B is not None:
            dB = _differences(B.entries, diffs, block)
        if Ainv is not None:
            dI = _differences(Ainv.entries, diffs, block)
            quot = difference_quotient_rhs(Ainv, dA, phases, margin)
        for k in range(1, kmax + 1):
            lefts = [phases[k - l][block] * dA[l][block]
                     for l in range(k + 1)]
            if B is not None:
                yield ("difference_product", k, t,
                       offset_table(inner.n, difference_factor(t, k)) * AB,
                       _twisted_leibniz(lefts, dB, sub))
            if Ainv is not None:
                yield ("difference_quotient", k, t, dI[k][block][sub, sub],
                       quot[k].entries)
                # the twisted Leibniz rule at B = A^{-1} expands
                # Delta_t^k(I), which vanishes for k >= 1
                yield ("telescoping", k, t,
                       _twisted_leibniz(lefts, dI, sub), None)
    if Ainv is not None:
        rhs = derivation_quotient_rhs(A, Ainv, kmax, margin)
        rows = slice(margin, n - margin)
        for k in range(1, kmax + 1):
            yield ("derivation_quotient", k, None,
                   offset_table(n, derivation_factor(k))[rows, rows]
                   * Ainv.entries[rows, rows],
                   rhs[k].entries)


def _row(pair, operand_scale):
    """Error row of one (identity, k, t, lhs, rhs): max_abs_err, the
    comparison scale (largest entry magnitude of either side) and
    max_abs_err / scale.  A residual against zero (rhs None) is scaled by
    operand_scale instead."""
    identity, k, t, lhs, rhs = pair
    if rhs is None:
        max_abs = float(np.abs(lhs).max())
        scale = operand_scale
    else:
        max_abs = float(np.abs(lhs - rhs).max())
        scale = float(max(np.abs(lhs).max(), np.abs(rhs).max()))
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


def _check_operands(A, k, margin, *others):
    """The pass slices every other operand by A's inner block."""
    if k < 1:
        raise ParameterError("order must be >= 1")
    _section(A.window, margin)
    if any(M is not None and M.window != A.window for M in others):
        raise ParameterError(f"B and Ainv must lie on A's window {A.window}")


def verify_orders(A, B, kmax, t_values, Ainv=None, margin=0):
    """Rows of the four identities at every order k = 1..kmax, in one pass.

    For each k in turn: the derivation quotient row, then for each t in
    t_values the difference_product, difference_quotient and telescoping
    rows.  Each row is the dict verify_identity returns; the rows of
    kmax are the first rows of any larger kmax.  B and Ainv must lie on
    A's window.
    """
    _check_operands(A, kmax, margin, B, Ainv)
    if Ainv is None:
        Ainv = invert_truncated(A)
    scale = _operand_scale(A, Ainv)
    rows = [_row(pair, scale)
            for pair in _pairs(A, kmax, t_values, margin, B, Ainv)]
    # a stable sort: per k, the derivation row, then the pass's order
    return sorted(rows, key=lambda row: (row["k"], row["t"] is not None))


IDENTITIES = ("derivation_quotient", "difference_product",
              "difference_quotient", "telescoping")


def verify_identity(A, identity, k, t=None, B=None, Ainv=None, margin=0):
    """Evaluate one identity at order k: the row verify_orders gives it,
    from the same pass run for that identity alone.

    Returns a dict with max_abs_err, the comparison scale (largest entry
    magnitude of either side on the margin-shrunk window), and the
    scale-relative error max_abs_err / scale.  B and Ainv must lie on
    A's window.
    """
    if identity not in IDENTITIES:
        raise ParameterError(f"unknown identity {identity!r}")
    if identity != "derivation_quotient" and t is None:
        raise ParameterError(f"{identity} needs a shift t")
    if identity == "difference_product" and B is None:
        raise ParameterError("difference_product needs a second matrix B")
    _check_operands(A, k, margin, B, Ainv)
    if identity == "difference_product":
        Ainv = scale = None
    else:
        B, Ainv = None, invert_truncated(A) if Ainv is None else Ainv
        scale = _operand_scale(A, Ainv)
    ts = [] if identity == "derivation_quotient" else [t]
    return _row(next(p for p in _pairs(A, k, ts, margin, B, Ainv)
                     if p[0] == identity and p[1] == k), scale)
