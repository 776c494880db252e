"""Iterated product and quotient expansions for derivations and phase
differences, with numerical verifiers.

All expansions are exact identities of finite window sections, so the
verification errors are pure floating-point roundoff.

`verify_instances` checks the four identities at every order k <= kmax on
a stream of instances, one pass each.  The offset tables depend only on
the window size, kmax and the shifts, so they are built once per call
(lattice.offset_table) and passed to every pass: m^k for D^k(A) and
D^k(A^{-1}), and per shift t psi_{jt} and Delta_t^l.  A pass computes
D^i(A), the X_j recurrence and A B once, and per shift the difference
powers of A, B and A^{-1}, the T_j recurrence and each left factor
psi_{(k-l)t}(Delta_t^l A), shared by the product rule and the telescoping
sum; psi_0 is the identity, so the left factor at l = k and the term i = j
of T_j (T_0 = I) take no product.  `verify_identity` is its one-order view.
A row reads each side on the margin-shrunk window only, and the pass forms
no more, as (XY)[I, J] = X[I, :] @ Y[:, J]: the X_j and T_j recurrences
carry only its columns, and each last product (a twisted Leibniz term, the
lead psi_{kt}(A^{-1}) T_k, A B) only its rows and columns.  So the left
factors and the leads are formed on its rows only, the differences of B
and A^{-1} on its columns only, and D^k(A^{-1}) on it alone; Delta_t^l A
and the factors of T_j stay whole, as a product reads all their rows.  Each
entry is the same elementwise product as in a whole multiplier and is
summed as in the full product (see _section), so the rows are
bit-identical to slicing full products.
"""

import math

import numpy as np

from .errors import ParameterError
from .lattice import (LatticeMatrix, derivation_factor, difference_factor,
                      invert_truncated, offset_table, phase_factor)

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


def derivation_quotient_rhs(Ainv, dA, margin=0):
    """D^k(A^{-1}), k = 1..kmax = len(dA) - 1, in A^{-1} and dA[i] = D^i(A):

    sum_{m=1..k} (-1)^m sum_{k_1+...+k_m=k} k!/(k_1! ... k_m!) *
        A^{-1} D^{k_1}(A) A^{-1} D^{k_2}(A) ... A^{-1} D^{k_m}(A) A^{-1}

    The sum factors by its first part k_1 = i, which is the Leibniz rule
    for D^j(A A^{-1}) = 0: X_0 = A^{-1} and
    X_j = -A^{-1} sum_{i=1..j} binom(j,i) D^i(A) X_{j-i}, with X_k the sum.
    Returns {k: X_k} as sections on the window shrunk by margin; the
    recurrence carries only the columns of their block (see _section).
    """
    kmax = len(dA) - 1
    if kmax < 1:
        raise ParameterError("order must be >= 1")
    inner, block, sub = _section(Ainv.window, margin)
    inv = Ainv.entries
    X = [inv[:, block]]
    for j in range(1, kmax + 1):
        acc = sum(math.comb(j, i) * (dA[i] @ X[j - i])
                  for i in range(1, j + 1))
        X.append(-(inv @ acc))
    return {k: LatticeMatrix(inner, X[k][block][sub, sub])
            for k in range(1, kmax + 1)}


def _multiples(M, tables, cols=slice(None)):
    """M and its Schur multiples by each of tables, on the given columns
    of the entries M."""
    M = M[:, cols]
    return [M] + [f[:, cols] * M for f in tables]


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
    j = 1..kmax, on A's window (phases[0] is not read).  Returns {k:
    psi_{kt}(A^{-1}) T_k} as sections on the window shrunk by margin; the
    recurrence carries only the columns of their block (see _section),
    and the lead factor is formed on its rows only.
    """
    kmax = len(dA) - 1
    if kmax < 1:
        raise ParameterError("order must be >= 1")
    inner, block, sub = _section(Ainv.window, margin)
    inv = Ainv.entries
    blocks = [None] + [dA[i] @ inv for i in range(1, kmax + 1)]
    T = [None]
    for j in range(1, kmax + 1):
        acc = sum(math.comb(j, i) * ((phases[j - i] * blocks[i]) @ T[j - i])
                  for i in range(1, j))
        T.append(-(acc + blocks[j][:, block]))
    return {k: LatticeMatrix(inner, ((phases[k][block] * inv[block])
                                     @ T[k])[sub, sub])
            for k in range(1, kmax + 1)}


def _twisted_leibniz(lefts, rights, sub):
    """Delta_t^k(AB) = sum_{l=0..k} binom(k,l) psi_{(k-l)t}(Delta_t^l A)
    Delta_t^{k-l}(B) on the window of _section's (block, sub), with
    k = len(lefts) - 1, lefts[l] the block rows of psi_{(k-l)t}(Delta_t^l A)
    and rights[j] the block columns of Delta_t^j(B)."""
    k = len(lefts) - 1
    acc = lefts[0] @ rights[k]
    for l in range(1, k + 1):
        acc += math.comb(k, l) * (lefts[l] @ rights[k - l])
    return acc[sub, sub]


def _tables(n, kmax, t_values):
    """The offset tables of a pass on size n, orders 1..kmax: m^k, and per
    t the tuple (t, [None] + psi_{kt}, Delta_t^k).  Every t must be finite."""
    if not all(map(math.isfinite, t_values)):
        raise ParameterError(f"shifts must be finite, got {t_values}")
    ks = range(1, kmax + 1)
    return ([offset_table(n, derivation_factor(k)) for k in ks],
            [(t, [None] + [offset_table(n, phase_factor(k * t)) for k in ks],
              [offset_table(n, difference_factor(t, k)) for k in ks])
             for t in t_values])


def _pairs(A, B, Ainv, margin, ders, shifts):
    """(identity, k, t, lhs, rhs) with both sides on the margin-shrunk
    window, from the tables of _tables: per shift in turn, for each k
    difference_product (when B is given), difference_quotient and
    telescoping (when A^{-1} is); then the derivation quotient rule at
    every k (when A^{-1} is).  rhs None stands for zero."""
    kmax = len(ders)
    _, block, sub = _section(A.window, margin)
    rows = slice(margin, A.n - margin)
    if B is not None:
        AB = (A.entries[block] @ B.entries[:, block])[sub, sub]
    for t, phases, diffs in shifts:
        dA = _multiples(A.entries, diffs)
        if B is not None:
            dB = _multiples(B.entries, diffs, block)
        if Ainv is not None:
            dI = _multiples(Ainv.entries, diffs, block)
            quot = difference_quotient_rhs(Ainv, dA, phases, margin)
        for k in range(1, kmax + 1):
            lefts = [phases[k - l][block] * dA[l][block]
                     for l in range(k)] + [dA[k][block]]
            if B is not None:
                yield ("difference_product", k, t,
                       diffs[k - 1][rows, rows] * AB,
                       _twisted_leibniz(lefts, dB, sub))
            if Ainv is not None:
                yield ("difference_quotient", k, t, dI[k][block][sub, sub],
                       quot[k].entries)
                # the twisted Leibniz rule at B = A^{-1} expands
                # Delta_t^k(I), which vanishes for k >= 1
                yield ("telescoping", k, t,
                       _twisted_leibniz(lefts, dI, sub), None)
    if Ainv is not None:
        rhs = derivation_quotient_rhs(Ainv, _multiples(A.entries, ders),
                                      margin)
        for k in range(1, kmax + 1):
            yield ("derivation_quotient", k, None,
                   ders[k - 1][rows, rows] * Ainv.entries[rows, rows],
                   rhs[k].entries)


def _row(pair, operand_scale):
    """Error row of one (identity, k, t, lhs, rhs): max_abs_err, the
    comparison scale (largest entry magnitude of either side) and
    max_abs_err / scale, 0 at a zero scale and nan when a side holds nan.
    A residual against zero (rhs None) is scaled by operand_scale instead."""
    identity, k, t, lhs, rhs = pair
    if rhs is None:
        max_abs = float(np.abs(lhs).max())
        scale = operand_scale
    else:
        max_abs = float(np.abs(lhs - rhs).max())
        scale = float(max(np.abs(lhs).max(), np.abs(rhs).max()))
    rel = max_abs / scale if scale != 0 else 0.0
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


def verify_instances(instances, kmax, t_values, margin=0):
    """Rows of the four identities at every order k = 1..kmax, for each
    (A, B, Ainv) of instances in turn, Ainv None standing for A's inverse:
    yields the rows of one instance before it reads the next, with the
    offset tables built once per window size.

    For each k in turn: the derivation quotient row, then for each t in
    t_values the difference_product, difference_quotient and telescoping
    rows.  Each row is the dict verify_identity returns; the rows of
    kmax are the first rows of any larger kmax.  B and Ainv must lie on
    A's window, and a non-finite t is a ParameterError.
    """
    t_values, size, tables = list(t_values), None, None
    for A, B, Ainv in instances:
        _check_operands(A, kmax, margin, B, Ainv)
        if A.n != size:
            size, tables = A.n, _tables(A.n, kmax, t_values)
        Ainv = invert_truncated(A) if Ainv is None else Ainv
        scale = _operand_scale(A, Ainv)
        rows = [_row(p, scale) for p in _pairs(A, B, Ainv, margin, *tables)]
        # a stable sort: per k, the derivation row, then the pass's order
        yield sorted(rows, key=lambda row: (row["k"], row["t"] is not None))


IDENTITIES = ("derivation_quotient", "difference_product",
              "difference_quotient", "telescoping")


def verify_identity(A, identity, k, t=None, B=None, Ainv=None, margin=0):
    """Evaluate one identity at order k: the row verify_instances gives it,
    from the same pass run for that identity alone.

    Returns a dict with max_abs_err, the comparison scale (largest entry
    magnitude of either side on the margin-shrunk window), and the
    scale-relative error max_abs_err / scale.  B and Ainv must lie on
    A's window, and t must be finite.
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
    pairs = _pairs(A, B, Ainv, margin, *_tables(A.n, k, ts))
    return _row(next(p for p in pairs if p[0] == identity and p[1] == k),
                scale)
