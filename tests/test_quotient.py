"""Product and quotient rule identities for the derivation and the
difference operators, checked on random decay instances."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv import (IndexWindow, ParameterError, geometric_inverse_toeplitz,
                      invert_truncated, make_toeplitz, random_decay_matrix,
                      verify_identity, verify_orders, ToeplitzSymbol)
from decayinv import quotient
from decayinv.experiments import ExperimentConfig, run_quotient_verify
from decayinv.quotient import (IDENTITIES, derivation_quotient_rhs,
                               difference_quotient_rhs)
from decayinv.lattice import derivation_power, difference_power

from oracles import (compositions, derivation_quotient_literal,
                     difference_quotient_literal, multinomial,
                     quotient_rows_per_order, verify_identity_per_order)

W = IndexWindow(-16, 15)
W64 = IndexWindow(-32, 31)


def instance(idx=0, r=2.0, eps=0.3, window=W):
    A = random_decay_matrix(window, r, eps, seed=[99, idx])
    return A, invert_truncated(A)


def test_composition_counts():
    assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
    assert compositions(3, 4) == []
    assert len(compositions(8, 3)) == math.comb(7, 2)


@seed(11)
@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=1, max_value=10),
       m=st.integers(min_value=1, max_value=10))
def test_composition_count_formula(k, m):
    got = compositions(k, m)
    assert len(got) == (math.comb(k - 1, m - 1) if k >= m else 0)
    assert all(sum(p) == k and len(p) == m and min(p) >= 1 for p in got)
    assert len(set(got)) == len(got)


def test_multinomial_values():
    assert multinomial(4, (1, 3)) == 4
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(6, (1, 2, 3)) == 60


def test_derivation_quotient_small_k_by_hand():
    # k = 1: D(A^{-1}) = -A^{-1} D(A) A^{-1}
    A, inv = instance(0)
    rhs = derivation_quotient_rhs(A, inv, 1)[1]
    manual = -inv.entries @ derivation_power(A, 1).entries @ inv.entries
    assert np.max(np.abs(rhs.entries - manual)) < 1e-14


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_recurrences_match_composition_sums(idx):
    # the first-part recurrences regroup the paper's composition sums
    # by the distributive law, so they agree to roundoff
    A, inv = instance(10 + idx, window=W64)
    dq = derivation_quotient_rhs(A, inv, 8)
    tq = {t: difference_quotient_rhs(
              inv, t, [difference_power(A, t, i) for i in range(9)])
          for t in (0.17, 0.31)}
    for k, tol in [(1, 1e-13), (2, 1e-13), (3, 1e-13), (4, 1e-13),
                   (5, 1e-13), (6, 1e-13), (8, 1e-12)]:
        gap = rel_gap(dq[k].entries, derivation_quotient_literal(A, inv, k))
        assert gap < tol, ("derivation", k, gap)
        for t in (0.17, 0.31):
            gap = rel_gap(tq[t][k].entries,
                          difference_quotient_literal(A, inv, t, k))
            assert gap < tol, ("difference", k, t, gap)


@pytest.mark.parametrize("identity", IDENTITIES)
def test_identities_hold_to_roundoff(identity):
    A, inv = instance(1)
    B, _ = instance(2)
    for k in (1, 2, 4):
        res = verify_identity(A, identity, k, t=0.23, B=B, Ainv=inv,
                              margin=4)
        assert res["max_rel_err"] < 1e-12, (identity, k, res)


def test_identity_error_small_even_at_k8():
    A, inv = instance(3)
    res = verify_identity(A, "derivation_quotient", 8, Ainv=inv, margin=8)
    assert res["max_rel_err"] < 1e-9


def test_identities_on_toeplitz_resolvent():
    gamma = 0.5
    x = math.exp(-gamma)
    A = make_toeplitz(ToeplitzSymbol({0: 1.0, 1: -x}), W)
    inv = geometric_inverse_toeplitz(gamma, W)
    for identity in IDENTITIES:
        res = verify_identity(A, identity, 3, t=0.37, B=A, Ainv=inv,
                              margin=8)
        assert res["max_rel_err"] < 1e-12, identity


def test_verify_identity_result_fields():
    A, inv = instance(4)
    res = verify_identity(A, "telescoping", 2, t=0.11, Ainv=inv, margin=4)
    assert res["identity"] == "telescoping"
    assert res["k"] == 2 and res["t"] == 0.11
    assert res["max_abs_err"] <= res["scale"] * res["max_rel_err"] * (1 + 1e-12)


def test_verify_identity_rejects_unknown():
    A, inv = instance(5)
    with pytest.raises(ValueError):
        verify_identity(A, "nope", 1, Ainv=inv)


def resolvent_instance(gamma=0.5, window=W):
    # the inverse carries a geometric-tail symbol, which apply_automorphism
    # maps along with the entries
    A = make_toeplitz(ToeplitzSymbol({0: 1.0, 1: -math.exp(-gamma)}), window)
    return A, A, geometric_inverse_toeplitz(gamma, window)


@pytest.mark.parametrize("kmax", [1, 5, 8])
def test_one_pass_rows_equal_per_order_rows(kmax):
    # the pass forms only the inner block of each product, and every
    # entry of it is the dot product the full-window oracle forms, summed
    # in the same order, so the rows agree bit for bit, from the whole
    # window (margin 0) to a 2 x 2 block (the largest margin)
    ts = (0.17, 0.31)
    cases = [resolvent_instance()]
    for i in range(2):
        A, inv = instance(20 + i)
        cases.append((A, instance(30 + i)[0], inv))
    for A, B, inv in cases:
        for margin in (0, 4, W.n // 2 - 1):
            got = verify_orders(A, B, kmax, ts, Ainv=inv, margin=margin)
            want = quotient_rows_per_order(A, B, inv, kmax, ts,
                                           margin=margin)
            assert got == want, margin


def test_one_order_view_equals_per_order_verifier():
    A, inv = instance(6)
    B, _ = instance(7)
    for identity in IDENTITIES:
        t = None if identity == "derivation_quotient" else 0.31
        for k in (1, 3):
            got = verify_identity(A, identity, k, t=t, B=B, Ainv=inv,
                                  margin=4)
            want = verify_identity_per_order(A, identity, k, t=t, B=B,
                                             Ainv=inv, margin=4)
            assert got == want, (identity, k)


def test_one_pass_rows_are_prefix_stable():
    A, inv = instance(8)
    B, _ = instance(9)
    short = verify_orders(A, B, 3, (0.17, 0.31), Ainv=inv, margin=4)
    long = verify_orders(A, B, 5, (0.17, 0.31), Ainv=inv, margin=4)
    assert len(short) == 3 * (1 + 2 * 3)
    assert long[:len(short)] == short


def test_one_pass_computes_each_factor_once(monkeypatch):
    # per instance and shift: difference powers of A, B, A^{-1} at orders
    # 0..kmax and of AB at 1..kmax; psi-shifted left factors for l <= k,
    # difference-quotient blocks for i <= j and leads for k <= kmax;
    # D^i(A) and D^k(A^{-1}) once per instance
    calls = {}

    def counted(name):
        orig = getattr(quotient, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(quotient, name, wrapper)

    for name in ("difference_power", "apply_automorphism",
                 "derivation_power"):
        counted(name)
    kmax, ts, count = 5, [0.17, 0.31], 2
    cfg = ExperimentConfig(experiment="quotient-verify", window_N=32, seed=1,
                           tolerances={"instances": count, "kmax": kmax,
                                       "t_values": ts, "margin": 4})
    assert len(run_quotient_verify(cfg)["rows"]) == count * kmax * 7
    assert calls["difference_power"] <= count * 23 * len(ts)
    assert calls["apply_automorphism"] <= count * 40 * len(ts)
    assert calls["derivation_power"] <= count * 2 * kmax


def test_verify_orders_rejects_bad_margin():
    # the error slices are views, so a bad margin must fail, not mis-slice
    A, inv = instance(5)
    for margin in (-1, 16):
        with pytest.raises(ValueError):
            verify_orders(A, A, 2, (0.1,), Ainv=inv, margin=margin)


def test_operands_off_the_window_raise_parameter_error():
    # B and A^{-1} are sliced by A's inner block, so an operand on another
    # window, of the same size or not, must fail rather than mis-slice
    A, inv = instance(5)
    shifted = random_decay_matrix(IndexWindow(0, 31), 2.0, 0.3, seed=[99, 5])
    narrow = random_decay_matrix(IndexWindow(-8, 7), 2.0, 0.3, seed=[99, 5])
    for other in (shifted, narrow):
        with pytest.raises(ParameterError):
            verify_orders(A, other, 2, (0.1,), Ainv=inv, margin=4)
        with pytest.raises(ParameterError):
            verify_orders(A, A, 2, (0.1,), Ainv=other, margin=4)
        with pytest.raises(ParameterError):
            verify_identity(A, "difference_product", 1, t=0.1, B=other)
        for identity in ("derivation_quotient", "difference_quotient"):
            with pytest.raises(ParameterError):
                verify_identity(A, identity, 1, t=0.1, Ainv=other)
