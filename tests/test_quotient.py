"""Product and quotient rule identities for the derivation and the
difference operators, checked on random decay instances."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv import (IndexWindow, ParameterError, geometric_inverse_toeplitz,
                      invert_truncated, make_toeplitz, random_decay_matrix,
                      verify_identity, verify_instances, ToeplitzSymbol)
from decayinv import lattice, quotient
from decayinv.experiments import ExperimentConfig, run_quotient_verify
from decayinv.quotient import (IDENTITIES, derivation_quotient_rhs,
                               difference_quotient_rhs)
from decayinv.lattice import (derivation_power, difference_power,
                              offset_table, phase_factor)

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
    D1 = derivation_power(A, 1).entries
    rhs = derivation_quotient_rhs(inv, [A.entries, D1])[1]
    manual = -inv.entries @ D1 @ inv.entries
    assert np.max(np.abs(rhs.entries - manual)) < 1e-14


def rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("idx", [0, 1, 2])
def test_recurrences_match_composition_sums(idx):
    # the first-part recurrences regroup the paper's composition sums
    # by the distributive law, so they agree to roundoff
    A, inv = instance(10 + idx, window=W64)
    dq = derivation_quotient_rhs(
        inv, [derivation_power(A, i).entries for i in range(9)])
    tq = {t: difference_quotient_rhs(
              inv, [difference_power(A, t, i).entries for i in range(9)],
              [offset_table(A.n, phase_factor(j * t)) for j in range(9)])
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
            got = next(verify_instances([(A, B, inv)], kmax, ts, margin))
            want = quotient_rows_per_order(A, B, inv, kmax, ts,
                                           margin=margin)
            assert got == want, margin


@pytest.mark.parametrize("n", [30, 31, 33])
def test_one_pass_rows_equal_per_order_rows_at_group_edges(n):
    # inner widths that are not a multiple of the column group, so the
    # row and column slices of the pass end in a partial group; an odd n
    # at its largest margin leaves a single inner row
    window = IndexWindow(-(n // 2), n - n // 2 - 1)
    ts = (0.17, 0.31)
    A, inv = instance(40, window=window)
    cases = [resolvent_instance(window=window),
             (A, instance(41, window=window)[0], inv)]
    for A, B, inv in cases:
        for margin in sorted({0, 1, n // 2 - 1, (n - 1) // 2}):
            got = next(verify_instances([(A, B, inv)], 5, ts, margin))
            want = quotient_rows_per_order(A, B, inv, 5, ts, margin=margin)
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
    short = next(verify_instances([(A, B, inv)], 3, (0.17, 0.31), 4))
    long = next(verify_instances([(A, B, inv)], 5, (0.17, 0.31), 4))
    assert len(short) == 3 * (1 + 2 * 3)
    assert long[:len(short)] == short


def test_one_pass_computes_each_factor_once(monkeypatch):
    # per run, whatever the instance count: the offset tables of m^k for
    # k = 1..kmax, shared by D^k(A) and D^k(A^{-1}), and per shift those
    # of psi_{jt} for j = 1..kmax (psi_0 is the identity and is not built)
    # and of Delta_t^l for l = 1..kmax, shared by A, B, A^{-1} and the
    # inner block of AB.  No factor goes through apply_automorphism,
    # difference_power or derivation_power.
    names = ("offset_table", "apply_automorphism", "difference_power",
             "derivation_power")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        orig = getattr(lattice, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(lattice, name, wrapper)
        monkeypatch.setattr(quotient, name, wrapper, raising=False)

    for name in names:
        counted(name)
    kmax, ts = 5, [0.17, 0.31]
    for count in (1, 3):
        calls.update(dict.fromkeys(names, 0))
        cfg = ExperimentConfig(experiment="quotient-verify", window_N=32,
                               seed=1,
                               tolerances={"instances": count, "kmax": kmax,
                                           "t_values": ts, "margin": 4})
        assert len(run_quotient_verify(cfg)["rows"]) == count * kmax * 7
        assert calls == {"offset_table": kmax + 2 * kmax * len(ts),
                         "apply_automorphism": 0, "difference_power": 0,
                         "derivation_power": 0}, count


@seed(23)
@settings(max_examples=12, deadline=None)
@given(n=st.integers(8, 40), count=st.integers(3, 4),
       kmax=st.integers(1, 4),
       ts=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=2),
       data=st.data())
def test_instance_stream_rows_equal_one_instance_rows(n, count, kmax, ts,
                                                      data):
    # the stream shares its offset tables across instances, so each
    # instance's rows must be those of a pass of its own, bit for bit;
    # an odd instance leaves its inverse to the pass
    margin = data.draw(st.integers(0, (n - 1) // 2))
    window = IndexWindow(-(n // 2), n - n // 2 - 1)
    cases = []
    for i in range(count):
        A = random_decay_matrix(window, 2.0, 0.3, seed=[7, n, i])
        B = random_decay_matrix(window, 2.0, 0.3, seed=[7, n, i, 1])
        cases.append((A, B, invert_truncated(A)))
    stream = ((A, B, None if i % 2 else inv)
              for i, (A, B, inv) in enumerate(cases))
    got = list(verify_instances(stream, kmax, ts, margin))
    assert len(got) == count
    for rows, (A, B, inv) in zip(got, cases):
        assert rows == next(verify_instances([(A, B, inv)], kmax, ts,
                                             margin))
        assert rows == quotient_rows_per_order(A, B, inv, kmax, ts, margin)


def test_instance_stream_of_mixed_window_sizes():
    # the tables fit one window size, so a stream that changes size gets
    # new ones; the shifts may come as a generator, read once
    cases = [instance(60), instance(61, window=W64), instance(62)]
    got = list(verify_instances(((A, A, inv) for A, inv in cases), 2,
                                (t for t in (0.17, 0.31)), margin=4))
    assert len(got) == 3
    for rows, (A, inv) in zip(got, cases):
        assert rows == next(verify_instances([(A, A, inv)], 2,
                                             (0.17, 0.31), 4))


def test_instances_are_read_one_at_a_time():
    read = []

    def stream():
        for i in range(3):
            read.append(i)
            A, inv = instance(50 + i)
            yield A, A, inv

    rows = verify_instances(stream(), 2, (0.2,), margin=4)
    assert read == []
    for i in range(3):
        assert len(next(rows)) == 2 * (1 + 3)
        assert read == list(range(i + 1))


def test_verify_orders_rejects_bad_margin():
    # the error slices are views, so a bad margin must fail, not mis-slice
    A, inv = instance(5)
    for margin in (-1, 16):
        with pytest.raises(ValueError):
            next(verify_instances([(A, A, inv)], 2, (0.1,), margin))


def test_operands_off_the_window_raise_parameter_error():
    # B and A^{-1} are sliced by A's inner block, so an operand on another
    # window, of the same size or not, must fail rather than mis-slice
    A, inv = instance(5)
    shifted = random_decay_matrix(IndexWindow(0, 31), 2.0, 0.3, seed=[99, 5])
    narrow = random_decay_matrix(IndexWindow(-8, 7), 2.0, 0.3, seed=[99, 5])
    for other in (shifted, narrow):
        with pytest.raises(ParameterError):
            next(verify_instances([(A, other, inv)], 2, (0.1,), 4))
        with pytest.raises(ParameterError):
            next(verify_instances([(A, A, other)], 2, (0.1,), 4))
        with pytest.raises(ParameterError):
            verify_identity(A, "difference_product", 1, t=0.1, B=other)
        for identity in ("derivation_quotient", "difference_quotient"):
            with pytest.raises(ParameterError):
                verify_identity(A, identity, 1, t=0.1, Ainv=other)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_non_finite_shift_raises_parameter_error(t):
    # a NaN shift fills both sides of every difference identity with NaN;
    # it must fail, not read as an error of 0
    A, inv = instance(5)
    B, _ = instance(6)
    with pytest.raises(ParameterError):
        next(verify_instances([(A, B, inv)], 1, [t]))
    with pytest.raises(ParameterError):
        next(verify_instances([(A, B, inv)], 1, [0.1, t]))
    for identity in IDENTITIES[1:]:
        with pytest.raises(ParameterError):
            verify_identity(A, identity, 1, t=t, B=B, Ainv=inv)


def test_error_row_is_nan_when_a_side_is_nan():
    # only a zero scale (both sides zero) gives a relative error of 0
    nan_side = np.array([[math.nan, 1.0]])
    for lhs, rhs in ((nan_side, np.ones((1, 2))), (np.ones((1, 2)), nan_side)):
        row = quotient._row(("difference_quotient", 1, 0.1, lhs, rhs), 1.0)
        assert math.isnan(row["max_rel_err"])
    zero = np.zeros((1, 2))
    row = quotient._row(("difference_quotient", 1, 0.1, zero, zero), 1.0)
    assert row["max_rel_err"] == 0.0
    row = quotient._row(("telescoping", 1, 0.1, nan_side, None), 1.0)
    assert math.isnan(row["max_rel_err"])
