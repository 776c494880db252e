"""Reported errors checked against a second route to the same number.

Two routes that compute one value, each with its own error estimate, must
agree within the sum of the two estimates: |a - b| <= err_a + err_b.
Where both routes read one profile they agree to roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv import (IndexWindow, ToeplitzSymbol, Weight, banded_error,
                      besov_seminorm, cv_norm, jaffard_norm, make_toeplitz)
from decayinv.besov import (_cell_route, _separable_p1, _shell_edges,
                            decay_moment)
from decayinv.norms import dk_norm_logs


@seed(31)
@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(1, 40), st.floats(1e-3, 1e3),
                       min_size=1, max_size=6),
       st.integers(1, 3), st.floats(0.1, 2.5), st.floats(1e-4, 2.0),
       st.floats(0.05, 3.0))
def test_separable_p1_against_the_cell_route(profile, k, r, t_min, width):
    # p = 1 in the c0 ambient: one tabulated antiderivative per offset, or
    # the folded kink-cell rule on the same integrand
    ms = np.array(sorted(profile))
    w = np.array([profile[m] for m in ms])
    t_max = t_min + width
    a, err_a = _separable_p1(ms, w, r, k, t_min, t_max)
    b, err_b, _ = _cell_route(ms, w, k, "c0", _shell_edges(t_min, t_max),
                              r, 1)
    assert abs(a - b) <= err_a + err_b


def banded_symbol(draw):
    """A seeded symbol with complex coefficients on offsets |m| <= 3."""
    rng = np.random.default_rng([7, draw])
    offs = rng.choice(np.arange(-3, 4), size=rng.integers(1, 8),
                      replace=False)
    return ToeplitzSymbol({int(m): complex(*rng.normal(size=2))
                           for m in offs})


@pytest.mark.parametrize("margin", [0, 8])
@pytest.mark.parametrize("draw", range(8))
def test_a_symbol_and_its_section_agree(draw, margin):
    # the margin-shrunk window -32..31 holds every offset of the symbol, so
    # the lattice operator and its section have one decay profile
    sym = banded_symbol(draw)
    S = make_toeplitz(sym, IndexWindow(-32, 31))
    pairs = []
    for r in (0.0, 1.0, 2.5):
        pairs += [(cv_norm(sym, Weight.poly(r)),
                   cv_norm(S, Weight.poly(r), margin)),
                  (jaffard_norm(sym, r), jaffard_norm(S, r, margin)),
                  (decay_moment(sym, r), decay_moment(S, r, margin=margin))]
    pairs += [(banded_error(sym, k), banded_error(S, k, margin))
              for k in (0, 1, 2)]
    pairs += [(besov_seminorm(sym, p, 0.5, 1, t_min=0.01).value,
               besov_seminorm(S, p, 0.5, 1, margin=margin, t_min=0.01).value)
              for p in (1, 2, math.inf)]
    for ambient in ("c0", ("jaffard", 1.5)):
        pairs += [(math.exp(a), math.exp(b)) for a, b in zip(
            dk_norm_logs(sym, range(6), ambient),
            dk_norm_logs(S, range(6), ambient, margin))]
    for a, b in pairs:
        assert math.isclose(a, b, rel_tol=1e-13), (a, b)
