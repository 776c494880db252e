"""Reported errors checked against a second route to the same number.

Two routes that compute one value, each with its own error estimate, must
agree within the sum of the two estimates: |a - b| <= err_a + err_b.
"""

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from decayinv.besov import _cell_route, _separable_p1, _shell_edges


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
