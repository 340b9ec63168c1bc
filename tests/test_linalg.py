import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from parahom.linalg import CONFLUENT_RTOL, confluent_weights_batch

PROPS = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)
lams = st.floats(0.0, 40.0)
times = st.floats(0.1, 5.0)


def pair_weights(l1, l2, s):
    return confluent_weights_batch(np.array([l1, l2]), s)


@PROPS
@given(lams, st.floats(-1.0, 1.0), st.sampled_from([1e-12, 1e-9, 1e-3, 1.0]),
       times)
def test_weights_symmetric_and_positive(lam, sign, gap_scale, s):
    w = pair_weights(lam, lam + sign * gap_scale, s)
    assert np.array_equal(w, w.T)
    assert (w > 0).all()


@PROPS
@given(lams, times)
def test_weights_equal_eigenvalues_confluent_limit(lam, s):
    w = pair_weights(lam, lam, s)
    assert np.allclose(w, s * np.exp(-lam * s), rtol=1e-14, atol=0.0)


@PROPS
@given(lams, times, st.floats(0.5, 0.99), st.floats(1.01, 2.0))
def test_weights_continuous_across_confluent_switch(lam, s, below, above):
    # gaps just inside and just outside the confluent window take different
    # branches; both must agree with s e^{-lam s} (the gap term is O(gap^2))
    # up to the cancellation in the divided difference, eps/(gap s)
    window = CONFLUENT_RTOL * max(lam, 1.0)
    for frac in (below, above):
        w = pair_weights(lam, lam + frac * window, s)[0, 1]
        mid = s * np.exp(-(lam + 0.5 * frac * window) * s)
        assert abs(w - mid) <= 1e-4 * mid


@PROPS
@given(lams, st.floats(1e-3, 10.0), times)
def test_weights_match_quadrature(lam, gap, s):
    l1, l2 = lam, lam + gap
    val, _ = quad(lambda t: np.exp(-l1 * (s - t) - l2 * t), 0.0, s,
                  epsabs=0.0, epsrel=1e-13)
    w = pair_weights(l1, l2, s)[0, 1]
    assert abs(w - val) <= 1e-9 * val
