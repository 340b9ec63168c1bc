import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from parahom.linalg import (CONFLUENT_RTOL, HermitianFlow,
                            confluent_weights_batch, herm, herm_norm, opnorm,
                            spectrum_above)

import oracles

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


def test_herm_norm_batched_equals_svd_norm():
    rng = np.random.default_rng(3)
    a = herm(rng.standard_normal((5, 30, 30))
             + 1j * rng.standard_normal((5, 30, 30)))
    got = herm_norm(a)
    assert got.shape == (5,)
    assert np.allclose(got, [opnorm(m) for m in a], rtol=1e-13, atol=0.0)


def _rand_herm(rng, *shape):
    return herm(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _rel(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def test_outer_flow_matches_sandwiched_flow_batched():
    # M e^{-Hs} M, M int e^{-H(s-t)} (M N M) e^{-Ht} dt M and M e^{-Hs} M x
    # from the outer factor equal the sandwich of a flow without it
    rng = np.random.default_rng(11)
    m = _rand_herm(rng, 3, 4, 4) + 4.0 * np.eye(4)
    h = m @ (_rand_herm(rng, 3, 4, 4) + 5.0 * np.eye(4)) @ m
    n_mat = _rand_herm(rng, 3, 4, 4)
    x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    outer, plain = HermitianFlow(h, outer=m), HermitianFlow(h)
    s = 0.07
    assert np.array_equal(outer.w, plain.w)
    expm = m @ plain.expm(s) @ m
    assert _rel(outer.expm(s), expm) <= 1e-13
    assert _rel(outer.integral(n_mat, s),
                m @ plain.integral(m @ n_mat @ m, s) @ m) <= 1e-13
    assert _rel(outer.apply(s, x), (expm @ x[..., None])[..., 0]) <= 1e-13


def test_outer_flow_integral_degenerate_pair_matches_quadrature():
    # a double eigenvalue takes the confluent limit; the closed form must
    # still match adaptive quadrature of the sandwiched integral
    rng = np.random.default_rng(12)
    q = np.linalg.qr(rng.standard_normal((3, 3))
                     + 1j * rng.standard_normal((3, 3)))[0]
    h = (q * [1.5, 1.5, 4.0]) @ q.conj().T
    m = _rand_herm(rng, 3, 3) + 3.0 * np.eye(3)
    n_mat = _rand_herm(rng, 3, 3)
    flow = HermitianFlow(h, outer=m)
    w = np.sort(flow.w)
    assert abs(w[1] - w[0]) <= CONFLUENT_RTOL * w[1]
    s = 0.8
    ref = m @ oracles.semigroup_integral_quad(h, m @ n_mat @ m, s) @ m
    assert _rel(flow.integral(n_mat, s), ref) <= 1e-11
    assert _rel(flow.expm(s),
                m @ HermitianFlow(h).expm(s) @ m) <= 1e-13


def test_spectrum_above_resolves_a_spread_spectrum():
    # eigenvalues 1 ... 1e-14: the margin scales with the trace (about
    # 2e-15 here), not with D times the norm (about 1e-14), so a floor of
    # 5e-15 is proven; a floor above the smallest eigenvalue never is
    rng = np.random.default_rng(2)
    q = np.linalg.qr(rng.standard_normal((6, 6))
                     + 1j * rng.standard_normal((6, 6)))[0]
    mat = herm((q * np.geomspace(1.0, 1e-14, 6)) @ q.conj().T)
    assert spectrum_above(mat, 5e-15)
    assert not spectrum_above(mat, 1.1e-14)


def test_batched_spectrum_above_matches_single_matrices():
    # one call on a stack decides each matrix as its own call does: planted
    # spectra just above and just below mu, random Hermitian matrices at
    # random floors, and a NaN matrix, which is never certified
    rng = np.random.default_rng(4)
    dim, mu = 12, 1.5

    def unitary():
        return np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))[0]

    mats = [herm((q * (lam + np.arange(dim))) @ q.conj().T) for q, lam in (
        (unitary(), mu * (1.0 + 1e-6)), (unitary(), mu * (1.0 - 1e-6)))]
    for _ in range(6):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        mats.append(herm(a @ a.conj().T / dim))
    bad = mats[0].copy()
    bad[2, 5] = bad[5, 2] = np.nan
    stack = np.stack(mats + [bad])
    got = spectrum_above(stack, mu)
    assert got.dtype == bool and got.shape == (len(stack),)
    assert got.tolist() == [spectrum_above(m, mu) for m in stack]
    assert got[0] and not got[1] and not got[-1]
    assert type(spectrum_above(stack[0], mu)) is bool
    # mu per matrix, placed around each matrix's smallest eigenvalue
    lam_min = np.linalg.eigvalsh(np.nan_to_num(stack))[:, 0]
    mus = lam_min * rng.choice([0.9, 1.1], len(stack))
    got = spectrum_above(stack, mus)
    assert got.tolist() == [spectrum_above(m, x) for m, x in zip(stack, mus)]
    assert got[:-1].tolist() == (mus < lam_min)[:-1].tolist()
    # leading axes keep their shape; an infinite mu certifies nothing
    grid = stack.reshape(3, 3, dim, dim)
    assert np.array_equal(spectrum_above(grid, mus.reshape(3, 3)),
                          got.reshape(3, 3))
    assert not spectrum_above(stack, np.inf).any()
