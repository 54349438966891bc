"""Property tests: frame invariance, the rotation oracle, homogeneity,
orientation reversal.

Tensors and frames are drawn from integer seeds so that hypothesis can
shrink a failure to one seed and one scale.  Tolerances are relative to
the operator norm |M| for quantities linear in R, and to |M|^2 for the
quadratic signature integrand.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fourcurv as fc
import proof_routes as routes

seeds = st.integers(0, 2 ** 32 - 1)


def _norm(R):
    return float(np.linalg.norm(fc.operator_from_tensor(R).matrix))


def _invariants(R):
    dec = fc.decompose(R)
    scan = fc.scan_extremes(R)
    return np.concatenate([
        [dec.s], dec.wp_eigs, dec.wm_eigs,
        [scan.k_min, scan.k_max, scan.k1perp, scan.k3perp,
         scan.k_min_lower, scan.k_max_upper],
        np.linalg.eigvalsh(fc.weitzenbock_operator(R).matrix),
    ])


@settings(max_examples=60, deadline=None)
@given(seed=seeds, exponent=st.floats(-3.0, 9.0))
def test_invariant_under_rotation(seed, exponent):
    rng = np.random.default_rng(seed)
    R = fc.random_algebraic_tensor(rng, scale=10.0 ** exponent)
    rotated = fc.rotate_tensor(R, routes.random_frame(rng).columns)
    diff = np.abs(_invariants(rotated) - _invariants(R)).max()
    assert diff <= 1e-12 * _norm(R)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, exponent=st.floats(-3.0, 3.0))
def test_rotate_tensor_matches_einsum(seed, exponent):
    # the definition R'[a,b,c,d] = R(f_a, f_b, f_c, f_d), term by term;
    # the frame is a plain Gaussian matrix, not orthonormal
    rng = np.random.default_rng(seed)
    R = fc.random_algebraic_tensor(rng, scale=10.0 ** exponent)
    f = rng.normal(size=(4, 4))
    want = np.einsum("ia,jb,kc,ld,ijkl->abcd", f, f, f, f, R.components)
    got = fc.rotate_tensor(R, f).components
    # bound on the sum of |terms| for any one entry
    size = np.abs(R.components).max() * np.abs(f).sum(axis=0).max() ** 4
    assert np.abs(got - want).max() <= 1e-13 * size


@settings(max_examples=200, deadline=None)
@given(seed=seeds, exponent=st.floats(-300.0, 300.0))
def test_scan_is_homogeneous(seed, exponent):
    # any finite scale: |M| itself would overflow or underflow far from 1
    lam = 10.0 ** exponent
    R = fc.random_algebraic_tensor(seed)
    a = fc.scan_extremes(R)
    b = fc.scan_extremes(fc.RiemannTensor(lam * R.components))
    tol = 1e-12 * _norm(R)
    for field in ("k_min", "k_max", "k1perp", "k_min_lower", "k_max_upper"):
        assert abs(getattr(b, field) - lam * getattr(a, field)) <= lam * tol
    if a.k_max > 1e-3 * _norm(R):
        # delta = k_min / k_max, each off by at most tol
        assert abs(b.delta - a.delta) <= 2.0 * tol * (1.0 + abs(a.delta)) / a.k_max


@settings(max_examples=60, deadline=None)
@given(seed=seeds, exponent=st.floats(-3.0, 3.0))
def test_orientation_reversal(seed, exponent):
    # a frame with det -1 swaps self-dual and anti-self-dual forms
    rng = np.random.default_rng(seed)
    R = fc.random_algebraic_tensor(rng, scale=10.0 ** exponent)
    frame = routes.random_frame(rng).columns.copy()
    frame[:, 0] *= -1.0
    reflected = fc.rotate_tensor(R, frame)
    a, b = fc.decompose(R), fc.decompose(reflected)
    tol = 1e-12 * _norm(R)
    assert abs(b.s - a.s) <= tol
    assert np.abs(b.wp_eigs - a.wm_eigs).max() <= tol
    assert np.abs(b.wm_eigs - a.wp_eigs).max() <= tol
    # 12 pi^2 tau-integrand = |W+|^2 - |W-|^2 is quadratic in R
    sig = 12.0 * np.pi ** 2 * np.array([fc.signature_integrand(a),
                                        fc.signature_integrand(b)])
    assert abs(sig[0] + sig[1]) <= 1e-12 * _norm(R) ** 2
    sa, sb = fc.scan_extremes(R), fc.scan_extremes(reflected)
    for field in ("k_min", "k_max", "k1perp", "k3perp"):
        assert abs(getattr(sb, field) - getattr(sa, field)) <= tol
