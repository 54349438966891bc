import json

import numpy as np
import pytest

import fourcurv as fc
import proof_routes as routes


def test_s4_operator_is_identity(models):
    m = fc.operator_from_tensor(models["S4"].tensor).matrix
    assert np.allclose(m, np.eye(6), atol=0)


def test_model_symmetries_exact(models):
    for ms in models.values():
        report = fc.validate_symmetries(ms.tensor)
        assert report.valid
        assert report.max_residual == 0.0


def test_scalar_curvature_is_twice_operator_trace(models):
    for ms in models.values():
        dec = fc.decompose(ms.tensor)
        m = fc.operator_from_tensor(ms.tensor).matrix
        assert abs(dec.s - 2.0 * np.trace(m)) < 1e-12


def test_ricci_s4(models):
    assert np.allclose(fc.ricci(models["S4"].tensor), 3.0 * np.eye(4), atol=0)


def test_decomposition_s4(model_decs):
    dec = model_decs["S4"]
    assert abs(dec.s - 12.0) < 1e-12
    assert abs(dec.u - 1.0) < 1e-12
    assert np.allclose(dec.wplus, 0, atol=1e-13)
    assert np.allclose(dec.wminus, 0, atol=1e-13)
    assert np.allclose(dec.z_block, 0, atol=1e-13)
    assert np.allclose(dec.ric0, 0, atol=1e-13)


def test_decomposition_s2s2(model_decs):
    dec = model_decs["S2xS2"]
    assert abs(dec.s - 4.0) < 1e-12
    assert np.allclose(dec.wp_eigs, [-1 / 3, -1 / 3, 2 / 3], atol=1e-12)
    assert np.allclose(dec.wm_eigs, [-1 / 3, -1 / 3, 2 / 3], atol=1e-12)
    assert np.allclose(dec.z_block, 0, atol=1e-13)  # Einstein


def test_decomposition_cp2(model_decs):
    dec = model_decs["CP2"]  # holomorphic sectional curvature 4
    assert abs(dec.s - 24.0) < 1e-12
    assert np.allclose(dec.wp_eigs, [-2.0, -2.0, 4.0], atol=1e-12)
    assert np.allclose(dec.wminus, 0, atol=1e-13)
    assert np.allclose(dec.z_block, 0, atol=1e-13)


def test_weyl_eigenvectors_diagonalize_the_blocks(rng):
    for _ in range(50):
        dec = fc.decompose(fc.random_algebraic_tensor(rng))
        for block, eigs, vecs in ((dec.wplus, dec.wp_eigs, dec.wp_vecs),
                                  (dec.wminus, dec.wm_eigs, dec.wm_vecs)):
            assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-13)
            assert np.allclose(vecs.T @ block @ vecs, np.diag(eigs), atol=1e-13)


def test_operator_tensor_roundtrip(rng):
    for _ in range(1000):
        R = fc.random_algebraic_tensor(rng)
        back = routes.tensor_from_operator(fc.operator_from_tensor(R))
        assert np.allclose(back.components, R.components, atol=1e-12)


def test_reassembly_matches_operator(rng):
    for _ in range(200):
        R = fc.random_algebraic_tensor(rng)
        m = fc.operator_from_tensor(R).matrix
        back = fc.assemble_operator(fc.decompose(R)).matrix
        assert np.allclose(back, m, atol=1e-12)


def test_invalid_symmetry_detected():
    comps = fc.model("S4").tensor.components.copy()
    comps[0, 1, 2, 3] += 0.5  # breaks first antisymmetry pattern
    bad = fc.RiemannTensor(comps)
    assert not fc.validate_symmetries(bad).valid
    with pytest.raises(fc.InvalidSymmetry):
        fc.decompose(bad)


def test_bianchi_violation_detected():
    # pair-symmetric, antisymmetric, but a pure star component:
    # M = STAR_MATRIX fails only the first Bianchi identity
    m = np.array(fc.STAR_MATRIX)
    from fourcurv.tensor import _tensor_from_matrix
    bad = fc.RiemannTensor(_tensor_from_matrix(m))
    report = fc.validate_symmetries(bad)
    assert report.antisym_first < 1e-15
    assert report.pair_symmetry < 1e-15
    assert report.bianchi > 0.1


def test_symmetry_tolerance_scales_with_the_tensor(rng):
    # a rotated tensor of size 1e9 carries rounding residuals near 1e-6,
    # which is 1e-15 relative: valid
    R = fc.random_algebraic_tensor(0, scale=1e9)
    rotated = fc.rotate_tensor(R, routes.random_frame(rng).columns)
    report = fc.validate_symmetries(rotated)
    assert report.tol == fc.tensor.SYMMETRY_TOL * np.abs(rotated.components).max()
    assert report.valid
    fc.decompose(rotated)


def test_small_bianchi_violation_on_a_small_tensor_rejected():
    # a 5e-10 Bianchi residual on a tensor of size 1.4e-6 is 3.7e-4 relative
    from fourcurv.tensor import _tensor_from_matrix
    R = fc.random_algebraic_tensor(0, scale=1e-6)
    star = _tensor_from_matrix(np.array(fc.STAR_MATRIX))  # Bianchi sum 3
    bad = fc.RiemannTensor(R.components + (5e-10 / 3.0) * star)
    report = fc.validate_symmetries(bad)
    assert report.bianchi == pytest.approx(5e-10, rel=1e-6)
    assert not report.valid
    with pytest.raises(fc.InvalidSymmetry):
        fc.decompose(bad)


def test_symmetry_residuals_match_the_transpose_formulas(rng):
    # bit for bit, on valid, rotated and perturbed tensors
    for i in range(300):
        c = fc.random_algebraic_tensor(rng, scale=10.0 ** rng.uniform(-3, 3)).components
        if i % 3 == 1:
            c = fc.rotate_tensor(fc.RiemannTensor(c), routes.random_frame(rng).columns).components
        if i % 2:
            c = c + rng.normal(size=c.shape) * 10.0 ** rng.uniform(-14, -1) * np.abs(c).max()
        report = fc.validate_symmetries(fc.RiemannTensor(c))
        assert report.antisym_first == np.abs(c + c.transpose(1, 0, 2, 3)).max()
        assert report.antisym_second == np.abs(c + c.transpose(0, 1, 3, 2)).max()
        assert report.pair_symmetry == np.abs(c - c.transpose(2, 3, 0, 1)).max()
        assert report.bianchi == np.abs(
            c + c.transpose(0, 2, 3, 1) + c.transpose(0, 3, 1, 2)).max()
        assert report.tol == fc.tensor.SYMMETRY_TOL * np.abs(c).max()


def test_random_tensor_is_algebraic(rng):
    for _ in range(100):
        R = fc.random_algebraic_tensor(rng)
        report = fc.validate_symmetries(R)
        assert report.valid
        assert report.max_residual < 1e-13


def test_random_tensor_determinism_and_scale():
    a = fc.random_algebraic_tensor(123)
    b = fc.random_algebraic_tensor(123)
    assert np.array_equal(a.components, b.components)
    z = fc.random_algebraic_tensor(123, scale=0.0)
    assert np.array_equal(z.components, np.zeros((4, 4, 4, 4)))
    half = fc.random_algebraic_tensor(123, scale=0.5)
    assert np.allclose(half.components, 0.5 * a.components, atol=1e-15)


def test_znorm_normalization_chain(rng):
    # ||Z||^2 = 2 ||z_block||_F^2 = |ric0|^2 / 2
    for _ in range(200):
        dec = fc.decompose(fc.random_algebraic_tensor(rng))
        z2 = float((dec.z_block ** 2).sum())
        ric02 = float((dec.ric0 ** 2).sum())
        assert abs(4.0 * z2 - ric02) < 1e-10 * max(1.0, ric02)


def test_rotation_invariance_of_spectra(rng):
    R = fc.random_algebraic_tensor(rng)
    dec = fc.decompose(R)
    for _ in range(20):
        frame = routes.random_frame(rng)
        rotated = fc.rotate_tensor(R, frame.columns)
        dec2 = fc.decompose(rotated)
        assert abs(dec2.s - dec.s) < 1e-10
        assert np.allclose(dec2.wp_eigs, dec.wp_eigs, atol=1e-10)
        assert np.allclose(dec2.wm_eigs, dec.wm_eigs, atol=1e-10)
        assert abs(np.linalg.norm(dec2.z_block)
                   - np.linalg.norm(dec.z_block)) < 1e-10


def test_rotation_by_identity_is_noop(rng):
    R = fc.random_algebraic_tensor(rng)
    same = fc.rotate_tensor(R, np.eye(4))
    assert np.allclose(same.components, R.components, atol=0)


def test_json_roundtrip(tmp_path, rng):
    R = fc.random_algebraic_tensor(rng)
    path = tmp_path / "tensor.json"
    fc.save_tensor(R, path)
    back = fc.load_tensor(path)
    assert np.array_equal(back.components, R.components)


def test_json_extra_keys_ignored(tmp_path):
    R = fc.model("S2xS2").tensor
    data = fc.tensor_to_dict(R)
    data["note"] = "extra metadata survives ingestion"
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(data))
    back = fc.load_tensor(path)
    assert np.array_equal(back.components, R.components)


def test_json_missing_key_raises():
    with pytest.raises(ValueError):
        fc.tensor_from_dict({"wrong": []})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_components_rejected(bad):
    # R_1111 is never read by the operator, and inf used to widen the
    # symmetry tolerance to inf, so this tensor scanned as the unit sphere
    c = fc.model("S4").tensor.components.copy()
    c[0, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        fc.RiemannTensor(c)


@pytest.mark.filterwarnings("error")
def test_decompose_out_of_float_range_raises():
    # every component is finite, but s sums 12 of them and overflows, which
    # left nan blocks for eigh; the error must come with no RuntimeWarning
    with pytest.raises(fc.CurvatureError, match="float range"):
        fc.decompose(fc.model("S4", r=2.1e-154).tensor)


def test_decompose_near_the_float_range():
    # max|R| = 1.1e307 is past the bound below which nothing can overflow,
    # but no block does
    dec = fc.decompose(fc.model("S4", r=3e-154).tensor)
    assert dec.s == pytest.approx(12.0 / 3e-154 ** 2, rel=1e-12)
    assert np.abs(dec.wplus).max() <= 1e-15 * dec.s


def test_max_abs_is_max_of_the_components(rng):
    # bit for bit, on random tensors at 1e+-200, rotated models and pinched
    # samples
    tensors = [fc.random_algebraic_tensor(rng, scale=scale)
               for scale in (1e-200, 1e-3, 1.0, 1e3, 1e200)]
    tensors += [fc.rotate_tensor(fc.model(name).tensor, routes.random_frame(rng).columns)
                for name in fc.model_names()]
    tensors += [fc.pinched_sample(seed, weyl_only=seed % 2 == 1) for seed in range(4)]
    for R in tensors:
        assert fc.decompose(R).max_abs == np.abs(R.components).max()
