import numpy as np
import pytest

import fourcurv as fc
import proof_routes as routes


def test_model_extremes(model_scans):
    s4 = model_scans["S4"]
    assert abs(s4.k_min - 1.0) < 1e-9 and abs(s4.k_max - 1.0) < 1e-9
    cp2 = model_scans["CP2"]  # holomorphic sectional curvature 4
    assert abs(cp2.k_min - 1.0) < 1e-6 and abs(cp2.k_max - 4.0) < 1e-6
    prod = model_scans["S2xS2"]
    assert abs(prod.k_min) < 1e-9 and abs(prod.k_max - 1.0) < 1e-6
    flat = model_scans["FlatT4"]
    assert flat.k_min == flat.k_max == 0.0
    assert flat.delta is None


def test_model_biorthogonal_extremes(model_scans, model_decs):
    for name, scan in model_scans.items():
        dec = model_decs[name]
        assert abs(scan.k1perp - fc.k1perp_closed_form(dec)) < 1e-6
        assert abs(scan.k3perp - fc.k3perp_closed_form(dec)) < 1e-6
    assert abs(model_scans["S2xS2"].k1perp) < 1e-9
    assert abs(model_scans["CP2"].k1perp - 1.0) < 1e-6


def test_closed_forms_vs_scan_random(rng):
    for _ in range(20):
        R = fc.random_algebraic_tensor(rng)
        dec = fc.decompose(R)
        scan = fc.scan_extremes(R)
        assert abs(scan.k1perp - fc.k1perp_closed_form(dec)) < 1e-6
        assert abs(scan.k3perp - fc.k3perp_closed_form(dec)) < 1e-6


def test_report_orderings(rng, model_scans):
    reports = list(model_scans.values())
    for _ in range(10):
        reports.append(fc.scan_extremes(fc.random_algebraic_tensor(rng)))
    for r in reports:
        assert r.k_min <= r.k1perp + 1e-12
        assert r.k1perp <= r.k3perp + 1e-12
        assert r.k3perp <= r.k_max + 1e-12


def test_attaining_planes_reproduce_values(rng):
    R = fc.random_algebraic_tensor(rng)
    scan = fc.scan_extremes(R)
    assert abs(fc.sectional(R, scan.argmin_plane) - scan.k_min) < 1e-12
    assert abs(fc.sectional(R, scan.argmax_plane) - scan.k_max) < 1e-12
    assert abs(routes.biorthogonal(R, scan.k1perp_plane) - scan.k1perp) < 1e-12
    assert abs(routes.biorthogonal(R, scan.k3perp_plane) - scan.k3perp) < 1e-12


def test_biorthogonal_symmetric_under_complement(rng):
    R = fc.random_algebraic_tensor(rng)
    for _ in range(50):
        h, k = rng.normal(size=(2, 3))
        p = fc.plane_from_sd_asd(routes.sd_form(h / np.linalg.norm(h)),
                                 routes.asd_form(k / np.linalg.norm(k)))
        assert abs(routes.biorthogonal(R, p)
                   - routes.biorthogonal(R, routes.complement(p))) < 1e-12


def test_biorthogonal_between_closed_form_bounds(rng):
    # 10^2 tensors x 10^4 planes, vectorized, cross-checked against the
    # plane-by-plane API on one sample per tensor
    for _ in range(100):
        R = fc.random_algebraic_tensor(rng)
        dec = fc.decompose(R)
        lo, hi = fc.k1perp_closed_form(dec), fc.k3perp_closed_form(dec)
        hs = rng.normal(size=(10_000, 3))
        hs /= np.linalg.norm(hs, axis=1, keepdims=True)
        ks = rng.normal(size=(10_000, 3))
        ks /= np.linalg.norm(ks, axis=1, keepdims=True)
        vals = routes.batch_biorthogonal(R, hs, ks)
        assert vals.min() >= lo - 1e-9
        assert vals.max() <= hi + 1e-9
        p = fc.plane_from_sd_asd(routes.sd_form(hs[0]), routes.asd_form(ks[0]))
        assert abs(routes.biorthogonal(R, p) - vals[0]) < 1e-12
        assert abs(fc.sectional(R, p) - fc.batch_sectional(R, hs, ks)[0]) < 1e-12


def test_sectional_within_scan_range(rng):
    for _ in range(10):
        R = fc.random_algebraic_tensor(rng)
        scan = fc.scan_extremes(R)
        for f in fc.random_frames(rng, 20):
            p = routes.plane_from_vectors(f[:, 0], f[:, 1])
            val = fc.sectional(R, p)
            assert scan.k_min - 1e-9 <= val <= scan.k_max + 1e-9


def test_sectional_and_biorthogonal_examples(models):
    prod = models["S2xS2"].tensor
    intra = routes.plane_from_vectors([1, 0, 0, 0], [0, 1, 0, 0])
    mixed = routes.plane_from_vectors([1, 0, 0, 0], [0, 0, 1, 0])
    assert fc.sectional(prod, intra) == pytest.approx(1.0, abs=1e-12)
    assert fc.sectional(prod, mixed) == pytest.approx(0.0, abs=1e-12)
    assert routes.biorthogonal(prod, intra) == pytest.approx(1.0, abs=1e-12)
    assert routes.biorthogonal(prod, mixed) == pytest.approx(0.0, abs=1e-12)
    s4 = models["S4"].tensor
    assert fc.sectional(s4, mixed) == pytest.approx(1.0, abs=1e-12)
    flat = models["FlatT4"].tensor
    assert fc.sectional(flat, intra) == 0.0


def test_einstein_k1perp_equals_kmin(model_scans):
    # on Einstein half-conformally-flat models the lowest biorthogonal
    # curvature is attained by the lowest sectional curvature
    for name in ("S4", "S2xS2", "CP2"):
        scan = model_scans[name]
        assert abs(scan.k1perp - scan.k_min) < 1e-6


def test_scan_linearity(rng):
    R = fc.random_algebraic_tensor(rng)
    scaled = fc.RiemannTensor(3.5 * R.components)
    a = fc.scan_extremes(R)
    b = fc.scan_extremes(scaled)
    for field in ("k_min", "k_max", "k1perp", "k3perp"):
        assert abs(getattr(b, field) - 3.5 * getattr(a, field)) < 1e-8


def test_rotation_invariance_of_scan(rng):
    R = fc.random_algebraic_tensor(rng)
    a = fc.scan_extremes(R)
    rotated = fc.rotate_tensor(R, routes.random_frame(rng).columns)
    b = fc.scan_extremes(rotated)
    norm = np.linalg.norm(fc.operator_from_tensor(R).matrix)
    for field in ("k_min", "k_max", "k1perp", "k3perp",
                  "k_min_lower", "k_max_upper"):
        assert abs(getattr(b, field) - getattr(a, field)) < 1e-12 * norm


def _unit_rows(rng, n):
    x = rng.normal(size=(n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _rotated_models(rng, n):
    """Each model and n random rotations of it; rotations keep the kinks of g."""
    out = []
    for name in fc.model_names():
        R = fc.model(name).tensor
        out.append(R)
        out += [fc.rotate_tensor(R, routes.random_frame(rng).columns) for _ in range(n)]
    return out


def test_dual_certificate(pinched_batch):
    # the dual bounds bracket the attained extremes to 1e-14 |M|, and 10^4
    # random planes per tensor, an independent primal oracle, lie inside
    rng = np.random.default_rng(3)
    tensors = _rotated_models(rng, 5)
    tensors += [R for R, _, _ in pinched_batch[:20]]
    tensors += [fc.random_algebraic_tensor(rng, scale=scale)
                for scale in 10.0 ** rng.uniform(-3.0, 3.0, size=200)]
    for R in tensors:
        scan = fc.scan_extremes(R)
        tol = 1e-14 * np.linalg.norm(fc.operator_from_tensor(R).matrix)
        assert scan.k_min_lower <= scan.k_min <= scan.k_min_lower + tol
        assert scan.k_max_upper - tol <= scan.k_max <= scan.k_max_upper
        vals = fc.batch_sectional(R, _unit_rows(rng, 10_000),
                                  _unit_rows(rng, 10_000))
        assert scan.k_min_lower <= vals.min()
        assert vals.max() <= scan.k_max_upper
    # exact where the dual optimum sits on a kink at t = 0 with a 6-fold
    # eigenvalue (S4), and on the zero operator (flat)
    cases = [(fc.model("S4", r=r).tensor, 1.0 / r ** 2) for r in (0.5, 1.0, 3.0)]
    cases.append((fc.model("FlatT4").tensor, 0.0))
    for R, k in cases:
        scan = fc.scan_extremes(R)
        tol = 1e-15 * max(1.0, np.linalg.norm(fc.operator_from_tensor(R).matrix))
        for field in ("k_min", "k_max", "k1perp", "k3perp"):
            assert abs(getattr(scan, field) - k) <= tol
        assert scan.k_min_lower <= k <= scan.k_max_upper
        assert abs(fc.sectional(R, scan.argmin_plane) - k) <= tol
        assert abs(fc.sectional(R, scan.argmax_plane) - k) <= tol


def test_scan_independent_of_eigenvector_signs(rng, monkeypatch):
    # the balanced mix of the bracket-end eigenvectors must not depend on
    # the arbitrary signs the eigensolver gives them
    tensors = [fc.random_algebraic_tensor(rng) for _ in range(20)]
    tensors.append(fc.model("S4").tensor)
    reference = [fc.scan_extremes(R) for R in tensors]
    real = np.linalg.eigh
    signs = np.random.default_rng(1)

    def flipped(m):
        # one sign per eigenvector, for each matrix of a stacked call
        w, v = real(m)
        return w, v * signs.choice([-1.0, 1.0], size=w.shape)[..., None, :]

    monkeypatch.setattr(np.linalg, "eigh", flipped)
    for R, ref in zip(tensors, reference):
        scan = fc.scan_extremes(R)
        tol = 1e-12 * np.linalg.norm(fc.operator_from_tensor(R).matrix)
        for field in ("k_min", "k_max", "k_min_lower", "k_max_upper"):
            assert abs(getattr(scan, field) - getattr(ref, field)) <= tol


def test_scan_eigensolve_count(rng, pinched_batch, monkeypatch):
    # a scan makes about 9 eigh calls on these inputs, at most 17, over about
    # 11 matrices, at most 19: one stacked call gives the bracket ends of both
    # duals and one the two 3x3 blocks; plain bisection to 1e-15 |M| would
    # take 110 calls
    tensors = [fc.random_algebraic_tensor(rng) for _ in range(200)]
    tensors += _rotated_models(rng, 5)
    tensors += [R for R, _, _ in pinched_batch[:20]]
    real = np.linalg.eigh
    seen = [0, 0]

    def counted(m):
        seen[0] += 1
        seen[1] += int(np.prod(np.shape(m)[:-2]))
        return real(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    calls, matrices = [], []
    for R in tensors:
        seen[:] = [0, 0]
        fc.scan_extremes(R)
        calls.append(seen[0])
        matrices.append(seen[1])
    assert np.mean(calls) <= 9.5
    assert max(calls) <= 18
    assert np.mean(matrices) <= 11.5
    assert max(matrices) <= 20


def test_scan_of_negated_tensor_swaps_the_extremes(rng, pinched_batch):
    # K(-R) = -K(R) on every plane, so the min dual of -R is the max dual of
    # R run on its own eigensolves: an oracle for the shared bracket ends
    tensors = [fc.random_algebraic_tensor(rng, scale=scale)
               for scale in 10.0 ** rng.uniform(-3.0, 3.0, size=100)]
    tensors += _rotated_models(rng, 2)
    tensors += [R for R, _, _ in pinched_batch[:20]]
    for R in tensors:
        scan = fc.scan_extremes(R)
        neg = fc.scan_extremes(fc.RiemannTensor(-R.components))
        tol = 16.0 * np.finfo(float).eps * np.linalg.norm(
            fc.operator_from_tensor(R).matrix)
        assert abs(neg.k_min + scan.k_max) <= tol
        assert abs(neg.k_max + scan.k_min) <= tol
        assert abs(neg.k_min_lower + scan.k_max_upper) <= tol
        assert abs(neg.k_max_upper + scan.k_min_lower) <= tol


def test_scan_rejects_a_budget():
    with pytest.raises(TypeError):
        fc.scan_extremes(fc.model("S4").tensor, object())


def test_delta_field(model_scans):
    assert abs(model_scans["S4"].delta - 1.0) < 1e-9
    assert model_scans["CP2"].delta == pytest.approx(0.25, abs=1e-6)
    assert model_scans["S2xS2"].delta == pytest.approx(0.0, abs=1e-9)


def test_seaman_check_no_violations_on_models(models):
    for name in ("S4", "CP2", "S2xS2"):
        report = fc.seaman_check(models[name].tensor, n_frames=200, seed=3)
        assert report.passed
        assert report.n_violations == 0


def _mixed_components(R, n_frames, seed):
    """R(e1,e2,e3,e4) over seaman_check's frames, by the 4-index contraction."""
    q = fc.random_frames(np.random.default_rng(seed), n_frames)
    return np.einsum("ijkl,ni,nj,nk,nl->n", R.components,
                     q[:, :, 0], q[:, :, 1], q[:, :, 2], q[:, :, 3])


def test_seaman_component_matches_the_contraction(rng):
    # the component read off the operator against the 4-index contraction,
    # on random tensors at scales 1e-3..1e3 and on rotated models
    tensors = [fc.random_algebraic_tensor(rng, scale=10.0 ** rng.uniform(-3, 3))
               for _ in range(100)]
    tensors += _rotated_models(rng, 5)
    for i, R in enumerate(tensors):
        tol = 1e-12 * np.abs(R.components).max()
        report = fc.seaman_check(R, n_frames=50, seed=i)
        comp = np.abs(_mixed_components(R, 50, i))
        assert abs(report.metrics["max_abs_component"] - comp.max()) <= tol
        assert abs(report.min_slack - (report.metrics["bound"] - comp.max())) <= tol
        # one frame per call: each component on its own
        for seed in range(3):
            one = fc.seaman_check(R, n_frames=1, seed=seed)
            assert abs(one.metrics["max_abs_component"]
                       - abs(_mixed_components(R, 1, seed)[0])) <= tol


@pytest.mark.parametrize("r", [1e-4, 1e-6])
def test_seaman_tolerance_scales_with_the_tensor(r):
    # on a small sphere the bound is 0 and the components are rounding
    # noise of size eps / r^2, far above an absolute 1e-9
    report = fc.seaman_check(fc.model("S4", r=r).tensor, n_frames=200, seed=3)
    assert report.metrics["bound"] == 0.0
    assert report.passed


def test_seaman_ratio_is_scale_free():
    # max_ratio is homogeneous of degree 0; at scale 1e-20 it read 0
    unit = fc.seaman_check(fc.random_algebraic_tensor(3), n_frames=100)
    tiny = fc.seaman_check(fc.random_algebraic_tensor(3, scale=1e-20), n_frames=100)
    assert 0.0 < unit.metrics["max_ratio"] <= 1.0
    assert tiny.metrics["max_ratio"] == pytest.approx(unit.metrics["max_ratio"], rel=1e-12)
