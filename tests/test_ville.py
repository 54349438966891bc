import dataclasses
import pathlib

import numpy as np
import pytest

import fourcurv as fc
from fourcurv.tensor import CurvatureDecomposition
import proof_routes as routes


def _handmade_dec():
    """Decomposition with nonzero W-, Z for exercising the A_i branches."""
    wplus = np.diag([-0.1, 0.0, 0.1])
    wminus = np.diag([-0.2, 0.0, 0.2])
    return CurvatureDecomposition(
        s=6.0, u=0.5, ric=1.5 * np.eye(4), ric0=np.zeros((4, 4)),
        wplus=wplus, wminus=wminus, z_block=0.05 * np.eye(3),
        wp_eigs=np.array([-0.1, 0.0, 0.1]),
        wm_eigs=np.array([-0.2, 0.0, 0.2]), wp_vecs=np.eye(3),
        wm_vecs=np.eye(3), max_abs=0.7)


def test_ville_data_s4(model_decs):
    vd = fc.ville_data(model_decs["S4"], 1.0)
    assert np.allclose(vd.v, 1.0, atol=1e-13)
    assert np.allclose(vd.a, 0.0, atol=1e-13)
    assert np.allclose(vd.z, 0.0, atol=0)
    assert np.allclose(vd.lambda_minus, 0.0, atol=0)
    assert vd.alpha == 0.0
    assert all(k is None for k in vd.k_units)  # Einstein: no unit images


def test_ville_data_einstein_product(model_decs):
    vd = fc.ville_data(model_decs["S2xS2"], 0.0)
    assert all(k is None for k in vd.k_units)
    assert np.allclose(vd.v, [1 / 6, 1 / 6, 2 / 3], atol=1e-12)
    assert np.allclose(vd.a, [1 / 6, 1 / 6, 1 / 3], atol=1e-12)


def test_ville_data_h_basis_orthonormal(pinched_batch):
    _, dec, scan = pinched_batch[0]
    vd = fc.ville_data(dec, scan.delta)
    assert np.allclose(vd.h_basis.T @ vd.h_basis, np.eye(3), atol=1e-12)
    for i, k in enumerate(vd.k_units):
        if k is not None:
            assert abs(np.linalg.norm(k) - 1.0) < 1e-12
            assert vd.z[i] > 0


def test_v_bounds_on_pinched_samples(pinched_batch):
    for _, dec, scan in pinched_batch[:20]:
        vd = fc.ville_data(dec, scan.delta)
        assert (vd.v >= scan.delta - 1e-9).all()
        assert (vd.v <= 1.0 + 1e-9).all()


def test_znorm_two_ways(pinched_batch):
    for _, dec, scan in pinched_batch[:20]:
        vd = fc.ville_data(dec, scan.delta)
        z2_eigen = 2.0 * float((vd.z ** 2).sum())
        z2_block = 2.0 * float((dec.z_block ** 2).sum())
        assert abs(z2_eigen - z2_block) < 1e-10


def test_negative_a_warns():
    dec = fc.decompose(fc.model("S2xS2").tensor)
    with pytest.warns(RuntimeWarning, match="negative A_i"):
        fc.ville_data(dec, 0.5)  # product is not 0.5-pinched


def test_proof_vs_statement_a_differ():
    vd = fc.ville_data(_handmade_dec(), 0.2)
    # third eigendirection has the 1 - v - lambda/2 branch active, where
    # the two printed versions disagree by lambda
    assert vd.a[2] == pytest.approx(0.35, abs=1e-12)
    assert vd.a_statement[2] == pytest.approx(0.45, abs=1e-12)


def test_operator_bound_s4(models, model_scans):
    report = fc.operator_bound_check(models["S4"].tensor, 1.0,
                                     scan=model_scans["S4"])
    assert report.passed
    assert report.metrics["min_value"] == pytest.approx(1.0, abs=1e-12)
    assert report.metrics["max_value"] == pytest.approx(1.0, abs=1e-12)


def test_operator_bound_product(models, model_scans):
    report = fc.operator_bound_check(models["S2xS2"].tensor, 0.0,
                                     scan=model_scans["S2xS2"])
    assert report.passed
    assert report.metrics["min_value"] >= -1e-9
    assert report.metrics["max_value"] <= 1.0 + 1e-9
    assert report.metrics["min_eigen_value"] >= -1e-9
    assert report.metrics["max_eigen_value"] <= 1.0 + 1e-9


def test_operator_bound_on_pinched_samples(pinched_batch):
    for R, _, scan in pinched_batch[:10]:
        report = fc.operator_bound_check(R, scan.delta, scan=scan)
        assert report.passed
        assert report.n_violations == 0


def test_operator_bound_is_the_exact_range(pinched_batch):
    # sampled planes and SD directions stay inside the reported extremes,
    # and the scan's K1perp and K3perp planes attain the plane ends
    rng = np.random.default_rng(11)
    for R, dec, scan in pinched_batch[:10]:
        m = fc.operator_bound_check(R, scan.delta, scan=scan).metrics
        assert m["min_value"] == fc.k1perp_closed_form(dec)
        assert m["max_value"] == fc.k3perp_closed_form(dec)
        hs, ks = (x / np.linalg.norm(x, axis=1, keepdims=True)
                  for x in rng.normal(size=(2, 2000, 3)))
        vals = routes.batch_biorthogonal(R, hs, ks)
        assert m["min_value"] - 1e-12 <= vals.min()
        assert vals.max() <= m["max_value"] + 1e-12
        eig = dec.u + 0.5 * np.einsum("ni,ij,nj->n", hs, dec.wplus, hs)
        assert m["min_eigen_value"] - 1e-12 <= eig.min()
        assert eig.max() <= m["max_eigen_value"] + 1e-12
        assert routes.biorthogonal(R, scan.k1perp_plane) == pytest.approx(
            m["min_value"], abs=1e-12)
        assert routes.biorthogonal(R, scan.k3perp_plane) == pytest.approx(
            m["max_value"], abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-14, 1e-100])
def test_zero_image_cut_is_relative(scale):
    # the unit images are found at any scale, so the two routes to |Z|^2 agree
    R = fc.RiemannTensor(fc.pinched_sample(3).components * scale)
    m = fc.znorm_bound_check(fc.decompose(R), 0.0,
                             scan=fc.scan_extremes(R)).metrics
    assert m["z_norm2_from_block"] > 0.0
    assert m["z_norm2"] == pytest.approx(m["z_norm2_from_block"], rel=1e-10,
                                         abs=0.0)


def test_znorm_bound_s4_equality(model_decs, model_scans):
    report = fc.znorm_bound_check(model_decs["S4"], 1.0,
                                  scan=model_scans["S4"])
    assert report.passed
    assert report.metrics["z_norm2"] == pytest.approx(0.0, abs=1e-12)
    assert report.metrics["bound"] == pytest.approx(0.0, abs=1e-12)
    # A_i is -1.1e-16 here, rounding of the equality, not a disagreement
    assert report.notes == ()


def test_znorm_bound_on_pinched_samples(pinched_batch):
    for _, dec, scan in pinched_batch[:10]:
        report = fc.znorm_bound_check(dec, scan.delta, scan=scan)
        assert report.passed
        assert report.metrics["bound_other_version"] >= 0.0


# tensors on which the theorem statement's A_i undercuts ||Z||^2, with their
# slacks (proof version, statement version) at the certified level; they
# were drawn by the rejection sampler pinched_sample used to be, and are
# named by the seeds it drew them from
_STATEMENT_FAILURES = {
    420241532: (7.17e-3, -2.61e-3), 864350543: (3.51e-3, -9.15e-5),
    682472046: (4.67e-3, -5.94e-4), 126316679: (2.51e-3, -5.21e-4)}


@pytest.mark.parametrize("name", sorted(_STATEMENT_FAILURES))
def test_znorm_bound_statement_version_fails_on_fixtures(name):
    path = pathlib.Path(__file__).parent / "data" / f"pinched_{name}.json"
    R = fc.load_tensor(path)
    scan = fc.scan_extremes(R)
    report = fc.znorm_bound_check(fc.decompose(R), max(0.0, scan.k_min_lower),
                                  scan=scan)
    proof, statement = _STATEMENT_FAILURES[name]
    m = report.metrics
    assert report.passed
    assert report.min_slack == pytest.approx(proof, rel=2e-3)
    assert m["bound_other_version"] - m["z_norm2"] == pytest.approx(
        statement, rel=2e-3)
    assert m["bound_other_version"] - m["z_norm2"] < 0.0


def test_deg_equality_s4(model_decs, model_scans):
    fg, bound = fc.deg_lower_bound(model_decs["S4"], 1.0,
                                   scan=model_scans["S4"])
    assert fg == pytest.approx(6.0, abs=1e-12)
    assert bound == pytest.approx(6.0, abs=1e-10)


def test_deg_flat(model_decs, model_scans):
    fg, bound = fc.deg_lower_bound(model_decs["FlatT4"], 0.0,
                                   scan=model_scans["FlatT4"])
    assert fg == 0.0
    assert bound == pytest.approx(0.0, abs=1e-15)


def test_deg_on_pinched_samples(pinched_batch):
    for _, dec, scan in pinched_batch[:10]:
        fg, bound = fc.deg_lower_bound(dec, scan.delta, scan=scan)
        assert fg >= bound - 1e-9


def test_pinching_precondition_enforced(model_decs, model_scans):
    # CP2 at holomorphic curvature 4 has sectional curvature up to 4
    with pytest.raises(fc.PinchingNotVerified):
        fc.znorm_bound_check(model_decs["CP2"], 0.5, scan=model_scans["CP2"])
    small = fc.model("S4", r=0.9)  # curvature above 1
    small_scan = fc.scan_extremes(small.tensor)
    with pytest.raises(fc.PinchingNotVerified):
        fc.operator_bound_check(small.tensor, 0.5, scan=small_scan)
    with pytest.raises(fc.PinchingNotVerified):
        fc.deg_lower_bound(fc.decompose(small.tensor), 0.5, scan=small_scan)
    # delta above the verified floor also refuses
    with pytest.raises(fc.PinchingNotVerified):
        fc.znorm_bound_check(model_decs["S2xS2"], 0.5,
                             scan=model_scans["S2xS2"])


def test_pinching_precondition_uses_certified_bounds(model_decs, model_scans):
    # attained extremes inside [delta, 1] do not suffice when the dual
    # bounds reach beyond the margin
    s4 = model_scans["S4"]
    loose_max = dataclasses.replace(s4, k_max_upper=1.0 + 2 * fc.SCAN_ACCURACY)
    with pytest.raises(fc.PinchingNotVerified):
        fc.znorm_bound_check(model_decs["S4"], 1.0, scan=loose_max)
    loose_min = dataclasses.replace(s4, k_min_lower=1.0 - 2 * fc.SCAN_ACCURACY)
    with pytest.raises(fc.PinchingNotVerified):
        fc.deg_lower_bound(model_decs["S4"], 1.0, scan=loose_min)
    fc.znorm_bound_check(model_decs["S4"], 1.0, scan=s4)


def test_pinching_margin_scales_with_a_small_tensor():
    # at scale 1e-7, k_min = -2.6e-7 lies within the absolute SCAN_ACCURACY
    # of delta = 0, but not within SCAN_ACCURACY max|R|
    R = fc.random_algebraic_tensor(3, scale=1e-7)
    dec, scan = fc.decompose(R), fc.scan_extremes(R)
    assert -fc.SCAN_ACCURACY < scan.k_min_lower < 0.0
    with pytest.raises(fc.PinchingNotVerified):
        fc.operator_bound_check(R, 0.0, scan=scan)
    with pytest.raises(fc.PinchingNotVerified):
        fc.znorm_bound_check(dec, 0.0, scan=scan)
    with pytest.raises(fc.PinchingNotVerified):
        fc.deg_lower_bound(dec, 0.0, scan=scan)


def test_pinching_checks_refuse_a_scan_of_another_tensor():
    # a pinched sample's scan does not certify the pinching of S4 at r = 1.2
    R = fc.model("S4", r=1.2).tensor
    dec = fc.decompose(R)
    other = fc.scan_extremes(fc.pinched_sample(1))
    fc.znorm_bound_check(dec, 0.5, scan=fc.scan_extremes(R))
    with pytest.raises(fc.InconsistentInputs):
        fc.znorm_bound_check(dec, 0.5, scan=other)
    with pytest.raises(fc.InconsistentInputs):
        fc.operator_bound_check(R, 0.5, scan=other)
    with pytest.raises(fc.InconsistentInputs):
        fc.deg_lower_bound(dec, 0.5, scan=other)
