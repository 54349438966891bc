import numpy as np
import pytest

import fourcurv as fc
from fourcurv.forms import PAIRS
import proof_routes as routes


def bilinear_weitzenbock(R):
    """The defining expression, evaluated entry by entry on basis pairs."""
    ric = fc.ricci(R)
    c = R.components
    d = np.eye(4)
    m = np.empty((6, 6))
    for b, (i, j) in enumerate(PAIRS):
        for b2, (k, l) in enumerate(PAIRS):
            m[b, b2] = (ric[i, k] * d[j, l] + ric[j, l] * d[i, k]
                        - ric[i, l] * d[j, k] - ric[j, k] * d[i, l]
                        - 2.0 * c[i, j, k, l])
    return m


def test_operator_matches_bilinear_definition(rng):
    # N = tr(M) Id - M - *M* against the entrywise definition
    for _ in range(500):
        R = fc.random_algebraic_tensor(rng, scale=10.0 ** rng.uniform(-3, 3))
        norm = np.linalg.norm(fc.operator_from_tensor(R).matrix)
        diff = np.abs(fc.weitzenbock_operator(R).matrix - bilinear_weitzenbock(R))
        assert diff.max() <= 16 * np.finfo(float).eps * norm


def test_s4_operator_is_four_identity(models):
    nw = fc.weitzenbock_operator(models["S4"].tensor).matrix
    assert np.allclose(nw, 4.0 * np.eye(6), atol=1e-13)


def test_flat_operator_is_zero(models):
    nw = fc.weitzenbock_operator(models["FlatT4"].tensor).matrix
    assert np.array_equal(nw, np.zeros((6, 6)))


def test_operator_symmetric_and_block_diagonal(rng):
    for _ in range(20):
        R = fc.random_algebraic_tensor(rng)
        nw = fc.weitzenbock_operator(R).matrix
        assert np.abs(nw - nw.T).max() < 1e-12
        blocks = fc.BLOCK_BASIS.T @ nw @ fc.BLOCK_BASIS
        assert np.abs(blocks[:3, 3:]).max() < 1e-12


def test_sd_asd_pairs_annihilate(rng):
    # 10^4 random SD/ASD pairs against one operator
    R = fc.random_algebraic_tensor(rng)
    nw = fc.weitzenbock_operator(R).matrix
    hs = rng.normal(size=(10_000, 3)) @ fc.SD_BASIS.T
    ks = rng.normal(size=(10_000, 3)) @ fc.ASD_BASIS.T
    vals = np.einsum("ni,ij,nj->n", hs, nw, ks)
    assert np.abs(vals).max() < 1e-12


def test_bilinear_matches_block_identity(rng):
    # dual route: defining bilinear expression vs (s/3) Id - 2 (W+ (+) W-)
    for _ in range(50):
        R = fc.random_algebraic_tensor(rng)
        direct = fc.weitzenbock_operator(R).matrix
        from_blocks = fc.weitzenbock_from_blocks(fc.decompose(R)).matrix
        assert np.abs(direct - from_blocks).max() < 1e-12


def test_invalid_input_rejected():
    comps = fc.model("S4").tensor.components.copy()
    comps[0, 1, 2, 3] += 0.3
    with pytest.raises(fc.InvalidSymmetry):
        fc.weitzenbock_operator(fc.RiemannTensor(comps))


def test_lemma1_equality_on_s4(models, rng):
    R = models["S4"].tensor
    for _ in range(20):
        coeffs = rng.normal(size=6)
        omega = fc.Form2(coeffs / np.linalg.norm(coeffs))
        lhs, rhs = routes.lemma1_check(R, omega)
        assert lhs == pytest.approx(4.0, abs=1e-12)
        assert rhs == pytest.approx(4.0, abs=1e-12)


def test_lemma1_zero_form(models):
    lhs, rhs = routes.lemma1_check(models["S2xS2"].tensor, fc.Form2(np.zeros(6)))
    assert lhs == 0.0 and rhs == 0.0


def test_lemma1_suite_small():
    report = fc.lemma1_suite(n_tensors=100, n_forms=50, seed=11)
    assert report.passed
    assert report.n_violations == 0
    assert report.n_samples == 5000
    assert report.min_slack > -1e-9
    assert 0.0 <= report.metrics["near_equality_fraction"] <= 1.0


def lemma1_sides_from_blocks(R, omegas):
    """Lemma 1's sides in the wedge basis, from a decomposition."""
    dec = fc.decompose(R)
    k1p = fc.k1perp_closed_form(dec)
    nw = fc.weitzenbock_from_blocks(dec).matrix
    star = omegas @ fc.STAR_MATRIX
    ap2 = ((0.5 * (omegas + star)) ** 2).sum(axis=1)
    am2 = ((0.5 * (omegas - star)) ** 2).sum(axis=1)
    lhs = np.einsum("ni,ij,nj->n", omegas, nw, omegas)
    rhs = 4.0 * k1p * (ap2 + am2) - (dec.s - 12.0 * k1p) / 3.0 * np.abs(ap2 - am2)
    return lhs, rhs


def test_lemma1_sides_match_the_wedge_basis_route(rng):
    for _ in range(100):
        R = fc.random_algebraic_tensor(rng, scale=10.0 ** rng.uniform(-3, 3))
        omegas = rng.normal(size=(20, 6))
        tol = 1e-12 * np.abs(R.components).max()
        for got, want in zip(routes.lemma1_sides(R, omegas), lemma1_sides_from_blocks(R, omegas)):
            assert np.abs(got - want).max() <= tol * np.abs(omegas).max() ** 2


@pytest.mark.parametrize("n_tensors,n_forms,seed", [(200, 50, 0), (1, 100, 3), (37, 1, 8)])
def test_lemma1_suite_matches_a_per_tensor_loop(n_tensors, n_forms, seed):
    # the stacked suite draws the same samples as one tensor and its forms
    # at a time from the generator, and evaluates them by the other route;
    # tolerance and near-equality cut are relative to each tensor's max|R|
    gen = np.random.default_rng(seed)
    slack, scale = [], []
    for _ in range(n_tensors):
        R = fc.random_algebraic_tensor(gen)
        lhs, rhs = lemma1_sides_from_blocks(R, gen.normal(size=(n_forms, 6)))
        slack.append(lhs - rhs)
        scale.append(np.full(n_forms, np.abs(R.components).max()))
    slack, scale = np.concatenate(slack), np.concatenate(scale)
    report = fc.lemma1_suite(n_tensors=n_tensors, n_forms=n_forms, seed=seed)
    assert report.n_samples == slack.size
    assert report.n_violations == int((slack < -1e-9 * scale).sum())
    assert (report.metrics["near_equality_fraction"] * slack.size
            == (slack < 1e-6 * scale).sum())
    assert abs(report.min_slack - slack.min()) <= 1e-12


def test_lemma1_suite_without_samples():
    for n_tensors, n_forms in ((0, 10), (5, 0)):
        report = fc.lemma1_suite(n_tensors=n_tensors, n_forms=n_forms)
        assert report.n_samples == 0 and report.passed
        assert report.min_slack == np.inf


def lemma1_three_slacks(dec):
    """The slacks at |w+|^2 = 0, 1/2, 1 along the top eigenvectors of W+ and W-."""
    k1p = fc.k1perp_closed_form(dec)
    c = (dec.s - 12.0 * k1p) / 3.0
    w3p, w3m = dec.wp_eigs[2], dec.wm_eigs[2]
    return np.array([dec.s / 2 - 2 * (dec.u + w3m) - 4 * k1p + c,
                     dec.s / 2 - (2 * dec.u + w3p + w3m) - 4 * k1p,
                     dec.s / 2 - 2 * (dec.u + w3p) - 4 * k1p + c])


def test_lemma1_bound_check_is_the_minimum_over_all_forms(rng, pinched_batch):
    # no random unit form goes below the closed form, and the three forms
    # along the top eigenvectors attain its three slacks
    tensors = [fc.random_algebraic_tensor(rng, scale=10.0 ** rng.uniform(-3, 3))
               for _ in range(60)]
    tensors += [fc.rotate_tensor(fc.model(name, **params).tensor, routes.random_frame(rng).columns)
                for name, params in (("S4", {"r": 0.3}), ("CP2", {"c": 40.0}),
                                     ("S2xS2", {"a": 2.0, "b": 0.5}), ("FlatT4", {}))]
    tensors += [R for R, _, _ in pinched_batch[:20]]
    a = np.array([[0.0], [0.5], [1.0]])
    for R in tensors:
        dec = fc.decompose(R)
        report = fc.lemma1_bound_check(dec, 1e-9)
        slacks = lemma1_three_slacks(dec)
        assert report.passed and report.n_samples == 3
        assert abs(report.min_slack - slacks.min()) <= 1e-14 * dec.max_abs
        omegas = rng.normal(size=(2000, 6))
        lhs, rhs = routes.lemma1_sides(R, omegas / np.linalg.norm(omegas, axis=1, keepdims=True))
        assert (lhs - rhs).min() >= report.min_slack - 1e-12 * dec.max_abs
        tops = [np.linalg.eigh(w)[1][:, 2] for w in (dec.wplus, dec.wminus)]
        forms = np.hstack([np.sqrt(a) * tops[0], np.sqrt(1.0 - a) * tops[1]]) @ fc.BLOCK_BASIS.T
        lhs, rhs = routes.lemma1_sides(R, forms)
        assert np.abs(lhs - rhs - slacks).max() <= 1e-13 * dec.max_abs


def test_lemma1_bound_check_equality_on_models(model_decs):
    for name in ("S4", "CP2", "S2xS2"):
        report = fc.lemma1_bound_check(model_decs[name], 0.0)
        assert abs(report.min_slack) <= 1e-14 * model_decs[name].max_abs


def test_adapted_frame_reconstruction(rng):
    for _ in range(100):
        omega = fc.Form2(rng.normal(size=6))
        frame = routes.adapted_frame(omega)
        cols = frame.columns
        plus, minus = fc.sd_asd_split(omega)
        ap, am = plus.norm, minus.norm
        recon = (np.sqrt(0.5) * (ap + am) * routes.wedge(cols[:, 0], cols[:, 1]).coeffs
                 + np.sqrt(0.5) * (ap - am) * routes.wedge(cols[:, 2], cols[:, 3]).coeffs)
        assert np.allclose(recon, omega.coeffs, atol=1e-9)


def test_adapted_frame_pure_duality(rng):
    h = rng.normal(size=3)
    sd_only = routes.sd_form(h)
    frame = routes.adapted_frame(sd_only)  # ASD part completed arbitrarily
    plus, _ = fc.sd_asd_split(sd_only)
    cols = frame.columns
    recon = np.sqrt(0.5) * plus.norm * (
        routes.wedge(cols[:, 0], cols[:, 1]).coeffs
        + routes.wedge(cols[:, 2], cols[:, 3]).coeffs)
    assert np.allclose(recon, sd_only.coeffs, atol=1e-9)


def test_adapted_frame_degenerate():
    with pytest.raises(routes.DegenerateForm):
        routes.adapted_frame(fc.Form2(np.zeros(6)))


def test_intermediate_identity_random(rng):
    for _ in range(100):
        R = fc.random_algebraic_tensor(rng)
        omega = fc.Form2(rng.normal(size=6))
        report = routes.intermediate_identity_check(R, omega)
        assert report.passed, report.metrics


def test_intermediate_identity_s2s2_mixed_form(models):
    # omega = e1^e2 on the product: both sides vanish
    omega = fc.Form2([1, 0, 0, 0, 0, 0])
    report = routes.intermediate_identity_check(models["S2xS2"].tensor, omega)
    assert report.passed
    assert abs(report.metrics["lhs"]) < 1e-12
    assert abs(report.metrics["rhs"]) < 1e-12


def test_intermediate_identity_s4_self_dual(models):
    omega = fc.Form2(fc.SD_BASIS[:, 1])
    report = routes.intermediate_identity_check(models["S4"].tensor, omega)
    assert report.passed
    assert report.metrics["lhs"] == pytest.approx(4.0, abs=1e-12)
    assert report.metrics["rhs"] == pytest.approx(4.0, abs=1e-12)


def test_k3_bound_equalities(model_decs):
    for name in ("S4", "S2xS2"):
        report = fc.k3_bound_check(model_decs[name])
        assert report.passed
        assert abs(report.min_slack) < 1e-12


def test_k3_bound_random(rng):
    for _ in range(200):
        report = fc.k3_bound_check(fc.decompose(fc.random_algebraic_tensor(rng)))
        assert report.passed
        assert report.min_slack >= -1e-12


def test_k3_bound_tolerance_scales_with_the_tensor():
    # the equality cases at large curvature, in rotated frames: the slack is
    # rounding noise of size eps max|R|, far above an absolute 1e-12
    for R in (fc.model("S4", r=1.6e-5).tensor, fc.model("S2xS2", a=1e-6).tensor):
        for seed in range(400):
            frame = routes.random_frame(np.random.default_rng(seed)).columns
            report = fc.k3_bound_check(fc.decompose(fc.rotate_tensor(R, frame)))
            assert report.passed, (seed, report.min_slack)
