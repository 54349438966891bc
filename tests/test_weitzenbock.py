import numpy as np
import pytest

import fourcurv as fc
from fourcurv.forms import PAIRS


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
        lhs, rhs = fc.lemma1_check(R, omega)
        assert lhs == pytest.approx(4.0, abs=1e-12)
        assert rhs == pytest.approx(4.0, abs=1e-12)


def test_lemma1_zero_form(models):
    lhs, rhs = fc.lemma1_check(models["S2xS2"].tensor, fc.Form2(np.zeros(6)))
    assert lhs == 0.0 and rhs == 0.0


def test_lemma1_suite_small():
    report = fc.lemma1_suite(n_tensors=100, n_forms=50, seed=11)
    assert report.passed
    assert report.n_violations == 0
    assert report.n_samples == 5000
    assert report.min_slack > -1e-9
    assert 0.0 <= report.metrics["near_equality_fraction"] <= 1.0


def test_adapted_frame_reconstruction(rng):
    for _ in range(100):
        omega = fc.Form2(rng.normal(size=6))
        frame = fc.adapted_frame(omega)
        cols = frame.columns
        plus, minus = fc.sd_asd_split(omega)
        ap, am = plus.norm, minus.norm
        recon = (np.sqrt(0.5) * (ap + am) * fc.wedge(cols[:, 0], cols[:, 1]).coeffs
                 + np.sqrt(0.5) * (ap - am) * fc.wedge(cols[:, 2], cols[:, 3]).coeffs)
        assert np.allclose(recon, omega.coeffs, atol=1e-9)


def test_adapted_frame_pure_duality(rng):
    h = rng.normal(size=3)
    sd_only = fc.sd_form(h)
    frame = fc.adapted_frame(sd_only)  # ASD part completed arbitrarily
    plus, _ = fc.sd_asd_split(sd_only)
    cols = frame.columns
    recon = np.sqrt(0.5) * plus.norm * (
        fc.wedge(cols[:, 0], cols[:, 1]).coeffs
        + fc.wedge(cols[:, 2], cols[:, 3]).coeffs)
    assert np.allclose(recon, sd_only.coeffs, atol=1e-9)


def test_adapted_frame_degenerate():
    with pytest.raises(fc.DegenerateForm):
        fc.adapted_frame(fc.Form2(np.zeros(6)))


def test_intermediate_identity_random(rng):
    for _ in range(100):
        R = fc.random_algebraic_tensor(rng)
        omega = fc.Form2(rng.normal(size=6))
        report = fc.intermediate_identity_check(R, omega)
        assert report.passed, report.metrics


def test_intermediate_identity_s2s2_mixed_form(models):
    # omega = e1^e2 on the product: both sides vanish
    omega = fc.Form2([1, 0, 0, 0, 0, 0])
    report = fc.intermediate_identity_check(models["S2xS2"].tensor, omega)
    assert report.passed
    assert abs(report.metrics["lhs"]) < 1e-12
    assert abs(report.metrics["rhs"]) < 1e-12


def test_intermediate_identity_s4_self_dual(models):
    omega = fc.Form2(fc.SD_BASIS[:, 1])
    report = fc.intermediate_identity_check(models["S4"].tensor, omega)
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
