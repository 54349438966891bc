"""Acceptance gate: one test per numbered criterion.

Criterion 11 is marked xfail on purpose.  The corner shortcut it asks
for is not valid for small delta: the minimum of f over E escapes the
vertex set through the kink of m for delta below 5/23, so the faithful
comparison must fail there.  test_criterion_11_checks documents exactly
where and by how much; see the package docs for the analysis.
"""
import time

import numpy as np
import pytest

import fourcurv as fc
import proof_routes as routes


def test_criterion_01_pinching_constant():
    t0 = time.perf_counter()
    numeric = fc.critical_delta()
    elapsed = time.perf_counter() - t0
    closed = (3 * np.sqrt(3) - 5) / 4
    assert abs(numeric - closed) < 1e-10
    assert abs(closed - 0.0490381056766580) < 1e-15
    assert fc.CRITICAL_DELTA == closed
    assert elapsed < 1.0


def test_criterion_02_corner_formulas():
    rng = np.random.default_rng(42)
    for d in rng.uniform(0.0, 1.0, size=100):
        cv = fc.corner_values(d)
        assert abs(cv.at_ddd - fc.f_eval(d, d, d, d)) < 1e-12
        assert abs(cv.at_dd1 - fc.f_eval(d, d, 1, d)) < 1e-12
        assert abs(cv.at_d11 - fc.f_eval(d, 1, 1, d)) < 1e-12
        assert abs(cv.at_111 - fc.f_eval(1, 1, 1, d)) < 1e-12


def test_criterion_03_hessian_spectrum():
    eigs = np.sort(routes.hessian_inner_eigs())
    assert np.max(np.abs(eigs - np.array([-3.0, -3.0, 0.0]))) < 1e-12


def test_criterion_04_characteristic_numbers():
    expected = {"S4": (2, 0), "CP2": (3, 1), "S2xS2": (4, 0),
                "FlatT4": (0, 0)}
    t0 = time.perf_counter()
    for name, (chi_e, tau_e) in expected.items():
        chi, tau, _ = fc.homogeneous_invariants(fc.model(name))
        assert abs(chi - chi_e) < 1e-9
        assert abs(tau - tau_e) < 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_biorthogonal_closed_forms():
    t0 = time.perf_counter()
    tensors = [fc.model(name).tensor for name in fc.model_names()]
    rng = np.random.default_rng(7)
    tensors += [fc.random_algebraic_tensor(rng) for _ in range(100)]
    for R in tensors:
        dec = fc.decompose(R)
        rep = fc.scan_extremes(R)
        assert abs(fc.k1perp_closed_form(dec) - rep.k1perp) < 1e-6
        assert abs(fc.k3perp_closed_form(dec) - rep.k3perp) < 1e-6
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_lemma1_suite():
    report = fc.lemma1_suite(n_tensors=1000, n_forms=100, seed=0, tol=1e-9)
    assert report.n_samples == 100_000
    assert report.passed
    assert report.n_violations == 0
    # equality case: on the unit sphere s - 12 K1perp = 0 and both sides
    # of the bound reduce to 4 |omega|^2
    s4 = fc.model("S4").tensor
    rng = np.random.default_rng(1)
    for _ in range(20):
        omega = fc.Form2(rng.normal(size=6))
        lhs, rhs = routes.lemma1_check(s4, omega)
        assert abs(lhs - rhs) < 1e-12


def test_criterion_07_seaman_and_k3_bounds():
    rng = np.random.default_rng(11)
    for i in range(1000):
        R = fc.random_algebraic_tensor(rng)
        rep = fc.seaman_check(R, n_frames=100, seed=i)
        assert rep.passed and rep.n_violations == 0
        k3rep = fc.k3_bound_check(fc.decompose(R))
        assert k3rep.passed and k3rep.n_violations == 0
    # equality of the K3perp bound on both model spaces
    for name in ("S4", "S2xS2"):
        dec = fc.decompose(fc.model(name).tensor)
        rep = fc.k3_bound_check(dec)
        assert abs(rep.min_slack) < 1e-12


def test_criterion_08_ville_suites(pinched_batch):
    assert len(pinched_batch) == 100
    for i, (R, dec, rep) in enumerate(pinched_batch):
        delta = rep.delta
        op = fc.operator_bound_check(R, delta, scan=rep)
        assert op.passed and op.n_violations == 0
        vd = fc.ville_data(dec, delta)
        assert vd.v.min() >= delta - fc.SCAN_ACCURACY
        assert vd.v.max() <= 1.0 + fc.SCAN_ACCURACY
        zn = fc.znorm_bound_check(dec, delta, scan=rep)
        assert zn.passed and zn.n_violations == 0
        fg, bound = fc.deg_lower_bound(dec, delta, scan=rep)
        assert fg >= bound - 1e-9
    # equality of the degree bound on the unit sphere at delta = 1
    s4 = fc.model("S4")
    dec = fc.decompose(s4.tensor)
    fg, bound = fc.deg_lower_bound(dec, 1.0, scan=fc.scan_extremes(s4.tensor))
    assert abs(fg - 6.0) < 1e-9
    assert abs(bound - 6.0) < 1e-9


def test_criterion_09_discriminant_equivalence():
    lam = np.linspace(0.1, 10.0, 50)[:, None, None]
    s = np.linspace(0.1, 30.0, 50)[None, :, None]
    k = np.linspace(0.0, 2.0, 50)[None, None, :]
    disc = routes.discriminant(lam, s, k, 1.0, 1.0)
    thr = s ** 2 / (24.0 * (3.0 * lam + s))
    assert np.array_equal(disc <= 0, k >= thr)

    t = np.linspace(-10.0, 10.0, 81)
    rng = np.random.default_rng(2)
    checked = 0
    for lam_v in np.linspace(0.5, 8.0, 8):
        for s_v in np.linspace(1.0, 25.0, 8):
            thr_v = fc.theorem2_threshold(s_v, lam_v)
            for k_v in (thr_v, 1.1 * thr_v, 1.5 * thr_v):
                if s_v - 12.0 * k_v < 0:
                    continue
                a, b = rng.uniform(0.1, 3.0, size=2)
                for regime in ("A", "B"):
                    vals = routes.p_quadratic(t, regime, lam_v, s_v, k_v, a, b)
                    assert vals.min() >= -1e-9
                    checked += 1
    assert checked > 100


def test_criterion_10_verdict_regression(models, model_decs, model_scans):
    v = fc.theorem1_verdict(model_decs["S4"], model_scans["S4"])
    assert v.hypotheses_hold
    quarter = fc.model("CP2", c=1.0)
    v = fc.theorem1_verdict(fc.decompose(quarter.tensor),
                            fc.scan_extremes(quarter.tensor))
    assert v.hypotheses_hold
    v = fc.theorem1_verdict(model_decs["S2xS2"], model_scans["S2xS2"])
    assert not v.hypotheses_hold

    v = fc.theorem2_verdict(model_decs["S4"], model_scans["S4"], 4.0)
    assert v.hypotheses_hold
    assert abs(v.computed_threshold - 0.25) < 1e-12
    assert abs(model_scans["S4"].k1perp - 1.0) < 1e-6
    v = fc.theorem2_verdict(model_decs["S2xS2"], model_scans["S2xS2"], 2.0)
    assert not v.hypotheses_hold
    assert abs(v.computed_threshold - 1.0 / 15.0) < 1e-12
    assert abs(model_scans["S2xS2"].k1perp) < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the corner minimum is not the minimum of f over E for "
           "delta < 5/23: the kink of m admits an interior dip, so the "
           "faithful 50-point comparison fails for the 11 smallest deltas")
def test_criterion_11_concavity_oracle():
    for delta in np.linspace(0.0, 1.0, 50):
        corner, _ = fc.min_over_E(delta)
        dense, _ = fc.dense_grid_min_over_E(delta)
        assert abs(corner - dense) < 1e-8


def test_criterion_11_checks():
    """Where and why criterion 11 fails, pinned quantitatively."""
    crossover = 5.0 / 23.0
    deltas = np.linspace(0.0, 1.0, 50)
    n_bad = 0
    for delta in deltas:
        corner, _ = fc.min_over_E(delta)
        dense, _ = fc.dense_grid_min_over_E(delta)
        if delta >= crossover:
            assert abs(corner - dense) < 1e-8
        else:
            dip = (31 * delta ** 2 + 28 * delta - 5) / 18
            assert dense == pytest.approx(min(corner, dip), abs=1e-9)
            assert dense < corner - 1e-3
            n_bad += 1
    assert n_bad == 11
