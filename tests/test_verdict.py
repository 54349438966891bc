import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourcurv as fc


def test_f_examples():
    assert fc.f_eval(1, 1, 1, 0.3) == pytest.approx(3.0, abs=1e-12)
    for d in (0.0, 0.2, 0.7):
        assert fc.f_eval(d, d, d, d) == pytest.approx(3 * d * d, abs=1e-12)
    assert fc.f_eval(0.5, 0.5, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_f_eval_broadcasts():
    xs = np.array([0.2, 0.5, 1.0])
    vals = fc.f_eval(xs, xs, xs, 0.2)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(3 * 0.04, abs=1e-12)


def test_corner_closed_forms_match_f(rng):
    for d in rng.uniform(0.0, 1.0, size=100):
        cv = fc.corner_values(d)
        assert cv.at_ddd == pytest.approx(fc.f_eval(d, d, d, d), abs=1e-12)
        assert cv.at_dd1 == pytest.approx(fc.f_eval(d, d, 1, d), abs=1e-12)
        assert cv.at_d11 == pytest.approx(fc.f_eval(d, 1, 1, d), abs=1e-12)
        assert cv.at_111 == pytest.approx(fc.f_eval(1, 1, 1, d), abs=1e-12)


def test_hessian_spectrum():
    eigs = fc.hessian_inner_eigs()
    assert np.allclose(eigs, (-3.0, -3.0, 0.0), atol=1e-12)
    m = np.array([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])
    assert np.allclose(m.sum(axis=1), 0, atol=0)     # (1,1,1) in kernel
    assert sum(eigs) == pytest.approx(np.trace(m), abs=1e-12)


def test_min_over_E_examples():
    val, arg = fc.min_over_E(0.2)
    assert val == pytest.approx(0.12, abs=1e-12)
    assert arg == (0.2, 0.2, 0.2)
    val, _ = fc.min_over_E(0.0)
    assert val == pytest.approx(-1 / 9, abs=1e-12)
    val, arg = fc.min_over_E(fc.CRITICAL_DELTA)
    assert abs(val) < 1e-12
    assert arg[2] == 1.0 and arg[0] == arg[1] == fc.CRITICAL_DELTA


def test_critical_delta_two_routes():
    numeric = fc.critical_delta()
    assert abs(numeric - fc.CRITICAL_DELTA) < 1e-10
    assert abs(numeric - 0.0490381056766580) < 1e-10
    # bisection bracketing
    assert fc.min_over_E(numeric - 1e-6)[0] < 0
    assert fc.min_over_E(numeric + 1e-6)[0] > 0
    # the closed form is the positive root of 8 d^2 + 20 d - 1
    d = fc.CRITICAL_DELTA
    assert abs((8 * d * d + 20 * d - 1) / 9) < 1e-12


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(0.0, 0.9),
       low_branch=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       t1=st.floats(0.05, 0.45), t2=st.floats(0.55, 0.95))
def test_concave_within_smoothness_cells(delta, low_branch, t1, t2):
    # inside a cell every coordinate stays on one branch of m, where f is
    # smooth with Hessian eigenvalues (0, -10/3, -10/3) scaled by 9/10
    kink = 0.5 * (1.0 + delta)
    rng = np.random.default_rng(17)
    ends = []
    for t in (t1, t2):
        point = []
        for lo in low_branch:
            if lo:
                point.append(delta + t * (kink - delta))
            else:
                point.append(kink + t * (1.0 - kink))
        ends.append(point)
    a, b = np.array(ends[0]), np.array(ends[1])
    mid = 0.5 * (a + b)
    f_mid = fc.f_eval(*mid, delta)
    f_avg = 0.5 * (fc.f_eval(*a, delta) + fc.f_eval(*b, delta))
    assert f_mid >= f_avg - 1e-12


def test_concavity_fails_across_kink():
    # the branch switch of m makes -m^2 convex there; a segment through
    # the kink shows the midpoint strictly below the chord average, so
    # the global concavity shortcut is not literally valid
    delta = 0.05
    kink = 0.5 * (1.0 + delta)
    a = (kink - 0.1, 0.6, 0.6)
    b = (kink + 0.1, 0.6, 0.6)
    mid = (kink, 0.6, 0.6)
    f_avg = 0.5 * (fc.f_eval(*a, delta) + fc.f_eval(*b, delta))
    assert fc.f_eval(*mid, delta) < f_avg - 0.01


def test_dense_grid_agrees_above_crossover():
    # the interior kink dip sits above the corner minimum once
    # 23 d^2 - 28 d + 5 <= 0, i.e. for delta >= 5/23
    for delta in np.linspace(5 / 23 + 0.01, 0.95, 12):
        corner, _ = fc.min_over_E(delta)
        dense, _ = fc.dense_grid_min_over_E(delta)
        assert abs(corner - dense) < 1e-8


def test_dense_grid_dips_below_corners_for_small_delta():
    for delta in (0.0, fc.CRITICAL_DELTA, 0.1, 0.15, 0.2):
        corner, _ = fc.min_over_E(delta)
        dense, arg = fc.dense_grid_min_over_E(delta)
        dip = (31 * delta ** 2 + 28 * delta - 5) / 18
        assert dense == pytest.approx(min(corner, dip), abs=1e-9)
        assert dense < corner - 1e-3
        # the minimizer is the kink point (delta, delta, (1+delta)/2),
        # up to permutation since f is symmetric
        expected = sorted((delta, delta, 0.5 * (1 + delta)))
        assert np.allclose(sorted(arg), expected, atol=1e-12)
    # in particular the dense minimum is negative at the critical delta,
    # where the corner minimum is exactly zero
    dense, _ = fc.dense_grid_min_over_E(fc.CRITICAL_DELTA)
    assert dense < -0.19


def test_threshold_examples():
    assert fc.theorem2_threshold(12, 4) == pytest.approx(0.25, abs=1e-15)
    assert fc.theorem2_threshold(4, 2) == pytest.approx(1 / 15, abs=1e-15)
    assert fc.theorem2_threshold(1e-9, 4.0) < 1e-10
    with pytest.raises(fc.NonPositiveInput):
        fc.theorem2_threshold(-1.0, 4.0)
    with pytest.raises(fc.NonPositiveInput):
        fc.theorem2_threshold(12.0, 0.0)


def test_discriminant_examples():
    assert fc.discriminant(4, 12, 1, 1, 1) == pytest.approx(-192.0, abs=1e-12)
    assert fc.discriminant(4, 12, 1, 0, 1) == 0.0
    k_star = fc.theorem2_threshold(12, 4)
    assert fc.discriminant(4, 12, k_star, 0.7, 1.3) == pytest.approx(
        0.0, abs=1e-12)


def test_discriminant_threshold_equivalence(rng):
    lam = rng.uniform(0.1, 10, size=500)
    s = rng.uniform(0.1, 30, size=500)
    k = rng.uniform(0.0, 2.0, size=500)
    disc = fc.discriminant(lam, s, k, 1.0, 1.0)
    thr = s ** 2 / (24 * (3 * lam + s))
    assert np.array_equal(disc <= 0, k >= thr)


def test_p_quadratic_constant_term():
    lam, s, k, a, b = 3.0, 10.0, 0.5, 2.0, 0.7
    c_minus = lam + 4 * k - (s - 12 * k) / 3
    assert fc.p_quadratic(0.0, "A", lam, s, k, a, b) == pytest.approx(
        c_minus * a, abs=1e-12)


def test_p_quadratic_s4_identity(rng):
    # with s - 12 k1perp = 0 both regimes reduce to
    # lambda1 (sqrt(a) - t sqrt(b))^2 + 4 (a + t^2 b)
    for _ in range(50):
        a, b = rng.uniform(0.1, 3, size=2)
        t = rng.uniform(-5, 5)
        expected = 4 * (np.sqrt(a) - t * np.sqrt(b)) ** 2 + 4 * (a + t * t * b)
        assert fc.p_quadratic(t, "A", 4, 12, 1, a, b) == pytest.approx(
            expected, rel=1e-12)
        assert fc.p_quadratic(t, "B", 4, 12, 1, a, b) == pytest.approx(
            expected, rel=1e-12)


def test_p_quadratic_discriminant_consistency(rng):
    # quadratic discriminant of P(t) recovers the closed-form discriminant
    for regime in ("A", "B"):
        for _ in range(100):
            lam = rng.uniform(0.1, 8)
            s = rng.uniform(0.5, 25)
            k = rng.uniform(0.0, 1.5)
            a, b = rng.uniform(0.1, 3, size=2)
            p0 = fc.p_quadratic(0.0, regime, lam, s, k, a, b)
            p1 = fc.p_quadratic(1.0, regime, lam, s, k, a, b)
            pm1 = fc.p_quadratic(-1.0, regime, lam, s, k, a, b)
            lead = 0.5 * (p1 + pm1) - p0
            lin = 0.5 * (p1 - pm1)
            disc = lin ** 2 - 4 * lead * p0
            target = fc.discriminant(lam, s, k, a, b)
            assert disc == pytest.approx(target, rel=1e-9, abs=1e-9)


def test_p_quadratic_regime_validation():
    with pytest.raises(ValueError):
        fc.p_quadratic(0.0, "C", 1, 1, 1, 1, 1)


def test_p_nonnegative_at_threshold(rng):
    for _ in range(200):
        lam = rng.uniform(0.1, 8)
        s = rng.uniform(0.5, 25)
        thr = fc.theorem2_threshold(s, lam)
        k = thr * rng.uniform(1.0, 1.5)
        if s - 12 * k < 0:
            continue
        a, b = rng.uniform(0.1, 3, size=2)
        t = np.linspace(-10, 10, 81)
        for regime in ("A", "B"):
            vals = fc.p_quadratic(t, regime, lam, s, k, a, b)
            assert vals.min() >= -1e-9


def test_theorem1_verdicts(models, model_decs, model_scans):
    v = fc.theorem1_verdict(model_decs["S4"], model_scans["S4"])
    assert v.hypotheses_hold
    assert v.theorem == "One"
    assert v.computed_threshold == pytest.approx(fc.CRITICAL_DELTA)
    assert v.margin == pytest.approx(1.0 - fc.CRITICAL_DELTA, abs=1e-6)
    assert v.claim_text

    quarter = fc.model("CP2", c=1.0)
    dec = fc.decompose(quarter.tensor)
    scan = fc.scan_extremes(quarter.tensor)
    v = fc.theorem1_verdict(dec, scan)
    assert v.hypotheses_hold
    assert any("fg/2" in note for note in v.notes)

    v = fc.theorem1_verdict(model_decs["S2xS2"], model_scans["S2xS2"])
    assert not v.hypotheses_hold
    assert v.claim_text == ""


def test_theorem1_orientation_flip():
    quarter = fc.model("CP2", c=1.0)
    reflected = fc.rotate_tensor(quarter.tensor, np.diag([1.0, 1, 1, -1]))
    dec = fc.decompose(reflected)
    assert np.linalg.norm(dec.wplus) < 1e-12      # halves swapped
    assert np.linalg.norm(dec.wminus) > 1.0
    scan = fc.scan_extremes(reflected)
    v = fc.theorem1_verdict(dec, scan)
    assert v.hypotheses_hold
    assert any("orientation flipped" in note for note in v.notes)


def test_theorem1_inconsistent_inputs(model_decs, model_scans):
    with pytest.raises(fc.InconsistentInputs):
        fc.theorem1_verdict(model_decs["S4"], model_scans["S2xS2"])


def test_theorem1_consistency_check_is_relative():
    # one tensor at scale 1e12 is consistent with itself; two tensors a
    # relative 1e-3 apart at scale 1e-6 are not
    big = fc.model("S4", r=1e-6).tensor
    fc.theorem1_verdict(fc.decompose(big), fc.scan_extremes(big))
    small = fc.model("S4", r=1e3).tensor
    other = fc.RiemannTensor(1.001 * small.components)
    with pytest.raises(fc.InconsistentInputs):
        fc.theorem1_verdict(fc.decompose(small), fc.scan_extremes(other))


def test_theorem2_verdicts(models, model_decs, model_scans):
    v = fc.theorem2_verdict(model_decs["S4"], model_scans["S4"], 4.0)
    assert v.hypotheses_hold
    assert v.theorem == "Two"
    assert v.computed_threshold == pytest.approx(0.25, abs=1e-12)
    assert v.margin == pytest.approx(0.75, abs=1e-6)
    assert v.claim_text

    v = fc.theorem2_verdict(model_decs["S2xS2"], model_scans["S2xS2"], 2.0)
    assert not v.hypotheses_hold
    assert v.margin == pytest.approx(-1 / 15, abs=1e-6)
    assert v.claim_text == ""

    # CP2 at holomorphic curvature 4 with the literature lambda1 = 12
    v = fc.theorem2_verdict(model_decs["CP2"], model_scans["CP2"], 12.0)
    assert v.computed_threshold == pytest.approx(0.4, abs=1e-12)
    assert v.hypotheses_hold
    assert v.margin == pytest.approx(0.6, abs=1e-6)


def test_theorem2_error_paths(model_decs, model_scans):
    with pytest.raises(fc.NonPositiveScalarCurvature):
        fc.theorem2_verdict(model_decs["FlatT4"], model_scans["FlatT4"], 1.0)
    with pytest.raises(fc.NonPositiveInput):
        fc.theorem2_verdict(model_decs["S4"], model_scans["S4"], 0.0)


@pytest.mark.parametrize("lambda1", [np.inf, np.nan])
def test_theorem2_threshold_rejects_non_finite_lambda1(lambda1):
    with pytest.raises(fc.NonPositiveInput):
        fc.theorem2_threshold(12.0, lambda1)
