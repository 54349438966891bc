import numpy as np
import pytest

import fourcurv as fc


def test_characteristic_numbers(models):
    expected = {"S4": (2, 0), "CP2": (3, 1), "S2xS2": (4, 0),
                "FlatT4": (0, 0)}
    for name, ms in models.items():
        chi, tau, cm2t = fc.homogeneous_invariants(ms)
        assert chi == pytest.approx(expected[name][0], abs=1e-9)
        assert tau == pytest.approx(expected[name][1], abs=1e-9)
        assert cm2t == pytest.approx(expected[name][0]
                                     - 2 * expected[name][1], abs=1e-9)


def test_s4_worked_integrands(model_decs):
    vals = fc.integrand_values(model_decs["S4"])
    assert vals.gbc == pytest.approx(3.0 / (4.0 * np.pi ** 2), abs=1e-15)
    assert vals.sig == 0.0
    assert vals.fg == pytest.approx(6.0, abs=1e-12)


def test_cp2_worked_integrands(model_decs):
    vals = fc.integrand_values(model_decs["CP2"])  # hol. sec. curvature 4
    assert vals.gbc == pytest.approx(48.0 / (8.0 * np.pi ** 2), abs=1e-12)
    assert vals.sig == pytest.approx(24.0 / (12.0 * np.pi ** 2), abs=1e-12)
    assert vals.fg == pytest.approx(16.0, abs=1e-12)


def test_euler_density_vanishes_on_s3s1():
    # independent oracle: chi(S^3 x S^1) = 0 and the product is
    # homogeneous, so the Gauss-Bonnet-Chern density must vanish
    # pointwise; this pins the -1/2 Ricci coefficient
    comps = np.zeros((4, 4, 4, 4))
    for i in range(3):
        for j in range(3):
            if i != j:
                comps[i, j, i, j] = 1.0
                comps[i, j, j, i] = -1.0
    dec = fc.decompose(fc.RiemannTensor(comps))
    assert fc.integrand_values(dec).gbc == pytest.approx(0.0, abs=1e-15)


def test_fg_recombination_identity(rng):
    # fg = 8 pi^2 (gbc - 2 sig), exactly, on random decompositions
    for _ in range(200):
        dec = fc.decompose(fc.random_algebraic_tensor(rng))
        vals = fc.integrand_values(dec)
        target = 8.0 * np.pi ** 2 * (vals.gbc - 2.0 * vals.sig)
        assert abs(vals.fg - target) < 1e-12 * max(1.0, abs(vals.fg))


def test_signature_bound_on_positively_curved_models(models):
    for name in ("S4", "CP2", "S2xS2"):
        chi, tau, _ = fc.homogeneous_invariants(models[name])
        assert abs(tau) < chi / 2


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_integrands_out_of_float_range_raise(scale):
    # the degree-2 quantities overflow although every component is finite
    dec = fc.decompose(fc.random_algebraic_tensor(1, scale=scale))
    with pytest.raises(fc.CurvatureError, match="float range"):
        fc.integrand_values(dec)
