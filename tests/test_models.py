import numpy as np
import pytest

import fourcurv as fc


def test_model_names_cover_factory():
    assert fc.model_names() == ("S4", "CP2", "S2xS2", "FlatT4")
    for name in fc.model_names():
        m = fc.model(name)
        assert m.name == name
        assert m.homogeneous
        assert fc.validate_symmetries(m.tensor).max_residual == 0.0


def test_model_name_case_insensitive():
    assert np.array_equal(fc.model("s4").tensor.components,
                          fc.model("S4").tensor.components)
    assert np.array_equal(fc.model("cp2").tensor.components,
                          fc.model("CP2").tensor.components)


def test_s4_scaling():
    m = fc.model("S4", r=2.0)
    assert m.lambda1 == pytest.approx(1.0)
    assert m.volume == pytest.approx(8 * np.pi ** 2 * 16 / 3)
    rep = fc.scan_extremes(m.tensor)
    assert rep.k_min == pytest.approx(0.25, abs=1e-6)
    assert rep.k_max == pytest.approx(0.25, abs=1e-6)
    assert (m.expected_chi, m.expected_tau) == (2, 0)


def test_cp2_scaling():
    m = fc.model("CP2", c=2.0)
    assert m.lambda1 == pytest.approx(6.0)
    assert m.volume == pytest.approx(8 * np.pi ** 2 / 4)
    rep = fc.scan_extremes(m.tensor)
    assert rep.k_min == pytest.approx(0.5, abs=1e-6)   # c/4
    assert rep.k_max == pytest.approx(2.0, abs=1e-6)   # c
    assert (m.expected_chi, m.expected_tau) == (3, 1)
    dec = fc.decompose(m.tensor)
    assert dec.s == pytest.approx(12.0)                # 6c


def test_s2s2_parameters():
    m = fc.model("S2xS2", a=1.0, b=2.0)
    assert m.lambda1 == pytest.approx(0.5)             # min(2/a^2, 2/b^2)
    assert m.volume == pytest.approx(16 * np.pi ** 2 * 4)
    rep = fc.scan_extremes(m.tensor)
    assert rep.k_min == pytest.approx(0.0, abs=1e-9)
    assert rep.k_max == pytest.approx(1.0, abs=1e-6)   # max(1/a^2, 1/b^2)
    assert rep.k1perp == pytest.approx(0.0, abs=1e-9)
    assert (m.expected_chi, m.expected_tau) == (4, 0)


def test_flat_torus():
    m = fc.model("FlatT4", L=3.0)
    assert m.lambda1 is None
    assert m.volume == pytest.approx(81.0)
    assert np.all(m.tensor.components == 0)
    assert (m.expected_chi, m.expected_tau) == (0, 0)


def test_model_invariants_match(models, model_decs):
    for name, m in models.items():
        chi, tau, _ = fc.homogeneous_invariants(m)
        assert chi == pytest.approx(m.expected_chi, abs=1e-9)
        assert tau == pytest.approx(m.expected_tau, abs=1e-9)


def test_model_error_paths():
    with pytest.raises(fc.UnknownModel):
        fc.model("K3")
    with pytest.raises(fc.UnknownModel):
        fc.model("S4", c=1.0)       # c belongs to CP2
    with pytest.raises(fc.NonPositiveParam):
        fc.model("S4", r=0.0)
    with pytest.raises(fc.NonPositiveParam):
        fc.model("CP2", c=-1.0)
    with pytest.raises(fc.NonPositiveParam):
        fc.model("S2xS2", a=1.0, b=-2.0)
    with pytest.raises(fc.NonPositiveParam):
        fc.model("FlatT4", L=0.0)


def test_pinched_sample_deterministic():
    r1 = fc.pinched_sample(seed=5)
    r2 = fc.pinched_sample(seed=5)
    assert np.array_equal(r1.components, r2.components)
    r3 = fc.pinched_sample(seed=6)
    assert not np.array_equal(r1.components, r3.components)


def test_pinched_sample_meets_target(pinched_batch):
    for R, dec, rep in pinched_batch[:20]:
        assert rep.k_max == pytest.approx(1.0, abs=1e-6)
        assert rep.delta is not None and rep.delta >= 0.85 - 1e-9
        assert fc.validate_symmetries(R).max_residual < 1e-12


def test_pinched_sample_zero_scale_is_sphere():
    R = fc.pinched_sample(seed=0, w_perturbation_scale=0.0)
    assert np.array_equal(R.components, fc.model("S4").tensor.components)


def test_pinched_sample_weyl_only():
    R = fc.pinched_sample(seed=3, weyl_only=True,
                          w_perturbation_scale=0.05, delta_target=0.7)
    dec = fc.decompose(R)
    assert np.linalg.norm(dec.ric0) < 1e-12           # stays Einstein
    assert np.linalg.norm(dec.wminus) < 1e-12
    assert np.linalg.norm(dec.wplus) > 1e-4


def test_pinched_sample_exhaustion():
    with pytest.raises(fc.SamplingExhausted):
        fc.pinched_sample(seed=0, delta_target=0.999,
                          w_perturbation_scale=0.5, max_attempts=2)


def test_pinched_sample_target_validation():
    with pytest.raises(ValueError):
        fc.pinched_sample(seed=0, delta_target=0.0)
    with pytest.raises(ValueError):
        fc.pinched_sample(seed=0, delta_target=1.2)


@pytest.mark.parametrize("name, params", [
    ("S4", {"r": np.inf}), ("CP2", {"c": np.nan}),
    ("S2xS2", {"a": 1.0, "b": np.inf}), ("FlatT4", {"L": -np.inf}),
])
def test_model_rejects_non_finite_params(name, params):
    with pytest.raises(fc.NonPositiveParam, match="finite"):
        fc.model(name, **params)
