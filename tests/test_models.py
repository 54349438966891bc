import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fourcurv as fc


def _fill_sectional(c, i, j, value):
    c[i, j, i, j] = c[j, i, j, i] = value
    c[i, j, j, i] = c[j, i, i, j] = -value


def s4_components(r):
    """The round sphere from the constant-curvature formula."""
    k = 1.0 / r ** 2
    eye = np.eye(4)
    return k * (np.einsum("ik,jl->ijkl", eye, eye)
                - np.einsum("il,jk->ijkl", eye, eye))


def s2s2_components(a, b):
    """The product from its two sectional curvatures."""
    c = np.zeros((4, 4, 4, 4))
    _fill_sectional(c, 0, 1, 1.0 / a ** 2)
    _fill_sectional(c, 2, 3, 1.0 / b ** 2)
    return c


def cp2_components(c):
    """Fubini-Study from the complex structure J e1 = e2, J e3 = e4."""
    J = np.array([[0.0, -1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0],
                  [0.0, 0.0, 1.0, 0.0]])
    G = J.T  # G[i, k] = <J e_i, e_k>
    eye = np.eye(4)
    return (c / 4.0) * (np.einsum("ik,jl->ijkl", eye, eye)
                        - np.einsum("il,jk->ijkl", eye, eye)
                        + np.einsum("ik,jl->ijkl", G, G)
                        - np.einsum("il,jk->ijkl", G, G)
                        + 2.0 * np.einsum("ij,kl->ijkl", G, G))


@pytest.mark.parametrize("x", [1.0, 0.5, 3.0, 1e-5, 7.3, 1e30])
def test_model_operators_match_the_tensor_formulas(x):
    # bit for bit, with the sign of every zero, so that exported tensors
    # and their JSON stay as the tensor formulas give them
    pairs = [(fc.model("S4", r=x), s4_components(x)),
             (fc.model("CP2", c=x), cp2_components(x)),
             (fc.model("S2xS2", a=x, b=1.7), s2s2_components(x, 1.7)),
             (fc.model("S2xS2", a=0.3, b=x), s2s2_components(0.3, x)),
             (fc.model("FlatT4", L=x), np.zeros((4, 4, 4, 4)))]
    for ms, want in pairs:
        got = ms.tensor.components
        assert np.array_equal(got, want), ms.name
        assert np.array_equal(np.signbit(got), np.signbit(want)), ms.name


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
        assert rep.k_max == pytest.approx(1.0, abs=1e-14)
        assert rep.delta == pytest.approx(0.85, abs=1e-14)
        assert fc.validate_symmetries(R).max_residual < 1e-12


def test_pinched_sample_zero_scale_is_sphere():
    R = fc.pinched_sample(seed=0, delta_target=1.0)
    assert np.array_equal(R.components, fc.model("S4").tensor.components)


def test_pinched_sample_weyl_only():
    R = fc.pinched_sample(seed=3, weyl_only=True, delta_target=0.7)
    dec = fc.decompose(R)
    assert np.linalg.norm(dec.ric0) < 1e-12           # stays Einstein
    assert np.linalg.norm(dec.wminus) < 1e-12
    assert np.linalg.norm(dec.wplus) > 1e-4


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       delta=st.floats(0.0, 1.0, exclude_min=True), weyl_only=st.booleans())
@example(seed=0, delta=fc.CRITICAL_DELTA, weyl_only=False)
@example(seed=0, delta=fc.CRITICAL_DELTA, weyl_only=True)
@example(seed=0, delta=1.0, weyl_only=False)
@example(seed=0, delta=1.0, weyl_only=True)
def test_pinched_sample_is_pinched_at_the_target(seed, delta, weyl_only):
    R = fc.pinched_sample(seed, delta, weyl_only=weyl_only)
    scan = fc.scan_extremes(R)
    assert abs(scan.delta - delta) <= 1e-14
    assert abs(scan.k_max - 1.0) <= 1e-14
    if weyl_only:
        dec = fc.decompose(R)
        assert np.abs(dec.ric0).max() <= 1e-14       # Einstein
        assert np.abs(dec.wminus).max() <= 1e-14


def test_pinched_sample_scans_once(monkeypatch):
    scanned = []

    def counted(R):
        scanned.append(R)
        return fc.scan_extremes(R)

    monkeypatch.setattr("fourcurv.models.scan_extremes", counted)
    for seed in range(5):
        for weyl_only in (False, True):
            scanned.clear()
            fc.pinched_sample(seed, weyl_only=weyl_only)
            assert len(scanned) == 1


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


# settings whose tensor and lambda1 are in the float range, but not the volume
_VOLUME_ONLY = {("S4", 1e-100), ("CP2", 1e200), ("CP2", 1e-160),
                ("FlatT4", 1e100), ("FlatT4", 1e-100)}


@pytest.mark.parametrize("name, params", [
    ("S4", {"r": 1e200}), ("S4", {"r": 1e-200}), ("S4", {"r": 1e-100}),
    ("CP2", {"c": 1e200}), ("CP2", {"c": 1e-160}),
    ("S2xS2", {"a": 1e-200}), ("S2xS2", {"b": 1e160}),
    ("FlatT4", {"L": 1e100}), ("FlatT4", {"L": 1e-100}),
])
def test_model_rejects_params_out_of_float_range(name, params):
    # finite parameters whose volume, lambda1 or curvature overflows,
    # underflows to 0 or divides by 0: model refuses the curvature and
    # lambda1; where only the volume leaves the float range, model accepts
    # the setting and the volume is refused where it is used
    key, value = next(iter(params.items()))
    if (name, value) in _VOLUME_ONLY:
        refuse = fc.model(name, **params).checked_volume
    else:
        refuse = functools.partial(fc.model, name, **params)
    with pytest.raises(fc.NonPositiveParam, match=f"{key} = "):
        refuse()


def test_s2xs2_volume_overflows_only_with_the_volume():
    # 16 pi^2 a^2 overflows on its own here, but the volume is finite
    m = fc.model("S2xS2", a=1e154, b=1e-10)
    assert m.volume == pytest.approx(16.0 * np.pi ** 2 * 1e288, rel=1e-12)
    with pytest.raises(fc.NonPositiveParam):
        fc.model("S2xS2", a=1e-200, b=1e160)
