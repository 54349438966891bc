"""Built-in model spaces and a generator of random pinched samples.

Each model carries its exact curvature tensor in an orthonormal frame,
its volume, its first nonzero Laplace eigenvalue on functions, and the
Euler characteristic and signature it should reproduce through the
characteristic integrands.  The lambda1 values are literature constants
stored as data, not computed: the round-sphere value 4/r^2 and the
product value min(2/a^2, 2/b^2) are classical, and the Fubini-Study
value 3c is cross-checked by the totally geodesic CP^1 degeneration
(a 2-sphere of radius 1/sqrt(c), first eigenvalue 2c < 3c, consistent).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveParam, SamplingExhausted, UnknownModel
from .forms import BLOCK_BASIS
from .scan import scan_extremes
from .tensor import (RiemannTensor, _tensor_from_matrix,
                     random_algebraic_tensor)

_PI2 = np.pi ** 2


@dataclass(frozen=True)
class ModelSpace:
    name: str
    params: dict
    tensor: RiemannTensor
    volume: float
    lambda1: float | None
    expected_chi: int
    expected_tau: int
    homogeneous: bool = True


def _fill_sectional(components: np.ndarray, i: int, j: int, value: float) -> None:
    components[i, j, i, j] = value
    components[j, i, j, i] = value
    components[i, j, j, i] = -value
    components[j, i, i, j] = -value


def _s4_components(r: float) -> np.ndarray:
    k = 1.0 / r ** 2
    eye = np.eye(4)
    return k * (np.einsum("ik,jl->ijkl", eye, eye)
                - np.einsum("il,jk->ijkl", eye, eye))


def _s2s2_components(a: float, b: float) -> np.ndarray:
    c = np.zeros((4, 4, 4, 4))
    _fill_sectional(c, 0, 1, 1.0 / a ** 2)
    _fill_sectional(c, 2, 3, 1.0 / b ** 2)
    return c


def _cp2_components(c: float) -> np.ndarray:
    # J e1 = e2, J e3 = e4; constant holomorphic sectional curvature c
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


# label, default parameters, and the remaining ModelSpace fields
# (components, volume, lambda1, expected_chi, expected_tau) as a function
# of the parameters
_MODELS = {
    "s4": ("S4", {"r": 1.0}, lambda r: (
        _s4_components(r), 8.0 * _PI2 * r ** 4 / 3.0, 4.0 / r ** 2, 2, 0)),
    "cp2": ("CP2", {"c": 4.0}, lambda c: (
        _cp2_components(c), 8.0 * _PI2 / c ** 2, 3.0 * c, 3, 1)),
    "s2xs2": ("S2xS2", {"a": 1.0, "b": 1.0}, lambda a, b: (
        _s2s2_components(a, b), 16.0 * _PI2 * a ** 2 * b ** 2,
        min(2.0 / a ** 2, 2.0 / b ** 2), 4, 0)),
    "flatt4": ("FlatT4", {"L": 1.0}, lambda L: (
        np.zeros((4, 4, 4, 4)), L ** 4, None, 0, 0)),
}


def model(name: str, **params) -> ModelSpace:
    """Build a model space by name: S4, CP2, S2xS2, or FlatT4.

    Scale parameters (all positive and finite): S4 takes r (radius,
    default 1), CP2 takes c (holomorphic sectional curvature, default 4),
    S2xS2 takes factor radii a and b (default 1), FlatT4 takes the side L
    (default 1).
    """
    if name.lower() not in _MODELS:
        raise UnknownModel(f"no model named {name!r}; "
                           f"choose from {', '.join(model_names())}")
    label, defaults, fields = _MODELS[name.lower()]
    values = {key: float(params.pop(key, default))
              for key, default in defaults.items()}
    if params:
        raise UnknownModel(
            f"model {label} does not take parameters {sorted(params)}")
    for key, value in values.items():
        if not 0.0 < value < np.inf:
            raise NonPositiveParam(f"parameter {key} must be positive and "
                                   f"finite, got {value}")
    components, volume, lambda1, chi, tau = fields(**values)
    return ModelSpace(name=label, params=values,
                      tensor=RiemannTensor(components), volume=volume,
                      lambda1=lambda1, expected_chi=chi, expected_tau=tau)


def model_names() -> tuple[str, ...]:
    return tuple(label for label, _, _ in _MODELS.values())


def _weyl_only_noise(rng: np.random.Generator, scale: float) -> np.ndarray:
    """Traceless symmetric perturbation of the self-dual block only.

    Keeps the tensor Einstein and anti-self-dual-Weyl flat, which is the
    half-conformally-flat sample family for the first theorem.
    """
    w = rng.normal(size=(3, 3))
    w = 0.5 * (w + w.T)
    w -= np.trace(w) / 3.0 * np.eye(3)
    block = np.zeros((6, 6))
    block[:3, :3] = scale * w
    return _tensor_from_matrix(BLOCK_BASIS @ block @ BLOCK_BASIS.T)


def pinched_sample(seed: int, delta_target: float = 0.85,
                   w_perturbation_scale: float = 0.02,
                   weyl_only: bool = False,
                   max_attempts: int = 64) -> RiemannTensor:
    """Random tensor with scan-verified sectional range [delta_target, 1].

    Blends the unit-sphere tensor with a symmetry-projected perturbation,
    rescales so the scanned maximum is 1, and rejects until the scanned
    minimum clears delta_target.  Deterministic per seed.  The scanned
    extremes are homogeneous of degree one in the tensor, so one scan per
    attempt decides both the rescaling and the acceptance.
    """
    if not 0.0 < delta_target <= 1.0:
        raise ValueError(f"delta_target must lie in (0, 1], "
                         f"got {delta_target}")
    rng = np.random.default_rng(seed)
    base = _s4_components(1.0)
    for _ in range(max_attempts):
        if weyl_only:
            noise = _weyl_only_noise(rng, w_perturbation_scale)
        else:
            noise = w_perturbation_scale * random_algebraic_tensor(rng).components
        R = RiemannTensor(base + noise)
        report = scan_extremes(R)
        if report.k_max <= 0:
            continue
        if report.k_min / report.k_max < delta_target:
            continue
        if abs(report.k_max - 1.0) > 1e-12:
            R = RiemannTensor(R.components / report.k_max)
        return R
    raise SamplingExhausted(
        f"no sample with pinching {delta_target} in {max_attempts} attempts; "
        "lower delta_target or w_perturbation_scale")
