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

from dataclasses import dataclass, field

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


def model(name: str, **params) -> ModelSpace:
    """Build a model space by name: S4, CP2, S2xS2, or FlatT4.

    Scale parameters (all strictly positive): S4 takes r (radius, default
    1), CP2 takes c (holomorphic sectional curvature, default 4), S2xS2
    takes factor radii a and b (default 1), FlatT4 takes the side L
    (default 1).
    """
    key = name.lower()
    if key == "s4":
        r = float(params.pop("r", 1.0))
        _no_extras("S4", params)
        _positive("r", r)
        return ModelSpace(
            name="S4", params={"r": r},
            tensor=RiemannTensor(_s4_components(r)),
            volume=8.0 * _PI2 * r ** 4 / 3.0,
            lambda1=4.0 / r ** 2,
            expected_chi=2, expected_tau=0)
    if key == "cp2":
        c = float(params.pop("c", 4.0))
        _no_extras("CP2", params)
        _positive("c", c)
        return ModelSpace(
            name="CP2", params={"c": c},
            tensor=RiemannTensor(_cp2_components(c)),
            volume=8.0 * _PI2 / c ** 2,
            lambda1=3.0 * c,
            expected_chi=3, expected_tau=1)
    if key == "s2xs2":
        a = float(params.pop("a", 1.0))
        b = float(params.pop("b", 1.0))
        _no_extras("S2xS2", params)
        _positive("a", a)
        _positive("b", b)
        return ModelSpace(
            name="S2xS2", params={"a": a, "b": b},
            tensor=RiemannTensor(_s2s2_components(a, b)),
            volume=16.0 * _PI2 * a ** 2 * b ** 2,
            lambda1=min(2.0 / a ** 2, 2.0 / b ** 2),
            expected_chi=4, expected_tau=0)
    if key == "flatt4":
        L = float(params.pop("L", 1.0))
        _no_extras("FlatT4", params)
        _positive("L", L)
        return ModelSpace(
            name="FlatT4", params={"L": L},
            tensor=RiemannTensor(np.zeros((4, 4, 4, 4))),
            volume=L ** 4,
            lambda1=None,
            expected_chi=0, expected_tau=0)
    raise UnknownModel(f"no model named {name!r}; "
                       "choose from S4, CP2, S2xS2, FlatT4")


def model_names() -> tuple[str, ...]:
    return ("S4", "CP2", "S2xS2", "FlatT4")


def _positive(label: str, value: float) -> None:
    if not value > 0:
        raise NonPositiveParam(f"parameter {label} must be positive, "
                               f"got {value}")


def _no_extras(name: str, leftovers: dict) -> None:
    if leftovers:
        raise UnknownModel(
            f"model {name} does not take parameters {sorted(leftovers)}")


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
