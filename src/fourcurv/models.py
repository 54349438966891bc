"""Built-in model spaces and random samples at an exact pinching level.

Each model is given by its curvature operator on 2-forms in the wedge
basis, and its tensor is filled in from that: I/r^2 for S4 of radius r,
diag(1/a^2, 0, 0, 0, 0, 1/b^2) for S2xS2 with factor radii a and b,
(c/4)(I - * + 3 w w') for CP2 at holomorphic sectional curvature c, with
* the Hodge star and w = e1^e2 + e3^e4 the Kahler form of J e1 = e2,
J e3 = e4, and 0 for FlatT4.  Each model also carries its volume, its
first nonzero Laplace eigenvalue on functions, and the Euler
characteristic and signature it should reproduce through the
characteristic integrands; the volume may leave the float range where the
curvature does not, and is checked where it is used.  The lambda1 values are literature constants
stored as data, not computed: the round-sphere value 4/r^2 and the
product value min(2/a^2, 2/b^2) are classical, and the Fubini-Study
value 3c is cross-checked by the totally geodesic CP^1 degeneration
(a 2-sphere of radius 1/sqrt(c), first eigenvalue 2c < 3c, consistent).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveParam, UnknownModel
from .forms import SD_BASIS, STAR_MATRIX
from .scan import scan_extremes
from .tensor import RiemannTensor, _algebraic, _tensor_from_matrix

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

    def checked_volume(self) -> float:
        """The volume; NonPositiveParam where it is not a positive finite float."""
        if not 0.0 < self.volume < np.inf:
            raise _out_of_range(self.name, self.params)
        return self.volume


# the CP2 operator at c = 4, from the Kahler form w = e1^e2 + e3^e4
_KAHLER = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
_CP2_SHAPE = np.eye(6) - STAR_MATRIX + 3.0 * np.outer(_KAHLER, _KAHLER)

# label, default parameters, and the operator, volume, lambda1,
# expected_chi and expected_tau as a function of the parameters
_MODELS = {
    "s4": ("S4", {"r": 1.0}, lambda r: (
        np.eye(6) * (1.0 / r ** 2), 8.0 * _PI2 * r ** 4 / 3.0,
        4.0 / r ** 2, 2, 0)),
    "cp2": ("CP2", {"c": 4.0}, lambda c: (
        (c / 4.0) * _CP2_SHAPE, 8.0 * _PI2 / c ** 2, 3.0 * c, 3, 1)),
    "s2xs2": ("S2xS2", {"a": 1.0, "b": 1.0}, lambda a, b: (
        np.diag([1.0 / a ** 2, 0.0, 0.0, 0.0, 0.0, 1.0 / b ** 2]),
        16.0 * _PI2 * (a * b) ** 2, min(2.0 / a ** 2, 2.0 / b ** 2), 4, 0)),
    "flatt4": ("FlatT4", {"L": 1.0}, lambda L: (
        np.zeros((6, 6)), L ** 4, None, 0, 0)),
}


def model(name: str, **params) -> ModelSpace:
    """Build a model space by name: S4, CP2, S2xS2, or FlatT4.

    Scale parameters (all positive and finite): S4 takes r (radius,
    default 1), CP2 takes c (holomorphic sectional curvature, default 4),
    S2xS2 takes factor radii a and b (default 1), FlatT4 takes the side L
    (default 1).  The curvature must be finite and lambda1 positive and
    finite; the volume is checked where it is used, by checked_volume.
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
    # in numpy floats a power or quotient out of range gives inf or 0 where
    # a Python float raises, so a volume out of range leaves the rest intact
    with np.errstate(all="ignore"):
        matrix, volume, lambda1, chi, tau = fields(
            **{key: np.float64(value) for key, value in values.items()})
    if not (np.isfinite(matrix).all()
            and (lambda1 is None or 0.0 < lambda1 < np.inf)):
        raise _out_of_range(label, values)
    return ModelSpace(name=label, params=values,
                      tensor=RiemannTensor(_tensor_from_matrix(matrix)),
                      volume=float(volume),
                      lambda1=None if lambda1 is None else float(lambda1),
                      expected_chi=chi, expected_tau=tau)


def _out_of_range(label: str, params: dict) -> NonPositiveParam:
    given = ", ".join(f"{key} = {value:g}" for key, value in params.items())
    return NonPositiveParam(f"{label} with {given}: its volume, lambda1 or "
                            "curvature is not a positive finite float")


def model_names() -> tuple[str, ...]:
    return tuple(label for label, _, _ in _MODELS.values())


def _weyl_only_noise(rng: np.random.Generator) -> np.ndarray:
    """Operator of a traceless symmetric perturbation of the self-dual block only.

    Keeps the tensor Einstein and anti-self-dual-Weyl flat, which is the
    half-conformally-flat sample family for the first theorem.
    """
    w = rng.normal(size=(3, 3))
    w = 0.5 * (w + w.T)
    w -= np.trace(w) / 3.0 * np.eye(3)
    return SD_BASIS @ w @ SD_BASIS.T


def pinched_sample(seed, delta_target: float = 0.85,
                   weyl_only: bool = False) -> RiemannTensor:
    """Random tensor with sectional range [delta_target, 1], up to rounding.

    The noise N is traceless, so its sectional curvature averages s = 0
    and one scan gives n_min < 0 < n_max.  K is linear in the operator and
    1 on every plane for I, so (I + l N)/(1 + l n_max) with
    l = (1 - delta)/(delta n_max - n_min) has k_max = 1 and pinching delta;
    delta_target = 1 gives the unit S4.  N is symmetry-projected noise, or
    with weyl_only a self-dual Weyl block.  Deterministic per seed, which
    may be anything numpy.random.default_rng accepts.
    """
    if not 0.0 < delta_target <= 1.0:
        raise ValueError(f"delta_target must lie in (0, 1], "
                         f"got {delta_target}")
    rng = np.random.default_rng(seed)
    if weyl_only:
        noise = _weyl_only_noise(rng)
    else:
        noise = _algebraic(rng.normal(size=(6, 6)))
        noise -= np.trace(noise) / 6.0 * np.eye(6)
    scan = scan_extremes(RiemannTensor(_tensor_from_matrix(noise)))
    weight = (1.0 - delta_target) / (delta_target * scan.k_max - scan.k_min)
    return RiemannTensor(_tensor_from_matrix(
        (np.eye(6) + weight * noise) / (1.0 + weight * scan.k_max)))
