"""Characteristic-class integrands for the four curvature quantities.

Conventions, with |W+-|^2 = sum of squared eigenvalues of the 3x3 blocks
and |ric0|^2 the squared Frobenius norm of the trace-free Ricci tensor:

    gbc = (s^2/24 + |W+|^2 + |W-|^2 - |ric0|^2 / 2) / (8 pi^2)
    sig = (|W+|^2 - |W-|^2) / (12 pi^2)
    fg  =  s^2/24 - |W+|^2 / 3 + 7 |W-|^2 / 3 - |ric0|^2 / 2

so that gbc - 2 sig = fg / (8 pi^2) identically.  Integrated over a
homogeneous space these produce the Euler characteristic and signature:
the unit four-sphere has gbc = 3/(4 pi^2), volume 8 pi^2 / 3, so chi = 2;
the complex projective plane at holomorphic curvature c has s = 6c,
|W+|^2 = 3c^2/2, gbc = 3c^2/(8 pi^2), volume 8 pi^2 / c^2, so chi = 3
and tau = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurvatureError, NotHomogeneous
from .tensor import CurvatureDecomposition, decompose

_PI2 = np.pi ** 2


@dataclass(frozen=True)
class IntegrandValues:
    gbc: float
    sig: float
    fg: float
    chi_minus_2tau_density: float


def _densities(dec: CurvatureDecomposition) -> tuple[float, float, float]:
    """(gbc, sig, fg) from one evaluation of the norms, inf or nan where a
    degree-2 quantity leaves the float range; each caller checks its own."""
    with np.errstate(over="ignore"):
        s2, wp2, wm2, ric02 = (dec.s * dec.s, float((dec.wp_eigs ** 2).sum()),
                               float((dec.wm_eigs ** 2).sum()),
                               float((dec.ric0 ** 2).sum()))
    return ((s2 / 24.0 + wp2 + wm2 - 0.5 * ric02) / (8.0 * _PI2),
            (wp2 - wm2) / (12.0 * _PI2),
            s2 / 24.0 - wp2 / 3.0 + 7.0 * wm2 / 3.0 - 0.5 * ric02)


def _in_range(value: float) -> float:
    """value, or CurvatureError where the degree-2 quantities behind it overflow."""
    if not np.isfinite(value):
        raise CurvatureError("a curvature integrand leaves the float range "
                             "at this scale of the tensor")
    return value


def gbc_integrand(dec: CurvatureDecomposition) -> float:
    """Gauss-Bonnet-Chern density; integrates to the Euler characteristic."""
    return _in_range(_densities(dec)[0])


def signature_integrand(dec: CurvatureDecomposition) -> float:
    """Hirzebruch density; integrates to the signature."""
    return _in_range(_densities(dec)[1])


def fg_value(dec: CurvatureDecomposition) -> float:
    """The chi - 2 tau combination before dividing by 8 pi^2."""
    return _in_range(_densities(dec)[2])


def integrand_values(dec: CurvatureDecomposition) -> IntegrandValues:
    gbc, sig, fg = map(_in_range, _densities(dec))
    return IntegrandValues(gbc=gbc, sig=sig, fg=fg,
                           chi_minus_2tau_density=fg / (8.0 * _PI2))


def homogeneous_invariants(model) -> tuple[float, float, float]:
    """(chi, tau, chi - 2 tau) by multiplying densities by the volume.

    Only valid when the integrand is constant, which is what the model's
    homogeneous flag certifies.
    """
    if not model.homogeneous:
        raise NotHomogeneous(f"model {model.name} is not homogeneous")
    volume = model.checked_volume()
    dec = decompose(model.tensor)
    chi = gbc_integrand(dec) * volume
    tau = signature_integrand(dec) * volume
    return chi, tau, chi - 2.0 * tau
