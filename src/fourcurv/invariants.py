"""Characteristic-class integrands, all three from one function,
integrand_values, which every caller reads.

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

from .errors import CurvatureError
from .tensor import CurvatureDecomposition, decompose

_PI2 = np.pi ** 2


@dataclass(frozen=True)
class IntegrandValues:
    gbc: float
    sig: float
    fg: float


def integrand_values(dec: CurvatureDecomposition) -> IntegrandValues:
    """(gbc, sig, fg) from one evaluation of the norms; CurvatureError where
    a degree-2 quantity behind them leaves the float range."""
    with np.errstate(over="ignore"):
        s2, wp2, wm2, ric02 = (dec.s * dec.s, float((dec.wp_eigs ** 2).sum()),
                               float((dec.wm_eigs ** 2).sum()),
                               float((dec.ric0 ** 2).sum()))
    values = ((s2 / 24.0 + wp2 + wm2 - 0.5 * ric02) / (8.0 * _PI2),
              (wp2 - wm2) / (12.0 * _PI2),
              s2 / 24.0 - wp2 / 3.0 + 7.0 * wm2 / 3.0 - 0.5 * ric02)
    if not np.isfinite(values).all():
        raise CurvatureError("a curvature integrand leaves the float range "
                             "at this scale of the tensor")
    return IntegrandValues(*values)


def homogeneous_invariants(model) -> tuple[float, float, float]:
    """(chi, tau, chi - 2 tau) by multiplying densities by the volume.

    Valid because every built-in model is homogeneous, so its integrands
    are constant.
    """
    volume = model.checked_volume()
    vals = integrand_values(decompose(model.tensor))
    chi = vals.gbc * volume
    tau = vals.sig * volume
    return chi, tau, chi - 2.0 * tau
