"""Bounds that hold conditionally on delta-pinching (K in [delta, 1]).

Quantities live in the eigenbasis H1,H2,H3 of W+: with u = s/12,

    v_i        = u + w_i+/2                      in [delta, 1] under pinching
    K_i        = ric*(H_i)/|ric*(H_i)|           unit ASD image, when nonzero
    z_i        = <ric*(H_i), K_i> = |ric*(H_i)|
    lambda_i-  = <W- K_i, K_i>
    alpha      = max_i |lambda_i-|
    A_i        = min(1 - v_i - lambda_i-/2, v_i + lambda_i-/2 - delta)

The A_i above follow the PROOF of the Z-block estimate; the theorem
statement prints the first term with the opposite sign on lambda_i-/2
(a transcription: PAPER.md holds only the abstract).  Both are computed;
the proof version is the bound everywhere.  The statement version, reported
beside it, is no bound: on the pinched tensors tests/data/pinched_*.json
||Z||^2 exceeds it by up to 2.6e-3, where the proof version holds.

In the block form of Singer and Thorpe the biorthogonal values
<(U+W)P, P> fill [K1perp, K3perp] and the eigen-direction variant
u + <W+ H, H>/2 fills [v_1, v_3], so the operator bound is checked at
these four exact extremes.

All checks here take the caller's scan of the tensor and verify pinching
first through its certified bounds, allowing SCAN_ACCURACY (times max|R|
below scale 1) as margin; they refuse to run otherwise, because the
underlying lemmas are simply false without the hypothesis.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PinchingNotVerified
from .invariants import integrand_values
from .reporting import CheckReport
from .scan import (SCAN_ACCURACY, PinchingReport, _require_same_tensor,
                   k1perp_closed_form, k3perp_closed_form)
from .tensor import CurvatureDecomposition, RiemannTensor, decompose

_ZERO_IMAGE = 1e-13
# A_i is zero up to rounding at equality pinching (v_i = delta or v_i = 1)
_A_ROUNDING = 1e-12


@dataclass
class VilleData:
    """Eigenbasis data for the Z-block and (deg) estimates; the H_i are the
    columns of the decomposition's wp_vecs."""

    k_units: tuple           # ASD coordinates of K_i, or None when undefined
    z: np.ndarray
    lambda_minus: np.ndarray
    v: np.ndarray
    alpha: float
    a: np.ndarray            # proof version
    a_statement: np.ndarray  # statement version, for comparison


def ville_data(dec: CurvatureDecomposition, delta: float) -> VilleData:
    """Assemble all per-eigenvector quantities for a given pinching level.

    When ric*(H_i) vanishes there is no unit image to normalize; K_i is
    recorded as undefined and z_i = lambda_i- = 0, which leaves every bound
    intact (that term contributes nothing to the left sides).  The image
    counts as zero below _ZERO_IMAGE max|R|, so the cut scales with the tensor.
    """
    v = dec.u + 0.5 * dec.wp_eigs
    z = np.zeros(3)
    lam = np.zeros(3)
    k_units = [None, None, None]
    cut = _ZERO_IMAGE * dec.max_abs
    for i in range(3):
        image = dec.z_block.T @ dec.wp_vecs[:, i]
        norm = float(np.linalg.norm(image))
        if norm > cut:
            k = image / norm
            k_units[i] = k
            z[i] = norm
            lam[i] = float(k @ dec.wminus @ k)
    a = np.minimum(1.0 - v - 0.5 * lam, v + 0.5 * lam - delta)
    a_stmt = np.minimum(1.0 - v + 0.5 * lam, v + 0.5 * lam - delta)
    if a.min() < -_A_ROUNDING:
        warnings.warn(
            f"negative A_i (min {a.min():.3e}): delta={delta} is inconsistent "
            "with the pinching of this decomposition", RuntimeWarning)
    return VilleData(
        k_units=tuple(k_units),
        z=z,
        lambda_minus=lam,
        v=v,
        alpha=float(np.abs(lam).max()),
        a=a,
        a_statement=a_stmt,
    )


def _verify_pinching(dec: CurvatureDecomposition, delta: float,
                     scan: PinchingReport) -> None:
    """Precondition K <= 1 and K >= delta on the certified bounds of a scan of dec.

    The margin is SCAN_ACCURACY, times max|R| below scale 1, so that a tensor
    far smaller than SCAN_ACCURACY is not taken for a pinched one.
    """
    _require_same_tensor(dec, scan)
    margin = SCAN_ACCURACY * min(1.0, dec.max_abs)
    if scan.k_max_upper > 1.0 + margin:
        raise PinchingNotVerified(
            f"k_max <= {scan.k_max_upper:.9g} is not certified below 1")
    if scan.k_min_lower < delta - margin:
        raise PinchingNotVerified(
            f"k_min >= {scan.k_min_lower:.9g} is not certified above "
            f"delta = {delta:.9g}")


def operator_bound_check(R: RiemannTensor, delta: float, tol: float = 1e-9, *,
                         scan: PinchingReport) -> CheckReport:
    """delta <= <(U+W)P, P> <= 1 on every plane, under verified pinching.

    The biorthogonal values fill [K1perp, K3perp], and the eigen-direction
    variant u + <W+ H, H>/2 fills [u + w1+/2, u + w3+/2], so the check
    tests these four exact extremes.
    """
    dec = decompose(R)
    _verify_pinching(dec, delta, scan)
    ends = np.array([k1perp_closed_form(dec), k3perp_closed_form(dec),
                     *(dec.u + 0.5 * dec.wp_eigs[[0, 2]])])
    return CheckReport.from_slack(
        "operator_bound", np.minimum(ends - delta, 1.0 - ends), tol,
        metrics=dict(zip(("min_value", "max_value", "min_eigen_value",
                          "max_eigen_value"), ends.tolist())))


def znorm_bound_check(dec: CurvatureDecomposition, delta: float,
                      tol: float = 1e-9, *, scan: PinchingReport) -> CheckReport:
    """||Z||^2 <= 2 sum A_i^2 with ||Z||^2 = 2 sum z_i^2 (block plus adjoint)."""
    _verify_pinching(dec, delta, scan)
    vd = ville_data(dec, delta)
    lhs = 2.0 * float((vd.z ** 2).sum())
    lhs_block = 2.0 * float((dec.z_block ** 2).sum())
    rhs = 2.0 * float((vd.a ** 2).sum())
    rhs_other = 2.0 * float((vd.a_statement ** 2).sum())
    notes = ()
    if vd.a.min() < -_A_ROUNDING:
        notes = ("negative A_i: pinching level and decomposition disagree",)
    return CheckReport.from_slack(
        "znorm_bound", rhs - lhs, tol,
        metrics={
            "z_norm2": lhs,
            "z_norm2_from_block": lhs_block,
            "bound": rhs,
            "bound_other_version": rhs_other,
        },
        notes=notes,
    )


def deg_lower_bound(dec: CurvatureDecomposition, delta: float, *,
                    scan: PinchingReport) -> tuple[float, float]:
    """(F(g), lower bound) for the Theorem 1 integrand; contract fg >= bound.

    bound = (10/9)(sum v)^2 - (4/3) sum v^2 + (7/2) alpha^2 - 2 sum A_i^2,

    with the proof version of A_i.  The two terms of A_i sum to
    1 - delta >= 0, so A_i^2 is the smaller of their squares.
    """
    _verify_pinching(dec, delta, scan)
    vd = ville_data(dec, delta)
    v = vd.v
    bound = ((10.0 / 9.0) * v.sum() ** 2 - (4.0 / 3.0) * (v ** 2).sum()
             + 3.5 * vd.alpha ** 2 - 2.0 * (vd.a ** 2).sum())
    return integrand_values(dec).fg, float(bound)
