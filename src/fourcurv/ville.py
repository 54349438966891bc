"""Bounds that hold conditionally on delta-pinching (K in [delta, 1]).

Quantities live in the eigenbasis H1,H2,H3 of W+: with u = s/12,

    v_i        = u + w_i+/2                      in [delta, 1] under pinching
    K_i        = ric*(H_i)/|ric*(H_i)|           unit ASD image, when nonzero
    z_i        = <ric*(H_i), K_i> = |ric*(H_i)|
    lambda_i-  = <W- K_i, K_i>
    alpha      = max_i |lambda_i-|
    A_i        = min(1 - v_i - lambda_i-/2, v_i + lambda_i-/2 - delta)

The A_i above follow the PROOF of the Z-block estimate; the theorem
statement prints the first term with the opposite sign on lambda_i-/2.
Both are computed, the proof version is the default everywhere, and the
discrepancy is reported rather than resolved.

All checks here verify pinching first through the certified bounds of
the plane scan, allowing SCAN_ACCURACY as margin; they refuse to run
otherwise, because the underlying lemmas are simply false without the
hypothesis.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PinchingNotVerified
from .invariants import fg_value
from .reporting import CheckReport
from .scan import SCAN_ACCURACY, PinchingReport, _scan_blocks
from .tensor import CurvatureDecomposition, RiemannTensor, _blocks, decompose

_ZERO_IMAGE = 1e-13


@dataclass
class VilleData:
    """Eigenbasis data for the Z-block and (deg) estimates."""

    delta: float
    h_basis: np.ndarray      # columns H_i, coordinates in the SD basis
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
    intact (that term contributes nothing to the left sides).
    """
    evals, evecs = np.linalg.eigh(dec.wplus)
    v = dec.u + 0.5 * evals
    z = np.zeros(3)
    lam = np.zeros(3)
    k_units = [None, None, None]
    for i in range(3):
        image = dec.z_block.T @ evecs[:, i]
        norm = float(np.linalg.norm(image))
        if norm > _ZERO_IMAGE:
            k = image / norm
            k_units[i] = k
            z[i] = norm
            lam[i] = float(k @ dec.wminus @ k)
    a = np.minimum(1.0 - v - 0.5 * lam, v + 0.5 * lam - delta)
    a_stmt = np.minimum(1.0 - v + 0.5 * lam, v + 0.5 * lam - delta)
    # equality pinching (v_i = delta or v_i = 1) puts A_i at zero up to
    # rounding; only genuinely negative values signal inconsistency
    if a.min() < -1e-12:
        warnings.warn(
            f"negative A_i (min {a.min():.3e}): delta={delta} is inconsistent "
            "with the pinching of this decomposition", RuntimeWarning)
    return VilleData(
        delta=delta,
        h_basis=evecs,
        k_units=tuple(k_units),
        z=z,
        lambda_minus=lam,
        v=v,
        alpha=float(np.abs(lam).max()),
        a=a,
        a_statement=a_stmt,
    )


def _verify_pinching(dec: CurvatureDecomposition, delta: float,
                     scan: PinchingReport | None) -> PinchingReport:
    """Precondition K <= 1 and K >= delta on the certified bounds of a scan of dec."""
    if scan is None:
        scan = _scan_blocks(_blocks(dec))
    if scan.k_max_upper > 1.0 + SCAN_ACCURACY:
        raise PinchingNotVerified(
            f"k_max <= {scan.k_max_upper:.9g} is not certified below 1")
    if scan.k_min_lower < delta - SCAN_ACCURACY:
        raise PinchingNotVerified(
            f"k_min >= {scan.k_min_lower:.9g} is not certified above "
            f"delta = {delta:.9g}")
    return scan


def operator_bound_check(R: RiemannTensor, delta: float, n_planes: int = 1000,
                         seed: int = 0, tol: float = 1e-9,
                         scan: PinchingReport | None = None) -> CheckReport:
    """delta <= <(U+W)P, P> <= 1 on random planes, under verified pinching.

    Also checks the eigen-direction variant delta <= u + <W+ H, H>/2 <= 1
    on the same self-dual samples.  Pass a precomputed scan to skip the
    verification rescan.
    """
    dec = decompose(R)
    _verify_pinching(dec, delta, scan)
    A = dec.wplus + dec.u * np.eye(3)
    C = dec.wminus + dec.u * np.eye(3)
    rng = np.random.default_rng(seed)
    hs = rng.normal(size=(n_planes, 3))
    hs /= np.linalg.norm(hs, axis=1, keepdims=True)
    ks = rng.normal(size=(n_planes, 3))
    ks /= np.linalg.norm(ks, axis=1, keepdims=True)
    vals = 0.5 * (np.einsum("ni,ij,nj->n", hs, A, hs)
                  + np.einsum("ni,ij,nj->n", ks, C, ks))
    item2 = dec.u + 0.5 * np.einsum("ni,ij,nj->n", hs, dec.wplus, hs)
    both = np.concatenate([vals, item2])
    return CheckReport.from_slack(
        "operator_bound", np.minimum(both - delta, 1.0 - both), tol,
        metrics={
            "min_value": float(vals.min()), "max_value": float(vals.max()),
            "min_eigen_value": float(item2.min()), "max_eigen_value": float(item2.max()),
        },
    )


def znorm_bound_check(dec: CurvatureDecomposition, delta: float,
                      tol: float = 1e-9,
                      use_statement_bound: bool = False,
                      scan: PinchingReport | None = None) -> CheckReport:
    """||Z||^2 <= 2 sum A_i^2 with ||Z||^2 = 2 sum z_i^2 (block plus adjoint)."""
    _verify_pinching(dec, delta, scan)
    vd = ville_data(dec, delta)
    lhs = 2.0 * float((vd.z ** 2).sum())
    lhs_block = 2.0 * float((dec.z_block ** 2).sum())
    a = vd.a_statement if use_statement_bound else vd.a
    rhs = 2.0 * float((a ** 2).sum())
    rhs_other = 2.0 * float(((vd.a if use_statement_bound else vd.a_statement) ** 2).sum())
    notes = ()
    if vd.a.min() < 0:
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


def deg_lower_bound(dec: CurvatureDecomposition, delta: float,
                    scan: PinchingReport | None = None) -> tuple[float, float]:
    """(F(g), lower bound) for the Theorem 1 integrand; contract fg >= bound.

    bound = (10/9)(sum v)^2 - (4/3) sum v^2 + (7/2) alpha^2
            - 2 sum min((1 - v_i - lambda_i-/2)^2, (v_i + lambda_i-/2 - delta)^2).
    """
    _verify_pinching(dec, delta, scan)
    vd = ville_data(dec, delta)
    v, lam = vd.v, vd.lambda_minus
    bound = ((10.0 / 9.0) * v.sum() ** 2 - (4.0 / 3.0) * (v ** 2).sum()
             + 3.5 * vd.alpha ** 2
             - 2.0 * np.minimum((1.0 - v - 0.5 * lam) ** 2,
                                (v + 0.5 * lam - delta) ** 2).sum())
    return fg_value(dec), float(bound)
