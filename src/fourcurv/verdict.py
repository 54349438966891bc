"""Decision layer: the pinching constant and the two definiteness verdicts.

The first theorem's engine is the function

    f(x1,x2,x3) = (5/9)(sum x)^2 - (2/3) sum x^2 - sum m(x)^2,
    m(x) = min(1 - x, x - delta),

on the box E = [delta, 1]^3.  Its minimum over the corner set is negative
exactly when delta < (3 sqrt(3) - 5)/4, the positive root of
8 d^2 + 20 d - 1, which is where the pinching constant comes from.  The
corner shortcut relies on a concavity claim that fails at the kinks of m
(x = (1+delta)/2), so the dense-grid minimum is exposed separately and the
two are NOT collapsed; see dense_grid_min_over_E.

The second theorem is a discriminant computation: the harmonic-form
quadratic P(t) is nonnegative in both regimes precisely when the lowest
biorthogonal curvature clears s^2 / (24 (3 lambda_1 + s)).  The verdict
tests that threshold; the transcription of P(t) and its discriminant is
a test oracle in tests/proof_routes.py.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonPositiveInput, NonPositiveScalarCurvature
from .invariants import fg_value
from .scan import PinchingReport, _require_same_tensor
from .tensor import CurvatureDecomposition

CRITICAL_DELTA = (3.0 * np.sqrt(3.0) - 5.0) / 4.0

_CLAIM_ONE = "topologically S4 or CP2"
_CLAIM_TWO = "intersection form definite; homeomorphic to #b2 CP2 or S4"


@dataclass(frozen=True)
class CornerValues:
    """f at the four vertex classes of E, by the closed-form expressions."""

    delta: float
    at_ddd: float
    at_dd1: float
    at_d11: float
    at_111: float


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str             # "One" or "Two"
    hypotheses_hold: bool
    computed_threshold: float
    margin: float
    claim_text: str          # nonempty iff hypotheses_hold
    notes: tuple = ()


def f_eval(x1, x2, x3, delta: float):
    """The objective f; accepts scalars or broadcastable arrays."""
    xs = np.stack(np.broadcast_arrays(np.asarray(x1, dtype=float),
                                      np.asarray(x2, dtype=float),
                                      np.asarray(x3, dtype=float)))
    m = np.minimum(1.0 - xs, xs - delta)
    val = ((5.0 / 9.0) * xs.sum(axis=0) ** 2
           - (2.0 / 3.0) * (xs ** 2).sum(axis=0)
           - (m ** 2).sum(axis=0))
    return float(val) if val.ndim == 0 else val


def corner_values(delta: float) -> CornerValues:
    # closed forms; f_eval at the vertices is the independent cross-check
    return CornerValues(
        delta=delta,
        at_ddd=3.0 * delta ** 2,
        at_dd1=(8.0 * delta ** 2 + 20.0 * delta - 1.0) / 9.0,
        at_d11=(-delta ** 2 + 20.0 * delta + 8.0) / 9.0,
        at_111=3.0,
    )


def min_over_E(delta: float) -> tuple[float, tuple[float, float, float]]:
    """Corner minimum of f over E and the attaining vertex.

    This is the corner shortcut.  It is what the critical constant is
    defined from; whether it agrees with the true minimum is a separate
    question answered by dense_grid_min_over_E.
    """
    cv = corner_values(delta)
    d = delta
    vertices = ((d, d, d), (d, d, 1.0), (d, 1.0, 1.0), (1.0, 1.0, 1.0))
    values = (cv.at_ddd, cv.at_dd1, cv.at_d11, cv.at_111)
    i = int(np.argmin(values))
    return values[i], vertices[i]


def dense_grid_min_over_E(delta: float) -> tuple[float, tuple[float, float, float]]:
    """Brute-force minimum of f over a 60-point grid on E, kink points included.

    The grid always contains (1 + delta)/2, where m switches branch; the
    corner shortcut misses the dip there for small delta, so this routine
    can return strictly less than min_over_E.
    """
    pts = np.linspace(delta, 1.0, 60)
    kink = 0.5 * (1.0 + delta)
    if delta <= kink <= 1.0:
        pts = np.unique(np.append(pts, kink))
    x1, x2, x3 = np.meshgrid(pts, pts, pts, indexing="ij")
    vals = f_eval(x1, x2, x3, delta)
    flat = int(np.argmin(vals))
    idx = np.unravel_index(flat, vals.shape)
    return float(vals[idx]), (float(x1[idx]), float(x2[idx]), float(x3[idx]))


def critical_delta() -> float:
    """Smallest delta in [0,1] with nonnegative corner minimum, by bisection.

    Bracket width 1e-12.  The closed form (3 sqrt(3) - 5)/4 is kept as the
    module constant CRITICAL_DELTA so both derivations stay comparable.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if min_over_E(mid)[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def theorem1_verdict(dec: CurvatureDecomposition, scan: PinchingReport,
                     tol: float = 1e-6) -> TheoremVerdict:
    """Half-conformally-flat pinching verdict.

    Hypotheses: one Weyl half vanishes to tol max|R| (orientation is
    flipped, and noted, when it is the self-dual half), and the scan's
    certified bounds put every K in [(3 sqrt(3) - 5)/4, 1] up to tol.  On
    acceptance the pointwise chain fg/2 >= f(v1,v2,v3) >= 0 is evaluated
    and recorded in the notes.  dec and scan must come from one tensor.
    """
    _require_same_tensor(dec, scan)
    # Frobenius norms by hypot, which forms no squares and so cannot overflow
    wp_norm = float(np.hypot.reduce(dec.wplus, axis=None))
    wm_norm = float(np.hypot.reduce(dec.wminus, axis=None))
    notes = []
    work = dec
    if wm_norm <= tol * dec.max_abs:
        half_flat = True
    elif wp_norm <= tol * dec.max_abs:
        half_flat = True
        work = replace(dec, wplus=dec.wminus, wminus=dec.wplus,
                       z_block=dec.z_block.T.copy(),
                       wp_eigs=dec.wm_eigs, wm_eigs=dec.wp_eigs,
                       wp_vecs=dec.wm_vecs, wm_vecs=dec.wp_vecs)
        notes.append("orientation flipped: W+ vanishes, W- does not "
                     "(signature integrand changes sign)")
    else:
        half_flat = False
    pinched = (scan.k_max_upper <= 1.0 + tol
               and scan.k_min_lower >= CRITICAL_DELTA - tol)
    hold = bool(half_flat and pinched)
    if not half_flat:
        notes.append("neither Weyl half vanishes to tolerance")
    if hold:
        delta = float(min(max(scan.k_min_lower, CRITICAL_DELTA), 1.0))
        v = work.u + 0.5 * work.wp_eigs  # v_i = u + w_i+/2, as in ville_data
        fval = f_eval(v[0], v[1], v[2], delta)
        half_fg = 0.5 * fg_value(work)
        notes.append(f"pointwise chain at delta={delta:.6g}: "
                     f"fg/2 = {half_fg:.6g} >= f(v) = {fval:.6g} >= 0")
        if half_fg < fval - 1e-9 or fval < -1e-9:
            notes.append("warning: pointwise chain violated numerically")
    return TheoremVerdict(
        theorem="One",
        hypotheses_hold=hold,
        computed_threshold=CRITICAL_DELTA,
        margin=float(scan.k_min_lower - CRITICAL_DELTA),
        claim_text=_CLAIM_ONE if hold else "",
        notes=tuple(notes),
    )


def theorem2_threshold(s: float, lambda1: float) -> float:
    """s^2 / (24 (3 lambda_1 + s)); s must be positive, lambda1 positive and finite."""
    if not (s > 0 and 0 < lambda1 < np.inf):
        raise NonPositiveInput(
            f"threshold needs s > 0 and 0 < lambda1 < inf, got s={s}, "
            f"lambda1={lambda1}")
    # in this order no intermediate overflows where the threshold does not
    return (s / 24.0) * (s / (3.0 * lambda1 + s))


def theorem2_verdict(dec: CurvatureDecomposition, scan: PinchingReport,
                     lambda1: float, tol: float = 1e-6) -> TheoremVerdict:
    """Definiteness verdict from the biorthogonal-curvature threshold.

    lambda_1 is a global spectral constant and is never derived from the
    tensor; it must come from a model space or the caller.
    """
    _require_same_tensor(dec, scan)
    if dec.s <= 0:
        raise NonPositiveScalarCurvature(f"s = {dec.s:.6g} is not positive")
    threshold = theorem2_threshold(dec.s, lambda1)
    margin = float(scan.k1perp - threshold)
    hold = bool(margin >= -tol)
    notes = (f"pointwise hypothesis with user-supplied lambda1={lambda1:.6g}; "
             f"k1perp={scan.k1perp:.6g} vs threshold={threshold:.6g}",)
    return TheoremVerdict(
        theorem="Two",
        hypotheses_hold=hold,
        computed_threshold=threshold,
        margin=margin,
        claim_text=_CLAIM_TWO if hold else "",
        notes=notes,
    )
