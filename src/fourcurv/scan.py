"""Sectional and biorthogonal curvature extremes over 2-planes.

Planes are parametrized by unit pairs (h, k) on S^2 x S^2 (coordinates of
the SD/ASD parts in the H/K bases, a double cover of the Grassmannian).
With the operator blocks A = W+ + uI, B = Z, C = W- + uI:

    K(h, k)      = (h'Ah + k'Ck)/2 + h'Bk          sectional
    Kperp(h, k)  = (h'Ah + k'Ck)/2                 biorthogonal

since the cross term changes sign on the complement plane (h, -k) and
cancels in the average.  The biorthogonal extremes are therefore closed
forms: the lowest (highest) eigenvectors of A and C give the attaining
plane, with value (w1+ + w1-)/2 + s/12 ((w3+ + w3-)/2 + s/12).

The sectional extremes are solved exactly through Thorpe's duality.  In
the block frame a unit 2-form P = (x, y) is decomposable exactly when
<P, *P> = |x|^2 - |y|^2 = 0, where * = diag(I, -I) is the Hodge star
(Thorpe, J. Diff. Geom. 5, 1971).  The joint range of two quadratic forms
on a sphere is convex (Brickman, 1961), so there is no duality gap:

    K_min = max_t g(t),   g(t) = lambda_min(M + t *),

and K_max is the same with -M.  g is concave and 1-Lipschitz, and its
slope at t is |x|^2 - |y|^2 for the lowest eigenvector (x, y) of M + t *.
The solve keeps a bracket [lo, hi], at first [-2|M|, 2|M|] (Frobenius
norm), with slope >= 0 at lo and < 0 at hi.  The lowest eigenvectors at
the two ends have slopes of opposite sign, so one combination of them is
balanced, |x| = |y|; that combination, normalized to (h, k), is the
attaining plane, and the reported extreme is its sectional value.  Each
step tries a point inside the bracket and replaces the end whose slope
sign it shares.  The point is the Newton step on the slope from the end
with the larger g, with the curvature g'' = 2 sum_j (v_j' * v)^2 / (g - w_j)
over the other eigenpairs of the same eigh call (second-order
perturbation); where g'' is unknown (a double lowest eigenvalue) or that
point leaves the bracket, it is the point where the tangents at the two
ends meet, which is exact where two linear pieces of g cross (S4, CP2);
and where two steps have halved neither the bracket nor the slope at the
end with the larger g, it is the midpoint.  So a Newton solve closing in
on a smooth maximum from one side, which leaves the far end in place,
goes on undisturbed, and a stalled one is bisected every third step.
This is the classic max-lambda_min problem over an affine family
(Overton, SIAM J. Optim. 2, 1992; Lewis and Overton, Acta Numerica 5,
1996).  The solve stops when the balanced plane's value is within
1e-15 |M| of the best dual value, or the bracket is no wider than that.
Both duals start from the same bracket, and the ends -M -+ 2|M| * of the
max dual are -(M +- 2|M| *), so one stacked eigh of M -+ 2|M| * serves
all four ends: the max dual reads the highest eigenpairs, negated and
reversed.  With one more stacked eigh for the two 3x3 blocks, a scan
makes about nine eigh calls over eleven matrices.
The solve runs on M divided by the power of two at max|M|; that scaling
is exact, and it keeps |M| from overflowing or underflowing at any finite
scale.

Certificate.  For every t, g(t) <= K(P) on each plane, so the best dual
value, lowered by a rounding allowance of the eigensolver, is a lower
bound on the true minimum: k_min_lower <= K_min <= k_min, where k_min is
attained by argmin_plane.  Likewise k_max <= K_max <= k_max_upper.  The
gaps k_min - k_min_lower and k_max_upper - k_max bound how far the
reported extremes can be from the true ones; they stay within a few
units of 1e-15 |M|.  A pinching test that must err on the safe side
(K >= delta, K <= 1) uses the bounds, not the attained values.

The Seaman check reads the fully mixed component R(e1,e2,e3,e4) off the
same operator, as (e1^e2)' M (e3^e4) with both wedges in the block frame,
for a whole stack of frames at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentInputs
from .forms import (ASD_BASIS, BLOCK_BASIS, SD_BASIS, Plane2, _planes,
                    _wedges, random_frames)
from .reporting import CheckReport
from .tensor import (SYMMETRY_TOL, CurvatureDecomposition, RiemannTensor,
                     _block_frame, _blocks, decompose, operator_from_tensor)

# margin the pinching preconditions allow on the certified bounds, so that a
# delta read off the scan itself (k_min / k_max, after rescaling k_max to 1)
# is accepted although the bounds sit a rounding allowance outside
SCAN_ACCURACY = 1e-6

# the Hodge star in the SD/ASD block frame
_STAR = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
_STAR_MATRIX = np.diag(_STAR)
# the solve stops once the balanced plane's value is this close to the dual
# value, or the bracket this narrow, relative to |M|
_BRACKET_REL = 1e-15
# rounding allowance on the dual bounds, relative to |M|: the computed dual
# value exceeded the computed attained value by at most 4.2 eps |M| over
# 2000 random tensors at scales 1e-3 to 1e3, and this is four times that
_ROUNDING_REL = 16.0 * np.finfo(float).eps


@dataclass
class PinchingReport:
    """Extremes of sectional and biorthogonal curvature with attaining planes.

    k_min and k_max are attained by argmin_plane and argmax_plane;
    k_min_lower <= K_min and K_max <= k_max_upper are the certified dual
    bounds on the true extremes.
    """

    k_min: float
    k_max: float
    k1perp: float
    k3perp: float
    delta: float | None  # k_min/k_max; None when k_max <= 0
    argmin_plane: Plane2
    argmax_plane: Plane2
    k1perp_plane: Plane2
    k3perp_plane: Plane2
    k_min_lower: float
    k_max_upper: float


def sectional(R: RiemannTensor, plane: Plane2) -> float:
    """K(P) = <M P, P> for the unit decomposable plane form P."""
    m = operator_from_tensor(R).matrix
    p = plane.form.coeffs
    return float(p @ m @ p)


def k1perp_closed_form(dec: CurvatureDecomposition) -> float:
    return float((dec.wp_eigs[0] + dec.wm_eigs[0]) / 2.0 + dec.s / 12.0)


def k3perp_closed_form(dec: CurvatureDecomposition) -> float:
    return float((dec.wp_eigs[2] + dec.wm_eigs[2]) / 2.0 + dec.s / 12.0)


def _require_same_tensor(dec: CurvatureDecomposition, scan: PinchingReport) -> None:
    """InconsistentInputs unless dec and scan agree on k1perp to SYMMETRY_TOL max|R|."""
    if abs(k1perp_closed_form(dec) - scan.k1perp) > SYMMETRY_TOL * dec.max_abs:
        raise InconsistentInputs(
            "decomposition and scan disagree on k1perp; not the same tensor?")


def _plane_values(mp: np.ndarray, hs: np.ndarray,
                  ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, Kperp) on the block-frame operator mp at the planes with unit SD/ASD
    coordinates (hs, ks): one pair of 3-vectors, or paired rows of them."""
    def form(x, a, y):
        # x' a y row by row, as (1 x 3) @ (3 x 1) products: the arithmetic
        # of x @ a @ y on each row
        return ((x @ a)[..., None, :] @ y[..., None])[..., 0, 0]

    kperp = 0.5 * (form(hs, mp[:3, :3], hs) + form(ks, mp[3:, 3:], ks))
    return kperp + form(hs, mp[:3, 3:], ks), kperp


def batch_sectional(R: RiemannTensor, hs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Sectional values for paired rows of unit SD/ASD coordinates."""
    return _plane_values(_block_frame(R), hs, ks)[0]


def _lowest(w: np.ndarray, v: np.ndarray, tol: float) -> tuple[float, np.ndarray, float, float]:
    """(g, v, g', g''): the lowest eigenpair of mp + t *, given all its
    eigenpairs (w, v) as eigh returns them, and the slope and curvature of g.

    The slope is v' * v and the curvature 2 sum_j (v_j' * v)^2 / (g - w_j) over
    the other eigenpairs (second-order perturbation); where the lowest gap is at
    most tol, the eigenvalue is double to working precision and the curvature
    is reported as 0, i.e. unknown.
    """
    c = (_STAR * v[:, 0]) @ v
    gap = w[1:] - w[0]
    curv = float(-2.0 * (c[1:] ** 2 / gap).sum()) if gap[0] > tol else 0.0
    return float(w[0]), v[:, 0], float(c[0]), curv


def _balanced(v_lo: np.ndarray, s_lo: float, v_hi: np.ndarray, s_hi: float) -> np.ndarray:
    """The combination a v_lo + b v_hi (a, b >= 0) with |x| = |y|.

    s_lo >= 0 > s_hi are the slopes v_lo' * v_lo and v_hi' * v_hi.
    """
    # a positive root of s_lo a^2 + 2 c a b + s_hi b^2 = 0; aligning the
    # eigenvector signs first keeps the mix from cancelling
    if v_lo @ v_hi < 0.0:
        v_hi = -v_hi
    c = float(v_lo @ (_STAR * v_hi))
    d = float(np.sqrt(c * c - s_lo * s_hi))
    a, b = (-s_hi, c + d) if c > 0.0 else (d - c, s_lo)
    return a * v_lo + b * v_hi if a or b else v_lo


def _dual_min(mp: np.ndarray, width: float,
              ends: list) -> tuple[float, np.ndarray, np.ndarray]:
    """(g, h, k): the dual value max_t lambda_min(mp + t *) and a plane attaining it.

    The bracket starts at [-2 width, 2 width], and ends holds the eigh
    results (w, v) of mp + t * at its two ends.
    """
    tol = _BRACKET_REL * width
    lo, hi = -2.0 * width, 2.0 * width
    g_lo, v_lo, s_lo, c_lo = _lowest(*ends[0], tol)
    g_hi, v_hi, s_hi, c_hi = _lowest(*ends[1], tol)
    # the bracket width and the near end's |slope|, two steps and one step back
    spans, slopes = [np.inf, np.inf], [np.inf, np.inf]
    while True:
        v = _balanced(v_lo, s_lo, v_hi, s_hi)
        if (float(v @ mp @ v) / float(v @ v) - max(g_lo, g_hi) <= tol
                or hi - lo <= tol):
            break
        t, s, c = (lo, s_lo, c_lo) if g_lo >= g_hi else (hi, s_hi, c_hi)
        progress = 2.0 * (hi - lo) <= spans[0] or 2.0 * abs(s) < slopes[0]
        spans, slopes = [spans[1], hi - lo], [slopes[1], abs(s)]
        t = t - s / c if c < 0.0 else np.nan
        if not lo < t < hi:
            t = lo + (g_hi - g_lo - s_hi * (hi - lo)) / (s_lo - s_hi)
        if not (lo < t < hi and progress):
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                break
        g, u, s, c = _lowest(*np.linalg.eigh(mp + t * _STAR_MATRIX), tol)
        if s >= 0.0:
            lo, g_lo, v_lo, s_lo, c_lo = t, g, u, s, c
        else:
            hi, g_hi, v_hi, s_hi, c_hi = t, g, u, s, c
    h, k = v[:3], v[3:]
    return max(g_lo, g_hi), h / np.linalg.norm(h), k / np.linalg.norm(k)


def scan_extremes(R: RiemannTensor, budget: None = None) -> PinchingReport:
    """Exact extremes of K and Kperp over all 2-planes, with dual certificates.

    The second parameter is deprecated and must be None: the extremes are
    exact, so there is no search budget to set.
    """
    if budget is not None:
        raise TypeError("scan_extremes takes no budget; its extremes are exact")
    return _scan_blocks(_block_frame(R))


def _scan_blocks(mp: np.ndarray) -> PinchingReport:
    """scan_extremes on the operator mp given in the block frame."""
    # the dual runs on mp / 2^e, 2^e the power of two at max|mp| (1 for the
    # zero operator), so that |M| neither overflows nor underflows
    e = int(np.frexp(np.abs(mp).max())[1])
    unit = np.ldexp(mp, -e)
    norm = float(np.linalg.norm(unit))
    # the zero operator is scale-free: any bracket around t = 0 will do
    width = norm or 1.0

    # the max dual's ends -unit -+ 2 width * are -(unit +- 2 width *): its
    # eigenpairs are those of the min dual's ends, negated and reversed
    w, v = np.linalg.eigh(unit + np.multiply.outer([-2.0 * width, 2.0 * width],
                                                   _STAR_MATRIX))
    g_min, h_lo, k_lo = _dual_min(unit, width, [(w[0], v[0]), (w[1], v[1])])
    g_neg, h_hi, k_hi = _dual_min(-unit, width, [(-w[1, ::-1], v[1][:, ::-1]),
                                                 (-w[0, ::-1], v[0][:, ::-1])])
    rounding = _ROUNDING_REL * norm
    kmin_val, kmax_val = _plane_values(mp, np.array([h_lo, h_hi]),
                                       np.array([k_lo, k_hi]))[0].tolist()

    (wa, wc), (va, vc) = np.linalg.eigh(np.stack([mp[:3, :3], mp[3:, 3:]]))
    argmin, argmax, k1perp, k3perp = _planes(
        np.array([h_lo, h_hi, va[:, 0], va[:, 2]]) @ SD_BASIS.T,
        np.array([k_lo, k_hi, vc[:, 0], vc[:, 2]]) @ ASD_BASIS.T)

    return PinchingReport(
        k_min=kmin_val,
        k_max=kmax_val,
        k1perp=float(0.5 * (wa[0] + wc[0])),
        k3perp=float(0.5 * (wa[2] + wc[2])),
        delta=(kmin_val / kmax_val) if kmax_val > 0 else None,
        argmin_plane=argmin,
        argmax_plane=argmax,
        k1perp_plane=k1perp,
        k3perp_plane=k3perp,
        k_min_lower=float(np.ldexp(g_min - rounding, e)),
        k_max_upper=float(np.ldexp(rounding - g_neg, e)),
    )


def seaman_check(R: RiemannTensor, n_frames: int = 100, seed: int = 0,
                 tol: float = 1e-9) -> CheckReport:
    """|R(e1,e2,e3,e4)| <= (2/3)(K3perp - K1perp) over random oriented frames.

    Only the fully mixed component enters.  It is read off the operator,
    R(e1,e2,e3,e4) = (e1^e2)' M (e3^e4), with both wedges taken in the
    block frame; the bound uses the closed-form biorthogonal extremes.  A
    frame violates the bound when it exceeds it by more than tol max|R|,
    and max_ratio is reported (else 0) where the bound exceeds 1e-15 max|R|.
    """
    dec = decompose(R)
    bound = (2.0 / 3.0) * (k3perp_closed_form(dec) - k1perp_closed_form(dec))
    rng = np.random.default_rng(seed)
    q = random_frames(rng, n_frames)
    e12 = _wedges(q[:, :, 0], q[:, :, 1]) @ BLOCK_BASIS
    e34 = _wedges(q[:, :, 2], q[:, :, 3]) @ BLOCK_BASIS
    comp = ((e12 @ _blocks(dec)) * e34).sum(axis=1)
    max_comp = float(np.abs(comp).max()) if n_frames else 0.0
    ratio = max_comp / bound if bound > 1e-15 * dec.max_abs else 0.0
    return CheckReport.from_slack(
        "seaman", bound - np.abs(comp), tol * dec.max_abs,
        metrics={"bound": bound, "max_abs_component": max_comp, "max_ratio": ratio})
