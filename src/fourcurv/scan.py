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
The solve bisects on the sign of that slope from the bracket
[-2|M|, 2|M|] (Frobenius norm) and stops once the bracket is no wider
than 1e-15 |M|; bisecting further down to float resolution gains nothing
and, when the optimum is t = 0 (S4, the flat torus), takes about a
thousand steps.  The lowest eigenvectors at the two bracket ends have
slopes of opposite sign, so one combination of them is balanced,
|x| = |y|; that combination, normalized to (h, k), is the attaining
plane, and the reported extreme is its sectional value.

Certificate.  For every t, g(t) <= K(P) on each plane, so the best dual
value, lowered by a rounding allowance of the eigensolver, is a lower
bound on the true minimum: k_min_lower <= K_min <= k_min, where k_min is
attained by argmin_plane.  Likewise k_max <= K_max <= k_max_upper.  The
gaps k_min - k_min_lower and k_max_upper - k_max bound how far the
reported extremes can be from the true ones; they stay within a few
units of 1e-15 |M|.  A pinching test that must err on the safe side
(K >= delta, K <= 1) uses the bounds, not the attained values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import Plane2, asd_form, complement, plane_from_sd_asd, sd_form
from .reporting import CheckReport
from .tensor import (CurvatureDecomposition, RiemannTensor, _block_frame, decompose,
                     operator_from_tensor)

# margin the pinching preconditions allow on the certified bounds, so that a
# delta read off the scan itself (k_min / k_max, after rescaling k_max to 1)
# is accepted although the bounds sit a rounding allowance outside
SCAN_ACCURACY = 1e-6

# the Hodge star in the SD/ASD block frame
_STAR = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
_STAR_MATRIX = np.diag(_STAR)
# bisection stops at this bracket width, relative to |M|
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


def biorthogonal(R: RiemannTensor, plane: Plane2) -> float:
    """Kperp(P) = (K(P) + K(P_perp))/2."""
    m = operator_from_tensor(R).matrix
    p = plane.form.coeffs
    q = complement(plane).form.coeffs
    return float(0.5 * (p @ m @ p + q @ m @ q))


def k1perp_closed_form(dec: CurvatureDecomposition) -> float:
    return float((dec.wp_eigs[0] + dec.wm_eigs[0]) / 2.0 + dec.s / 12.0)


def k3perp_closed_form(dec: CurvatureDecomposition) -> float:
    return float((dec.wp_eigs[2] + dec.wm_eigs[2]) / 2.0 + dec.s / 12.0)


def operator_blocks(R: RiemannTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, C) blocks of the operator in the SD/ASD basis."""
    mp = _block_frame(R)
    return mp[:3, :3], mp[:3, 3:], mp[3:, 3:]


def batch_sectional(R: RiemannTensor, hs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Sectional values for paired rows of unit SD/ASD coordinates."""
    A, B, C = operator_blocks(R)
    aq = np.einsum("ni,ij,nj->n", hs, A, hs)
    cq = np.einsum("ni,ij,nj->n", ks, C, ks)
    cross = np.einsum("ni,ij,nj->n", hs, B, ks)
    return 0.5 * (aq + cq) + cross


def batch_biorthogonal(R: RiemannTensor, hs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    A, _, C = operator_blocks(R)
    aq = np.einsum("ni,ij,nj->n", hs, A, hs)
    cq = np.einsum("ni,ij,nj->n", ks, C, ks)
    return 0.5 * (aq + cq)


def _lowest(mp: np.ndarray, t: float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of mp + t *."""
    w, v = np.linalg.eigh(mp + t * _STAR_MATRIX)
    return float(w[0]), v[:, 0]


def _dual_min(mp: np.ndarray, norm: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(g, h, k): the dual value max_t lambda_min(mp + t *) and a plane attaining it."""
    # the zero operator is scale-free: any bracket around t = 0 will do
    width = norm or 1.0
    lo, hi = -2.0 * width, 2.0 * width
    g_lo, v_lo = _lowest(mp, lo)
    g_hi, v_hi = _lowest(mp, hi)
    while hi - lo > _BRACKET_REL * width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        g, v = _lowest(mp, mid)
        if v @ (_STAR * v) >= 0.0:
            lo, g_lo, v_lo = mid, g, v
        else:
            hi, g_hi, v_hi = mid, g, v
    # balance: (a v_lo + b v_hi) has |x| = |y| for a, b >= 0, a positive
    # root of s_lo a^2 + 2 c a b + s_hi b^2 = 0 with s_lo >= 0 >= s_hi;
    # aligning the eigenvector signs first keeps the mix from cancelling
    if v_lo @ v_hi < 0.0:
        v_hi = -v_hi
    s_lo = max(float(v_lo @ (_STAR * v_lo)), 0.0)
    s_hi = min(float(v_hi @ (_STAR * v_hi)), 0.0)
    c = float(v_lo @ (_STAR * v_hi))
    d = float(np.sqrt(c * c - s_lo * s_hi))
    a, b = (-s_hi, c + d) if c > 0.0 else (d - c, s_lo)
    v = a * v_lo + b * v_hi if a or b else v_lo
    h, k = v[:3], v[3:]
    return max(g_lo, g_hi), h / np.linalg.norm(h), k / np.linalg.norm(k)


def _plane(h: np.ndarray, k: np.ndarray) -> Plane2:
    return plane_from_sd_asd(sd_form(h), asd_form(k))


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
    A, B, C = mp[:3, :3], mp[:3, 3:], mp[3:, 3:]
    norm = float(np.linalg.norm(mp))

    def value(h, k):
        return float(0.5 * (h @ A @ h + k @ C @ k) + h @ B @ k)

    g_min, h_lo, k_lo = _dual_min(mp, norm)
    g_neg, h_hi, k_hi = _dual_min(-mp, norm)
    rounding = _ROUNDING_REL * norm
    kmin_val = value(h_lo, k_lo)
    kmax_val = value(h_hi, k_hi)

    wa, va = np.linalg.eigh(A)
    wc, vc = np.linalg.eigh(C)

    return PinchingReport(
        k_min=kmin_val,
        k_max=kmax_val,
        k1perp=float(0.5 * (wa[0] + wc[0])),
        k3perp=float(0.5 * (wa[2] + wc[2])),
        delta=(kmin_val / kmax_val) if kmax_val > 0 else None,
        argmin_plane=_plane(h_lo, k_lo),
        argmax_plane=_plane(h_hi, k_hi),
        k1perp_plane=_plane(va[:, 0], vc[:, 0]),
        k3perp_plane=_plane(va[:, 2], vc[:, 2]),
        k_min_lower=g_min - rounding,
        k_max_upper=rounding - g_neg,
    )


def random_frames(rng: np.random.Generator, n: int) -> np.ndarray:
    """n oriented orthonormal frames, stacked (n, 4, 4), columns = vectors."""
    g = rng.normal(size=(n, 4, 4))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 0] *= -1.0
    return q


def seaman_check(R: RiemannTensor, n_frames: int = 100, seed: int = 0,
                 tol: float = 1e-9) -> CheckReport:
    """|R(e1,e2,e3,e4)| <= (2/3)(K3perp - K1perp) over random oriented frames.

    Only the fully mixed component enters; the bound uses the closed-form
    biorthogonal extremes.
    """
    dec = decompose(R)
    bound = (2.0 / 3.0) * (k3perp_closed_form(dec) - k1perp_closed_form(dec))
    rng = np.random.default_rng(seed)
    q = random_frames(rng, n_frames)
    comp = np.einsum("ijkl,ni,nj,nk,nl->n", R.components,
                     q[:, :, 0], q[:, :, 1], q[:, :, 2], q[:, :, 3])
    max_abs = float(np.abs(comp).max()) if n_frames else 0.0
    ratio = max_abs / bound if bound > 1e-15 else 0.0
    return CheckReport.from_slack(
        "seaman", bound - np.abs(comp), tol,
        metrics={"bound": bound, "max_abs_component": max_abs, "max_ratio": ratio})
