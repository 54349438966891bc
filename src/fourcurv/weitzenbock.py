"""Weitzenbock curvature operator on 2-forms and its lower bound.

The operator is defined bilinearly on wedge basis pairs by Ricci terms
plus a curvature term,

    N[(ij),(kl)] = Ric_ik d_jl + Ric_jl d_ik - Ric_il d_jk - Ric_jk d_il
                   - 2 R_ijkl,

with the overall sign pinned so the unit round sphere gives 4 * Id (all
sectional curvatures 1 in the proof expansion).  In terms of the
curvature operator M this is N = tr(M) Id - M - *M*, which is how it is
computed; in the block frame it is N = (s/3) Id - 2 (W+ (+) W-), the
second route, computed from a decomposition.

The lower bound checked here:

    <N w, w> >= 4 K1perp |w|^2 - (1/3)(s - 12 K1perp) | |w+|^2 - |w-|^2 |.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateForm
from .forms import (BLOCK_BASIS, Form2, Frame4, STAR_MATRIX, plane_from_sd_asd,
                    plane_vectors, sd_asd_split)
from .reporting import CheckReport
from .scan import k1perp_closed_form, k3perp_closed_form
from .tensor import (CurvatureDecomposition, RiemannTensor, decompose,
                     operator_from_tensor, random_algebraic_tensor, rotate_tensor)


@dataclass(frozen=True)
class WeitzenbockOperator:
    """Symmetric 6x6 matrix; block-diagonal with respect to Lambda+ (+) Lambda-."""

    matrix: np.ndarray


def weitzenbock_operator(R: RiemannTensor) -> WeitzenbockOperator:
    """N = tr(M) Id - M - *M*, the defining bilinear expression in closed form."""
    m = operator_from_tensor(R).matrix
    return WeitzenbockOperator(np.trace(m) * np.eye(6) - m - STAR_MATRIX @ m @ STAR_MATRIX)


def weitzenbock_from_blocks(dec: CurvatureDecomposition) -> WeitzenbockOperator:
    """Second route N = (s/3) Id - 2 (W+ (+) W-), from a decomposition."""
    blocks = np.zeros((6, 6))
    blocks[:3, :3] = (dec.s / 3.0) * np.eye(3) - 2.0 * dec.wplus
    blocks[3:, 3:] = (dec.s / 3.0) * np.eye(3) - 2.0 * dec.wminus
    return WeitzenbockOperator(BLOCK_BASIS @ blocks @ BLOCK_BASIS.T)


def lemma1_sides(R: RiemannTensor, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the Weitzenbock lower bound for each row of `omegas`.

    omegas is a stack (n, 6) of wedge coefficients.  Forms are taken as
    given, not normalized, so the zero form gives (0, 0).
    """
    dec = decompose(R)
    k1p = k1perp_closed_form(dec)
    nw = weitzenbock_from_blocks(dec).matrix
    star = omegas @ STAR_MATRIX
    ap2 = ((0.5 * (omegas + star)) ** 2).sum(axis=1)
    am2 = ((0.5 * (omegas - star)) ** 2).sum(axis=1)
    lhs = np.einsum("ni,ij,nj->n", omegas, nw, omegas)
    rhs = 4.0 * k1p * (ap2 + am2) - (dec.s - 12.0 * k1p) / 3.0 * np.abs(ap2 - am2)
    return lhs, rhs


def lemma1_check(R: RiemannTensor, omega: Form2) -> tuple[float, float]:
    """(lhs, rhs) of the Weitzenbock lower bound; contract lhs >= rhs."""
    lhs, rhs = lemma1_sides(R, omega.coeffs[None, :])
    return float(lhs[0]), float(rhs[0])


def lemma1_suite(n_tensors: int = 1000, n_forms: int = 100, seed: int = 0,
                 tol: float = 1e-9) -> CheckReport:
    """Bound over random (tensor, form) pairs; n_tensors * n_forms samples.

    Also reports the fraction of near-equality cases (slack below 1e-6).
    """
    rng = np.random.default_rng(seed)
    slack = np.empty((n_tensors, n_forms))
    for row in slack:
        R = random_algebraic_tensor(rng)
        lhs, rhs = lemma1_sides(R, rng.normal(size=(n_forms, 6)))
        row[:] = lhs - rhs
    near_eq = int((slack < 1e-6).sum())
    return CheckReport.from_slack(
        "lemma1", slack, tol,
        metrics={"near_equality_fraction": near_eq / slack.size if slack.size else 0.0})


def adapted_frame(omega: Form2) -> Frame4:
    """Oriented orthonormal frame in which omega aligns with e1^e2 and e3^e4.

    In the returned frame omega = (|w+| + |w-|)/sqrt(2) e1^e2
    + (|w+| - |w-|)/sqrt(2) e3^e4.  If one dual part vanishes, an arbitrary
    unit form of the missing duality completes the construction; if both
    vanish there is nothing to adapt to and DegenerateForm is raised.
    """
    plus, minus = sd_asd_split(omega)
    ap, am = plus.norm, minus.norm
    if max(ap, am) < 1e-15:
        raise DegenerateForm("cannot adapt a frame to the zero form")
    if ap > 1e-12 * max(1.0, am):
        H = Form2(plus.coeffs / ap)
    else:
        H = Form2(BLOCK_BASIS[:, 0])  # any unit self-dual form will do
    if am > 1e-12 * max(1.0, ap):
        K = Form2(minus.coeffs / am)
    else:
        K = Form2(BLOCK_BASIS[:, 3])
    p = plane_from_sd_asd(H, K)
    q = plane_from_sd_asd(H, Form2(-K.coeffs))
    x, y = plane_vectors(p)
    z, t = plane_vectors(q)
    return Frame4(np.column_stack([x, y, z, t]))


def intermediate_identity_check(R: RiemannTensor, omega: Form2,
                                frame: Frame4 | None = None,
                                tol: float = 1e-9) -> CheckReport:
    """<N w, w> against its adapted-frame expansion.

    The expansion reads |w|^2 (K13 + K14 + K23 + K24) - 2 R_1234
    (|w+|^2 - |w-|^2) with all curvatures taken in the adapted frame.
    Both sides are computed through unrelated code paths, so agreement
    validates the operator and the frame construction at once.
    """
    if frame is None:
        frame = adapted_frame(omega)
    plus, minus = sd_asd_split(omega)
    ap2 = plus.norm ** 2
    am2 = minus.norm ** 2
    rf = rotate_tensor(R, frame.columns).components
    sect = lambda i, j: rf[i, j, i, j]
    rhs = ((ap2 + am2) * (sect(0, 2) + sect(0, 3) + sect(1, 2) + sect(1, 3))
           - 2.0 * rf[0, 1, 2, 3] * (ap2 - am2))
    nw = weitzenbock_operator(R).matrix
    lhs = float(omega.coeffs @ nw @ omega.coeffs)
    resid = abs(lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    return CheckReport.from_slack(
        "intermediate_identity", tol * scale - resid, 0.0,
        metrics={"lhs": lhs, "rhs": float(rhs), "residual": resid})


def k3_bound_check(dec: CurvatureDecomposition, tol: float = 1e-12) -> CheckReport:
    """K3perp <= s/4 - 2 K1perp; equality on constant curvature and S2xS2."""
    k1 = k1perp_closed_form(dec)
    k3 = k3perp_closed_form(dec)
    return CheckReport.from_slack(
        "k3_bound", dec.s / 4.0 - 2.0 * k1 - k3, tol,
        metrics={"k1perp": k1, "k3perp": float(k3), "s": dec.s})
