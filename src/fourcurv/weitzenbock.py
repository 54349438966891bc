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

Both sides are evaluated on the block-frame operator, where N is
tr(M) Id - 2 (A (+) C) for the diagonal blocks A and C, s = 2 tr(M) and
K1perp comes from the lowest eigenvalues of A and C; lemma1_suite samples
a stack of random operators, (n_tensors, 6, 6), at once.  For one tensor
lemma1_bound_check gives the least slack over all forms exactly.  The
sides on given forms and the proof's adapted-frame identity for <N w, w>
are test oracles in tests/proof_routes.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import BLOCK_BASIS, STAR_MATRIX
from .reporting import CheckReport
from .scan import k1perp_closed_form, k3perp_closed_form
from .tensor import (CurvatureDecomposition, RiemannTensor, _algebraic,
                     operator_from_tensor)


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


def _lemma1_sides(mp: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) for operators mp (..., 6, 6) and forms x (..., n, 6), both in the block frame.

    With A and C the diagonal blocks of mp, N = tr(M) Id - 2 (A (+) C), s is
    2 tr(M) and K1perp is half the sum of the lowest eigenvalues of A and C;
    the parts of a form are w+ = x[:3] and w- = x[3:].
    """
    trace = np.trace(mp, axis1=-2, axis2=-1)[..., None]
    A, C = mp[..., :3, :3], mp[..., 3:, 3:]
    k1p = 0.5 * np.linalg.eigvalsh(np.stack([A, C], axis=-3))[..., 0].sum(axis=-1)[..., None]
    h, k = x[..., :3], x[..., 3:]
    ap2, am2 = (h * h).sum(axis=-1), (k * k).sum(axis=-1)
    lhs = trace * (ap2 + am2) - 2.0 * (((h @ A) * h).sum(axis=-1) + ((k @ C) * k).sum(axis=-1))
    rhs = 4.0 * k1p * (ap2 + am2) - (2.0 * trace - 12.0 * k1p) / 3.0 * np.abs(ap2 - am2)
    return lhs, rhs


def lemma1_bound_check(dec: CurvatureDecomposition, tol: float) -> CheckReport:
    """The bound's least slack over all unit forms, in closed form.

    With a = |w+|^2 fixed the slack is least when w+ and w- lie along the
    top eigenvectors of W+ and W-, and there it is linear in a on [0, 1/2]
    and on [1/2, 1]; the three slacks are those at a = 0, 1/2 and 1.  The
    bound, an equality on the models, holds when the least is >= -tol max|R|.
    """
    # slack(a) = s/2 - 2 (u + w3+) a - 2 (u + w3-) (1 - a) - 4 K1perp + c |2a - 1|
    k1 = k1perp_closed_form(dec)
    c = (dec.s - 12.0 * k1) / 3.0
    w3p, w3m = dec.wp_eigs[2], dec.wm_eigs[2]
    top = dec.u + np.array([w3m, 0.5 * (w3p + w3m), w3p])
    return CheckReport.from_slack(
        "lemma1", dec.s / 2.0 - 2.0 * top - 4.0 * k1 + np.array([c, 0.0, c]),
        tol * dec.max_abs)


def lemma1_suite(n_tensors: int = 1000, n_forms: int = 100, seed: int = 0,
                 tol: float = 1e-9) -> CheckReport:
    """Bound over random (tensor, form) pairs; n_tensors * n_forms samples.

    Each tensor is drawn as random_algebraic_tensor draws it, followed by
    its n_forms forms, from one generator; the whole sample is evaluated
    on the stack of operators at once.  A sample holds when its slack is
    at least -tol max|R| of its tensor; the fraction of near-equality
    cases (slack below 1e-6 max|R|) is reported too.
    """
    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(n_tensors, 36 + 6 * n_forms))
    m = _algebraic(draws[:, :36].reshape(-1, 6, 6))
    lhs, rhs = _lemma1_sides(BLOCK_BASIS.T @ m @ BLOCK_BASIS,
                             draws[:, 36:].reshape(n_tensors, n_forms, 6) @ BLOCK_BASIS)
    slack, scale = lhs - rhs, np.abs(m).max(axis=(-2, -1))[..., None]
    near_eq = int((slack < 1e-6 * scale).sum())
    return CheckReport.from_slack(
        "lemma1", slack, tol * scale,
        metrics={"near_equality_fraction": near_eq / slack.size if slack.size else 0.0})


def k3_bound_check(dec: CurvatureDecomposition, tol: float = 1e-12) -> CheckReport:
    """K3perp <= s/4 - 2 K1perp; equality on constant curvature and S2xS2.

    The bound holds when the slack is at least -tol max|R|.
    """
    k1 = k1perp_closed_form(dec)
    k3 = k3perp_closed_form(dec)
    return CheckReport.from_slack(
        "k3_bound", dec.s / 4.0 - 2.0 * k1 - k3, tol * dec.max_abs,
        metrics={"k1perp": k1, "k3perp": float(k3), "s": dec.s})
