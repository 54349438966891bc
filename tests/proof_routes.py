"""Test oracles: the proofs' own transcriptions and second routes.

The package answers each question by one route.  The routes here are the
others, kept so that the tests can hold the two against each other:

* forms: the Hodge star as a map of forms, wedges of vectors, oriented
  frames, SD/ASD coordinates, planes from spanning vectors and back, and
  the complement plane;
* scan: biorthogonal values plane by plane, beside the closed-form
  extremes;
* tensor: the tensor rebuilt from its operator;
* weitzenbock: Lemma 1's two sides on given forms, and its adapted-frame
  identity;
* verdict: the Theorem 2 quadratic P(t) and its discriminant, and the
  eigenvalues of the Hessian behind the corner shortcut.

NonOrthonormalInput and DegenerateForm are raised only by these routes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fourcurv.errors import CurvatureError
from fourcurv.forms import (ASD_BASIS, BLOCK_BASIS, DEFAULT_TOL, SD_BASIS,
                            STAR_MATRIX, Form2, Plane2, _I, _J, _S2, _wedges,
                            plane_from_sd_asd, random_frames, sd_asd_split)
from fourcurv.reporting import CheckReport
from fourcurv.scan import _plane_values
from fourcurv.tensor import (CurvatureOperator, RiemannTensor, _block_frame,
                             _tensor_from_matrix, operator_from_tensor,
                             rotate_tensor)
from fourcurv.weitzenbock import _lemma1_sides, weitzenbock_operator


class NonOrthonormalInput(CurvatureError):
    """Vectors meant to be orthonormal are not, beyond tolerance."""


class DegenerateForm(CurvatureError):
    """A 2-form is too small to normalize or to adapt a frame to."""


# --- forms ------------------------------------------------------------------

@dataclass(frozen=True)
class Frame4:
    """Oriented orthonormal frame of R^4; columns are the frame vectors."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.shape != (4, 4):
            raise ValueError("Frame4 needs a 4x4 column matrix")
        resid = np.abs(cols.T @ cols - np.eye(4)).max()
        if resid > DEFAULT_TOL:
            raise NonOrthonormalInput(f"frame orthonormality residual {resid:.3e}")
        if np.linalg.det(cols) < 0:
            raise NonOrthonormalInput("frame is negatively oriented")
        object.__setattr__(self, "columns", cols)


def hodge_star(omega: Form2) -> Form2:
    """Hodge star; a linear involution in the fixed basis."""
    return Form2(STAR_MATRIX @ omega.coeffs)


def wedge(x, y) -> Form2:
    """Coefficients of x^y for two 4-vectors."""
    return Form2(_wedges(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


def form_matrix(omega: Form2) -> np.ndarray:
    """The antisymmetric 4x4 matrix O with O[i,j] = coefficient on e_i^e_j."""
    out = np.zeros((4, 4))
    out[_I, _J] = omega.coeffs
    out[_J, _I] = -omega.coeffs
    return out


def sd_form(h) -> Form2:
    """Self-dual form with coordinates h in the (H1,H2,H3) basis."""
    return Form2(SD_BASIS @ np.asarray(h, dtype=float))


def asd_form(k) -> Form2:
    """Anti-self-dual form with coordinates k in the (K1,K2,K3) basis."""
    return Form2(ASD_BASIS @ np.asarray(k, dtype=float))


def sd_coords(omega: Form2) -> np.ndarray:
    return SD_BASIS.T @ omega.coeffs


def asd_coords(omega: Form2) -> np.ndarray:
    return ASD_BASIS.T @ omega.coeffs


def plane_from_vectors(x, y) -> Plane2:
    """Plane spanned by an orthonormal pair (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, v in (("x", x), ("y", y)):
        n = np.linalg.norm(v)
        if abs(n - 1.0) > DEFAULT_TOL:
            raise NonOrthonormalInput(f"|{name}| = {n:.12g}, expected 1")
    dot = float(x @ y)
    if abs(dot) > DEFAULT_TOL:
        raise NonOrthonormalInput(f"<x,y> = {dot:.3e}, expected 0")
    p = wedge(x, y)
    plus, minus = sd_asd_split(p)
    # |plus| = |minus| = 1/sqrt(2) for a unit decomposable form
    return plane_from_sd_asd(Form2(plus.coeffs / np.linalg.norm(plus.coeffs)),
                             Form2(minus.coeffs / np.linalg.norm(minus.coeffs)))


def complement(plane: Plane2) -> Plane2:
    """The orthogonal complement plane, (H-K)/sqrt(2)."""
    h = plane.sd_unit.coeffs
    k = -plane.asd_unit.coeffs
    return Plane2(Form2((h + k) / _S2), Form2(h.copy()), Form2(k))


def plane_vectors(plane: Plane2) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal spanning pair (x, y) with x^y equal to the plane form."""
    O = form_matrix(plane.form)
    j = int(np.argmax(np.linalg.norm(O, axis=0)))
    v = O[:, j]
    x = O @ (v / np.linalg.norm(v))
    x /= np.linalg.norm(x)
    y = -O @ x  # 90-degree rotation of x inside the plane
    return x, y


def random_frame(rng: np.random.Generator) -> Frame4:
    """Haar-ish random oriented orthonormal frame."""
    return Frame4(random_frames(rng, 1)[0])


# --- scan -------------------------------------------------------------------

def biorthogonal(R: RiemannTensor, plane: Plane2) -> float:
    """Kperp(P) = (K(P) + K(P_perp))/2."""
    m = operator_from_tensor(R).matrix
    p = plane.form.coeffs
    q = complement(plane).form.coeffs
    return float(0.5 * (p @ m @ p + q @ m @ q))


def batch_biorthogonal(R: RiemannTensor, hs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    return _plane_values(_block_frame(R), hs, ks)[1]


# --- tensor -----------------------------------------------------------------

def tensor_from_operator(op: CurvatureOperator) -> RiemannTensor:
    """Inverse of operator_from_tensor (components filled by antisymmetry)."""
    return RiemannTensor(_tensor_from_matrix(np.asarray(op.matrix, dtype=float)))


# --- weitzenbock ------------------------------------------------------------

def lemma1_sides(R: RiemannTensor, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the Weitzenbock lower bound for each row of `omegas`.

    omegas is a stack (n, 6) of wedge coefficients.  Forms are taken as
    given, not normalized, so the zero form gives (0, 0).
    """
    return _lemma1_sides(_block_frame(R), omegas @ BLOCK_BASIS)


def lemma1_check(R: RiemannTensor, omega: Form2) -> tuple[float, float]:
    """(lhs, rhs) of the Weitzenbock lower bound; contract lhs >= rhs."""
    lhs, rhs = lemma1_sides(R, omega.coeffs[None, :])
    return float(lhs[0]), float(rhs[0])


def adapted_frame(omega: Form2) -> Frame4:
    """Oriented orthonormal frame in which omega aligns with e1^e2 and e3^e4.

    In the returned frame omega = (|w+| + |w-|)/sqrt(2) e1^e2
    + (|w+| - |w-|)/sqrt(2) e3^e4.  If one dual part vanishes, an arbitrary
    unit form of the missing duality completes the construction; if both
    vanish there is nothing to adapt to and DegenerateForm is raised.
    """
    plus, minus = sd_asd_split(omega)
    ap, am = np.linalg.norm(plus.coeffs), np.linalg.norm(minus.coeffs)
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


def intermediate_identity_check(R: RiemannTensor, omega: Form2) -> CheckReport:
    """<N w, w> against its adapted-frame expansion.

    The expansion reads |w|^2 (K13 + K14 + K23 + K24) - 2 R_1234
    (|w+|^2 - |w-|^2) with all curvatures taken in the adapted frame.
    Both sides are computed through unrelated code paths, so agreement
    validates the operator and the frame construction at once.
    """
    frame = adapted_frame(omega)
    plus, minus = sd_asd_split(omega)
    ap2 = float(plus.coeffs @ plus.coeffs)
    am2 = float(minus.coeffs @ minus.coeffs)
    rf = rotate_tensor(R, frame.columns).components
    sect = lambda i, j: rf[i, j, i, j]
    rhs = ((ap2 + am2) * (sect(0, 2) + sect(0, 3) + sect(1, 2) + sect(1, 3))
           - 2.0 * rf[0, 1, 2, 3] * (ap2 - am2))
    nw = weitzenbock_operator(R).matrix
    lhs = float(omega.coeffs @ nw @ omega.coeffs)
    resid = abs(lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    return CheckReport.from_slack(
        "intermediate_identity", 1e-9 * scale - resid, 0.0,
        metrics={"lhs": lhs, "rhs": float(rhs), "residual": resid})


# --- verdict ----------------------------------------------------------------

def hessian_inner_eigs() -> tuple[float, float, float]:
    """Eigenvalues of [[-2,1,1],[1,-2,1],[1,1,-2]], ascending: (-3,-3,0)."""
    m = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    e = np.linalg.eigvalsh(m)
    return float(e[0]), float(e[1]), float(e[2])


def discriminant(lambda1, s, k1perp, a, b):
    """(4/9) a b (-72 lambda_1 K - 24 K s + s^2); a, b are |omega+-|."""
    return (4.0 / 9.0) * a * b * (-72.0 * lambda1 * k1perp
                                  + s ** 2 - 24.0 * k1perp * s)


def p_quadratic(t, regime: str, lambda1, s, k1perp, a, b):
    """The regime quadratic in t for the harmonic-form length estimate.

    Regime A assumes a >= t^2 b at the point, regime B the reverse; the
    caller asserts which applies.  The two agree at the boundary.  Both
    carry lambda_1 on the linear term.
    """
    c_plus = lambda1 + 4.0 * k1perp + (s - 12.0 * k1perp) / 3.0
    c_minus = lambda1 + 4.0 * k1perp - (s - 12.0 * k1perp) / 3.0
    cross = -2.0 * lambda1 * np.sqrt(a * b)
    if regime.upper() == "A":
        return c_minus * a + cross * t + c_plus * b * t ** 2
    if regime.upper() == "B":
        return c_plus * a + cross * t + c_minus * b * t ** 2
    raise ValueError(f"regime must be 'A' or 'B', got {regime!r}")
