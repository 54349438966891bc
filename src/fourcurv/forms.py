"""2-forms on an oriented 4-dimensional inner-product space.

Everything downstream works in the fixed ordered wedge basis

    (e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4)

which is orthonormal for the induced inner product, with orientation
declared by e1^e2^e3^e4 > 0.  In this basis the Hodge star is the
constant matrix STAR_MATRIX, mapping (a1,...,a6) to (a6,-a5,a4,a3,-a2,a1),
and the unit eigenforms below span the self-dual (Lambda+) and
anti-self-dual (Lambda-) eigenspaces.

2-planes are encoded by their unit decomposable form P = (H+K)/sqrt(2)
with H a unit self-dual and K a unit anti-self-dual form; (H,K) ranges
over a product of two 2-spheres, a double cover of the Grassmannian.
The orthogonal complement plane is (H-K)/sqrt(2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonOrthonormalInput, NonUnitInput, WrongDuality

# index pairs (i<j) behind each basis slot
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the same as index arrays: slot b holds e_I[b] ^ e_J[b]
_I, _J = np.array(PAIRS).T

STAR_MATRIX = np.zeros((6, 6))
STAR_MATRIX[0, 5] = 1.0
STAR_MATRIX[1, 4] = -1.0
STAR_MATRIX[2, 3] = 1.0
STAR_MATRIX[3, 2] = 1.0
STAR_MATRIX[4, 1] = -1.0
STAR_MATRIX[5, 0] = 1.0
STAR_MATRIX.setflags(write=False)

_S2 = np.sqrt(2.0)

# columns H1,H2,H3: orthonormal basis of Lambda+
SD_BASIS = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
]) / _S2
SD_BASIS.setflags(write=False)

# columns K1,K2,K3: orthonormal basis of Lambda-
ASD_BASIS = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0],
    [0.0, 1.0, 0.0],
    [-1.0, 0.0, 0.0],
]) / _S2
ASD_BASIS.setflags(write=False)

# orthogonal 6x6 change of basis wedge -> (H1,H2,H3,K1,K2,K3)
BLOCK_BASIS = np.hstack([SD_BASIS, ASD_BASIS])
BLOCK_BASIS.setflags(write=False)

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Form2:
    """A 2-form, stored as its 6 coefficients in the fixed wedge basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (6,):
            raise ValueError(f"Form2 needs 6 coefficients, got shape {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


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


@dataclass(frozen=True)
class Plane2:
    """A 2-plane: unit decomposable form plus its (H,K) coordinates."""

    form: Form2
    sd_unit: Form2
    asd_unit: Form2


def hodge_star(omega: Form2) -> Form2:
    """Hodge star; a linear involution in the fixed basis."""
    return Form2(STAR_MATRIX @ omega.coeffs)


def sd_asd_split(omega: Form2) -> tuple[Form2, Form2]:
    """Split into (self-dual, anti-self-dual) parts; they sum back to omega."""
    star = STAR_MATRIX @ omega.coeffs
    return Form2(0.5 * (omega.coeffs + star)), Form2(0.5 * (omega.coeffs - star))


def wedge(x, y) -> Form2:
    """Coefficients of x^y for two 4-vectors."""
    return Form2(_wedges(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


def _wedges(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Wedge coefficients (..., 6) of paired rows of 4-vectors (..., 4)."""
    return x[..., _I] * y[..., _J] - x[..., _J] * y[..., _I]


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


def plane_from_sd_asd(H: Form2, K: Form2) -> Plane2:
    """Plane with form (H+K)/sqrt(2) for unit H in Lambda+, unit K in Lambda-.

    The stored form is rebuilt from the exactly normalized H and K, so it is
    exactly unit and decomposable even when the inputs carry rounding noise.
    """
    return _planes(H.coeffs[None], K.coeffs[None])[0]


def _planes(H: np.ndarray, K: np.ndarray) -> list[Plane2]:
    """plane_from_sd_asd on paired rows (n, 6) of H and K coefficients, with
    the same checks; an error names the first offending row's value."""
    hn, kn = np.linalg.norm(H, axis=1), np.linalg.norm(K, axis=1)
    for name, n in (("H", hn), ("K", kn)):
        bad = np.abs(n - 1.0) > DEFAULT_TOL
        if bad.any():
            raise NonUnitInput(f"|{name}| = {n[bad][0]:.12g}, expected 1")
    if np.abs(H @ STAR_MATRIX - H).max() > DEFAULT_TOL:
        raise WrongDuality("H is not self-dual")
    if np.abs(K @ STAR_MATRIX + K).max() > DEFAULT_TOL:
        raise WrongDuality("K is not anti-self-dual")
    h, k = H / hn[:, None], K / kn[:, None]
    return [Plane2(Form2(p), Form2(a), Form2(b))
            for p, a, b in zip((h + k) / _S2, h, k)]


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
    return plane_from_sd_asd(Form2(plus.coeffs / plus.norm),
                             Form2(minus.coeffs / minus.norm))


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


def random_frames(rng: np.random.Generator, n: int) -> np.ndarray:
    """n oriented orthonormal frames, stacked (n, 4, 4), columns = vectors."""
    q, r = np.linalg.qr(rng.normal(size=(n, 4, 4)))
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def random_frame(rng: np.random.Generator) -> Frame4:
    """Haar-ish random oriented orthonormal frame."""
    return Frame4(random_frames(rng, 1)[0])
