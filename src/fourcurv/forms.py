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

from .errors import NonUnitInput, WrongDuality

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
class Plane2:
    """A 2-plane: unit decomposable form plus its (H,K) coordinates."""

    form: Form2
    sd_unit: Form2
    asd_unit: Form2


def sd_asd_split(omega: Form2) -> tuple[Form2, Form2]:
    """Split into (self-dual, anti-self-dual) parts; they sum back to omega."""
    star = STAR_MATRIX @ omega.coeffs
    return Form2(0.5 * (omega.coeffs + star)), Form2(0.5 * (omega.coeffs - star))


def _wedges(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Wedge coefficients (..., 6) of paired rows of 4-vectors (..., 4)."""
    return x[..., _I] * y[..., _J] - x[..., _J] * y[..., _I]


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


def random_frames(rng: np.random.Generator, n: int) -> np.ndarray:
    """n oriented orthonormal frames, stacked (n, 4, 4), columns = vectors."""
    q, r = np.linalg.qr(rng.normal(size=(n, 4, 4)))
    q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q
