"""Pointwise algebraic curvature tensors and their block decomposition.

Sign convention, fixed once here: the curvature operator on 2-forms has
matrix entries M[(ij),(kl)] = R_ijkl in the wedge basis, and for a unit
decomposable plane form P the number <M P, P> IS the sectional curvature
K(P).  The convention is pinned by the round sphere: the unit S^4 tensor
must give the identity operator (K == 1 on every plane).

Conjugating M into the (H1,H2,H3,K1,K2,K3) basis block-diagonalizes the
Weyl part:

    M' = [[ W+ + u I ,    Z    ],
          [   Z^T    , W- + u I]]      u = s/12,

where Z is the traceless Ricci acting Lambda- -> Lambda+.  The two-sided
norm of that block is ||Z||^2 = 2 ||z_block||_F^2, which equals half the
4x4 tensor norm |ric0|^2; both relations are enforced by tests.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSymmetry
from .forms import BLOCK_BASIS, STAR_MATRIX, _I, _J

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class RiemannTensor:
    """Full 4x4x4x4 component array R[i,j,k,l] (0-based indices)."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape != (4, 4, 4, 4):
            raise ValueError(f"expected shape (4,4,4,4), got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("components must be finite")
        object.__setattr__(self, "components", c)


@dataclass(frozen=True)
class CurvatureOperator:
    """Symmetric 6x6 matrix acting on 2-form coefficients."""

    matrix: np.ndarray


@dataclass(frozen=True)
class SymmetryReport:
    """Max residual of each index-symmetry class; valid iff none exceeds tol,
    which is SYMMETRY_TOL times the tensor's max|R_ijkl|."""

    antisym_first: float
    antisym_second: float
    pair_symmetry: float
    bianchi: float
    max_abs: float

    @property
    def tol(self) -> float:
        return SYMMETRY_TOL * self.max_abs

    @property
    def max_residual(self) -> float:
        return max(self.antisym_first, self.antisym_second,
                   self.pair_symmetry, self.bianchi)

    @property
    def valid(self) -> bool:
        return self.max_residual <= self.tol


@dataclass(frozen=True)
class CurvatureDecomposition:
    """R = U + W+ + W- + Z in the SD/ASD block basis.

    wplus/wminus are the traceless 3x3 Weyl blocks, z_block the off-diagonal
    block, wp_eigs/wm_eigs the eigenvalues of the Weyl blocks sorted ascending
    (w1 <= w2 <= w3, summing to zero) and wp_vecs/wm_vecs their eigenvectors
    as columns in the same order, and max_abs the scale max|R_ijkl| that
    tolerances are taken relative to.
    """

    s: float
    u: float
    ric: np.ndarray
    ric0: np.ndarray
    wplus: np.ndarray
    wminus: np.ndarray
    z_block: np.ndarray
    wp_eigs: np.ndarray
    wm_eigs: np.ndarray
    wp_vecs: np.ndarray
    wm_vecs: np.ndarray
    max_abs: float


# flat indices of c permuted as c and each transpose the symmetries compare it
# with; the rows of _SYMMETRY_SUMS add them up, with exact weights 0 and +-1,
# into the four residuals of validate_symmetries and then c itself for max|R|
_SYMMETRY_GATHER = np.stack([
    np.arange(256).reshape(4, 4, 4, 4).transpose(axes).ravel()
    for axes in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1),
                 (0, 2, 3, 1), (0, 3, 1, 2))])
_SYMMETRY_SUMS = np.array([[1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0], [1, 0, 0, -1, 0, 0],
                           [1, 0, 0, 0, 1, 1], [1, 0, 0, 0, 0, 0]], dtype=float)


def validate_symmetries(R: RiemannTensor) -> SymmetryReport:
    """Residuals of the index symmetries, tested against SYMMETRY_TOL max|R|."""
    gathered = R.components.ravel()[_SYMMETRY_GATHER]
    first, second, pair, bianchi, max_abs = np.abs(_SYMMETRY_SUMS @ gathered).max(axis=1).tolist()
    return SymmetryReport(antisym_first=first, antisym_second=second,
                          pair_symmetry=pair, bianchi=bianchi, max_abs=max_abs)


def _require_valid(R: RiemannTensor) -> float:
    """max|R_ijkl|, once the symmetries hold to tolerance."""
    rep = validate_symmetries(R)
    if not rep.valid:
        raise InvalidSymmetry(f"symmetry residual {rep.max_residual:.3e} > {rep.tol}")
    return rep.max_abs


def operator_from_tensor(R: RiemannTensor) -> CurvatureOperator:
    """Curvature operator on 2-forms in the wedge basis."""
    _require_valid(R)
    return CurvatureOperator(R.components[_I[:, None], _J[:, None], _I, _J])


def _block_frame(R: RiemannTensor) -> np.ndarray:
    """The operator conjugated into the (H1,H2,H3,K1,K2,K3) block frame."""
    return BLOCK_BASIS.T @ operator_from_tensor(R).matrix @ BLOCK_BASIS


def _tensor_from_matrix(m: np.ndarray) -> np.ndarray:
    c = np.zeros((4, 4, 4, 4))
    i, j, k, l = _I[:, None], _J[:, None], _I, _J
    c[i, j, k, l] = c[j, i, l, k] = m
    # 0.0 - m, not -m, so that a zero of m stays +0.0 in the negated slots
    c[j, i, k, l] = c[i, j, l, k] = 0.0 - m
    return c


def ricci(R: RiemannTensor) -> np.ndarray:
    """Ricci tensor Ric_jl = sum_i R_ijil; equals 3g on the unit sphere."""
    return np.einsum("ijil->jl", R.components)


def decompose(R: RiemannTensor) -> CurvatureDecomposition:
    max_abs = _require_valid(R)
    mp = _block_frame(R)
    ric = ricci(R)
    s = float(np.trace(ric))
    u = s / 12.0
    wplus = mp[:3, :3] - u * np.eye(3)
    wminus = mp[3:, 3:] - u * np.eye(3)
    z_block = mp[:3, 3:]
    (wp_eigs, wm_eigs), (wp_vecs, wm_vecs) = np.linalg.eigh(np.stack([wplus, wminus]))
    return CurvatureDecomposition(
        s=s,
        u=u,
        ric=ric,
        ric0=ric - (s / 4.0) * np.eye(4),
        wplus=wplus,
        wminus=wminus,
        z_block=z_block,
        wp_eigs=wp_eigs,
        wm_eigs=wm_eigs,
        wp_vecs=wp_vecs,
        wm_vecs=wm_vecs,
        max_abs=max_abs,
    )


def assemble_operator(dec: CurvatureDecomposition) -> CurvatureOperator:
    """Rebuild the operator from the blocks; inverse of decompose."""
    return CurvatureOperator(BLOCK_BASIS @ _blocks(dec) @ BLOCK_BASIS.T)


def _blocks(dec: CurvatureDecomposition) -> np.ndarray:
    """The operator in the block frame, [[W+ + uI, Z], [Z^T, W- + uI]]."""
    eye = dec.u * np.eye(3)
    mp = np.empty((6, 6))
    mp[:3, :3] = dec.wplus + eye
    mp[:3, 3:] = dec.z_block
    mp[3:, :3] = dec.z_block.T
    mp[3:, 3:] = dec.wminus + eye
    return mp


def random_algebraic_tensor(seed, scale: float = 1.0) -> RiemannTensor:
    """Random tensor satisfying all curvature symmetries exactly.

    Symmetrized 6x6 noise gives the antisymmetries and pair symmetry for
    free; the first Bianchi identity is then a single linear condition,
    <M, star> = 0, removed by projection.  Deterministic per seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return RiemannTensor(_tensor_from_matrix(_algebraic(rng.normal(size=(6, 6)) * scale)))


def _algebraic(noise: np.ndarray) -> np.ndarray:
    """Operators (..., 6, 6) from noise: symmetrized, with the star component removed."""
    m = 0.5 * (noise + np.swapaxes(noise, -1, -2))
    star = np.tensordot(m, STAR_MATRIX, axes=([-2, -1], [0, 1])) / 6.0
    return m - star[..., None, None] * STAR_MATRIX


def rotate_tensor(R: RiemannTensor, frame: np.ndarray) -> RiemannTensor:
    """Components of R in the frame whose vectors are the columns of `frame`.

    R'[a,b,c,d] = R(f_a, f_b, f_c, f_d).  For orthogonal frames this is the
    usual change of orthonormal basis; any frame is allowed.  The operator
    is conjugated by the induced map on 2-forms,
    L[(ij),(ab)] = f_ia f_jb - f_ja f_ib, as M' = L^T M L, which is exact
    for every R antisymmetric in each index pair.
    """
    f = np.asarray(frame, dtype=float)
    i, j = _I[:, None], _J[:, None]
    L = f[i, _I] * f[j, _J] - f[j, _I] * f[i, _J]
    return RiemannTensor(_tensor_from_matrix(L.T @ R.components[i, j, _I, _J] @ L))


# --- JSON interchange -------------------------------------------------------
# Schema: {"components": nested 4x4x4x4 array}. Indices are documented
# 1-based in prose but stored in nested-list order, so entry [0][1][0][1]
# is R_1212.  Extra keys are ignored on read, which lets reports that embed
# the tensor round-trip through the reader.

def tensor_to_dict(R: RiemannTensor) -> dict:
    return {"components": R.components.tolist()}


def tensor_from_dict(data: dict) -> RiemannTensor:
    if "components" not in data:
        raise ValueError('missing "components" key in tensor JSON')
    return RiemannTensor(np.array(data["components"], dtype=float))


def load_tensor(path) -> RiemannTensor:
    with open(path) as fh:
        return tensor_from_dict(json.load(fh))


def save_tensor(R: RiemannTensor, path) -> None:
    with open(path, "w") as fh:
        json.dump(tensor_to_dict(R), fh)
