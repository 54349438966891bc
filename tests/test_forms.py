import itertools
import re

import numpy as np
import pytest

import fourcurv as fc
from fourcurv.forms import PAIRS, _planes
import proof_routes as routes


def _levi_civita():
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if perm[i] > perm[j])
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


def test_star_matrix_matches_levi_civita():
    # independent oracle: star(e_i^e_j) = sum_{k<l} eps_{ijkl} e_k^e_l
    eps = _levi_civita()
    for a, (i, j) in enumerate(PAIRS):
        for b, (k, l) in enumerate(PAIRS):
            assert fc.STAR_MATRIX[b, a] == eps[i, j, k, l]


def test_star_examples():
    e12 = fc.Form2([1, 0, 0, 0, 0, 0])
    assert np.array_equal(routes.hodge_star(e12).coeffs, [0, 0, 0, 0, 0, 1])
    e13 = fc.Form2([0, 1, 0, 0, 0, 0])
    assert np.array_equal(routes.hodge_star(e13).coeffs, [0, 0, 0, 0, -1, 0])


def test_star_involution_and_isometry(rng):
    coeffs = rng.normal(size=(10_000, 6))
    starred = coeffs @ fc.STAR_MATRIX.T
    assert np.allclose(starred @ fc.STAR_MATRIX.T, coeffs, atol=0)
    assert np.allclose(np.linalg.norm(starred, axis=1),
                       np.linalg.norm(coeffs, axis=1), atol=1e-12)


def test_block_basis_orthogonal():
    assert np.allclose(fc.BLOCK_BASIS.T @ fc.BLOCK_BASIS, np.eye(6),
                       atol=1e-15)
    # star is +1 on the SD columns, -1 on the ASD columns
    assert np.allclose(fc.STAR_MATRIX @ fc.SD_BASIS, fc.SD_BASIS, atol=0)
    assert np.allclose(fc.STAR_MATRIX @ fc.ASD_BASIS, -fc.ASD_BASIS, atol=0)


def test_split_reassembles(rng):
    for _ in range(200):
        omega = fc.Form2(rng.normal(size=6))
        plus, minus = fc.sd_asd_split(omega)
        assert np.allclose(plus.coeffs + minus.coeffs, omega.coeffs,
                           atol=1e-14)
        assert np.allclose(routes.hodge_star(plus).coeffs, plus.coeffs,
                           atol=1e-14)
        assert np.allclose(routes.hodge_star(minus).coeffs, -minus.coeffs,
                           atol=1e-14)


def test_sd_asd_coordinate_roundtrip(rng):
    h = rng.normal(size=3)
    assert np.allclose(routes.sd_coords(routes.sd_form(h)), h, atol=1e-14)
    k = rng.normal(size=3)
    assert np.allclose(routes.asd_coords(routes.asd_form(k)), k, atol=1e-14)


def test_wedge_antisymmetry_and_plucker(rng):
    for _ in range(1000):
        x, y = rng.normal(size=(2, 4))
        w = routes.wedge(x, y)
        assert np.allclose(w.coeffs, -routes.wedge(y, x).coeffs, atol=0)
        # decomposable forms are null for the wedge pairing
        assert abs(w.coeffs @ routes.hodge_star(w).coeffs) < 1e-12
        plus, minus = fc.sd_asd_split(w)
        assert abs(plus.norm - minus.norm) < 1e-12


def test_wedge_example():
    w = routes.wedge([1, 0, 0, 0], [0, 1, 0, 0])
    assert np.array_equal(w.coeffs, [1, 0, 0, 0, 0, 0])
    m = routes.form_matrix(w)
    assert m[0, 1] == 1 and m[1, 0] == -1
    assert np.allclose(m + m.T, 0, atol=0)


def test_plane_roundtrip(rng):
    for _ in range(1000):
        h = rng.normal(size=3)
        h /= np.linalg.norm(h)
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        p = fc.plane_from_sd_asd(routes.sd_form(h), routes.asd_form(k))
        assert abs(p.form.norm - 1.0) < 1e-12
        assert np.allclose(routes.sd_coords(p.sd_unit), h, atol=1e-12)
        assert np.allclose(routes.asd_coords(p.asd_unit), k, atol=1e-12)
        x, y = routes.plane_vectors(p)
        assert abs(x @ x - 1) < 1e-9 and abs(y @ y - 1) < 1e-9
        assert abs(x @ y) < 1e-9
        assert np.allclose(routes.wedge(x, y).coeffs, p.form.coeffs, atol=1e-9)


def test_plane_from_vectors_matches_wedge(rng):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    x, y = q[:, 0], q[:, 1]
    p = routes.plane_from_vectors(x, y)
    assert np.allclose(p.form.coeffs, routes.wedge(x, y).coeffs, atol=1e-12)


def test_complement_is_involution(rng):
    h = rng.normal(size=3)
    h /= np.linalg.norm(h)
    k = rng.normal(size=3)
    k /= np.linalg.norm(k)
    p = fc.plane_from_sd_asd(routes.sd_form(h), routes.asd_form(k))
    q = routes.complement(p)
    assert np.allclose(q.sd_unit.coeffs, p.sd_unit.coeffs, atol=0)
    assert np.allclose(q.asd_unit.coeffs, -p.asd_unit.coeffs, atol=0)
    back = routes.complement(q)
    assert np.allclose(back.form.coeffs, p.form.coeffs, atol=1e-14)


def test_plane_input_validation():
    h = np.array([1.0, 0.0, 0.0])
    with pytest.raises(fc.NonUnitInput):
        fc.plane_from_sd_asd(routes.sd_form(2 * h), routes.asd_form(h))
    with pytest.raises(fc.WrongDuality):
        fc.plane_from_sd_asd(routes.asd_form(h), routes.asd_form(h))
    with pytest.raises(fc.WrongDuality):
        fc.plane_from_sd_asd(routes.sd_form(h), routes.sd_form(h))
    with pytest.raises(routes.NonOrthonormalInput):
        routes.plane_from_vectors([1, 0, 0, 0], [1, 1, 0, 0])
    with pytest.raises(routes.NonOrthonormalInput):
        routes.plane_from_vectors([2, 0, 0, 0], [0, 1, 0, 0])


def _unit_rows(rng, n, basis):
    x = rng.normal(size=(n, 3))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)) @ basis.T


def test_planes_batch_matches_one_row_path(rng):
    H = _unit_rows(rng, 50, fc.SD_BASIS)
    K = _unit_rows(rng, 50, fc.ASD_BASIS)
    for plane, h, k in zip(_planes(H, K), H, K):
        one = fc.plane_from_sd_asd(fc.Form2(h), fc.Form2(k))
        # and the one-row arithmetic itself, row by row
        h1, k1 = h / np.linalg.norm(h), k / np.linalg.norm(k)
        loop = fc.Plane2(fc.Form2((h1 + k1) / np.sqrt(2.0)), fc.Form2(h1), fc.Form2(k1))
        for field in ("form", "sd_unit", "asd_unit"):
            for ref in (one, loop):
                diff = getattr(plane, field).coeffs - getattr(ref, field).coeffs
                assert np.abs(diff).max() <= np.finfo(float).eps


@pytest.mark.parametrize("row", [0, 2])
def test_planes_batch_refuses_a_bad_row_as_the_one_row_path(rng, row):
    # the same typed error and message as plane_from_sd_asd on that row
    good_h = _unit_rows(rng, 3, fc.SD_BASIS)
    good_k = _unit_rows(rng, 3, fc.ASD_BASIS)
    for error, H, K, message in (
            (fc.NonUnitInput, 2.0 * good_h[row], good_k[row], "|H| = 2, expected 1"),
            (fc.NonUnitInput, good_h[row], 0.5 * good_k[row], "|K| = 0.5, expected 1"),
            (fc.WrongDuality, good_k[row], good_k[row], "H is not self-dual"),
            (fc.WrongDuality, good_h[row], good_h[row], "K is not anti-self-dual")):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            fc.plane_from_sd_asd(fc.Form2(H), fc.Form2(K))
        batch_h, batch_k = good_h.copy(), good_k.copy()
        batch_h[row], batch_k[row] = H, K
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            _planes(batch_h, batch_k)


def test_form2_shape_validation():
    with pytest.raises(ValueError):
        fc.Form2([1.0, 2.0])


def test_frame_validation():
    with pytest.raises(routes.NonOrthonormalInput):
        routes.Frame4(np.eye(4) * 2)
    flipped = np.eye(4)
    flipped[0, 0] = -1
    with pytest.raises(routes.NonOrthonormalInput):
        routes.Frame4(flipped)
    routes.Frame4(np.eye(4))  # identity is fine


def test_random_frame_properties():
    rng = np.random.default_rng(7)
    f = routes.random_frame(rng)
    assert np.allclose(f.columns.T @ f.columns, np.eye(4), atol=1e-12)
    assert np.linalg.det(f.columns) > 0
    again = routes.random_frame(np.random.default_rng(7))
    assert np.array_equal(f.columns, again.columns)
