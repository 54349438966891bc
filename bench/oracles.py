"""Independent checks of the outputs of every benchmark op.

Reference values come from exact model formulas or from a separate numpy
route written here: the wedge-basis operator read off the components, its
self-dual / anti-self-dual blocks in a basis defined here, and their
eigenvalues.  Tolerances scale with the norm of the tensor's operator.

Each check returns a list of (oracle name, detail) pairs, empty when the
output is right.
"""
from __future__ import annotations

import math

import numpy as np

# index pairs behind the wedge basis e^01, e^02, e^03, e^12, e^13, e^23
PAIRS = np.array(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
_R2 = 1.0 / math.sqrt(2.0)
# rows: orthonormal bases of the self-dual and anti-self-dual 2-forms
SD = _R2 * np.array([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, -1, 0],
                     [0, 0, 1, 1, 0, 0]], dtype=float)
ASD = _R2 * np.array([[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, 1, 0],
                      [0, 0, 1, -1, 0, 0]], dtype=float)
CRITICAL_DELTA = (3.0 * math.sqrt(3.0) - 5.0) / 4.0

ALGEBRA_REL = 1e-9   # two exact algebraic routes
SCAN_REL = 1e-6      # a plane search against an exact value
VERDICT_REL = 1e-6   # margin below which a verdict may go either way

# Known defects: the first theorem's verdict is not scale invariant at
# this commit (ROADMAP.md, "Sound, scale-invariant verdicts").  These
# failures stay counted; a run is still `correct` when every failure it
# has is listed here.
KNOWN_DEFECTS = {("verdict.thm1", "S4 r=0.5"), ("verdict.thm1", "CP2 c=4")}


class Reference:
    """Curvature quantities computed from the components alone."""

    def __init__(self, components):
        c = np.asarray(components, dtype=float)
        i, j = PAIRS[:, 0], PAIRS[:, 1]
        self.M = c[i[:, None], j[:, None], i[None, :], j[None, :]]
        self.norm = float(np.linalg.norm(self.M))
        self.s = 2.0 * float(np.trace(self.M))
        self.u = self.s / 12.0
        A = SD @ self.M @ SD.T
        C = ASD @ self.M @ ASD.T
        B = SD @ self.M @ ASD.T
        self.wplus_norm = float(np.linalg.norm(A - self.u * np.eye(3)))
        self.wminus_norm = float(np.linalg.norm(C - self.u * np.eye(3)))
        self.wp = np.linalg.eigvalsh(A - self.u * np.eye(3))
        self.wm = np.linalg.eigvalsh(C - self.u * np.eye(3))
        self.ric0_sq = 4.0 * float((B ** 2).sum())
        self.k1perp = float((self.wp[0] + self.wm[0]) / 2.0 + self.u)
        self.k3perp = float((self.wp[2] + self.wm[2]) / 2.0 + self.u)
        wp2, wm2 = float((self.wp ** 2).sum()), float((self.wm ** 2).sum())
        self.gbc = (self.s ** 2 / 24.0 + wp2 + wm2 - 0.5 * self.ric0_sq) \
            / (8.0 * math.pi ** 2)
        self.sig = (wp2 - wm2) / (12.0 * math.pi ** 2)
        self.fg = self.s ** 2 / 24.0 - wp2 / 3.0 + 7.0 * wm2 / 3.0 \
            - 0.5 * self.ric0_sq

    def weitzenbock(self) -> np.ndarray:
        """(s/3) Id - 2 (W+ (+) W-) in the wedge basis."""
        w = (SD.T @ (SD @ self.M @ SD.T) @ SD
             + ASD.T @ (ASD @ self.M @ ASD.T) @ ASD - self.u * np.eye(6))
        return (self.s / 3.0) * np.eye(6) - 2.0 * w

    def tol(self, rel: float) -> float:
        return rel * self.norm + 1e-300

    def sectional(self, form) -> float:
        p = np.asarray(form, dtype=float)
        return float(p @ self.M @ p)


def model_extremes(name: str, params: dict) -> tuple[float, float]:
    """Exact (k_min, k_max) of a model space."""
    if name == "S4":
        k = 1.0 / params["r"] ** 2
        return k, k
    if name == "CP2":
        return params["c"] / 4.0, params["c"]
    if name == "S2xS2":
        return 0.0, max(1.0 / params["a"] ** 2, 1.0 / params["b"] ** 2)
    if name == "FlatT4":
        return 0.0, 0.0
    raise ValueError(name)


def model_verdicts(name: str) -> tuple[bool, object]:
    """Scale-free expected verdicts: (thm1 holds, thm2 holds or error)."""
    return {"S4": (True, True), "CP2": (True, True),
            "S2xS2": (False, False),
            "FlatT4": (False, "NonPositiveScalarCurvature")}[name]


def far(a, b, tol) -> bool:
    return not abs(float(a) - float(b)) <= tol


def max_diff(a, b) -> float:
    return float(np.abs(np.asarray(a, dtype=float)
                        - np.asarray(b, dtype=float)).max())


def thm1_expected(ref: Reference, k_min: float, k_max: float):
    """Theorem 1 hypotheses: one Weyl half vanishes and K_min/K_max >= delta*.

    None when the pinching ratio sits within tolerance of delta*.
    """
    half_flat = min(ref.wplus_norm, ref.wminus_norm) <= ref.tol(VERDICT_REL)
    if k_max <= ref.tol(SCAN_REL):
        return False
    ratio = k_min / k_max
    if abs(ratio - CRITICAL_DELTA) <= VERDICT_REL:
        return None
    return bool(half_flat and ratio >= CRITICAL_DELTA)


def thm2_expected(ref: Reference, lambda1: float):
    """True/False for the verdict, the error name for s <= 0, None if borderline."""
    if abs(ref.s) <= ref.tol(ALGEBRA_REL):
        return None if ref.s != 0.0 else "NonPositiveScalarCurvature"
    if ref.s < 0:
        return "NonPositiveScalarCurvature"
    threshold = ref.s ** 2 / (24.0 * (3.0 * lambda1 + ref.s))
    if abs(ref.k1perp - threshold) <= ref.tol(VERDICT_REL):
        return None
    return ref.k1perp >= threshold


def check_decomposition(fc, ref: Reference, dec) -> list:
    bad = []
    tol = ref.tol(ALGEBRA_REL)
    if max_diff(fc.assemble_operator(dec).matrix, ref.M) > tol:
        bad.append(("decompose.roundtrip", "operator rebuilt from blocks"))
    if (far(dec.s, ref.s, tol) or max_diff(dec.wp_eigs, ref.wp) > tol
            or max_diff(dec.wm_eigs, ref.wm) > tol):
        bad.append(("decompose.roundtrip", "s or Weyl eigenvalues"))
    return bad


def check_scan(fc, ref: Reference, R, dec, scan, k_at_planes, rng) -> list:
    """Closed forms, attaining planes and seeded random planes."""
    bad = []
    tol = ref.tol(SCAN_REL)
    if (far(scan.k1perp, ref.k1perp, tol) or far(scan.k3perp, ref.k3perp, tol)
            or far(scan.k1perp, fc.k1perp_closed_form(dec), tol)
            or far(scan.k3perp, fc.k3perp_closed_form(dec), tol)):
        bad.append(("scan.closed_form", "k1perp/k3perp"))
    exact = ref.tol(ALGEBRA_REL)
    planes = ((scan.argmin_plane, scan.k_min, k_at_planes[0]),
              (scan.argmax_plane, scan.k_max, k_at_planes[1]))
    for plane, value, sectional in planes:
        if (far(ref.sectional(plane.form.coeffs), value, exact)
                or far(sectional, value, exact)):
            bad.append(("scan.argplanes", "attaining plane value"))
    if not (scan.k_min <= scan.k1perp + exact and scan.k1perp <= scan.k3perp + exact
            and scan.k3perp <= scan.k_max + exact):
        bad.append(("scan.order", "k_min <= k1perp <= k3perp <= k_max"))
    hs = rng.normal(size=(256, 3))
    ks = rng.normal(size=(256, 3))
    hs /= np.linalg.norm(hs, axis=1, keepdims=True)
    ks /= np.linalg.norm(ks, axis=1, keepdims=True)
    vals = fc.batch_sectional(R, hs, ks)
    if vals.min() < scan.k_min - exact or vals.max() > scan.k_max + exact:
        bad.append(("scan.random_planes", "a random plane beyond [k_min, k_max]"))
    return bad


def check_model(ref: Reference, name: str, params: dict, volume: float,
                expected_chi: int, expected_tau: int, scan, iv) -> list:
    bad = []
    k_min, k_max = model_extremes(name, params)
    tol = ref.tol(SCAN_REL)
    if far(scan.k_min, k_min, tol) or far(scan.k_max, k_max, tol):
        bad.append(("model.extremes", f"k_min={scan.k_min!r} k_max={scan.k_max!r}"))
    if (far(iv.gbc * volume, expected_chi, 1e-9)
            or far(iv.sig * volume, expected_tau, 1e-9)):
        bad.append(("invariants.chi_tau", "model characteristic numbers"))
    return bad


def check_integrands(ref: Reference, iv) -> list:
    tol = ALGEBRA_REL * ref.norm ** 2 + 1e-300
    if (far(iv.gbc, ref.gbc, tol) or far(iv.sig, ref.sig, tol)
            or far(iv.fg, ref.fg, tol)):
        return [("invariants.integrands", "gbc/sig/fg")]
    return []


def check_weitzenbock(fc, ref: Reference, dec, N) -> list:
    if max_diff(N.matrix, fc.weitzenbock_from_blocks(dec).matrix) \
            > ref.tol(ALGEBRA_REL):
        return [("weitzenbock.two_routes", "bilinear vs blocks")]
    return []


def check_verdict(oracle: str, expected, got) -> list:
    """`got` is a verdict object or the name of the error raised."""
    if expected is None or _show(got) == _show(expected):
        return []
    return [(oracle, f"expected {_show(expected)}, got {_show(got)}")]


def _show(x) -> str:
    """An error name as it is; a verdict or a bool as HOLD or FAIL."""
    if isinstance(x, str):
        return x
    hold = x if isinstance(x, bool) else x.hypotheses_hold
    return "HOLD" if hold else "FAIL"


def check_pinched(ref: Reference, reports, fg_bound) -> list:
    bad = []
    op_report, z_report = reports
    if not op_report.passed:
        bad.append(("ville.operator_bound", "violations reported"))
    if not z_report.passed:
        bad.append(("ville.znorm_bound", "violations reported"))
    fg, bound = fg_bound
    if far(fg, ref.fg, ALGEBRA_REL * ref.norm ** 2) or fg < bound - ref.tol(ALGEBRA_REL):
        bad.append(("ville.deg", f"fg={fg!r} bound={bound!r}"))
    return bad


def check_sweep(ref: Reference, out) -> list:
    bad = []
    tol = ref.tol(ALGEBRA_REL)
    lemma1 = out["lemma1"]
    if not lemma1.passed or lemma1.n_samples != out["lemma1_samples"]:
        bad.append(("lemma1.holds", f"passed={lemma1.passed} n={lemma1.n_samples}"))
    seaman = out["seaman"]
    bound = (2.0 / 3.0) * (ref.k3perp - ref.k1perp)
    if (not seaman.passed or far(seaman.metrics["bound"], bound, tol)
            or seaman.metrics["max_abs_component"] > bound + tol):
        bad.append(("seaman.holds", "bound or violation"))
    k3 = out["k3bound"]
    slack = ref.s / 4.0 - 2.0 * ref.k1perp - ref.k3perp
    if not k3.passed or far(k3.min_slack, slack, tol):
        bad.append(("k3bound.holds", f"slack={k3.min_slack!r} ref={slack!r}"))
    rot = out["rotated_dec"]
    if (far(rot.s, ref.s, tol) or max_diff(rot.wp_eigs, ref.wp) > tol
            or max_diff(rot.wm_eigs, ref.wm) > tol):
        bad.append(("rotation.invariance", "s or Weyl eigenvalues"))
    return bad
