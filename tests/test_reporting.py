import json

import numpy as np
import pytest

import fourcurv as fc
from fourcurv import CheckReport


def test_from_slack_scalar():
    r = CheckReport.from_slack("one", 0.25, 1e-9)
    assert (r.n_samples, r.n_violations, r.min_slack) == (1, 0, 0.25)
    assert r.passed is True
    assert type(r.min_slack) is float


def test_from_slack_array():
    r = CheckReport.from_slack("many", np.array([0.5, -0.1, 0.2, -0.3]), 0.2,
                               metrics={"k": 1.0}, notes=("a note",))
    assert (r.n_samples, r.n_violations, r.min_slack) == (4, 1, -0.3)
    assert r.passed is False
    assert r.metrics == {"k": 1.0}
    assert r.notes == ("a note",)


def test_from_slack_boundary():
    tol = 1e-9
    assert CheckReport.from_slack("edge", -tol, tol).passed
    below = np.nextafter(-tol, -np.inf)
    r = CheckReport.from_slack("edge", [0.0, below], tol)
    assert r.n_violations == 1
    assert not r.passed


def test_from_slack_nan_is_a_violation():
    r = CheckReport.from_slack("nan", [1.0, np.nan, 2.0], 1e-9)
    assert r.n_violations == 1
    assert r.passed is False
    assert CheckReport.from_slack("nan", np.nan, 1e-9).n_violations == 1


def test_from_slack_empty():
    r = CheckReport.from_slack("empty", np.empty(0), 1e-9)
    assert (r.n_samples, r.n_violations, r.min_slack) == (0, 0, np.inf)
    assert r.passed is True


def test_passed_follows_violations():
    r = CheckReport.from_slack("derived", [1.0], 0.0)
    r.n_violations = 3
    assert r.passed is False
    assert r.as_dict()["passed"] is False


def test_as_dict_carries_every_field():
    r = CheckReport.from_slack("fields", [0.1, 0.2], 0.0, metrics={"m": 2.0},
                               notes=("n",))
    assert r.as_dict() == {"name": "fields", "passed": True, "n_samples": 2,
                           "n_violations": 0, "min_slack": 0.1,
                           "metrics": {"m": 2.0}, "notes": ["n"]}


def _library_reports():
    R = fc.random_algebraic_tensor(3, scale=2.0)
    yield fc.seaman_check(R, n_frames=20)
    yield fc.lemma1_suite(3, 5)
    yield fc.intermediate_identity_check(R, fc.Form2(np.arange(1.0, 7.0)))
    yield fc.k3_bound_check(fc.decompose(R))
    P = fc.pinched_sample(0)
    dec, scan = fc.decompose(P), fc.scan_extremes(P)
    yield fc.operator_bound_check(P, scan.delta, n_planes=50, scan=scan)
    for statement in (False, True):
        yield fc.znorm_bound_check(dec, scan.delta, scan=scan,
                                   use_statement_bound=statement)


def test_every_library_report_is_strict_json():
    names = []
    for r in _library_reports():
        assert r.n_samples > 0
        data = json.loads(json.dumps(r.as_dict(), allow_nan=False))
        assert data["passed"] is True
        names.append(data["name"])
    assert names == ["seaman", "lemma1", "intermediate_identity", "k3_bound",
                     "operator_bound", "znorm_bound", "znorm_bound"]


def test_passed_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        CheckReport(name="x", passed=True, n_samples=1, n_violations=0,
                    min_slack=0.0)
