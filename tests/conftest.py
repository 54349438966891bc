import os

import numpy as np
import pytest

import fourcurv as fc


@pytest.fixture(scope="session")
def models():
    return {name: fc.model(name) for name in fc.model_names()}


@pytest.fixture(scope="session")
def model_decs(models):
    return {name: fc.decompose(ms.tensor) for name, ms in models.items()}


@pytest.fixture(scope="session")
def model_scans(models):
    return {name: fc.scan_extremes(ms.tensor) for name, ms in models.items()}


@pytest.fixture(scope="session")
def pinched_batch():
    """100 scan-verified pinched samples with their decompositions and scans.

    Session-scoped because the ville tests use a few entries and the
    acceptance suite uses all of them.
    """
    out = []
    for seed in range(100):
        R = fc.pinched_sample(seed)
        out.append((R, fc.decompose(R), fc.scan_extremes(R)))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def module_env():
    """Environment in which `python -m fourcurv` imports this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env
