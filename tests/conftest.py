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
