import tracemalloc

import numpy as np
import pytest

from spherelab.basis import DegreeTable
from spherelab.cutoffs import Cutoff
from spherelab.quadrature import SphereRule


@pytest.fixture(scope="session")
def table():
    """Shared degree table large enough for k <= 128 with the default band."""
    return DegreeTable(110)


@pytest.fixture(scope="session")
def big_table():
    """Degree table for k <= 256 (used by the embedding asymptotics)."""
    return DegreeTable(194)


@pytest.fixture(scope="session")
def bump():
    return Cutoff()


@pytest.fixture(scope="session")
def rule16():
    return SphereRule(16)


@pytest.fixture(scope="session")
def rule24():
    return SphereRule(24)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)



def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def traced_peak():
    """traced_peak(run): the peak bytes allocated under tracemalloc while
    run() runs."""
    return _traced_peak
