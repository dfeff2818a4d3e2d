import numpy as np
import pytest

from mfglab.coupling import CouplingFunctional
from mfglab.hamiltonians import Mechanical, Potential, QuadraticDrift
from mfglab.lax_oleinik import critical_value, weak_kam_solution
from mfglab.mfg import periodic_regime


@pytest.fixture(scope="session")
def qd_model():
    return QuadraticDrift()


@pytest.fixture(scope="session")
def free_model():
    return Mechanical(0.0, Potential.zero())


@pytest.fixture(scope="session")
def cosine_model():
    return Mechanical(0.0, Potential.cosine())


@pytest.fixture(scope="session")
def double_well_model():
    return Mechanical(0.0, Potential.double_well(0.5, 1.0))


@pytest.fixture(scope="session")
def coupling_cos():
    return CouplingFunctional.cosine4pi()


@pytest.fixture(scope="session")
def qd_regime_256(qd_model):
    """(c0, u0, drift field) for the drifted quadratic model at n = 256."""
    return periodic_regime(qd_model, critical_value(qd_model, 20.0, 256, 2e-3))


@pytest.fixture(scope="session")
def cosine_weak_kam(cosine_model):
    """Stationary solution of the cosine-potential model at n = 512."""
    return weak_kam_solution(cosine_model, critical_value(cosine_model, 50.0, 512, 2e-3))


@pytest.fixture(scope="session")
def smooth_values_128():
    xs = np.arange(128) / 128
    return 0.4 * np.cos(2 * np.pi * xs) + 0.15 * np.sin(4 * np.pi * xs)
