import numpy as np
import pytest

from mfglab.coupling import CouplingFunctional, monotonicity_defect
from mfglab.measures import PARTICLES, CircleMeasure, random_fourier_density, wasserstein1
from mfglab.torus import grid


def test_cosine_coupling_on_uniform_measure(coupling_cos):
    lebesgue = CircleMeasure.from_name("lebesgue", 512)
    assert abs(coupling_cos(lebesgue)) <= 1e-12


def test_cosine_coupling_on_rotated_density(coupling_cos):
    n = 512
    xs = grid(n)
    for theta in (0.0, 0.13, 0.4, 0.77):
        m = CircleMeasure.from_density_values(1.0 + np.cos(2 * np.pi * (xs + theta)))
        assert coupling_cos(m) == pytest.approx(
            2 * np.pi * np.cos(2 * np.pi * theta), abs=1e-6)


def test_constant_coupling_is_constant():
    const = CouplingFunctional("constant(2.5)",
                               lambda x: np.full_like(np.asarray(x, dtype=float), 2.5), 0.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert const(random_fourier_density(128, rng)) \
            == pytest.approx(2.5, abs=1e-12)


def test_monotonicity_defect_vanishes():
    rng = np.random.default_rng(1)
    f = CouplingFunctional.cosine4pi()
    for _ in range(100):
        m1 = random_fourier_density(128, rng)
        m2 = random_fourier_density(128, rng)
        assert abs(monotonicity_defect(f, m1, m2)) <= 1e-12
    assert monotonicity_defect(f, m1, m1) == 0.0


def test_monotonicity_defect_mixed_representations():
    f = CouplingFunctional.cosine4pi()
    dens = CircleMeasure.from_name("one-plus-cosine", 128)
    part = CircleMeasure(PARTICLES, np.array([0.2, 0.7, 0.9]), np.array([0.5, 0.3, 0.2]))
    assert abs(monotonicity_defect(f, part, dens)) <= 1e-12


def test_lipschitz_certification(coupling_cos):
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(200):
        m1 = random_fourier_density(256, rng)
        m2 = random_fourier_density(256, rng)
        gap = abs(coupling_cos(m1) - coupling_cos(m2))
        if gap > coupling_cos.lipschitz * wasserstein1(m1, m2) + 1e-12:
            violations += 1
    assert violations == 0


def test_linearity_in_the_measure(coupling_cos):
    rng = np.random.default_rng(3)
    m1 = random_fourier_density(128, rng)
    m2 = random_fourier_density(128, rng)
    for lam in (0.0, 0.3, 0.5, 0.9, 1.0):
        mix = CircleMeasure.from_masses(lam * m1.weights + (1 - lam) * m2.weights)
        expected = lam * coupling_cos(m1) + (1 - lam) * coupling_cos(m2)
        assert coupling_cos(mix) == pytest.approx(expected, abs=1e-12)


def test_from_name_ids():
    assert CouplingFunctional.from_name("zero").lipschitz == 0.0
    cos4 = CouplingFunctional.from_name("cosine4pi")
    assert cos4.lipschitz == pytest.approx(8 * np.pi**2)
    custom = CouplingFunctional.from_name("custom-fourier(1.0,0.0,0.5,0.5)")
    xs = grid(4096)
    measured = np.max(np.abs(np.gradient(custom.f(xs), 1.0 / 4096)))
    assert measured <= custom.lipschitz + 1e-6  # certified bound dominates
    with pytest.raises(ValueError):
        CouplingFunctional.from_name("entropy")
