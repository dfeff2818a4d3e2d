import numpy as np
import pytest

from mfglab.errors import MFGLabError
from mfglab.hamiltonians import HamiltonianModel, Mechanical, Potential, QuadraticDrift
from mfglab.torus import grid


def _lagrangian(model, x, v):
    """L(x, v) = K(v) - V(x) at one point, read from the model's parts."""
    kinetic, potential = model.lagrangian_parts([x], [v])
    return float(kinetic[0] - potential[0])


def test_legendre_quadratic_drift_at_minus_one():
    assert _lagrangian(QuadraticDrift(), 0.3, -1.0) == pytest.approx(0.0, abs=1e-15)


def test_legendre_free_rest():
    assert _lagrangian(Mechanical(), 0.7, 0.0) == 0.0


def test_legendre_cosine_example(cosine_model):
    assert _lagrangian(cosine_model, 0.0, 1.0) == pytest.approx(-0.5, abs=1e-15)


def test_velocity_cutoff_errors():
    with pytest.raises(MFGLabError, match="exceeds the velocity cutoff"):
        Mechanical().lagrangian_parts([0.0], [11.0])
    with pytest.raises(MFGLabError, match="exceeds the velocity cutoff"):
        QuadraticDrift().lagrangian_parts(grid(8), [-11.0, 0.0])


def test_legendre_duality_recovers_h():
    """max_v (v p - L(x, v)) = H(x, p), with L = K(v) - V(x) from the
    kinetic row over velocities and the potential column over nodes."""
    models = [Mechanical(0.3, Potential.cosine()), QuadraticDrift()]
    vs = np.linspace(-5, 5, 201)
    xs = np.array([0.0, 0.31, 0.77])
    for model in models:
        kinetic, potential = model.lagrangian_parts(xs, vs)
        assert kinetic.shape == vs.shape and potential.shape == xs.shape
        for j, x in enumerate(xs):
            for p in (-1.2, 0.0, 0.8):
                dual = np.max(vs * p - (kinetic - potential[j]))
                assert dual == pytest.approx(float(model.h(x, p)), abs=1e-6)


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-5
    for model in (Mechanical(0.5, Potential.double_well(0.5, 1.0)), QuadraticDrift()):
        xs = rng.random(100)
        ps = rng.uniform(-3, 3, 100)
        dp_fd = (model.h(xs, ps + h) - model.h(xs, ps - h)) / (2 * h)
        assert np.max(np.abs(model.dh_dp(xs, ps) - dp_fd)) < 1e-6


def test_validate_accepts_families(qd_model, cosine_model, double_well_model):
    qd_model.validate()
    cosine_model.validate()
    double_well_model.validate()
    # growth counts from the least sampled H(x, .), so V's offset cancels:
    # this well is 42.5 deep and H(x, +-10)/10 falls to 0.76 on the grid
    Mechanical(0.0, Potential.double_well(0.5, 170.0)).validate()


class _Kinked(HamiltonianModel):
    """H = 10 |p|: fast enough growth, but linear on either side of p = 0."""

    def h(self, x, p):
        return 10.0 * np.abs(np.asarray(p, dtype=float)) + 0.0 * np.asarray(x)


def test_validate_rejects_nonconvex_table():
    with pytest.raises(ValueError, match="not strictly convex"):
        _Kinked().validate()


def test_validate_rejects_sublinear_growth():
    # H = (p + 8)^2 / 2: min H(x, +-10)/10 = H(x, -10)/10 = 0.2 < 1
    with pytest.raises(ValueError, match="grows too slowly"):
        Mechanical(8.0, Potential.zero()).validate()


def test_potential_periodicity_check():
    with pytest.raises(ValueError):
        Potential("bad", fn=lambda x: np.asarray(x, dtype=float) * 0.5)


def test_potential_from_name():
    assert Potential.from_name("zero").value(0.3) == 0.0
    assert Potential.from_name("cosine").value(0.0) == pytest.approx(1.0)
    dw = Potential.from_name("double-well(0.5, 1.0)")
    assert dw.value(0.0) == pytest.approx(0.0, abs=1e-15)
    assert dw.value(0.5) == pytest.approx(0.0, abs=1e-15)
    assert dw.value(0.25) < 0.0
    with pytest.raises(ValueError):
        Potential.from_name("triple-well(1)")
