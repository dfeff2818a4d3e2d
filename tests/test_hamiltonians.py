import numpy as np
import pytest

from mfglab.errors import MomentumCutoffError, VelocityCutoffError
from mfglab.hamiltonians import (
    Mechanical,
    Potential,
    QuadraticDrift,
    TabulatedConvex,
)
from mfglab.torus import grid


def make_table(n_x=64, n_p=201, cutoff=10.0):
    xs = grid(n_x)
    ps = np.linspace(-cutoff, cutoff, n_p)
    return TabulatedConvex(0.5 * ps[None, :] ** 2 + np.cos(2 * np.pi * xs)[:, None], cutoff)


def test_legendre_quadratic_drift_at_minus_one():
    lval, pstar = QuadraticDrift().lagrangian(0.3, -1.0)
    assert lval == pytest.approx(0.0, abs=1e-15)
    assert pstar == pytest.approx(0.0, abs=1e-15)


def test_legendre_free_rest():
    lval, pstar = Mechanical().lagrangian(0.7, 0.0)
    assert lval == 0.0
    assert pstar == 0.0


def test_legendre_cosine_example(cosine_model):
    lval, pstar = cosine_model.lagrangian(0.0, 1.0)
    assert lval == pytest.approx(-0.5, abs=1e-15)
    assert pstar == pytest.approx(1.0, abs=1e-15)


def test_velocity_cutoff_errors():
    with pytest.raises(VelocityCutoffError):
        Mechanical().lagrangian(0.0, 11.0)


def test_tabulated_legendre_matches_closed_form():
    tab = make_table()
    for x, v in [(0.0, 1.0), (0.25, -2.0), (0.6, 0.5)]:
        lval, pstar = tab.lagrangian(x, v)
        assert lval == pytest.approx(0.5 * v**2 - np.cos(2 * np.pi * x), abs=1e-3)
        assert pstar == pytest.approx(v, abs=1e-3)


def test_tabulated_momentum_boundary_error():
    tab = make_table(cutoff=2.0)
    with pytest.raises(MomentumCutoffError):
        tab.lagrangian(0.0, 2.5)  # maximiser p* = v lies beyond the table edge


def test_legendre_duality_recovers_h():
    models = [Mechanical(0.3, Potential.cosine()), QuadraticDrift()]
    vs = np.linspace(-5, 5, 201)
    for model in models:
        for x in (0.0, 0.31, 0.77):
            for p in (-1.2, 0.0, 0.8):
                lvals, _ = model.lagrangian(np.full(vs.shape, x), vs)
                dual = np.max(vs * p - lvals)
                assert dual == pytest.approx(float(model.h(x, p)), abs=1e-6)


def test_legendre_duality_tabulated():
    tab = make_table()
    vs = np.linspace(-5, 5, 401)
    for x in (0.0, 0.42):
        for p in (-0.7, 0.9):
            lvals, _ = tab.lagrangian(np.full(vs.shape, x), vs)
            dual = np.max(vs * p - lvals)
            assert dual == pytest.approx(float(tab.h(x, p)), abs=1e-3)


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-5
    for model in (Mechanical(0.5, Potential.double_well(0.5, 1.0)), QuadraticDrift()):
        xs = rng.random(100)
        ps = rng.uniform(-3, 3, 100)
        dp_fd = (model.h(xs, ps + h) - model.h(xs, ps - h)) / (2 * h)
        assert np.max(np.abs(model.dh_dp(xs, ps) - dp_fd)) < 1e-6


def test_validate_accepts_families(qd_model, cosine_model):
    qd_model.validate()
    cosine_model.validate()
    make_table().validate()


def test_validate_rejects_nonconvex_table():
    xs = grid(16)
    ps = np.linspace(-10, 10, 41)
    values = np.abs(ps)[None, :] * 10.0 + 0.0 * xs[:, None]  # piecewise linear
    with pytest.raises(ValueError):
        TabulatedConvex(values, 10.0).validate()


def test_validate_rejects_sublinear_growth():
    xs = grid(16)
    ps = np.linspace(-10, 10, 41)
    values = 0.01 * ps[None, :] ** 2 + 0.0 * xs[:, None]  # H(P)/P = 0.1 < 1
    with pytest.raises(ValueError):
        TabulatedConvex(values, 10.0).validate()


def test_potential_periodicity_check():
    with pytest.raises(ValueError):
        Potential("bad", fn=lambda x: np.asarray(x, dtype=float) * 0.5)
    with pytest.raises(ValueError):
        Potential.from_samples(np.linspace(0.0, 1.0, 33), closed=True)


def test_potential_from_name():
    assert Potential.from_name("zero").value(0.3) == 0.0
    assert Potential.from_name("cosine").value(0.0) == pytest.approx(1.0)
    dw = Potential.from_name("double-well(0.5, 1.0)")
    assert dw.value(0.0) == pytest.approx(0.0, abs=1e-15)
    assert dw.value(0.5) == pytest.approx(0.0, abs=1e-15)
    assert dw.value(0.25) < 0.0
    with pytest.raises(ValueError):
        Potential.from_name("triple-well(1)")


def test_sampled_potential_interpolates():
    xs = grid(128)
    pot = Potential.from_samples(np.cos(2 * np.pi * xs))
    assert pot.value(0.125) == pytest.approx(np.cos(2 * np.pi * 0.125), abs=1e-3)

