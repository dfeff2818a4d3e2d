import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import simpson

from mfglab.errors import NotConvergedError, VelocityCutoffError
from mfglab.lax_oleinik import (
    HopfLaxStepper,
    alpha_function,
    critical_value,
    evolve,
    hopf_lax_step,
    minimal_action,
    sweep,
    weak_kam_solution,
)
from mfglab.torus import grid, periodic_second_difference


def test_step_preserves_rest_state(free_model, qd_model):
    for model in (free_model, qd_model):
        for dt in (1e-3, 1e-2):
            out = hopf_lax_step(np.zeros(128), dt, model)
            assert np.max(np.abs(out)) < 1e-14


def test_step_matches_fine_grid_hopf_lax(free_model):
    n, dt = 512, 0.1
    xs = grid(n)
    phi = np.cos(2 * np.pi * xs)
    out = hopf_lax_step(phi, dt, free_model)
    zf = grid(10 * n)
    dist = np.abs((xs[:, None] - zf[None, :] + 0.5) % 1.0 - 0.5)
    brute = np.min(np.cos(2 * np.pi * zf)[None, :] + dist**2 / (2 * dt), axis=1)
    assert np.max(np.abs(out - brute)) < 1e-4


def test_step_raises_on_window_boundary(qd_model):
    xs = grid(128)
    steep = 5.0 * np.cos(2 * np.pi * xs)  # slopes ~ 31 exceed the cutoff 10
    with pytest.raises(VelocityCutoffError):
        hopf_lax_step(steep, 2e-3, qd_model)


def test_evolve_constant_source(free_model):
    field = evolve(np.zeros(128), 0.5, free_model, 2e-3, source=lambda t: 3.0 + 0.0 * t)
    assert np.max(np.abs(field.values - 3.0 * field.times[:, None])) < 1e-12


def test_evolve_oscillating_source(qd_model):
    field = evolve(np.zeros(256), 1.0, qd_model, 1e-3,
                   source=lambda t: 2 * np.pi * np.cos(2 * np.pi * t))
    target = np.sin(2 * np.pi * field.times)[:, None]
    assert np.max(np.abs(field.values - target)) < 1e-3


def test_evolve_semigroup_property(qd_model, smooth_values_128):
    full = evolve(smooth_values_128, 0.4, qd_model, 2e-3)
    mid = full.slice_at(0.25)
    tail = evolve(mid, 0.15, qd_model, 2e-3)
    assert np.max(np.abs(tail.values[-1] - full.slice_at(0.4))) < 1e-6


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, 64, elements=st.floats(-1.0, 1.0)))
def test_step_value_does_not_depend_on_origins(cosine_model, w):
    stepper = HopfLaxStepper(cosine_model, 64, 5e-3, strict_boundary=False)
    with_origins, origins = stepper.step(w, want_origins=True)
    plain, none = stepper.step(w)
    assert none is None and origins.shape == w.shape
    assert np.array_equal(with_origins, plain)


SWEEP_STEPS = 40
_bound = st.integers(0, SWEEP_STEPS)


@settings(max_examples=40, deadline=None)
@given(windows=st.lists(st.tuples(_bound, _bound).map(sorted), max_size=3),
       with_origins=st.booleans())
def test_sweep_windows_match_evolve(cosine_model, smooth_values_128, windows,
                                    with_origins):
    """Recorded slices equal evolve's bit for bit, and recorded origins
    equal the step's own origins on those slices."""
    dt = 2e-3
    field = evolve(smooth_values_128, SWEEP_STEPS * dt, cosine_model, dt)
    stepper = HopfLaxStepper(cosine_model, 128, dt)
    w_end, records = sweep(stepper, smooth_values_128, SWEEP_STEPS, windows,
                           with_origins)
    assert np.array_equal(w_end, field.values[-1])
    assert len(records) == len(windows)
    for (k0, k1), rec in zip(windows, records):
        assert rec.start == k0
        assert np.array_equal(rec.w, field.values[k0:k1 + 1])
        if not with_origins:
            assert rec.origins is None
            continue
        assert rec.origins.shape == (k1 - k0, 128)
        for i, k in enumerate(range(k0, k1)):
            assert np.array_equal(rec.origins[i],
                                  stepper.step(field.values[k], want_origins=True)[1])


def test_sweep_rejects_windows_outside_the_run(qd_model):
    stepper = HopfLaxStepper(qd_model, 64, 5e-3)
    for window in ((0, 11), (-1, 3), (4, 3)):
        with pytest.raises(ValueError):
            sweep(stepper, np.zeros(64), 10, [window])


def test_evolve_monotone(qd_model, smooth_values_128):
    xs = grid(128)
    bump = 0.05 * (1.0 + np.sin(2 * np.pi * xs))
    lower = evolve(smooth_values_128, 0.2, qd_model, 2e-3).values
    upper = evolve(smooth_values_128 + bump, 0.2, qd_model, 2e-3).values
    assert np.min(upper - lower) > -1e-9


def test_evolve_translation_invariance(qd_model, smooth_values_128):
    base = evolve(smooth_values_128, 0.2, qd_model, 2e-3).values
    shifted = evolve(smooth_values_128 + 3.7, 0.2, qd_model, 2e-3).values
    assert np.max(np.abs(shifted - base - 3.7)) < 1e-12


def test_minimal_action_vanishes_on_diagonal(free_model):
    assert abs(minimal_action(free_model, 0.1, 0.1, 1.0)) < 2e-3


def test_minimal_action_quadratic_cost(free_model):
    value = minimal_action(free_model, 0.0, 0.25, 1.0)
    assert value == pytest.approx(0.25**2 / 2.0, abs=2e-3)


def test_minimal_action_subadditive(free_model):
    triples = [(0.0, 0.3, 0.5, 0.6, 0.4), (0.1, 0.2, 0.9, 1.0, 0.5),
               (0.25, 0.5, 0.75, 0.8, 0.8)]
    for x, z, y, t, s in triples:
        joined = minimal_action(free_model, x, y, t + s, n=256)
        split = minimal_action(free_model, x, z, t, n=256) \
            + minimal_action(free_model, z, y, s, n=256)
        assert joined <= split + 1e-3


def test_critical_value_quadratic_drift(qd_model):
    res = critical_value(qd_model, t_probe=20.0, n=256, dt=2e-3)
    assert abs(res.c0) < 1e-3


def test_critical_value_free(free_model):
    res = critical_value(free_model, t_probe=20.0, n=256, dt=2e-3)
    assert abs(res.c0) < 1e-3


def test_critical_value_cosine(cosine_model):
    res = critical_value(cosine_model, t_probe=50.0, n=512, dt=2e-3)
    assert res.c0 == pytest.approx(1.0, abs=1e-2)


def test_critical_value_requires_long_probe(qd_model):
    with pytest.raises(ValueError):
        critical_value(qd_model, t_probe=5.0, n=128, dt=2e-3)


def test_critical_value_not_converged_diagnostic(cosine_model):
    with pytest.raises(NotConvergedError):
        critical_value(cosine_model, t_probe=50.0, n=512, dt=2e-3, tol_c0=1e-14)


def test_critical_value_grid_refinement(cosine_model):
    coarse = critical_value(cosine_model, t_probe=20.0, n=256, dt=2e-3).c0
    fine = critical_value(cosine_model, t_probe=20.0, n=512, dt=2e-3).c0
    assert abs(fine - coarse) < 2e-2  # doubling n moves c0 below 2x tolerance


def test_weak_kam_quadratic_drift(qd_model):
    wk = weak_kam_solution(qd_model, t_probe=20.0, n=256, dt=2e-3)
    assert np.max(np.abs(wk.u0)) < 1e-12
    assert np.max(np.abs(wk.gradient)) < 1e-12
    assert wk.max_residual() < 1e-12


def test_weak_kam_free(free_model):
    wk = weak_kam_solution(free_model, t_probe=20.0, n=256, dt=2e-3)
    assert np.max(np.abs(wk.u0)) < 1e-12


def test_weak_kam_cosine_closed_form(cosine_weak_kam):
    xs = grid(cosine_weak_kam.u0.size)
    exact = (2.0 / np.pi) * (1.0 - np.abs(np.cos(np.pi * xs)))
    assert np.max(np.abs(cosine_weak_kam.u0 - exact)) < 5e-3
    assert cosine_weak_kam.max_residual() <= 5e-2
    kinks = np.where(cosine_weak_kam.kink_mask)[0]
    assert kinks.size >= 1
    assert np.all(np.abs(xs[kinks] - 0.5) < 2.0 / xs.size)  # concave kink at 1/2


def test_equi_lipschitz_and_semiconcave_after_t1(cosine_model):
    xs = grid(256)
    field = evolve(np.cos(2 * np.pi * xs), 3.0, cosine_model, 2e-3)
    k1 = field.slice_index(1.0)
    lip_ref = field.lipschitz_constant(k1)
    sc_ref = field.semiconcavity_constant(k1)
    for t in (1.5, 2.0, 2.5, 3.0):
        k = field.slice_index(t)
        assert field.lipschitz_constant(k) <= 1.1 * lip_ref + 1e-9
        assert field.semiconcavity_constant(k) <= 1.1 * sc_ref + 1e-9


def test_alpha_free_closed_form(free_model):
    for a in (0.0, 0.7, -1.2):
        alpha = alpha_function(free_model, a, t_probe=20.0, n=256, dt=2e-3)
        assert alpha == pytest.approx(0.5 * a**2, abs=1e-2)


def test_alpha_double_well_plateau_edges(double_well_model):
    fine = np.linspace(0.0, 1.0, 2001)
    a0 = simpson(np.sqrt(-2.0 * double_well_model.potential.value(fine)), x=fine)
    assert a0 == pytest.approx(np.sqrt(2.0) / np.pi, abs=1e-9)
    assert abs(alpha_function(double_well_model, 0.0, n=256)) <= 1e-2
    assert abs(alpha_function(double_well_model, 0.9 * a0, n=256)) <= 1e-2
    assert alpha_function(double_well_model, 1.5 * a0, n=256) > 1e-2


def test_alpha_requires_mechanical(qd_model):
    with pytest.raises(TypeError):
        alpha_function(qd_model, 0.5)


def test_critical_value_tabulated_matches_closed_form(cosine_model):
    from mfglab.hamiltonians import TabulatedConvex
    xs = grid(128)
    ps = np.linspace(-10.0, 10.0, 401)
    table = TabulatedConvex(0.5 * ps[None, :] ** 2
                            + np.cos(2 * np.pi * xs)[:, None], 10.0)
    c0_tab = critical_value(table, t_probe=20.0, n=256, dt=2e-3).c0
    c0_ref = critical_value(cosine_model, t_probe=20.0, n=256, dt=2e-3).c0
    assert c0_tab == pytest.approx(c0_ref, abs=1e-2)


def test_evolve_rejects_off_grid_horizon(qd_model):
    with pytest.raises(ValueError):
        evolve(np.zeros(128), 0.0031, qd_model, 2e-3)


def test_value_field_csv(tmp_path, qd_model):
    field = evolve(np.zeros(64), 0.01, qd_model, 5e-3)
    path = tmp_path / "w.csv"
    field.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,w"
    assert len(lines) == 1 + field.times.size * 64


def test_kink_detection_skips_smooth_fields(free_model):
    wk = weak_kam_solution(free_model, t_probe=20.0, n=256, dt=2e-3)
    assert not np.any(wk.kink_mask)


def test_second_difference_helper():
    xs = grid(64)
    values = np.cos(2 * np.pi * xs)
    d2 = periodic_second_difference(values, 1.0 / 64)
    exact = -(2 * np.pi) ** 2 * np.cos(2 * np.pi * xs)
    assert np.max(np.abs(d2 - exact)) < 0.5
