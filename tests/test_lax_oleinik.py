import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import simpson

from mfglab.errors import NotConvergedError, VelocityCutoffError
from mfglab.hamiltonians import Mechanical, Potential, QuadraticDrift, TabulatedConvex
from mfglab.lax_oleinik import (
    HopfLaxStepper,
    alpha_function,
    critical_value,
    evolve,
    minimal_action,
    sweep,
    weak_kam_solution,
)
from mfglab.torus import grid, periodic_interp, periodic_second_difference


def test_step_preserves_rest_state(free_model, qd_model):
    for model in (free_model, qd_model):
        for dt in (1e-3, 1e-2):
            out = HopfLaxStepper(model, 128, dt).step(np.zeros(128))[0]
            assert np.max(np.abs(out)) < 1e-14


def test_step_matches_fine_grid_hopf_lax(free_model):
    n, dt = 512, 0.1
    xs = grid(n)
    phi = np.cos(2 * np.pi * xs)
    out = HopfLaxStepper(free_model, n, dt).step(phi)[0]
    zf = grid(10 * n)
    dist = np.abs((xs[:, None] - zf[None, :] + 0.5) % 1.0 - 0.5)
    brute = np.min(np.cos(2 * np.pi * zf)[None, :] + dist**2 / (2 * dt), axis=1)
    assert np.max(np.abs(out - brute)) < 1e-4


def test_step_raises_on_window_boundary(qd_model):
    xs = grid(128)
    steep = 5.0 * np.cos(2 * np.pi * xs)  # slopes ~ 31 exceed the cutoff 10
    # a steep rise and a gentle fall hit one side of the window only
    ramp = 2.0 * np.interp(xs, [0.0, 0.1, 1.0], [0.0, 1.0, 0.0])
    for w in (steep, ramp, ramp[::-1]):
        with pytest.raises(VelocityCutoffError):
            HopfLaxStepper(qd_model, 128, 2e-3).step(w)[0]


def test_step_ties_go_to_the_smallest_displacement(free_model):
    stepper = HopfLaxStepper(free_model, 64, 5e-3)
    w = np.zeros(64)
    w[10] = 1.0  # node 10 reaches its neighbours 9 and 11 at equal cost
    origins = stepper.step(w, want_origins=True)[1]
    assert origins[10] == -stepper.dx


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


def _reference_step(stepper, w, want_origins=False):
    """The step as an (m, n) index gather with periodic_interp re-scoring;
    the oracle the windowed HopfLaxStepper.step must reproduce."""
    offsets, n, dx = stepper.offsets, stepper.n, stepper.dx
    cost_l = stepper.cost_l.T
    gather = (np.arange(n)[None, :] - offsets[:, None]) % n
    cost = w[gather] + cost_l
    k = np.argmin(cost, axis=0)
    m = offsets.size
    if (stepper.strict_boundary and stepper.boundary_is_cutoff
            and (np.any(k == 0) or np.any(k == m - 1))):
        raise VelocityCutoffError("Hopf-Lax argmin sits on the velocity search boundary")
    jj = np.arange(n)
    ck = cost[k, jj]
    interior = (k > 0) & (k < m - 1)
    km = np.where(interior, k - 1, k)
    kp = np.where(interior, k + 1, k)
    cm = cost[km, jj]
    cp = cost[kp, jj]
    denom = cp - 2.0 * ck + cm
    safe = interior & (denom > 1e-300)
    delta = np.where(safe, 0.5 * (cm - cp) / np.where(safe, denom, 1.0), 0.0)
    delta = np.clip(delta, -0.5, 0.5)
    disp = (offsets[k] + delta) * dx
    w_ref = periodic_interp(stepper.nodes - disp, w)
    lm = cost_l[km, jj]
    lk = cost_l[k, jj]
    lp = cost_l[kp, jj]
    l_ref = lk + 0.5 * delta * (lp - lm) + 0.5 * delta**2 * (lp - 2.0 * lk + lm)
    refined = w_ref + l_ref
    use = safe & (refined < ck)
    w_next = np.where(use, refined, ck)
    if not want_origins:
        return w_next, None
    return w_next, np.where(use, disp, offsets[k] * dx)


def _tabulated_model():
    xs = grid(64)
    ps = np.linspace(-12.0, 12.0, 481)
    return TabulatedConvex(0.5 * ps[None, :] ** 2
                           + 0.3 * np.cos(2 * np.pi * xs)[:, None], 12.0)


_ORACLE_MODELS = {
    "quadratic-drift": QuadraticDrift(1),
    "cosine-shifted": Mechanical(1.6, Potential.cosine()),
    "tabulated": _tabulated_model(),
}
# (n, dt): window of 3, 2 and 6 cells against the velocity cutoff, and one
# window clamped to the half circle, whose boundary may hold the argmin
_ORACLE_GRIDS = ((64, 5e-3), (128, 2e-3), (96, 6.5e-3), (64, 0.2))


def _stepper(model_name, grid_index, strict):
    n, dt = _ORACLE_GRIDS[grid_index]
    return HopfLaxStepper(_ORACLE_MODELS[model_name], n, dt, strict_boundary=strict)


def _field(data, n):
    """Random field: a smooth wave plus node noise of a drawn amplitude."""
    noise = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    amp = data.draw(st.sampled_from([0.0, 1e-3, 0.05, 1.0]))
    wave = data.draw(st.floats(-2.0, 2.0))
    return wave * np.cos(2 * np.pi * grid(n)) + amp * noise


def _discrete_min_plus(stepper, w):
    """min over offsets of w(x - offset dx) + dt L, by brute force."""
    return np.min([np.roll(w, off) + stepper.cost_l[:, i]
                   for i, off in enumerate(stepper.offsets)], axis=0)


def _step_or_error(step, stepper, w):
    try:
        return step(stepper, w, want_origins=True)
    except VelocityCutoffError:
        return None


@settings(max_examples=150, deadline=None)
@given(model_name=st.sampled_from(sorted(_ORACLE_MODELS)),
       grid_index=st.integers(0, len(_ORACLE_GRIDS) - 1),
       strict=st.booleans(), data=st.data())
def test_step_matches_gather_reference(model_name, grid_index, strict, data):
    """Values agree with the gather oracle to round-off, the velocity-cutoff
    error is raised in exactly the same cases, and origins are bit-equal
    except where the refined value ties the discrete minimum to round-off:
    there the two round-offs may take different sides of the tie."""
    stepper = _stepper(model_name, grid_index, strict)
    if grid_index == len(_ORACLE_GRIDS) - 1:
        assert not stepper.boundary_is_cutoff
    w = _field(data, stepper.n)
    new = _step_or_error(HopfLaxStepper.step, stepper, w)
    ref = _step_or_error(_reference_step, stepper, w)
    assert (new is None) == (ref is None)
    if new is None:
        return
    tol = 1e-12 * (1.0 + np.max(np.abs(w)))
    assert np.max(np.abs(new[0] - ref[0])) <= tol
    moved = new[1] != ref[1]
    disc = _discrete_min_plus(stepper, w)[moved]
    assert np.all(np.abs(new[0][moved] - disc) <= tol)
    assert np.all(np.abs(new[1][moved] - ref[1][moved]) <= 0.5 * stepper.dx)


def _windowed_step(stepper, w, want_origins=False):
    """The one-pass windowed step before its refinement terms were tabled:
    the per-step clamped neighbour gather and np.where selection, kept as
    the oracle the current step must reproduce bit for bit."""
    n, c, m = stepper.n, stepper.cells, stepper.offsets.size
    wrapped = np.concatenate((w[n - c:], w, w[:c]))
    window = np.lib.stride_tricks.sliding_window_view(wrapped, m)[:, ::-1]
    cost = window + stepper.cost_l
    k = cost.argmin(axis=1)
    if (stepper.strict_boundary and stepper.boundary_is_cutoff
            and (k.min() == 0 or k.max() == m - 1)):
        raise VelocityCutoffError("Hopf-Lax argmin sits on the velocity search boundary")
    k3 = np.stack((np.maximum(k - 1, 0), k, np.minimum(k + 1, m - 1)))
    flat = k3 + np.arange(n) * m
    cm, ck, cp = cost.take(flat)
    lm, lk, lp = stepper.cost_l.take(flat)
    wm, wk, wp = wrapped.take(np.arange(n) + 2 * c - k3)
    interior = (k > 0) & (k < m - 1)
    denom = cp - 2.0 * ck + cm
    safe = interior & (denom > 1e-300)
    delta = np.where(safe, 0.5 * (cm - cp) / np.where(safe, denom, 1.0), 0.0)
    delta = np.minimum(np.maximum(delta, -0.5), 0.5)
    w_ref = wk + np.abs(delta) * (np.where(delta > 0.0, wp, wm) - wk)
    l_ref = lk + 0.5 * delta * (lp - lm) + 0.5 * delta**2 * (lp - 2.0 * lk + lm)
    refined = w_ref + l_ref
    use = safe & (refined < ck)
    w_next = np.where(use, refined, ck)
    if not want_origins:
        return w_next, None
    shift = stepper.offsets[k]
    return w_next, np.where(use, (shift + delta) * stepper.dx, shift * stepper.dx)


def _bit_equal(a, b):
    """Equal arrays down to the sign of zero."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(model_name=st.sampled_from(sorted(_ORACLE_MODELS)),
       grid_index=st.integers(0, len(_ORACLE_GRIDS) - 1),
       strict=st.booleans(), data=st.data())
def test_step_bit_equals_windowed_oracle(model_name, grid_index, strict, data):
    """Values and origins bit-equal the frozen windowed step, with and
    without origins, and the velocity-cutoff error comes in the same cases."""
    stepper = _stepper(model_name, grid_index, strict)
    w = _field(data, stepper.n)
    new = _step_or_error(HopfLaxStepper.step, stepper, w)
    ref = _step_or_error(_windowed_step, stepper, w)
    assert (new is None) == (ref is None)
    if new is None:
        return
    assert _bit_equal(new[0], ref[0]) and _bit_equal(new[1], ref[1])
    assert _bit_equal(stepper.step(w)[0], ref[0])


@pytest.mark.parametrize("model_name", sorted(_ORACLE_MODELS))
def test_sweep_from_rest_bit_equals_windowed_oracle(model_name):
    """500 steps from phi = 0, whose flat start puts ties in the argmin and
    in the refinement, step by step against the frozen windowed step."""
    stepper = _stepper(model_name, 1, True)
    w_new = w_ref = np.zeros(stepper.n)
    for _ in range(500):
        w_new, origins_new = stepper.step(w_new, want_origins=True)
        w_ref, origins_ref = _windowed_step(stepper, w_ref, want_origins=True)
        assert _bit_equal(w_new, w_ref) and _bit_equal(origins_new, origins_ref)


def test_step_results_outlive_the_next_step(cosine_model):
    stepper = HopfLaxStepper(cosine_model, 128, 2e-3)
    xs = grid(128)
    w_next, origins = stepper.step(0.3 * np.cos(2 * np.pi * xs), want_origins=True)
    kept = w_next.copy(), origins.copy()
    stepper.step(0.3 * np.sin(2 * np.pi * xs), want_origins=True)
    assert np.array_equal(w_next, kept[0]) and np.array_equal(origins, kept[1])


@settings(max_examples=60, deadline=None)
@given(w=arrays(np.float64, 64, elements=st.floats(-1.0, 1.0)),
       c=st.floats(-100.0, 100.0))
def test_step_commutes_with_constants(w, c):
    stepper = _stepper("cosine-shifted", 0, False)
    gap = stepper.step(w + c)[0] - stepper.step(w)[0] - c
    assert np.max(np.abs(gap)) <= 1e-12 * (1.0 + abs(c))


@settings(max_examples=60, deadline=None)
@given(w=arrays(np.float64, 64, elements=st.floats(-1.0, 1.0)),
       bump=arrays(np.float64, 64, elements=st.floats(0.0, 1.0)),
       model_name=st.sampled_from(sorted(_ORACLE_MODELS)))
def test_step_monotone_up_to_its_refinement(w, bump, model_name):
    """step(w + bump) >= step(w) - r with r = disc(w + bump) - step(w + bump)
    the refinement's own gain; plain monotonicity fails on rough w."""
    stepper = _stepper(model_name, 0, False)
    lower = stepper.step(w)[0]
    upper = stepper.step(w + bump)[0]
    r = _discrete_min_plus(stepper, w + bump) - upper
    assert np.min(r) >= 0.0
    assert np.min(upper - lower + r) >= -1e-12 * (1.0 + np.max(np.abs(w)))


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
