import tracemalloc

import numpy as np
import pytest

from mfglab.characteristics import PERIODIC_ORBIT, DriftField, FlowMap
from mfglab.coupling import CouplingFunctional
import mfglab.mfg as mfg
from mfglab.errors import ConfigError, MFGLabError
from mfglab.hamiltonians import VELOCITY_CUTOFF, Mechanical, Potential
from mfglab.lax_oleinik import HopfLaxStepper, critical_value, slice_count, sweep
from mfglab.measures import (
    DENSITY,
    PARTICLES,
    CircleMeasure,
    TransportTable,
    invariant_density,
    pushforward,
    wasserstein1,
)
from mfglab.mfg import (
    CALIBRATION_FACTOR,
    _backtrack,
    lipschitz_c_experiment,
    long_time_convergence_experiment,
    PeriodicRegime,
    periodic_regime,
    periodic_solution,
    solve_finite_horizon,
)
from mfglab.torus import (
    cumulative_trapezoid,
    grid,
    periodic_gradient,
    periodic_interp,
    trapezoid,
    wrap,
)


N = 256
DT = 1e-3


def _atoms(sol, k):
    """The measure of a finite-horizon solution at slice k."""
    return CircleMeasure(PARTICLES, sol.m_positions[k], sol.m_weights)


def _u_values(sol):
    return sol.w + sol.shift[:, None]


@pytest.fixture(scope="module")
def m_cos():
    return CircleMeasure.from_name("one-plus-cosine", N)


@pytest.fixture(scope="module")
def qd_periodic(qd_model, coupling_cos, m_cos, qd_regime_256):
    return periodic_solution(m_cos, qd_regime_256, coupling_cos, dt=DT)


def test_decoupled_limit_reproduces_pure_evolution(qd_model, m_cos):
    zero = CouplingFunctional.zero()
    xs = grid(N)
    phi = 0.2 * np.cos(2 * np.pi * xs)
    sol = solve_finite_horizon(phi, m_cos, 0.0, 0.5, qd_model, zero, DT)
    _, pure = sweep(HopfLaxStepper(qd_model, N, DT), phi, 500, record=True)
    assert np.max(np.abs(_u_values(sol) - pure.w)) == 0.0


def test_finite_horizon_quadratic_drift_closed_form(qd_model, coupling_cos, m_cos):
    xs = grid(N)
    sol = solve_finite_horizon(np.zeros(N), m_cos, 0.0, 3.0, qd_model,
                               coupling_cos, DT)
    worst_m = 0.0
    for k in range(0, sol.times.size, 100):
        t = sol.times[k]
        target = CircleMeasure.from_density_values(
            1.0 + np.cos(2 * np.pi * (xs + t - 3.0)))
        worst_m = max(worst_m, wasserstein1(_atoms(sol, k), target))
    assert worst_m <= 5e-3
    worst_u = max(
        float(np.max(np.abs(sol.u_at(k) - np.sin(2 * np.pi * sol.times[k]))))
        for k in range(0, sol.times.size, 100))
    assert worst_u <= 1e-2


def test_finite_horizon_requires_density(qd_model, coupling_cos):
    atoms = CircleMeasure(PARTICLES, np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        solve_finite_horizon(np.zeros(N), atoms, 0.0, 1.0, qd_model,
                             coupling_cos, DT)


def test_refeeding_the_source_reproduces_u(qd_model, coupling_cos, m_cos):
    sol = solve_finite_horizon(np.zeros(N), m_cos, 0.0, 1.0, qd_model,
                               coupling_cos, DT)
    _, pure = sweep(HopfLaxStepper(qd_model, N, DT), np.zeros(N), 1000, record=True)
    replay = pure.w + cumulative_trapezoid(sol.coupling_series, DT)[:, None]
    assert np.max(np.abs(replay - _u_values(sol))) <= 1e-10


def test_gradient_decoupling(qd_model, m_cos, coupling_cos):
    xs = grid(N)
    phi = 0.3 * np.cos(2 * np.pi * xs)
    base = solve_finite_horizon(phi, m_cos, 0.0, 0.5, qd_model,
                                CouplingFunctional.zero(), DT)
    coupled = solve_finite_horizon(phi, m_cos, 0.7, 0.5, qd_model,
                                   coupling_cos, DT)
    for k in range(0, base.times.size, 50):
        gap = coupled.u_at(k) - base.u_at(k)
        assert float(np.max(gap) - np.min(gap)) <= 1e-10


def test_backtrack_checks_every_step(qd_model, m_cos):
    stepper = HopfLaxStepper(qd_model, N, DT)
    origins = np.zeros((5, N))
    rows = list(_backtrack(m_cos, origins, stepper))
    assert len(rows) == 6 and np.array_equal(rows[-1], m_cos.positions)
    origins[0] = 1.5 * VELOCITY_CUTOFF * DT  # only the earliest step leaves the cutoff
    walk = _backtrack(m_cos, origins, stepper)
    for _ in range(5):  # m_T and the rows of the four later steps
        next(walk)
    with pytest.raises(MFGLabError, match="left the velocity cutoff"):
        next(walk)


def test_m_path_is_lipschitz_in_time(qd_model, coupling_cos, m_cos):
    sol = solve_finite_horizon(np.zeros(N), m_cos, 0.0, 1.0, qd_model,
                               coupling_cos, DT)
    max_speed = 1.0 + 1e-6  # |dH/dp| along realised gradients (= 1 here)
    ks = [0, 100, 400, 700, 1000]
    for a, b in zip(ks, ks[1:]):
        d = wasserstein1(_atoms(sol, a), _atoms(sol, b))
        assert d <= max_speed * (sol.times[b] - sol.times[a]) + 1e-6


def test_periodic_solution_quadratic_drift(qd_periodic):
    ps = qd_periodic
    assert abs(ps.c_mt) <= 1e-3
    assert ps.tau == pytest.approx(1.0, abs=1e-12)
    assert ps.periodicity_defect <= 1e-4
    assert ps.nontriviality_gap >= 1e-3
    err = np.max(np.abs(ps.u_bar - np.sin(2 * np.pi * ps.times)[:, None]))
    assert err <= 1e-2


def test_periodic_solution_from_invariant_density(coupling_cos, qd_regime_256):
    _c0, _u0, df = qd_regime_256
    m_star = invariant_density(df)
    ps = periodic_solution(m_star, qd_regime_256, coupling_cos, dt=DT)
    assert max(wasserstein1(m, ps.m_bar[0]) for m in ps.m_bar) <= 1e-10
    expected = ps.c0 - coupling_cos(m_star)
    assert ps.c_mt == pytest.approx(expected, abs=1e-12)


def test_periodic_solution_rejects_fixed_point_regime(cosine_model, coupling_cos,
                                                      cosine_weak_kam, m_cos):
    from mfglab.characteristics import drift_field
    df = drift_field(cosine_weak_kam.u0, cosine_model)
    regime = PeriodicRegime(cosine_weak_kam.c0, cosine_weak_kam.u0, df)
    with pytest.raises(MFGLabError, match="periodic-orbit regime"):
        periodic_solution(m_cos, regime, coupling_cos, dt=DT)


def test_wrong_constant_forces_linear_growth(qd_model, coupling_cos, m_cos,
                                             qd_regime_256):
    """With c != c(m_T) the value field drifts linearly at rate |c - c(m_T)|."""
    _c0, u0, _df = qd_regime_256
    offset = 0.3
    sol = solve_finite_horizon(u0, m_cos, offset, 3.0, qd_model, coupling_cos, DT)
    gaps = [float(np.max(np.abs(sol.u_at(slice_count(t, DT)) - sol.u_at(0))))
            for t in (1.0, 2.0, 3.0)]
    rate1 = gaps[1] - gaps[0]
    rate2 = gaps[2] - gaps[1]
    assert rate1 == pytest.approx(offset, abs=1e-2)
    assert rate2 == pytest.approx(offset, abs=1e-2)


def test_initial_data_forcing_of_the_gradient(qd_model, coupling_cos, m_cos):
    """Dw(., n tau) approaches the stationary gradient (zero here)."""
    xs = grid(N)
    w, _ = sweep(HopfLaxStepper(qd_model, N, 2e-3), np.cos(2 * np.pi * xs), 10000)
    dw = periodic_gradient(w, 1.0 / N)
    assert np.max(np.abs(dw - 0.0)) <= 5e-2


def test_lipschitz_experiment_excludes_identical_pairs(coupling_cos, m_cos,
                                                       qd_regime_256):
    report = lipschitz_c_experiment([(m_cos, m_cos)], qd_regime_256, coupling_cos,
                                    dt=DT)
    assert report.ratios.size == 0
    assert report.violations == 0


def test_lipschitz_experiment_rotated_pairs(coupling_cos, qd_regime_256):
    xs = grid(N)
    pairs = []
    for theta in (0.1, 0.25, 0.4):
        m1 = CircleMeasure.from_density_values(1.0 + np.cos(2 * np.pi * xs))
        m2 = CircleMeasure.from_density_values(1.0 + np.cos(2 * np.pi * (xs - theta)))
        pairs.append((m1, m2))
    report = lipschitz_c_experiment(pairs, qd_regime_256, coupling_cos, dt=DT)
    assert report.k1 == pytest.approx(1.0, abs=1e-9)
    assert report.violations == 0
    assert report.max_ratio <= 1e-9  # period averages coincide under rigid rotation


def test_period_average_matches_series(coupling_cos, m_cos):
    """On a nonuniform drift the shared transport table reproduces the
    per-slice push-forwards, and the period averages lipschitz-c compares
    equal the trapezoid of F along them, the route the convergence
    experiment takes."""
    xs = grid(N)
    v = 1.0 + 0.3 * np.sin(2 * np.pi * xs)
    df = DriftField(nodes=xs, v=v, classification=PERIODIC_ORBIT,
                    tau=float(np.sum(1.0 / v) / N))
    tau = df.tau
    flow = FlowMap(df)
    k_per = int(round(tau / DT))
    dt_adj = tau / k_per
    spans = dt_adj * np.arange(k_per + 1)
    bump = CircleMeasure.from_name("gaussian-bump(0.3,0.1)", N)

    rows = TransportTable(flow, spans, N).masses(bump)
    per_slice = np.array([pushforward(flow, bump, float(s)).weights for s in spans])
    assert np.max(np.abs(rows - per_slice)) <= 1e-12

    def series_average(m):
        series = [coupling_cos(pushforward(flow, m, float(s))) for s in spans]
        return trapezoid(series, dt_adj) / tau

    pairs = [(m_cos, bump), (bump, CircleMeasure.from_name("lebesgue", N))]
    report = lipschitz_c_experiment(pairs, PeriodicRegime(0.0, None, df), coupling_cos, dt=DT)
    expected = np.array([abs(series_average(a) - series_average(b)) for a, b in pairs])
    assert np.min(expected) > 1e-6  # c(m) depends on m off rigid rotation
    assert np.max(np.abs(report.gaps - expected)) <= 1e-12


def _reference_periodic(m_t, functional, regime, dt, periods):
    """The periodic construction as it ran before the single table: one
    pushforward per slice, its time taken against the reference time
    periods * tau, and F evaluated measure by measure."""
    c0, u0, df = regime
    tau = float(df.tau)
    k_per = max(1, int(round(tau / dt)))
    dt_adj = tau / k_per
    t_ref = periods * tau
    times = dt_adj * np.arange(periods * k_per + 1)
    flow = FlowMap(df)
    m_bar = [pushforward(flow, m_t, t_ref - float(t)) for t in times]
    f_series = np.array([functional(m) for m in m_bar])
    period_integral = trapezoid(f_series[: k_per + 1], dt_adj)
    u_bar = u0[None, :] + (cumulative_trapezoid(f_series, dt_adj)
                           - times * (period_integral / tau))[:, None]
    return m_bar, f_series, c0 - period_integral / tau, u_bar


def test_single_table_matches_per_slice_route(coupling_cos):
    """A nonuniform drift whose period is off the dt grid: every slice of
    the one transport table matches its own push-forward."""
    xs = grid(N)
    v = -(1.0 + 0.3 * np.sin(2 * np.pi * xs))
    df = DriftField(nodes=xs, v=v, classification=PERIODIC_ORBIT,
                    tau=float(np.sum(1.0 / np.abs(v)) / N))
    regime = PeriodicRegime(0.25, 0.1 * np.cos(2 * np.pi * xs), df)
    m_t = CircleMeasure.from_name("gaussian-bump(0.3,0.1)", N)
    m_ref, f_ref, c_ref, u_ref = _reference_periodic(m_t, coupling_cos, regime, DT, 2)
    ps = periodic_solution(m_t, regime, coupling_cos, dt=DT)
    assert len(ps.m_bar) == len(m_ref)
    assert max(float(np.max(np.abs(m.weights - r.weights)))
               for m, r in zip(ps.m_bar, m_ref)) <= 1e-12
    assert np.max(np.abs(ps.coupling_series - f_ref)) <= 1e-12
    assert ps.c_mt == pytest.approx(c_ref, abs=1e-12)
    assert np.max(np.abs(ps.u_bar - u_ref)) <= 1e-12
    assert np.max(np.abs(f_ref - f_ref[0])) > 1e-3  # F varies along the path


def test_periodic_construction_with_nonconstant_drift(coupling_cos):
    """Double-well shift beyond the plateau: the drift is sign-constant but
    genuinely nonuniform, exercising the full stationary pipeline."""
    from mfglab.characteristics import flow_lipschitz_constant
    from mfglab.hamiltonians import Mechanical, Potential
    from mfglab.mfg import periodic_regime

    a0 = np.sqrt(2.0) / np.pi
    model = Mechanical(1.5 * a0, Potential.double_well(0.5, 1.0))
    regime = periodic_regime(model, critical_value(model, 40.0, 512, 2e-3))
    c0, _u0, df = regime
    assert df.classification == "periodic-orbit"
    assert c0 == pytest.approx(0.1118, abs=5e-3)  # alpha(1.5 a0) measured above
    assert np.max(df.v) - np.min(df.v) > 0.3  # far from rigid rotation

    m_t = CircleMeasure.from_name("one-plus-cosine", 512)
    ps = periodic_solution(m_t, regime, coupling_cos, dt=1e-3)
    assert ps.periodicity_defect <= 1e-4
    assert ps.nontriviality_gap >= 1e-3
    assert flow_lipschitz_constant(df) >= 1.0
    m_star = invariant_density(df)
    moved = max(wasserstein1(pushforward(ps.flow, m_star, s), m_star)
                for s in (0.3, 1.1))
    assert moved <= 1e-4


def test_long_time_experiment_with_stationary_start(qd_model, coupling_cos,
                                                    m_cos, qd_regime_256):
    """phi = u0 makes the finite-horizon solution periodic from the start."""
    _c0, u0, _df = qd_regime_256
    report = long_time_convergence_experiment(
        u0, m_cos, qd_model, qd_regime_256, coupling_cos, [2.0, 4.0], window=0.5,
        dt=DT)
    assert all(d <= 2e-3 for d in report.d1_deviation)   # discretisation floor
    assert all(u <= 5e-3 for u in report.u_deviation)
    with pytest.raises(ValueError, match="exceeds the smallest horizon"):
        long_time_convergence_experiment(
            u0, m_cos, qd_model, qd_regime_256, coupling_cos, [0.4, 2.0], window=1.0,
            dt=DT)


def _reference_convergence(phi, m_t, model, functional, horizons, window, dt,
                           regime):
    """The experiment as it ran before the single sweep: one full
    solve_finite_horizon per horizon, one pushforward per slice, and a
    separate calibration evolution from phi."""
    c0, _u0, df = regime
    tau = float(df.tau)
    k_per = max(1, int(round(tau / dt)))
    dt_p = tau / k_per
    t_cal = CALIBRATION_FACTOR * max(horizons)
    w_cal, _ = sweep(HopfLaxStepper(model, phi.size, dt), phi, slice_count(t_cal, dt))
    u0_phi = w_cal + c0 * t_cal
    d1_dev, u_dev = [], []
    for horizon in horizons:
        flow = FlowMap(df)
        period_times = horizon - tau + dt_p * np.arange(k_per + 1)
        e = np.array([functional(pushforward(flow, m_t, horizon - float(t)))
                      for t in period_times])
        period_integral = trapezoid(e, dt_p)
        c_mt = c0 - period_integral / tau
        tail_cum = cumulative_trapezoid(e[::-1], dt_p)[::-1]
        offsets = period_times - period_times[0]

        def tail(r):
            whole, part = divmod(r, tau)
            return whole * period_integral + float(np.interp(tau - part, offsets, tail_cum))

        def bar_integral(s):
            return tail(horizon) - tail(horizon - s)

        sol = solve_finite_horizon(phi, m_t, c_mt, horizon, model, functional, dt)
        k0 = int(round((horizon - window) / dt))
        m_cum = cumulative_trapezoid(sol.coupling_series, dt)
        worst_d1 = worst_u = 0.0
        for k in range(k0, sol.times.size):
            s = float(sol.times[k])
            m_bar = pushforward(flow, m_t, horizon - s)
            worst_d1 = max(worst_d1, wasserstein1(_atoms(sol, k), m_bar))
            u = sol.w[k] + m_cum[k] + c_mt * s - m_cum[k0]
            u_bar = (u0_phi + bar_integral(s) - s * (period_integral / tau)
                     - bar_integral(horizon - window))
            worst_u = max(worst_u, float(np.max(np.abs(u - u_bar))))
        d1_dev.append(worst_d1)
        u_dev.append(worst_u)
    return d1_dev, u_dev, c_mt


@pytest.fixture(scope="module")
def cosine_shifted():
    """Mechanical(1.6, cosine) and its periodic regime at n = 256, probed at
    dt = 0.005: a nonuniform drift whose period, tau = 0.685, is off the
    dt grid."""
    model = Mechanical(1.6, Potential.cosine())
    regime = periodic_regime(model, critical_value(model, 20.0, 256, 5e-3))
    assert np.max(regime[2].v) - np.min(regime[2].v) > 0.5
    return model, regime


def test_single_sweep_matches_per_horizon_route(coupling_cos, cosine_shifted, monkeypatch):
    """A nonuniform drift whose period is off the dt grid (tau = 0.685 at
    dt = 0.005), so period and window phases lie on different grids."""
    n, dt, horizons, window = 256, 5e-3, [1.0, 2.0], 0.25
    model, regime = cosine_shifted
    phi = np.cos(2 * np.pi * grid(n))
    m_t = CircleMeasure.from_name("gaussian-bump(0.3,0.2)", n)
    d1_ref, u_ref, c_ref = _reference_convergence(
        phi, m_t, model, coupling_cos, horizons, window, dt, regime)

    calls = []
    step = HopfLaxStepper.step
    monkeypatch.setattr(HopfLaxStepper, "step",
                        lambda self, *a, **k: calls.append(1) or step(self, *a, **k))
    report = long_time_convergence_experiment(
        phi, m_t, model, regime, coupling_cos, horizons, window=window, dt=dt)
    assert len(calls) == slice_count(CALIBRATION_FACTOR * max(horizons), dt)
    assert np.max(np.abs(np.subtract(report.d1_deviation, d1_ref))) <= 1e-12
    assert np.max(np.abs(np.subtract(report.u_deviation, u_ref))) <= 1e-12
    assert report.c_mt == pytest.approx(c_ref, abs=1e-12)
    assert min(report.d1_deviation) > 1e-3  # far enough from m_bar to compare


def _frozen_convergence(phi, m_t, model, regime, functional, horizons, window, dt):
    """long_time_convergence_experiment as it ran before it streamed its
    windows, frozen as the oracle of the streamed one: one sweep recording
    every slice and origin of the run, read per window, one transport table
    over the period and window spans together, and a full (w + 1, n)
    backtrack per horizon."""
    horizons = sorted(float(T) for T in horizons)
    c0, df, tau = regime.c0, regime.drift, regime.drift.tau
    k_per, dt_p = regime.period_grid(dt)
    t_cal = CALIBRATION_FACTOR * horizons[-1]
    w_steps = slice_count(window, dt)
    stepper = HopfLaxStepper(model, phi.size, dt)
    w_cal, full = sweep(stepper, phi, slice_count(t_cal, dt), record=True)
    starts = [slice_count(T, dt) - w_steps for T in horizons]
    u0_phi = w_cal + c0 * t_cal
    period_spans = dt_p * np.arange(k_per + 1)
    window_spans = dt * np.arange(w_steps + 1)
    table = TransportTable(FlowMap(df), np.concatenate([period_spans, window_spans]),
                           m_t.n)
    masses = table.masses(m_t)
    m_bar_window = masses[k_per + 1:]
    f_period = masses[:k_per + 1] @ functional.f(table.nodes)
    period_integral = trapezoid(f_period, dt_p)
    c_mt = c0 - period_integral / tau
    span_cum = cumulative_trapezoid(f_period, dt_p)

    def tail_integral(r):
        whole, part = divmod(r, tau)
        return whole * period_integral + float(np.interp(part, period_spans, span_cum))

    tail_window = tail_integral(window)
    reach = VELOCITY_CUTOFF * dt * (1.0 + 1e-9)
    d1_dev, u_dev = [], []
    for start in starts:
        values = full.w[start:start + w_steps + 1]
        origins = full.origins[start:start + w_steps]
        positions = np.empty((w_steps + 1, m_t.n))
        positions[w_steps] = m_t.positions
        for k in range(w_steps - 1, -1, -1):
            disp = periodic_interp(positions[k + 1], origins[k])
            assert not np.any(np.abs(disp) > reach)
            positions[k] = wrap(positions[k + 1] - disp)
        f_series = np.array([float(np.sum(m_t.weights * functional.f(p)))
                             for p in positions])
        m_cum = cumulative_trapezoid(f_series, dt)
        worst_d1 = worst_u = 0.0
        for i in range(w_steps + 1):
            s = dt * (start + i)
            j = w_steps - i
            m_s = CircleMeasure(PARTICLES, positions[i], m_t.weights)
            worst_d1 = max(worst_d1, wasserstein1(
                m_s, CircleMeasure(DENSITY, table.nodes, m_bar_window[j])))
            u_slice = values[i] + float(m_cum[i]) + c_mt * s
            u_bar_slice = (u0_phi + (tail_window - tail_integral(window_spans[j]))
                           - s * (period_integral / tau))
            worst_u = max(worst_u, float(np.max(np.abs(u_slice - u_bar_slice))))
        d1_dev.append(worst_d1)
        u_dev.append(worst_u)
    return d1_dev, u_dev, float(c_mt)


@pytest.mark.parametrize("horizons, window", [
    ((3.0, 3.0), 0.5),          # one window twice: the second restarts at its start
    ((3.0, 3.2), 0.5),          # the second window restarts inside the first
    ((2.0, 2.1, 2.2), 0.5),     # a chain of three overlapping windows
    ((2.0, 2.5, 3.0), 0.5),     # windows that meet at one slice
    ((2.0, 3.0), 0.004),        # a one-step window
    ((2.0, 3.0), 2.0),          # the window is the whole smallest horizon
    ((2.0, 2.2, 3.0), 0.5),     # a restart inside the first window, then a gap
])
def test_streamed_experiment_bit_equals_frozen_oracle(coupling_cos, cosine_shifted,
                                                      monkeypatch, horizons, window):
    """Every report entry of the streamed experiment equals the frozen
    oracle's exactly, on a drift whose period is off the dt grid.  The
    experiment steps to T_cal once, plus the steps from each window's start
    to the end of the window before it when the two overlap."""
    model, regime = cosine_shifted
    n, dt = 256, 0.004
    phi = np.cos(2 * np.pi * grid(n))
    m_t = CircleMeasure.from_name("gaussian-bump(0.3,0.2)", n)
    d1_ref, u_ref, c_ref = _frozen_convergence(phi, m_t, model, regime, coupling_cos,
                                               horizons, window, dt)
    calls = []
    step = HopfLaxStepper.step
    monkeypatch.setattr(HopfLaxStepper, "step",
                        lambda self, *a, **k: calls.append(1) or step(self, *a, **k))
    report = long_time_convergence_experiment(phi, m_t, model, regime, coupling_cos,
                                              horizons, window=window, dt=dt)
    ends = [slice_count(T, dt) for T in sorted(horizons)]
    w_steps = slice_count(window, dt)
    overlap = sum(max(0, before - (end - w_steps)) for before, end in zip(ends, ends[1:]))
    assert len(calls) == slice_count(CALIBRATION_FACTOR * max(horizons), dt) + overlap
    assert report.d1_deviation == d1_ref
    assert report.u_deviation == u_ref
    assert report.c_mt == c_ref
    assert min(d1_ref) > 1e-4  # the walk moved m_T away from m_bar


def test_convergence_experiment_peak_memory(qd_model, coupling_cos):
    """The benchmark's converge inputs (n = 512, dt = 0.004, horizons 3 and 6,
    window 0.5, cosine phi, its seed-3 bump) peak at 2.42 MB of traced
    allocations: two horizons' value windows, one window's origins, the
    window table, and the period table only before the sweep.  Holding both
    windows' origins, the joint table and full backtracks peaked at 5.16 MB.
    The bound is the measured peak plus 20%."""
    n, dt = 512, 0.004
    regime = periodic_regime(qd_model, critical_value(qd_model, 20.0, n, dt))
    phi = np.cos(2 * np.pi * grid(n))
    m_t = CircleMeasure.from_name("gaussian-bump(0.375,0.18)", n)
    tracemalloc.start()
    try:
        long_time_convergence_experiment(phi, m_t, qd_model, regime, coupling_cos,
                                         [3.0, 6.0], window=0.5, dt=dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.9e6


def test_each_store_is_refused_by_the_function_that_allocates_it(
        qd_model, coupling_cos, m_cos, qd_regime_256, monkeypatch):
    """With the budget at 1 KB, each of the four functions that allocate a
    run's store refuses it on a small QuadraticDrift input, naming its run,
    before it allocates: a library call gets the refusal a CLI run gets."""
    monkeypatch.setattr(mfg, "MAX_RUN_BYTES", 1024)
    phi = np.zeros(N)
    calls = {
        "solve": lambda: solve_finite_horizon(phi, m_cos, 0.0, 1.0, qd_model, coupling_cos, DT),
        "periodic": lambda: periodic_solution(m_cos, qd_regime_256, coupling_cos, dt=DT),
        "lipschitz-c": lambda: lipschitz_c_experiment([(m_cos, m_cos)], qd_regime_256,
                                                      coupling_cos, dt=DT),
        "converge": lambda: long_time_convergence_experiment(
            phi, m_cos, qd_model, qd_regime_256, coupling_cos, [1.0], window=0.5, dt=DT),
    }
    for label, call in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"memory invariant violated: {label} would"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5, (label, peak)  # a run's store here is 0.2 to 6 MB


@pytest.mark.parametrize("potential, shift, maxima", [
    pytest.param(Potential.cosine(), 0.0, (0.0,), id="cosine-a0"),
    pytest.param(Potential.double_well(0.5, 1.0), 0.3, (0.0, 0.5), id="double-well-a0.3"),
    pytest.param(Potential.double_well(0.5, 1.0), 0.0, (0.0, 0.5), id="double-well-a0"),
])
def test_turnpike_in_the_fixed_point_regime(potential, shift, maxima):
    """Where the Mather set is the maxima S of V (|a| at most a0), a
    long-horizon m(t) spends the middle of [0, T] near S: the distance
    int dist(x, S) dm(T/2), the W1 distance to the nearest measure on S,
    falls as T doubles (Cardaliaguet, Dyn. Games Appl. 3, 2013).

    Measured at n = 256, dt = 0.004, phi = 0, zero coupling, m_T =
    one-plus-cosine, T = 1, 2, 4, 8: cosine 5.49e-3, 4.69e-5, 2.55e-9,
    6.6e-16; double well a = 0.3 1.84e-2, 1.81e-3, 1.20e-6, 1.07e-12; a = 0
    1.43e-2, 6.67e-4, 6.19e-7, 5.51e-13.  The argmin chains snap onto the
    node, so the fall reaches round-off faster than the continuum's rate,
    and the test bounds the fall and the level, not a rate.  The least
    fall per doubling is 10.2x (double well at a = 0.3, T = 1 to 2); the
    bound of 8x leaves a 22% margin.  The levels hold with margins of 8x
    (T = 4 under 1e-5) and 9x (T = 8 under 1e-11); T = 1 is above 1e-3,
    so m(T/2) starts away from S.  About 0.3 s per model."""
    n, dt = 256, 0.004
    model = Mechanical(shift, potential)
    m_t = CircleMeasure.from_name("one-plus-cosine", n)
    dist = []
    for horizon in (1.0, 2.0, 4.0, 8.0):
        sol = solve_finite_horizon(np.zeros(n), m_t, 0.0, horizon, model,
                                   CouplingFunctional.zero(), dt)
        x = sol.m_positions[(sol.times.size - 1) // 2]
        gap = np.min([np.abs(wrap(x - s + 0.5) - 0.5) for s in maxima], axis=0)
        dist.append(float(np.sum(sol.m_weights * gap)))
    assert dist[0] > 1e-3, dist
    assert all(later <= earlier / 8.0 for earlier, later in zip(dist, dist[1:])), dist
    assert dist[2] < 1e-5 and dist[3] < 1e-11, dist
