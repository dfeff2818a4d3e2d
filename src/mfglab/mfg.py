"""Coupled-system assembly.

The x-independent coupling decouples gradients from the mean-field term:
the value function of the coupled system is the uncoupled Hopf-Lax
evolution plus a time-dependent shift, and the measure path rides the
minimising characteristics of that evolution.  This module builds the
finite-horizon weak solution, the time-periodic solution with its
constant c(m_T), and the two experiments quantifying how c(m_T) depends
on the final measure and how finite-horizon solutions approach the
periodic regime.  The last three take the PeriodicRegime (c0, u0,
drift) that periodic_regime derives from one critical-value probe, whose
period_grid gives the step that divides the period.  Each carries m_T by
TransportTables over the time-to-go spans T - t it needs: one each for
the periodic solution and the Lipschitz experiment, and for the
convergence experiment one over a period, reduced at once to F, and one
over its window.  The finite-horizon solution and the
convergence experiment walk m_T back along the argmin chains with one
row-by-row walker; the experiment records one sweep per window and drops
its origins once walked.  Each of the four refuses the store it is about to
allocate when its own count of it exceeds MAX_RUN_BYTES (require_store).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .characteristics import DriftField, FlowMap, drift_field, flow_lipschitz_constant
from .coupling import CouplingFunctional
from .errors import MAX_RUN_BYTES, ConfigError, MFGLabError
from .hamiltonians import VELOCITY_CUTOFF, HamiltonianModel
from .lax_oleinik import CriticalValueResult, HopfLaxStepper, slice_count, sweep
from .measures import (
    DENSITY,
    PARTICLES,
    CircleMeasure,
    TransportTable,
    invariant_density,
    pushforward,  # not called here: perfbench's tracer self-test rebinds this alias
    wasserstein1,
)
from .torus import cumulative_trapezoid, grid, periodic_interp, trapezoid, wrap

# T_cal / T_max: the convergence experiment calibrates the stationary
# solution's additive constant at a time beyond its largest horizon
CALIBRATION_FACTOR = 1.5
# round-off slack of the Lipschitz check: a ratio over Lip(f) K1 + this fails
LIPSCHITZ_SLACK = 1e-9


def require_store(command: str, nbytes: int) -> None:
    """Refuse a store of nbytes over MAX_RUN_BYTES (the memory invariant);
    the function that allocates the store counts it and calls this first."""
    if nbytes > MAX_RUN_BYTES:
        raise ConfigError(f"memory invariant violated: {command} would store {nbytes:.3g} "
                          f"bytes, over the budget of {MAX_RUN_BYTES:.3g} bytes")


@dataclass
class MFGSolution:
    """Finite-horizon weak solution: u = w + shift, m carried as atoms."""

    times: np.ndarray        # (K+1,)
    nodes: np.ndarray        # (N,)
    w: np.ndarray            # (K+1, N) uncoupled value evolution
    shift: np.ndarray        # (K+1,) integral of F(m) plus c t
    m_positions: np.ndarray  # (K+1, A) atom positions of the measure path
    m_weights: np.ndarray    # (A,)
    c: float
    coupling_series: np.ndarray  # (K+1,) F(m(t_k))

    def u_at(self, k: int) -> np.ndarray:
        return self.w[k] + self.shift[k]


def solve_finite_horizon(phi: np.ndarray, m_t: CircleMeasure, c: float,
                         horizon: float, model: HamiltonianModel,
                         functional: CouplingFunctional, dt: float) -> MFGSolution:
    """Weak solution of the coupled system with u(.,0) = phi, m(T) = m_t.

    Runs the Hopf-Lax evolution recording the argmin origin of every node
    at every step, transports the final measure backward along those
    origin chains, and shifts the value field by the integral of F along
    the realised measure path plus c t.
    """
    _require_density(m_t)
    phi = np.asarray(phi, dtype=float)
    steps = slice_count(horizon, dt)
    # w, origins and positions, each at most (K + 1) x n float64
    require_store("solve", 3 * (steps + 1) * phi.size * 8)
    stepper = HopfLaxStepper(model, phi.size, dt)
    _, rec = sweep(stepper, phi, steps, record=True)
    positions = np.empty((steps + 1, m_t.n))
    for k, row in zip(range(steps, -1, -1), _backtrack(m_t, rec.origins, stepper)):
        positions[k] = row
    f_series = np.array([_coupling(m_t, functional, p) for p in positions])
    times = dt * np.arange(steps + 1)
    shift = cumulative_trapezoid(f_series, dt) + c * times
    return MFGSolution(
        times=times, nodes=stepper.nodes, w=rec.w, shift=shift,
        m_positions=positions, m_weights=m_t.weights.copy(), c=float(c),
        coupling_series=f_series,
    )


def _require_density(m_t: CircleMeasure) -> None:
    if m_t.kind != DENSITY:
        raise ValueError("the final measure must be absolutely continuous (density)")


def _backtrack(m_t: CircleMeasure, origins: np.ndarray, stepper: HopfLaxStepper):
    """Atom positions of m_t carried backward along the argmin chains of
    the L recorded steps, one row at a time: m_t's own positions first,
    then the rows L - 1 .. 0.

    Every step checks that the chain stays inside the velocity cutoff.
    """
    reach = VELOCITY_CUTOFF * stepper.dt * (1.0 + 1e-9)
    positions = m_t.positions
    yield positions
    for step_origins in origins[::-1]:
        disp = periodic_interp(positions, step_origins)
        if np.any(np.abs(disp) > reach):
            raise MFGLabError(
                "argmin chain left the velocity cutoff during backtracking"
            )
        positions = wrap(positions - disp)
        yield positions


def _coupling(m_t: CircleMeasure, functional: CouplingFunctional,
              positions: np.ndarray) -> float:
    """F of m_t's weights on the atom positions of one backtracked row."""
    return float(np.sum(m_t.weights * functional.f(positions)))


@dataclass
class PeriodicSolution:
    """Time-periodic solution (u_bar, m_bar) with its constant c(m_T)."""

    times: np.ndarray
    nodes: np.ndarray
    tau: float
    c0: float
    c_mt: float
    u_bar: np.ndarray          # (K+1, N)
    m_bar: list                # CircleMeasure per slice
    coupling_series: np.ndarray
    drift: DriftField
    flow: FlowMap
    m_star: CircleMeasure
    periodicity_defect: float
    nontriviality_gap: float
    distance_to_invariant: float  # d1(m_T, m_star)


class PeriodicRegime(NamedTuple):
    """Critical value, stationary solution and drift field of one probe."""

    c0: float
    u0: np.ndarray
    drift: DriftField

    def period_grid(self, dt: float) -> tuple[int, float]:
        """k steps of tau / k over the drift's period tau, the step nearest
        dt; the drift must be in the periodic-orbit regime."""
        self.drift.require_periodic()
        k = max(1, int(round(self.drift.tau / dt)))
        return k, self.drift.tau / k


def periodic_regime(model: HamiltonianModel, probe: CriticalValueResult
                    ) -> PeriodicRegime:
    """The periodic regime of one critical-value probe."""
    return PeriodicRegime(probe.c0, probe.u0, drift_field(probe.u0, model))


def periodic_solution(m_t: CircleMeasure, regime: PeriodicRegime,
                      functional: CouplingFunctional, dt: float = 1e-3,
                      periods: int = 2) -> PeriodicSolution:
    """Periodic construction: m_bar rides the stationary characteristics
    and u_bar = u0 + int_0^t F(m_bar) - (t/tau) int_0^tau F(m_bar).

    The slices span an integer number of periods and slice k lies a
    time-to-go (K - k) dt_adj before the last, so the final slice reproduces
    m_T to round-off; c(m_T) = c0 minus the period average of F.
    """
    _require_density(m_t)
    k_per, dt_adj = regime.period_grid(dt)
    df, tau = regime.drift, regime.drift.tau
    steps = periods * k_per
    # masses, u_bar and m_bar's positions: three (periods k + 1) x n arrays
    require_store("periodic", 3 * (steps + 1) * m_t.n * 8)
    times = dt_adj * np.arange(steps + 1)
    flow = FlowMap(df)

    nodes = grid(m_t.n)
    masses = TransportTable(flow, dt_adj * np.arange(steps, -1, -1), m_t.n).masses(m_t)
    m_bar = [CircleMeasure(DENSITY, nodes, row) for row in masses]
    f_series = masses @ functional.f(nodes)
    period_integral = trapezoid(f_series[: k_per + 1], dt_adj)
    c_mt = regime.c0 - period_integral / tau
    u_bar = regime.u0[None, :] + (cumulative_trapezoid(f_series, dt_adj)
                                  - times * (period_integral / tau))[:, None]

    periodicity_defect = max(
        wasserstein1(m_bar[k + k_per], m_bar[k]) for k in range(steps - k_per + 1)
    )
    m_star = invariant_density(df)
    nontriviality_gap = max(wasserstein1(m, m_bar[0]) for m in m_bar)
    return PeriodicSolution(
        times=times, nodes=df.nodes, tau=tau, c0=regime.c0, c_mt=c_mt,
        u_bar=u_bar, m_bar=m_bar, coupling_series=f_series,
        drift=df, flow=flow, m_star=m_star,
        periodicity_defect=periodicity_defect,
        nontriviality_gap=nontriviality_gap,
        distance_to_invariant=wasserstein1(m_t, m_star),
    )


@dataclass
class LipschitzCReport:
    ratios: np.ndarray
    distances: np.ndarray
    gaps: np.ndarray
    k1: float
    bound: float       # Lip(f) * K1
    violations: int

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios)) if self.ratios.size else 0.0


def lipschitz_c_experiment(pairs, regime: PeriodicRegime, functional: CouplingFunctional,
                           dt: float = 1e-3) -> LipschitzCReport:
    """Ratio |c(m1) - c(m2)| / d1(m1, m2) over final-measure pairs.

    c0 cancels in the gap, so only the period averages of F along the two
    transported paths are compared; identical pairs are excluded.  A pair
    violates the bound Lip(f) K1 when its ratio exceeds it by more than
    LIPSCHITZ_SLACK.
    """
    k_per, dt_adj = regime.period_grid(dt)
    df, tau = regime.drift, regime.drift.tau
    # 2 pairs measures, each five n-vectors (positions, weights, density values
    # and means' two stacked copies) and three k + 1 columns of means (mass, f sums, ratio)
    require_store("lipschitz-c", 2 * len(pairs) * (5 * df.nodes.size + 3 * (k_per + 1)) * 8)
    k1 = flow_lipschitz_constant(df)
    bound = functional.lipschitz * k1
    table = TransportTable(FlowMap(df), dt_adj * np.arange(k_per + 1), df.nodes.size)
    kept = [(m1, m2, d) for m1, m2 in pairs if (d := wasserstein1(m1, m2)) > 1e-14]
    # (1/tau) int F(Phi_s # m) ds over the period grid of spans, for every
    # measure of a kept pair from one push of the table
    series = table.means([m.density_values for m1, m2, _ in kept for m in (m1, m2)],
                         functional.f(table.nodes))
    averages = np.array([trapezoid(column, dt_adj) / tau for column in series.T])
    dists = np.array([d for _, _, d in kept])
    gaps = np.abs(averages[::2] - averages[1::2])
    ratios = gaps / dists
    violations = int(np.sum(ratios > bound + LIPSCHITZ_SLACK))
    return LipschitzCReport(ratios=ratios, distances=dists, gaps=gaps, k1=k1,
                            bound=bound, violations=violations)


@dataclass
class ConvergenceReport:
    horizons: list
    d1_deviation: list   # sup over the window of d1(m(s), m_bar(s))
    u_deviation: list    # sup over the window and x of the adjusted value gap
    c_mt: float


def long_time_convergence_experiment(phi: np.ndarray, m_t: CircleMeasure,
                                     model: HamiltonianModel, regime: PeriodicRegime,
                                     functional: CouplingFunctional,
                                     horizons, window: float = 1.0,
                                     dt: float = 1e-3) -> ConvergenceReport:
    """Deviation of finite-horizon solutions from the periodic one over
    the trailing window [T - window, T], for each horizon T.

    m_bar depends on t only through the time-to-go T - t, so one transport
    table over a period of spans, reduced at once to the period integral
    of F, and one over the window spans serve every horizon.  One Hopf-Lax
    evolution at dt then runs from phi to T_cal = CALIBRATION_FACTOR times
    the largest horizon, recording one sweep per window.  A window that
    starts inside the one recorded before it (an overlapping or repeated
    horizon) restarts from that window's kept value slice at its start, so
    the overlap is stepped again.  As each window's sweep ends, m_T is
    backtracked across it one row at a time, taking F and
    d1(m(s), m_bar(s)) at each slice, and its argmin origins are dropped;
    a window keeps only its value slices, its F integral from the window
    start (the u gap is taken relative to it, so the earlier path cancels)
    and its worst d1.  The final slice calibrates the additive constant of
    the stationary solution entering u_bar: u0_phi = w_phi(., T_cal) +
    c0 T_cal, at dt like the evolution it is compared with, so the u gaps
    are taken after the last window.  The regime's probe may run at its
    own step; only c0, the drift and its period enter here.
    """
    horizons = sorted(float(T) for T in horizons)
    _require_density(m_t)
    if window > horizons[0]:
        raise ValueError(f"window {window:g} exceeds the smallest horizon {horizons[0]:g}")
    phi = np.asarray(phi, dtype=float)
    k_per, dt_p = regime.period_grid(dt)
    c0, df, tau = regime.c0, regime.drift, regime.drift.tau

    t_cal = CALIBRATION_FACTOR * horizons[-1]
    cal_steps = slice_count(t_cal, dt)
    w_steps = slice_count(window, dt)
    # rows of n float64: each horizon's value window, one window's origins,
    # the window and period tables' spans, and the one position row a
    # backtrack walks
    rows = len(horizons) * (w_steps + 1) + w_steps + (w_steps + 1) + (k_per + 1) + 1
    require_store("converge", rows * m_t.n * 8)

    # m_bar at the spans T - t over one period (dt_p grid), kept only as
    # F, and over the window (dt grid)
    flow = FlowMap(df)
    nodes = grid(m_t.n)
    period_spans = dt_p * np.arange(k_per + 1)
    f_period = TransportTable(flow, period_spans, m_t.n).masses(m_t) @ functional.f(nodes)
    window_spans = dt * np.arange(w_steps + 1)
    m_bar_window = TransportTable(flow, window_spans, m_t.n).masses(m_t)
    period_integral = trapezoid(f_period, dt_p)
    c_mt = c0 - period_integral / tau
    span_cum = cumulative_trapezoid(f_period, dt_p)

    stepper = HopfLaxStepper(model, phi.size, dt)
    w, done = phi, 0
    kept = []   # per horizon: window start, value slices, int F from the start
    d1_dev = []
    for T in horizons:
        start = slice_count(T, dt) - w_steps
        if start >= done:
            w, _ = sweep(stepper, w, start - done)
        else:  # inside the window recorded just before
            prev_start, values, _ = kept[-1]
            w = values[start - prev_start]
        w, rec = sweep(stepper, w, w_steps, record=True)
        done = start + w_steps
        f_series = np.empty(w_steps + 1)
        worst_d1 = 0.0
        # row j of the walk lies a time-to-go j dt before T
        for j, positions in enumerate(_backtrack(m_t, rec.origins, stepper)):
            f_series[w_steps - j] = _coupling(m_t, functional, positions)
            worst_d1 = max(worst_d1, wasserstein1(
                CircleMeasure(PARTICLES, positions, m_t.weights),
                CircleMeasure(DENSITY, nodes, m_bar_window[j])))
        kept.append((start, rec.w, cumulative_trapezoid(f_series, dt)))
        d1_dev.append(worst_d1)
        del rec  # the window's origins; its value slices live on in kept
    w_cal, _ = sweep(stepper, w, cal_steps - done)
    u0_phi = w_cal + c0 * t_cal

    def tail_integral(r: float) -> float:
        """int_{T-r}^{T} F(m_bar) for r >= 0 via tau-periodicity."""
        whole, part = divmod(r, tau)
        return whole * period_integral + float(np.interp(part, period_spans, span_cum))

    tail_window = tail_integral(window)
    u_dev = []
    for start, values, m_cum in kept:
        worst_u = 0.0
        for i in range(w_steps + 1):
            s = dt * (start + i)
            j = w_steps - i  # time-to-go T - s on the window grid
            u_slice = values[i] + float(m_cum[i]) + c_mt * s
            u_bar_slice = (u0_phi + (tail_window - tail_integral(window_spans[j]))
                           - s * (period_integral / tau))
            worst_u = max(worst_u, float(np.max(np.abs(u_slice - u_bar_slice))))
        u_dev.append(worst_u)
    return ConvergenceReport(horizons=horizons, d1_deviation=d1_dev,
                             u_deviation=u_dev, c_mt=float(c_mt))
