"""Coupled-system assembly.

The x-independent coupling decouples gradients from the mean-field term:
the value function of the coupled system is the uncoupled Hopf-Lax
evolution plus a time-dependent shift, and the measure path rides the
minimising characteristics of that evolution.  This module builds the
finite-horizon weak solution, the time-periodic solution with its
constant c(m_T), and the two experiments quantifying how c(m_T) depends
on the final measure and how finite-horizon solutions approach the
periodic regime.  The last three take the periodic regime (c0, u0,
drift) that periodic_regime derives from one critical-value probe, and
each carries m_T by one TransportTable over the time-to-go spans T - t it
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import DriftField, FlowMap, drift_field, flow_lipschitz_constant
from .coupling import CouplingFunctional
from .errors import DegenerateBacktrackError
from .hamiltonians import VELOCITY_CUTOFF, HamiltonianModel
from .lax_oleinik import (
    CriticalValueResult,
    HopfLaxStepper,
    slice_count,
    sweep,
    weak_kam_solution,
)
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
    stepper = HopfLaxStepper(model, phi.size, dt)
    _, (rec,) = sweep(stepper, phi, steps, [(0, steps)])
    positions, f_series = _backtrack(m_t, rec.origins, stepper, functional)
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


def _backtrack(m_t: CircleMeasure, origins: np.ndarray, stepper: HopfLaxStepper,
               functional: CouplingFunctional) -> tuple[np.ndarray, np.ndarray]:
    """Atom positions of m_t carried backward along the argmin chains of
    the L recorded steps, (L+1, A) with m_t itself last, and F along them.

    Every step checks that the chain stays inside the velocity cutoff.
    """
    steps = origins.shape[0]
    reach = VELOCITY_CUTOFF * stepper.dt * (1.0 + 1e-9)
    positions = np.empty((steps + 1, m_t.n))
    positions[steps] = m_t.positions
    for k in range(steps - 1, -1, -1):
        disp = periodic_interp(positions[k + 1], origins[k])
        if np.any(np.abs(disp) > reach):
            raise DegenerateBacktrackError(
                "argmin chain left the velocity cutoff during backtracking"
            )
        positions[k] = wrap(positions[k + 1] - disp)
    f_series = np.array([float(np.sum(m_t.weights * functional.f(p))) for p in positions])
    return positions, f_series


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


def periodic_regime(model: HamiltonianModel, probe: CriticalValueResult
                    ) -> tuple[float, np.ndarray, DriftField]:
    """Critical value, stationary solution and drift field of one probe."""
    wk = weak_kam_solution(model, probe)
    return wk.c0, wk.u0, drift_field(wk.u0, model)


def period_grid(regime, dt):
    """The periodic regime (c0, u0, df), its period tau, and the period
    grid: k steps of tau / k, the step nearest dt."""
    c0, u0, df = regime
    df.require_periodic()
    tau = float(df.tau)
    k = max(1, int(round(tau / dt)))
    return c0, u0, df, tau, k, tau / k


def periodic_solution(m_t: CircleMeasure, regime: tuple,
                      functional: CouplingFunctional, dt: float = 1e-3,
                      periods: int = 2) -> PeriodicSolution:
    """Periodic construction: m_bar rides the stationary characteristics
    and u_bar = u0 + int_0^t F(m_bar) - (t/tau) int_0^tau F(m_bar).

    The slices span an integer number of periods and slice k lies a
    time-to-go (K - k) dt_adj before the last, so the final slice reproduces
    m_T to round-off; c(m_T) = c0 minus the period average of F.
    """
    _require_density(m_t)
    c0, u0, df, tau, k_per, dt_adj = period_grid(regime, dt)
    steps = periods * k_per
    times = dt_adj * np.arange(steps + 1)
    flow = FlowMap(df)

    nodes = grid(m_t.n)
    masses = TransportTable(flow, dt_adj * np.arange(steps, -1, -1), m_t.n).masses(m_t)
    m_bar = [CircleMeasure(DENSITY, nodes, row) for row in masses]
    f_series = masses @ functional.f(nodes)
    period_integral = trapezoid(f_series[: k_per + 1], dt_adj)
    c_mt = c0 - period_integral / tau
    u_bar = u0[None, :] + (cumulative_trapezoid(f_series, dt_adj)
                           - times * (period_integral / tau))[:, None]

    periodicity_defect = max(
        wasserstein1(m_bar[k + k_per], m_bar[k]) for k in range(steps - k_per + 1)
    )
    m_star = invariant_density(df)
    nontriviality_gap = max(wasserstein1(m, m_bar[0]) for m in m_bar)
    return PeriodicSolution(
        times=times, nodes=df.nodes, tau=tau, c0=c0, c_mt=c_mt,
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


def lipschitz_c_experiment(pairs, regime: tuple, functional: CouplingFunctional,
                           dt: float = 1e-3) -> LipschitzCReport:
    """Ratio |c(m1) - c(m2)| / d1(m1, m2) over final-measure pairs.

    c0 cancels in the gap, so only the period averages of F along the two
    transported paths are compared; identical pairs are excluded.  A pair
    violates the bound Lip(f) K1 when its ratio exceeds it by more than
    LIPSCHITZ_SLACK.
    """
    _c0, _u0, df, tau, k_per, dt_adj = period_grid(regime, dt)
    k1 = flow_lipschitz_constant(df).k1
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
    window: float
    c_mt: float

    def rows(self):
        return list(zip(self.horizons, self.d1_deviation, self.u_deviation))


def long_time_convergence_experiment(phi: np.ndarray, m_t: CircleMeasure,
                                     model: HamiltonianModel, regime: tuple,
                                     functional: CouplingFunctional,
                                     horizons, window: float = 1.0,
                                     dt: float = 1e-3) -> ConvergenceReport:
    """Deviation of finite-horizon solutions from the periodic one over
    the trailing window [T - window, T], for each horizon T.

    One Hopf-Lax sweep at dt runs from phi to T_cal = CALIBRATION_FACTOR
    times the largest horizon, keeping value slices and argmin origins only
    on the trailing windows; m_T is backtracked, and F integrated, only
    across them (the u gap is taken relative to the window start, so the
    earlier path cancels).  The final slice calibrates the additive
    constant of the stationary solution entering u_bar: u0_phi =
    w_phi(., T_cal) + c0 T_cal, at dt like the evolution it is compared
    with.  m_bar depends on t only through the time-to-go T - t, so one
    transport table over the period and window spans serves every
    horizon.  The regime's probe may run at its own step; only c0, the
    drift and its period enter here.
    """
    horizons = sorted(float(T) for T in horizons)
    _require_density(m_t)
    if window > horizons[0]:
        raise ValueError(f"window {window:g} exceeds the smallest horizon {horizons[0]:g}")
    phi = np.asarray(phi, dtype=float)
    c0, _u0, df, tau, k_per, dt_p = period_grid(regime, dt)

    t_cal = CALIBRATION_FACTOR * horizons[-1]
    w_steps = slice_count(window, dt)
    ends = [slice_count(T, dt) for T in horizons]
    stepper = HopfLaxStepper(model, phi.size, dt)
    w_cal, records = sweep(stepper, phi, slice_count(t_cal, dt),
                           [(end - w_steps, end) for end in ends])
    u0_phi = w_cal + c0 * t_cal

    # rows: spans T - t over one period (dt_p grid), then over the window (dt grid)
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

    def tail_integral(r: float) -> float:
        """int_{T-r}^{T} F(m_bar) for r >= 0 via tau-periodicity."""
        whole, part = divmod(r, tau)
        return whole * period_integral + float(np.interp(part, period_spans, span_cum))

    tail_window = tail_integral(window)
    d1_dev, u_dev = [], []
    for rec in records:
        positions, f_series = _backtrack(m_t, rec.origins, stepper, functional)
        m_cum = cumulative_trapezoid(f_series, dt)  # int_{T - window}^{t_k} F(m)
        worst_d1 = 0.0
        worst_u = 0.0
        for i in range(w_steps + 1):
            s = dt * (rec.start + i)
            j = w_steps - i  # time-to-go T - s on the window grid
            m_s = CircleMeasure(PARTICLES, positions[i], m_t.weights)
            worst_d1 = max(worst_d1, wasserstein1(
                m_s, CircleMeasure(DENSITY, table.nodes, m_bar_window[j])))
            u_slice = rec.w[i] + float(m_cum[i]) + c_mt * s
            u_bar_slice = (u0_phi + (tail_window - tail_integral(window_spans[j]))
                           - s * (period_integral / tau))
            worst_u = max(worst_u, float(np.max(np.abs(u_slice - u_bar_slice))))
        d1_dev.append(worst_d1)
        u_dev.append(worst_u)
    return ConvergenceReport(horizons=horizons, d1_deviation=d1_dev,
                             u_deviation=u_dev, window=window, c_mt=float(c_mt))
