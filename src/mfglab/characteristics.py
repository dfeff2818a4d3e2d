"""Drift fields v(x) = dH/dp(x, Du0), the fixed-point/periodic-orbit
dichotomy on the circle, characteristic flows and the closed-form inverse
through the cumulative crossing-time table G."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClassificationError, NotPeriodicRegimeError
from .hamiltonians import HamiltonianModel
from .torus import circle_distance, grid, periodic_gradient, periodic_interp

FIXED_POINTS = "fixed-points"
PERIODIC_ORBIT = "periodic-orbit"

V_FLOOR = 1e-3


@dataclass(frozen=True)
class DriftField:
    """Node samples of the drift with its regime classification."""

    nodes: np.ndarray
    v: np.ndarray
    classification: str
    tau: float | None = None  # period, present only for the periodic regime

    @property
    def dx(self) -> float:
        return 1.0 / self.nodes.size

    def velocity(self, x):
        """Drift at arbitrary positions by periodic linear interpolation."""
        return periodic_interp(x, self.v)

    def require_periodic(self) -> None:
        if self.classification != PERIODIC_ORBIT:
            raise NotPeriodicRegimeError(
                "operation needs the periodic-orbit regime, got fixed points"
            )


def drift_field(u0: np.ndarray, model: HamiltonianModel,
                v_floor: float = V_FLOOR) -> DriftField:
    """Build v(x) = dH/dp(x, Du0(x)) and classify the regime.

    Periodic orbit requires a sign-constant drift with min |v| >= v_floor;
    a minimum inside (v_floor/2, v_floor) is refused as ambiguous.
    """
    u0 = np.asarray(u0, dtype=float)
    n = u0.size
    nodes = grid(n)
    v = np.asarray(model.dh_dp(nodes, periodic_gradient(u0, 1.0 / n)), dtype=float)
    min_abs = float(np.min(np.abs(v)))
    if v_floor / 2.0 < min_abs < v_floor:
        raise AmbiguousClassificationError(
            f"min |v| = {min_abs:.3g} falls in the guard band "
            f"({v_floor / 2.0:.3g}, {v_floor:.3g})"
        )
    sign_constant = bool(np.all(v > 0.0) or np.all(v < 0.0))
    if sign_constant and min_abs >= v_floor:
        tau = float(np.sum(1.0 / np.abs(v)) / n)
        return DriftField(nodes=nodes, v=v, classification=PERIODIC_ORBIT, tau=tau)
    return DriftField(nodes=nodes, v=v, classification=FIXED_POINTS, tau=None)


class FlowMap:
    """Characteristic flow of a periodic drift via its G-table.

    G(x) = integral of 1/v is strictly monotone, so both flow directions
    reduce to solving G(x*) = G(x) -+ (T - t) on the lifted table; the
    winding G(1) - G(0) equals the period up to sign.
    """

    def __init__(self, df: DriftField, t_ref: float = 0.0):
        df.require_periodic()
        self.df = df
        self.t_ref = float(t_ref)
        n = df.nodes.size
        inv = 1.0 / df.v
        increments = (inv + np.roll(inv, -1)) * (0.5 / n)
        self.g_nodes = np.concatenate([[0.0], np.cumsum(increments)])  # (n+1,)
        self.winding = float(self.g_nodes[-1])  # +- tau by the sign of v
        self._rising = np.sign(self.winding) * self.g_nodes  # increasing copy

    @property
    def tau(self) -> float:
        return float(self.df.tau)

    def g(self, x):
        """Piecewise-linear G on [0, 1)."""
        t = (np.asarray(x, dtype=float) % 1.0) * self.df.nodes.size
        i = np.minimum(np.floor(t).astype(int), self.df.nodes.size - 1)
        f = t - i
        return (1.0 - f) * self.g_nodes[i] + f * self.g_nodes[i + 1]

    def _solve_g(self, target):
        """Exact inverse of G: the target, reduced by the winding onto the
        table's branch, falls in one cell, where G is linear."""
        n = self.df.nodes.size
        theta = np.asarray(target, dtype=float) / self.winding
        level = (theta - np.floor(theta)) * abs(self.winding)  # sign(v) G(x)
        i = np.clip(np.searchsorted(self._rising, level, side="right") - 1, 0, n - 1)
        frac = (level - self._rising[i]) / (self._rising[i + 1] - self._rising[i])
        out = (i + frac) / n % 1.0
        return out if out.ndim else float(out)

    def phi(self, t: float, T: float | None, x):
        """Position at time t of the characteristic sitting at x at time T."""
        T = self.t_ref if T is None else T
        return self._solve_g(self.g(x) - (T - t))

    def phi_inverse(self, t: float, T: float | None, y):
        """Inverse map: G(x) = G(y) + (T - t), reduced by the winding."""
        T = self.t_ref if T is None else T
        return self._solve_g(self.g(y) + (T - t))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("x,G,v\n")
            for j, x in enumerate(self.df.nodes):
                fh.write(f"{x:.17g},{self.g_nodes[j]:.17g},{self.df.v[j]:.17g}\n")


def forward_flow(df: DriftField, t: float, T: float, x):
    """RK4 integration of x' = v(x) from time T backward to time t."""
    df.require_periodic()
    if t > T:
        raise ValueError("forward_flow needs t <= T")
    span = T - t
    x = np.asarray(x, dtype=float)
    if span == 0.0:
        return x % 1.0
    vmax = float(np.max(np.abs(df.v)))
    steps = max(1, int(np.ceil(span * vmax / (0.25 * df.dx))))
    h = span / steps

    def rhs(y):
        return -df.velocity(y)

    y = x % 1.0
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = (y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)) % 1.0
    return y


@dataclass(frozen=True)
class FlowLipschitzReport:
    k1: float
    k2: float           # Lipschitz constant of x -> v(x)
    gronwall_bound: float  # e^(tau K2)


def flow_lipschitz_constant(df: DriftField, n_points: int = 24,
                            n_times: int = 9, t_ref: float = 0.0) -> FlowLipschitzReport:
    """Measured contraction/expansion constant of the flow over one period.

    K1 = max over sampled pairs and t in [T - tau, T] of
    d(Phi(t,T,x), Phi(t,T,y)) / d(x,y); pairs closer than one grid cell
    are skipped.  Also reports the Gronwall bound e^(tau K2).
    """
    df.require_periodic()
    tau = float(df.tau)
    xs = grid(n_points)
    times = t_ref - tau + tau * np.arange(n_times) / (n_times - 1)
    k1 = 0.0
    for t in times:
        imgs = forward_flow(df, float(t), t_ref, xs)
        for i in range(n_points):
            base = circle_distance(xs[i], xs[i + 1:])
            moved = circle_distance(imgs[i], imgs[i + 1:])
            keep = base >= df.dx
            if np.any(keep):
                k1 = max(k1, float(np.max(moved[keep] / base[keep])))
    dv = np.abs(np.diff(np.concatenate([df.v, df.v[:1]])))
    k2 = float(np.max(dv) / df.dx)
    return FlowLipschitzReport(k1=k1, k2=k2, gronwall_bound=float(np.exp(tau * k2)))
