"""Drift fields v(x) = dH/dp(x, Du0), the fixed-point/periodic-orbit
dichotomy on the circle, characteristic flows and the closed-form inverse
through the cumulative crossing-time table G.  The drift is autonomous, so
every flow takes one time argument, the time-to-go s = T - t >= 0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClassificationError, NotPeriodicRegimeError
from .hamiltonians import HamiltonianModel
from .torus import circle_distance, grid, periodic_gradient, wrap

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
    over a time-to-go s reduce to solving G(x*) = G(x) -+ s on the lifted
    table; the winding G(1) - G(0) equals the period up to sign.
    """

    def __init__(self, df: DriftField):
        df.require_periodic()
        self.df = df
        n = df.nodes.size
        inv = 1.0 / df.v
        increments = (inv + np.roll(inv, -1)) * (0.5 / n)
        self.g_nodes = np.concatenate([[0.0], np.cumsum(increments)])  # (n+1,)
        self.winding = float(self.g_nodes[-1])  # +- tau by the sign of v
        self._rising = np.sign(self.winding) * self.g_nodes  # increasing copy

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

    def phi(self, s: float, x):
        """Position a time-to-go s earlier of the characteristic at x."""
        return self._solve_g(self.g(x) - s)

    def phi_inverse(self, s: float, y):
        """Inverse map: G(x) = G(y) + s, reduced by the winding."""
        return self._solve_g(self.g(y) + s)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("x,G,v\n")
            for j, x in enumerate(self.df.nodes):
                fh.write(f"{x:.17g},{self.g_nodes[j]:.17g},{self.df.v[j]:.17g}\n")


def _rk4(v: np.ndarray, y, h, steps):
    """steps RK4 steps of size h of y' = -v(y), v interpolated periodically
    between its node values, each step wrapped onto [0, 1)."""
    n = float(v.size)
    # the negated drift, padded past the seam: a point wrapped to 1.0 reads
    # node n with weight 1, and node i + 1 needs no wrap
    rate = -np.concatenate((v, v[:2]))
    ahead = rate[1:]
    half, sixth = 0.5 * h, h / 6.0

    def slope(z):
        t = wrap(z) * n
        cell = np.floor(t)
        i = cell.astype(np.intp)
        frac = t - cell
        return (1.0 - frac) * rate.take(i) + frac * ahead.take(i)

    for _ in range(steps):
        k1 = slope(y)
        k2 = slope(y + half * k1)
        k3 = slope(y + half * k2)
        k4 = slope(y + h * k3)
        y = wrap(y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return y


def forward_flow(df: DriftField, s, x):
    """RK4 integration of x' = v(x) backward over the time-to-go s >= 0.

    A 1-D array of spans gives one row per span, each bit-equal to a
    scalar call: of all the points x, or, when x is (R, P) with R the
    number of spans, of row r of x for span r.
    """
    df.require_periodic()
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("forward_flow needs a time-to-go s >= 0")
    span = np.atleast_1d(s)
    x = wrap(x)
    vmax = np.max(np.abs(df.v))
    # no step for a zero span, at least one otherwise
    steps = np.maximum(span > 0.0, np.ceil(span * vmax / (0.25 * df.dx)).astype(int))
    h = span / np.maximum(steps, 1)
    if s.ndim == 0:
        return _rk4(df.v, x, h[0], steps[0])
    order = np.argsort(-steps, kind="stable")
    if x.ndim > 1 and x.shape[0] == span.size:  # one row of points per span
        y = x[order]
    else:
        y = np.broadcast_to(x, span.shape + x.shape).copy()
    ends, h = np.append(steps[order], 0), h[order].reshape((-1,) + (1,) * (y.ndim - 1))
    for a in range(span.size, 0, -1):  # the a longest rows take their next steps
        y[:a] = _rk4(df.v, y[:a], h[:a], ends[a - 1] - ends[a])
    return y[np.argsort(order)]


@dataclass(frozen=True)
class FlowLipschitzReport:
    k1: float
    k2: float           # Lipschitz constant of x -> v(x)
    gronwall_bound: float  # e^(tau K2)


def flow_lipschitz_constant(df: DriftField, n_points: int = 24,
                            n_times: int = 9) -> FlowLipschitzReport:
    """Measured contraction/expansion constant of the flow over one period.

    K1 = max over sampled pairs and time-to-go s in [0, tau] of
    d(Phi_s(x), Phi_s(y)) / d(x,y); pairs closer than one grid cell
    are skipped.  Also reports the Gronwall bound e^(tau K2).
    """
    df.require_periodic()
    tau = float(df.tau)
    xs = grid(n_points)
    spans = tau - tau * np.arange(n_times) / (n_times - 1)
    imgs = forward_flow(df, spans, xs)  # (n_times, n_points)
    first, second = np.triu_indices(n_points, 1)
    base = circle_distance(xs[first], xs[second])
    keep = base >= df.dx
    moved = circle_distance(imgs[:, first[keep]], imgs[:, second[keep]])
    k1 = float(np.max(moved / base[keep], initial=0.0))
    dv = np.abs(np.diff(np.concatenate([df.v, df.v[:1]])))
    k2 = float(np.max(dv) / df.dx)
    return FlowLipschitzReport(k1=k1, k2=k2, gronwall_bound=float(np.exp(tau * k2)))
