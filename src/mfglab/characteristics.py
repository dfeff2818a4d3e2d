"""Drift fields v(x) = dH/dp(x, Du0), the fixed-point/periodic-orbit
dichotomy on the circle, and characteristic flows inverted in closed form
on a cumulative crossing-time table: FlowMap's trapezoid table G, and the
exact flow of the piecewise-linear drift.  The drift is autonomous, so
every flow takes one time argument, the time-to-go s = T - t >= 0."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MFGLabError
from .hamiltonians import HamiltonianModel
from .torus import circle_distance, grid, periodic_gradient, wrap

FIXED_POINTS = "fixed-points"
PERIODIC_ORBIT = "periodic-orbit"

V_FLOOR = 1e-3
K1_POINTS = 24  # flow_lipschitz_constant samples pairs of this many points
K1_TIMES = 9    # ... at this many spans over one period


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
            raise MFGLabError(
                "operation needs the periodic-orbit regime, got fixed points"
            )


def drift_field(u0: np.ndarray, model: HamiltonianModel) -> DriftField:
    """Build v(x) = dH/dp(x, Du0(x)) and classify the regime.

    Periodic orbit requires a sign-constant drift with min |v| >= V_FLOOR;
    a minimum inside (V_FLOOR/2, V_FLOOR) is refused as ambiguous.
    """
    u0 = np.asarray(u0, dtype=float)
    n = u0.size
    nodes = grid(n)
    v = np.asarray(model.dh_dp(nodes, periodic_gradient(u0, 1.0 / n)), dtype=float)
    min_abs = float(np.min(np.abs(v)))
    if V_FLOOR / 2.0 < min_abs < V_FLOOR:
        raise MFGLabError(
            f"min |v| = {min_abs:.3g} falls in the guard band "
            f"({V_FLOOR / 2.0:.3g}, {V_FLOOR:.3g})"
        )
    sign_constant = bool(np.all(v > 0.0) or np.all(v < 0.0))
    if sign_constant and min_abs >= V_FLOOR:
        tau = float(np.sum(1.0 / np.abs(v)) / n)
        return DriftField(nodes=nodes, v=v, classification=PERIODIC_ORBIT, tau=tau)
    return DriftField(nodes=nodes, v=v, classification=FIXED_POINTS, tau=None)


def _locate(rising, winding, target):
    """Cell i and offset past rising[i] of a target on a cumulative time
    table, reduced by the winding onto its rising copy (the table times
    sign(winding), from 0 to |winding|)."""
    theta = np.asarray(target, dtype=float) / winding
    level = (theta - np.floor(theta)) * abs(winding)
    i = np.clip(np.searchsorted(rising, level, side="right") - 1, 0, rising.size - 2)
    return i, level - rising[i]


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
        """Exact inverse of G: the target falls in one cell, where G is linear."""
        i, offset = _locate(self._rising, self.winding, target)
        frac = offset / (self._rising[i + 1] - self._rising[i])
        out = (i + frac) / self.df.nodes.size % 1.0
        return out if out.ndim else float(out)

    def phi(self, s: float, x):
        """Position a time-to-go s earlier of the characteristic at x."""
        return self._solve_g(self.g(x) - s)

    def phi_inverse(self, s, y):
        """Inverse map: G(x) = G(y) + s, reduced by the winding.  A column
        of spans, shape (R, 1), gives one row of points per span, each
        bit-equal to a one-span call."""
        return self._solve_g(self.g(y) + s)


def _over(fn, z):
    """fn(z) / z for fn = log1p or expm1, continued by its limit 1 at z = 0."""
    flat = z == 0.0
    z = np.where(flat, 1.0, z)
    return np.where(flat, 1.0, fn(z) / z)


def forward_flow(df: DriftField, s, x):
    """Exact flow of x' = v(x), v interpolated linearly between its nodes,
    backward over the time-to-go s >= 0.

    On cell i, where v = v_i + k (x - x_i), the time from x_i to x_i + d is
    log1p(k d / v_i) / k, and a time t reaches d = v_i expm1(k t) / k; the
    cells' crossing times make a table inverted like FlowMap's.  A 1-D array
    of spans gives one row per span, each bit-equal to a scalar call: of
    all the points x, or, when x is (R, P) with R the number of spans, of
    row r of x for span r.
    """
    df.require_periodic()
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("forward_flow needs a time-to-go s >= 0")
    n, v = df.nodes.size, df.v
    k = (np.roll(v, -1) - v) * n

    def time_in_cell(i, d):
        return d / v[i] * _over(np.log1p, k[i] * d / v[i])

    table = np.concatenate(([0.0], np.cumsum(time_in_cell(np.arange(n), df.dx))))
    sign = np.sign(table[-1])
    x = wrap(x)
    t = x * n
    i = np.minimum(np.floor(t).astype(np.intp), n - 1)
    per_row = s.ndim == 1 and x.ndim > 1 and x.shape[0] == s.size
    s = s.reshape(s.shape + (1,) * (x.ndim - per_row))
    since_node0 = table[i] + time_in_cell(i, (t - i) / n)
    i, offset = _locate(sign * table, table[-1], since_node0 - s)
    elapsed = sign * offset  # signed time since node i
    y = wrap(df.nodes[i] + v[i] * elapsed * _over(np.expm1, k[i] * elapsed))
    return np.where(s == 0.0, x, y)[()]


def flow_lipschitz_constant(df: DriftField) -> float:
    """Measured contraction/expansion constant K1 of the flow over one period.

    K1 = max over pairs of K1_POINTS grid points and K1_TIMES spans
    s in [0, tau] of d(Phi_s(x), Phi_s(y)) / d(x,y), with Phi forward_flow's
    exact flow of the piecewise-linear drift, so K1 carries no integration
    error; pairs closer than one grid cell are skipped.
    """
    df.require_periodic()
    tau = float(df.tau)
    xs = grid(K1_POINTS)
    spans = tau - tau * np.arange(K1_TIMES) / (K1_TIMES - 1)
    imgs = forward_flow(df, spans, xs)  # (K1_TIMES, K1_POINTS)
    first, second = np.triu_indices(K1_POINTS, 1)
    base = circle_distance(xs[first], xs[second])
    keep = base >= df.dx
    moved = circle_distance(imgs[:, first[keep]], imgs[:, second[keep]])
    return float(np.max(moved / base[keep], initial=0.0))
