"""Residual checks for the explicit time-periodic pair of the drifted
quadratic system on the circle,

    u(t) = sin(2 pi t),   m(x, t) = 1 + cos(2 pi (x + t)),

with coupling F(m) = int 4 pi cos(2 pi x) dm.  Derivatives are taken in
closed form (or by finite differences in grid mode), never from the
solvers, so this module is an independent oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ExplicitInstance:
    n_grid: int = 64   # spatial samples
    n_time: int = 64   # time samples over one period

    def __post_init__(self):
        if self.n_grid < 8 or self.n_time < 8:
            raise ValueError("need at least 8 samples per axis")

    def times(self) -> np.ndarray:
        return np.arange(self.n_time) / self.n_time

    def nodes(self) -> np.ndarray:
        return np.arange(self.n_grid) / self.n_grid


def u_value(t):
    return np.sin(TWO_PI * np.asarray(t, dtype=float))


def m_value(x, t):
    return 1.0 + np.cos(TWO_PI * (np.asarray(x, dtype=float) + t))


def coupling_of_candidate(inst: ExplicitInstance, t: float) -> float:
    """F(m(t)) by rectangle quadrature of 4 pi cos(2 pi x) m."""
    xs = inst.nodes()
    integrand = 4.0 * np.pi * np.cos(TWO_PI * xs) * m_value(xs, t)
    return float(np.mean(integrand))


def hjb_residual(inst: ExplicitInstance, closed_form: bool = True) -> float:
    """max |du/dt + (du/dx)^2 / 2 - du/dx - F(m(t))|.

    The candidate u is x-independent, so the spatial part vanishes;
    grid mode replaces du/dt by periodic centered differences.
    """
    ts = inst.times()
    forcing = np.array([coupling_of_candidate(inst, float(t)) for t in ts])
    if closed_form:
        du_dt = TWO_PI * np.cos(TWO_PI * ts)
    else:
        u = u_value(ts)
        dt = 1.0 / inst.n_time
        du_dt = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dt)
    return float(np.max(np.abs(du_dt - forcing)))


def transport_residual(inst: ExplicitInstance, closed_form: bool = True) -> float:
    """max |dm/dt + d/dx ((du/dx - 1) m)| over the grid."""
    xs = inst.nodes()
    dt, dx = 1.0 / inst.n_time, 1.0 / inst.n_grid
    worst = 0.0
    for t in inst.times():
        if closed_form:
            sine = np.sin(TWO_PI * (xs + t))
            residual = -TWO_PI * sine + TWO_PI * sine  # dm/dt + d/dx(-m)
        else:
            flux = -m_value(xs, t)  # (du/dx - 1) m with du/dx = 0
            residual = ((m_value(xs, t + dt) - m_value(xs, t - dt)) / (2.0 * dt)
                        + (np.roll(flux, -1) - np.roll(flux, 1)) / (2.0 * dx))
        worst = max(worst, float(np.max(np.abs(residual))))
    return worst
