"""Residual checks for the explicit time-periodic pair of the drifted
quadratic system on the n-torus,

    u(t) = sin(2 pi t),   m(x, t) = 1 + cos(2 pi (x_1 + ... + x_n + t)),

with coupling F(m) = int 4 pi cos(2 pi sum_i x_i) dm.  Derivatives are
taken in closed form (or by finite differences in grid mode), never from
the solvers, so this module is an independent oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
MAX_GRID_POINTS = 2**24  # largest tensor grid an instance may sample


@dataclass(frozen=True)
class ExplicitInstance:
    dim: int = 1
    n_grid: int = 64   # per-axis spatial samples
    n_time: int = 64   # time samples over one period

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.n_grid ** self.dim > MAX_GRID_POINTS:
            raise ValueError("tensor grid too large; reduce n_grid or dim")
        if self.n_grid < 8 or self.n_time < 8:
            raise ValueError("need at least 8 samples per axis")

    def times(self) -> np.ndarray:
        return np.arange(self.n_time) / self.n_time

    def coordinate_sum(self) -> np.ndarray:
        """sum_i x_i over the tensor-product grid, flattened."""
        axis = np.arange(self.n_grid) / self.n_grid
        total = axis
        for _ in range(self.dim - 1):
            total = (total[..., None] + axis).ravel()
        return total


def u_value(t):
    return np.sin(TWO_PI * np.asarray(t, dtype=float))


def m_value(coord_sum, t):
    return 1.0 + np.cos(TWO_PI * (np.asarray(coord_sum, dtype=float) + t))


def coupling_of_candidate(inst: ExplicitInstance, t: float) -> float:
    """F(m(t)) by tensor-product quadrature of 4 pi cos(2 pi sum x) m."""
    s = inst.coordinate_sum()
    integrand = 4.0 * np.pi * np.cos(TWO_PI * s) * m_value(s, t)
    return float(np.mean(integrand))


def hjb_residual(inst: ExplicitInstance, closed_form: bool = True) -> float:
    """max |du/dt + sum_i ((du/dx_i)^2 / 2 - du/dx_i) - F(m(t))|.

    The candidate u is x-independent, so the spatial part vanishes term by
    term; grid mode replaces du/dt by periodic centered differences.
    """
    ts = inst.times()
    forcing = np.array([coupling_of_candidate(inst, float(t)) for t in ts])
    if closed_form:
        du_dt = TWO_PI * np.cos(TWO_PI * ts)
        spatial = np.zeros_like(ts)  # 0.5 * 0^2 - 0 summed over axes
    else:
        u = u_value(ts)
        dt = 1.0 / inst.n_time
        du_dt = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dt)
        spatial = np.zeros_like(ts)
    return float(np.max(np.abs(du_dt + spatial - forcing)))


def transport_residual(inst: ExplicitInstance, closed_form: bool = True) -> float:
    """max |dm/dt + sum_i d/dx_i ((du/dx_i - 1) m)| over the grid."""
    ts = inst.times()
    if closed_form:
        s = inst.coordinate_sum()
        worst = 0.0
        for t in ts:
            sine = np.sin(TWO_PI * (s + t))
            # dm/dt = -2 pi sin, each flux divergence contributes +2 pi sin
            residual = (inst.dim - 1) * TWO_PI * sine
            worst = max(worst, float(np.max(np.abs(residual))))
        return worst

    n, dt = inst.n_grid, 1.0 / inst.n_time
    dx = 1.0 / n
    shape = (inst.dim) * (n,)
    axis = np.arange(n) / n
    grids = np.meshgrid(*([axis] * inst.dim), indexing="ij") if inst.dim > 1 else [axis]
    s = np.zeros(shape)
    for g in grids:
        s = s + g
    worst = 0.0
    for t in ts:
        m_prev = m_value(s, t - dt)
        m_here = m_value(s, t)
        m_next = m_value(s, t + dt)
        residual = (m_next - m_prev) / (2.0 * dt)
        for ax in range(inst.dim):
            flux = -m_here  # (du/dx_i - 1) m with du/dx_i = 0
            residual = residual + (np.roll(flux, -1, axis=ax)
                                   - np.roll(flux, 1, axis=ax)) / (2.0 * dx)
        worst = max(worst, float(np.max(np.abs(residual))))
    return worst

