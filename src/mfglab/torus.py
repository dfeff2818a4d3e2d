"""Circle-grid helpers shared by every module: wrapping, uniform grids,
periodic interpolation and difference operators."""

from __future__ import annotations

import numpy as np


def wrap(x):
    """Reduce positions to the fundamental domain [0, 1)."""
    x = np.asarray(x, dtype=float)
    # bit-equal to x % 1.0, which numpy computes by a slower divmod
    return x - np.floor(x)


def signed_gap(x, y):
    """Signed displacement from y to x, reduced to [-1/2, 1/2)."""
    return (np.asarray(x, dtype=float) - np.asarray(y, dtype=float) + 0.5) % 1.0 - 0.5


def circle_distance(x, y):
    """Geodesic distance on the unit circle."""
    return np.abs(signed_gap(x, y))


def grid(n: int) -> np.ndarray:
    """n uniform nodes x_j = j/n on [0, 1)."""
    return np.arange(n, dtype=float) / n


def interp_stencil(xq, n: int):
    """Left node index and fraction of each query on the n-node periodic
    grid: xq lies between nodes i and (i + 1) % n, a fraction f past i."""
    t = wrap(xq) * n
    floor = np.floor(t)
    return floor.astype(int) % n, t - floor


def periodic_interp(xq, values: np.ndarray):
    """Linear interpolation of node values on the uniform periodic grid."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    i0, frac = interp_stencil(xq, n)
    i1 = (i0 + 1) % n
    return (1.0 - frac) * values[i0] + frac * values[i1]


def periodic_gradient(values: np.ndarray, dx: float) -> np.ndarray:
    """Centered first differences with periodic wrap."""
    return (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * dx)


def periodic_second_difference(values: np.ndarray, dx: float) -> np.ndarray:
    """Centered second differences with periodic wrap."""
    return (np.roll(values, -1) - 2.0 * values + np.roll(values, 1)) / dx**2


def cumulative_trapezoid(samples: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral starting at 0, same length as input."""
    samples = np.asarray(samples, dtype=float)
    out = np.empty_like(samples)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (samples[1:] + samples[:-1]), out=out[1:])
    return out


def trapezoid(samples: np.ndarray, dt: float) -> float:
    """Plain trapezoid rule on a uniform time grid."""
    samples = np.asarray(samples, dtype=float)
    return float(dt * (np.sum(samples) - 0.5 * (samples[0] + samples[-1])))
