"""Probability measures on the circle: grid densities and weighted
particle clouds, the exact circular Wasserstein-1 distance through shifted
cumulative functions, push-forward under characteristic flows over a
time-to-go s = T - t, and the weak-form continuity-equation residual."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import MassDriftError
from .torus import grid, interp_stencil, periodic_interp, trapezoid, wrap

DENSITY = "density"
PARTICLES = "particles"

MASS_TOL = 1e-12
MASS_DRIFT_TOL = 1e-4  # largest renormalisation a push-forward may need


class CircleMeasure:
    """Probability measure on T^1, as node masses or weighted atoms."""

    def __init__(self, kind: str, positions: np.ndarray, weights: np.ndarray,
                 mass_drift: float = 0.0):
        weights = np.asarray(weights, dtype=float)
        positions = wrap(positions)
        if np.any(weights < -MASS_TOL):
            raise ValueError("measure weights must be nonnegative")
        total = float(np.sum(weights))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total} differs from 1 beyond {MASS_TOL}")
        self.kind = kind
        self.positions = positions
        self.weights = weights
        self.mass_drift = float(mass_drift)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_masses(cls, masses) -> "CircleMeasure":
        masses = np.asarray(masses, dtype=float)
        return cls(DENSITY, grid(masses.size), masses)

    @classmethod
    def from_density_values(cls, values) -> "CircleMeasure":
        """Density samples on the uniform grid, normalised to unit mass."""
        values = np.asarray(values, dtype=float)
        if np.any(values < 0.0):
            raise ValueError("density values must be nonnegative")
        masses = values / np.sum(values)
        return cls.from_masses(masses)

    @classmethod
    def from_particles(cls, positions, weights=None) -> "CircleMeasure":
        positions = np.atleast_1d(np.asarray(positions, dtype=float))
        if weights is None:
            weights = np.full(positions.size, 1.0 / positions.size)
        else:
            weights = np.asarray(weights, dtype=float)
            weights = weights / np.sum(weights)
        return cls(PARTICLES, positions, weights)

    @classmethod
    def dirac(cls, x: float) -> "CircleMeasure":
        return cls.from_particles([x], [1.0])

    @classmethod
    def from_name(cls, name: str, n: int = 512) -> "CircleMeasure":
        """Resolve 'lebesgue', 'one-plus-cosine', 'gaussian-bump(c,w)'."""
        name = name.strip()
        xs = grid(n)
        if name == "lebesgue":
            return cls.from_density_values(np.ones(n))
        if name == "one-plus-cosine":
            return cls.from_density_values(1.0 + np.cos(2.0 * np.pi * xs))
        m = re.fullmatch(r"gaussian-bump\(([^,]+),([^)]+)\)", name)
        if m:
            center, width = float(m.group(1)), float(m.group(2))
            vals = np.zeros(n)
            for k in range(-3, 4):
                vals += np.exp(-((xs - center + k) ** 2) / (2.0 * width**2))
            return cls.from_density_values(vals)
        raise ValueError(f"unknown measure id {name!r}")

    # -- views ------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.positions.size

    @property
    def density_values(self) -> np.ndarray:
        if self.kind != DENSITY:
            raise ValueError("particle measures have no density view")
        return self.weights * self.n

    def integrate(self, f) -> float:
        """Integral of f against the measure."""
        return float(np.sum(self.weights * f(self.positions)))

    def write_csv(self, path) -> None:
        header = "x,mass" if self.kind == DENSITY else "x,w"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for x, w in zip(self.positions, self.weights):
                fh.write(f"{x:.17g},{w:.17g}\n")


def wasserstein1(m1: CircleMeasure, m2: CircleMeasure) -> float:
    """Exact circular W1 = min_c int |F1 - F2 - c| with the optimal c a
    weighted median of the cumulative difference."""
    xs = np.concatenate([m1.positions, m2.positions])
    signed = np.concatenate([m1.weights, -m2.weights])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    diff = np.cumsum(signed[order])          # F1 - F2 on [xs[i], xs[i+1])
    seg = np.empty_like(xs)
    seg[:-1] = np.diff(xs)
    seg[-1] = 1.0 - xs[-1] + xs[0]           # wrap segment through 0
    by_value = np.argsort(diff, kind="stable")
    cum = np.cumsum(seg[by_value])
    shift = diff[by_value][np.searchsorted(cum, 0.5 * cum[-1])]
    return float(np.sum(seg * np.abs(diff - shift)))


class TransportTable:
    """Interpolation stencils of the inverse-flow nodes Phi_{s_k}^-1(x_j) on
    the n-node grid and their centered-difference Jacobian, one row per
    time-to-go s_k.

    Row k pushes a grid density over the span s_k, so a table built once
    serves every measure transported over the same spans.
    """

    def __init__(self, fm, spans, n: int):
        self.nodes = grid(n)
        xinv = np.empty((len(spans), n))
        for row, s in zip(xinv, spans):
            row[:] = fm.phi_inverse(float(s), self.nodes)
        # the stencil's temporaries come and go before the Jacobian is held
        self._cell, self._frac = interp_stencil(xinv, n)
        # the inverse map is an orientation-preserving circle map: consecutive
        # gaps are small and positive, so %1 picks the right branch
        self.jac = ((np.roll(xinv, -1, axis=1) - np.roll(xinv, 1, axis=1)) % 1.0) * (n / 2.0)

    def masses(self, m: CircleMeasure):
        """Node masses of the pushed densities, one row per span, each
        renormalised to unit mass, and each row's renormalisation drift."""
        d = m.density_values
        values = ((1.0 - self._frac) * d[self._cell]
                  + self._frac * np.roll(d, -1)[self._cell]) * self.jac
        totals = values.mean(axis=1)
        drift = np.abs(totals - 1.0)
        worst = float(np.max(drift))
        if worst >= MASS_DRIFT_TOL:
            raise MassDriftError(
                f"push-forward mass drift {worst:.3g} exceeds {MASS_DRIFT_TOL:.3g}"
            )
        values /= (totals * self.nodes.size)[:, None]
        return values, drift


def pushforward(fm, m: CircleMeasure, s: float) -> CircleMeasure:
    """Push m by the characteristic flow over the time-to-go s, Phi_s # m.

    Particle measures move their atoms; densities take one row of a
    TransportTable and carry its renormalisation drift on the result.
    """
    if s == 0:
        return m
    if m.kind == PARTICLES:
        return CircleMeasure(PARTICLES, fm.phi(s, m.positions), m.weights.copy())
    table = TransportTable(fm, [s], m.n)
    masses, drift = table.masses(m)
    return CircleMeasure(DENSITY, table.nodes, masses[0], mass_drift=drift[0])


def invariant_density(df) -> CircleMeasure:
    """Projected minimal measure of a periodic drift: density 1/(tau |v|)."""
    df.require_periodic()
    return CircleMeasure.from_density_values(1.0 / np.abs(df.v))


def random_fourier_density(n: int, rng, k_max: int = 4, floor: float = 0.1) -> CircleMeasure:
    """Smooth random density: 1 + low-mode Fourier noise, floored away
    from zero and renormalised."""
    xs = grid(n)
    values = np.ones(n)
    for k in range(1, k_max + 1):
        a, b = rng.uniform(-1.0, 1.0, size=2) * (0.6 / k)
        values += a * np.cos(2.0 * np.pi * k * xs) + b * np.sin(2.0 * np.pi * k * xs)
    low = float(np.min(values))
    if low < floor:
        values = values - low + floor
    return CircleMeasure.from_density_values(values)


@dataclass
class TestFunctionBank:
    """Fourier test functions with derivatives plus time envelopes
    vanishing at t = 0, for the weak continuity formulation."""

    __test__ = False  # not a pytest class despite the name

    k_max: int = 8
    functions: list = field(init=False)

    def __post_init__(self):
        funcs = [("one", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                  lambda x: np.zeros_like(np.asarray(x, dtype=float)))]
        for k in range(1, self.k_max + 1):
            w = 2.0 * np.pi * k
            funcs.append((f"cos{k}",
                          lambda x, w=w: np.cos(w * np.asarray(x, dtype=float)),
                          lambda x, w=w: -w * np.sin(w * np.asarray(x, dtype=float))))
            funcs.append((f"sin{k}",
                          lambda x, w=w: np.sin(w * np.asarray(x, dtype=float)),
                          lambda x, w=w: w * np.cos(w * np.asarray(x, dtype=float))))
        self.functions = funcs

    @staticmethod
    def envelopes(horizon: float):
        """(eta, eta') pairs with eta(0) = 0."""
        T = float(horizon)
        return [
            (lambda t: t / T, lambda t: np.ones_like(np.asarray(t, dtype=float)) / T),
            (lambda t: (t / T) ** 2, lambda t: 2.0 * np.asarray(t, dtype=float) / T**2),
            (lambda t: np.sin(0.5 * np.pi * np.asarray(t, dtype=float) / T),
             lambda t: (0.5 * np.pi / T) * np.cos(0.5 * np.pi * np.asarray(t, dtype=float) / T)),
        ]


def continuity_residual(m_path, velocity, bank: TestFunctionBank, horizon: float) -> float:
    """Largest defect of the weak continuity identity over the bank.

    For each test function f and envelope eta the identity compares
    eta(T) int f dm_T against the time integral of
    eta'(t) int f dm(t) + eta(t) int f'(x) b(x,t) dm(t), all by trapezoid
    quadrature on the slice grid.
    """
    k_slices = len(m_path) - 1
    times = horizon * np.arange(k_slices + 1) / k_slices
    dt = times[1] - times[0]
    velocity_arr = None if callable(velocity) else np.asarray(velocity, dtype=float)

    def b_at(k, positions):
        if velocity_arr is None:
            return np.asarray(velocity(positions, times[k]), dtype=float)
        return periodic_interp(positions, velocity_arr[k])

    worst = 0.0
    for _, f, df in bank.functions:
        integrals = np.array([m.integrate(f) for m in m_path])
        fluxes = np.array([
            float(np.sum(m.weights * df(m.positions) * b_at(k, m.positions)))
            for k, m in enumerate(m_path)
        ])
        for eta, deta in bank.envelopes(horizon):
            rhs_samples = deta(times) * integrals + eta(times) * fluxes
            rhs = trapezoid(rhs_samples, dt)
            lhs = float(eta(times[-1])) * integrals[-1]
            worst = max(worst, abs(lhs - rhs))
    return worst
