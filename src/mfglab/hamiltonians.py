"""Tonelli Hamiltonians on the circle: closed-form families, a tabulated
family and Legendre transforms.

All models expose H and its momentum derivative plus the Legendre dual
L(x, v) = sup_p <v, p> - H(x, p).  Closed families use exact formulas;
the tabulated family differentiates its own table and maximises by
golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MomentumCutoffError, VelocityCutoffError
from .torus import grid, periodic_interp, wrap

MOMENTUM_CUTOFF = 10.0
VELOCITY_CUTOFF = 10.0
SUPERLINEAR_SLOPE_MIN = 1.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo, hi, iterations: int = 60):
    """Maximise a unimodal function on [lo, hi] by golden-section search.

    Works elementwise when lo/hi are arrays and f is vectorised.
    Returns (argmax, max value).
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(iterations):
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        take_left = f(c) > f(d)
        hi = np.where(take_left, d, hi)
        lo = np.where(take_left, lo, c)
    xstar = 0.5 * (lo + hi)
    return xstar, f(xstar)


class Potential:
    """Periodic potential V on the circle, closed-form or sampled."""

    def __init__(self, name, fn=None, samples=None):
        self.name = name
        self._fn = fn
        self._samples = None
        if samples is not None:
            samples = np.asarray(samples, dtype=float)
            if samples.ndim != 1 or samples.size < 4:
                raise ValueError("potential samples must be a 1-d array, >= 4 points")
            self._samples = samples
        if fn is not None and abs(float(fn(0.0)) - float(fn(1.0))) > 1e-12:
            raise ValueError(f"potential '{name}' is not periodic: V(0) != V(1)")

    @classmethod
    def zero(cls):
        return cls("zero", fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)))

    @classmethod
    def cosine(cls):
        return cls(
            "cosine",
            fn=lambda x: np.cos(2.0 * np.pi * np.asarray(x, dtype=float)),
        )

    @classmethod
    def double_well(cls, x_second: float = 0.5, amplitude: float = 1.0):
        """V(x) = -amp sin^2(pi x) sin^2(pi (x - X)); maxima V=0 at 0 and X."""
        xs, amp = float(x_second), float(amplitude)

        def fn(x):
            x = np.asarray(x, dtype=float)
            return -amp * np.sin(np.pi * x) ** 2 * np.sin(np.pi * (x - xs)) ** 2

        return cls(f"double-well({xs},{amp})", fn=fn)

    @classmethod
    def from_samples(cls, samples, closed: bool = False):
        """Build from uniform samples; `closed` tables carry both endpoints
        and must satisfy V(0) = V(1) within 1e-12."""
        samples = np.asarray(samples, dtype=float)
        if closed:
            if abs(samples[0] - samples[-1]) > 1e-12:
                raise ValueError("sampled potential is not periodic: V(0) != V(1)")
            samples = samples[:-1]
        return cls("sampled", samples=samples)

    @classmethod
    def from_name(cls, name: str):
        """Resolve the config ids 'zero', 'cosine', 'double-well(X, amp)'."""
        name = name.strip()
        if name == "zero":
            return cls.zero()
        if name == "cosine":
            return cls.cosine()
        if name.startswith("double-well(") and name.endswith(")"):
            args = [float(a) for a in name[len("double-well("):-1].split(",")]
            if len(args) != 2:
                raise ValueError("double-well takes two parameters: (X, amp)")
            return cls.double_well(*args)
        raise ValueError(f"unknown potential id {name!r}")

    def value(self, x):
        if self._fn is not None:
            return self._fn(wrap(x))
        return periodic_interp(x, self._samples)


class HamiltonianModel:
    """Shared interface: H, its momentum derivative and the Legendre dual."""

    momentum_cutoff = MOMENTUM_CUTOFF
    velocity_cutoff = VELOCITY_CUTOFF

    def h(self, x, p):
        raise NotImplementedError

    def dh_dp(self, x, p):
        raise NotImplementedError

    def lagrangian(self, x, v):
        raise NotImplementedError

    def lagrangian_table(self, xs, vs) -> np.ndarray:
        """L(x_j, v_i) as an (len(vs), len(xs)) array."""
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        out = np.empty((vs.size, xs.size))
        for i, v in enumerate(vs):
            out[i], _ = self.lagrangian(xs, np.full(xs.shape, v))
        return out

    def validate(self, n_x: int = 33, n_p: int = 41,
                 slope_min: float = SUPERLINEAR_SLOPE_MIN) -> None:
        """Discrete convexity/superlinearity checks on a sample grid.

        Raises ValueError when a sampled second difference in p is not
        strictly positive or when H(x, +-P)/P falls under slope_min.
        """
        cutoff = self.momentum_cutoff
        xs = grid(n_x)
        ps = np.linspace(-cutoff, cutoff, n_p)
        hv = np.stack([self.h(xs, np.full(xs.shape, p)) for p in ps])
        d2 = hv[2:] - 2.0 * hv[1:-1] + hv[:-2]
        if not np.all(d2 > 0.0):
            raise ValueError("Hamiltonian is not strictly convex in p on the sample grid")
        top = np.minimum(hv[-1], hv[0]) / cutoff
        if not np.all(top >= slope_min):
            raise ValueError(
                f"Hamiltonian grows too slowly at |p| = {cutoff}: "
                f"min H(x, +-P)/P = {float(np.min(top)):.3g} < {slope_min}"
            )


def _check_velocity(v, cutoff):
    if np.any(np.abs(np.asarray(v, dtype=float)) > cutoff):
        raise VelocityCutoffError(
            f"|v| exceeds the velocity cutoff {cutoff}; raise the cutoff if intended"
        )


@dataclass(frozen=True)
class Mechanical(HamiltonianModel):
    """H(x, p) = (p + a)^2 / 2 + V(x) with a momentum shift a."""

    shift: float = 0.0
    potential: Potential = field(default_factory=Potential.zero)

    def h(self, x, p):
        p = np.asarray(p, dtype=float)
        return 0.5 * (p + self.shift) ** 2 + self.potential.value(x)

    def dh_dp(self, x, p):
        return np.asarray(p, dtype=float) + self.shift

    def lagrangian(self, x, v):
        """L(x, v) = v^2/2 - a v - V(x); maximiser p* = v - a."""
        _check_velocity(v, self.velocity_cutoff)
        v = np.asarray(v, dtype=float)
        lval = 0.5 * v**2 - self.shift * v - self.potential.value(x)
        return lval, v - self.shift

    def lagrangian_table(self, xs, vs):
        vs = np.asarray(vs, dtype=float)
        _check_velocity(vs, self.velocity_cutoff)
        kinetic = 0.5 * vs**2 - self.shift * vs
        return kinetic[:, None] - self.potential.value(np.asarray(xs, dtype=float))[None, :]


@dataclass(frozen=True)
class QuadraticDrift(HamiltonianModel):
    """H(x, p) = p^2 / 2 - p on the circle."""

    def h(self, x, p):
        p = np.asarray(p, dtype=float)
        return 0.5 * p**2 - p

    def dh_dp(self, x, p):
        return np.asarray(p, dtype=float) - 1.0

    def lagrangian(self, x, v):
        """L(v) = (v + 1)^2 / 2; maximiser p* = v + 1."""
        _check_velocity(v, self.velocity_cutoff)
        v = np.asarray(v, dtype=float)
        lval = 0.5 * (v + 1.0) ** 2
        return lval, v + 1.0

    def lagrangian_table(self, xs, vs):
        vs = np.asarray(vs, dtype=float)
        _check_velocity(vs, self.velocity_cutoff)
        kinetic = 0.5 * (vs + 1.0) ** 2
        return np.repeat(kinetic[:, None], np.asarray(xs).size, axis=1)


class TabulatedConvex(HamiltonianModel):
    """H given by samples on the (x, p) grid T^1 x [-P, P].

    dH/dp uses central differences with step equal to the table spacing;
    the Legendre dual maximises p |-> v p - H(x, p) by
    golden-section search.
    """

    def __init__(self, h_values, momentum_cutoff: float = MOMENTUM_CUTOFF):
        h_values = np.asarray(h_values, dtype=float)
        if h_values.ndim != 2:
            raise ValueError("h_values must be (n_x, n_p)")
        self.h_values = h_values
        self.momentum_cutoff = float(momentum_cutoff)
        self.n_x, self.n_p = h_values.shape
        self.dp = 2.0 * self.momentum_cutoff / (self.n_p - 1)

    def h(self, x, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        cutoff = self.momentum_cutoff
        if np.any(np.abs(p) > cutoff + 1e-12):
            raise MomentumCutoffError(f"|p| exceeds the table range [{-cutoff}, {cutoff}]")
        tx = (x % 1.0) * self.n_x
        ix = np.floor(tx).astype(int) % self.n_x
        fx = tx - np.floor(tx)
        tp = np.clip((p + cutoff) / self.dp, 0.0, self.n_p - 1.0)
        ip = np.minimum(np.floor(tp).astype(int), self.n_p - 2)
        fp = tp - ip
        jx = (ix + 1) % self.n_x
        v00 = self.h_values[ix, ip]
        v01 = self.h_values[ix, ip + 1]
        v10 = self.h_values[jx, ip]
        v11 = self.h_values[jx, ip + 1]
        return ((1 - fx) * ((1 - fp) * v00 + fp * v01)
                + fx * ((1 - fp) * v10 + fp * v11))

    def dh_dp(self, x, p):
        h = self.dp
        p = np.asarray(p, dtype=float)
        pm = np.clip(p - h, -self.momentum_cutoff, self.momentum_cutoff)
        pp = np.clip(p + h, -self.momentum_cutoff, self.momentum_cutoff)
        return (self.h(x, pp) - self.h(x, pm)) / (pp - pm)

    def lagrangian(self, x, v):
        _check_velocity(v, self.velocity_cutoff)
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        x_b, v_b = np.broadcast_arrays(x, v)
        cutoff = self.momentum_cutoff

        def objective(p):
            return v_b * p - self.h(x_b, p)

        lo = np.full(v_b.shape, -cutoff)
        hi = np.full(v_b.shape, cutoff)
        pstar, lval = golden_section_max(objective, lo, hi)
        if np.any(np.abs(pstar) >= cutoff - self.dp):
            raise MomentumCutoffError(
                "Legendre maximiser hit the momentum boundary; the cutoff is too small"
            )
        return lval, pstar

    def lagrangian_table(self, xs, vs):
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        xg = np.broadcast_to(xs[None, :], (vs.size, xs.size))
        vg = np.broadcast_to(vs[:, None], (vs.size, xs.size))
        lval, _ = self.lagrangian(xg, vg)
        return lval

    def validate(self, n_x: int = 33, n_p: int = 41,
                 slope_min: float = SUPERLINEAR_SLOPE_MIN) -> None:
        # check the table itself: every sampled second difference in p
        d2 = self.h_values[:, 2:] - 2.0 * self.h_values[:, 1:-1] + self.h_values[:, :-2]
        if not np.all(d2 > 0.0):
            raise ValueError("tabulated Hamiltonian is not strictly convex in p")
        top = np.minimum(self.h_values[:, -1], self.h_values[:, 0]) / self.momentum_cutoff
        if not np.all(top >= slope_min):
            raise ValueError("tabulated Hamiltonian grows too slowly at the momentum cutoff")
