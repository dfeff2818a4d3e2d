"""Tonelli Hamiltonians on the circle: the mechanical and drifted
quadratic closed-form families and their Legendre duals.

All models expose H and its momentum derivative plus the two parts of
their Legendre dual, the kinetic row K(v) over velocities and the
potential column V(x) over nodes, each from exact formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MFGLabError
from .torus import grid, wrap

MOMENTUM_CUTOFF = 10.0
VELOCITY_CUTOFF = 10.0
SUPERLINEAR_SLOPE_MIN = 1.0
# sample grid of validate: nodes in x and momenta across [-P, P]
VALIDATE_NODES = 33
VALIDATE_MOMENTA = 41


class Potential:
    """Closed-form periodic potential V on the circle."""

    def __init__(self, name, fn):
        self.name = name
        self._fn = fn
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite V is refused below
            ends = float(fn(0.0)), float(fn(1.0))
        if not np.isfinite(ends).all():
            raise ValueError(f"potential invariant violated: '{name}' is not finite at "
                             f"x = 0 and 1, V = {ends}")
        # V(1) rounds at the scale of V's range: sin(pi) is 1.2e-16, not 0
        span = np.ptp(fn(grid(VALIDATE_NODES)))
        if abs(ends[0] - ends[1]) > 1e-12 * span:
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
    def from_name(cls, name: str):
        """Resolve the config ids 'zero', 'cosine', 'double-well(X, amp)'."""
        name = name.strip()
        if name == "zero":
            return cls.zero()
        if name == "cosine":
            return cls.cosine()
        if name.startswith("double-well(") and name.endswith(")"):
            try:
                args = [float(a) for a in name[len("double-well("):-1].split(",")]
            except ValueError:
                raise ValueError(f"could not convert the parameters of {name!r} "
                                 f"to numbers") from None
            if len(args) != 2:
                raise ValueError("double-well takes two parameters: (X, amp)")
            return cls.double_well(*args)
        raise ValueError(f"unknown potential id {name!r}")

    def value(self, x):
        return self._fn(wrap(x))


class HamiltonianModel:
    """Shared interface: H, its momentum derivative and the Legendre dual."""

    def h(self, x, p):
        raise NotImplementedError

    def dh_dp(self, x, p):
        raise NotImplementedError

    def lagrangian_parts(self, xs, vs) -> tuple[np.ndarray, np.ndarray]:
        """K(vs) and V(xs) of the Legendre dual L(x, v) = K(v) - V(x)."""
        raise NotImplementedError

    def validate(self) -> None:
        """Discrete superlinearity/convexity checks on a sample grid.

        Raises ValueError, in this order, when H is not finite there, when
        H(x, +-P) rises less than SUPERLINEAR_SLOPE_MIN * P above the least
        sampled H(x, .), or when a sampled second difference in p is not
        strictly positive.  Growth is measured from that minimum, so the
        potential's offset V(x) cancels; a minimum on the edge p = +-P
        fails the growth check.
        """
        cutoff = MOMENTUM_CUTOFF
        xs = grid(VALIDATE_NODES)
        ps = np.linspace(-cutoff, cutoff, VALIDATE_MOMENTA)
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite H is refused below
            hv = np.stack([self.h(xs, np.full(xs.shape, p)) for p in ps])
        if not np.isfinite(hv).all():
            raise ValueError(f"Hamiltonian invariant violated: H is not finite on the "
                             f"sample grid |p| <= {cutoff:g}")
        rise = (np.minimum(hv[-1], hv[0]) - hv.min(axis=0)) / cutoff
        if not np.all(rise >= SUPERLINEAR_SLOPE_MIN):
            raise ValueError(
                f"Hamiltonian grows too slowly at |p| = {cutoff}: min (H(x, +-P) - "
                f"min_p H(x, p))/P = {float(np.min(rise)):.3g} < {SUPERLINEAR_SLOPE_MIN}"
            )
        d2 = hv[2:] - 2.0 * hv[1:-1] + hv[:-2]
        if not np.all(d2 > 0.0):
            raise ValueError("Hamiltonian is not strictly convex in p on the sample grid")


def _check_velocity(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(v) > VELOCITY_CUTOFF):
        raise MFGLabError(
            f"|v| exceeds the velocity cutoff {VELOCITY_CUTOFF}; raise the cutoff if intended"
        )
    return v


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

    def lagrangian_parts(self, xs, vs):
        """K(v) = v^2/2 - a v and V(x), attained at p* = v - a."""
        vs = _check_velocity(vs)
        return 0.5 * vs**2 - self.shift * vs, self.potential.value(np.asarray(xs, dtype=float))


@dataclass(frozen=True)
class QuadraticDrift(HamiltonianModel):
    """H(x, p) = p^2 / 2 - p on the circle."""

    def h(self, x, p):
        p = np.asarray(p, dtype=float)
        return 0.5 * p**2 - p

    def dh_dp(self, x, p):
        return np.asarray(p, dtype=float) - 1.0

    def lagrangian_parts(self, xs, vs):
        """K(v) = (v + 1)^2 / 2 and V = 0, attained at p* = v + 1."""
        vs = _check_velocity(vs)
        return 0.5 * (vs + 1.0) ** 2, np.zeros(np.asarray(xs).size)
