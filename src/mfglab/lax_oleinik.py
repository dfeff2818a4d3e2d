"""Value-function evolution by the Lax-Oleinik semigroup on a circle grid.

The one-step operator minimises w(y) + dt L(x, (x-y)/dt) over candidate
origins y inside the velocity window, then sharpens the discrete argmin
with a parabolic sub-grid fit.  The refined candidate is re-scored with
linearly interpolated w plus a quadratic-in-v interpolation of L, which
keeps the operator monotone in w up to the refinement error and makes it
exact for velocity-quadratic Lagrangians on flat data.

A stepper reads the candidate origins through a strided (n, m) view of a
wrapped copy of w, so a step is a few whole-array numpy calls with no
index gather; the sub-grid value is read from the same window.  The
refinement's Lagrangian terms 0.5 (lp - lm) and 0.5 (lp - 2 lk + lm) at
every (node, offset) are static tables built with the stepper, and one
lookup of the argmin's offset in a table of interior offsets gives both the
velocity-cutoff check and the lanes that may take the refinement.  The
wrapped copy and the cost table are scratch buffers that every step
overwrites, so one stepper must not be shared across threads.

Long-horizon runs of the same operator give the minimal action between
points, the critical value of the Hamiltonian, its stationary solution,
and the alpha function of shifted mechanical models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError, VelocityCutoffError
from .hamiltonians import HamiltonianModel, Mechanical
from .torus import (
    cumulative_trapezoid,
    grid,
    periodic_gradient,
    periodic_second_difference,
)

SOFT_INDICATOR_HEIGHT = 1.0e6
T_PROBE_MIN = 20.0  # shortest probe over which the long-time slope settles


def time_index(times: np.ndarray, t: float) -> int:
    """Index of time t on the uniform slice grid `times`."""
    k = int(round((t - times[0]) / (times[1] - times[0])))
    if not 0 <= k < times.size:
        raise IndexError(f"time {t} outside the sampled range")
    if abs(times[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the slice grid")
    return k


def semiconcavity_upper_bound(values: np.ndarray, dx: float,
                              guard_radius: int = 2) -> float:
    """Largest centered second difference away from concave kinks.

    A semiconcave function keeps its upper curvature bound across kinks,
    but the discrete argmin refinement leaves O(jump/dx) spikes on the
    nodes flanking a kink; those neighbourhoods are excluded.
    """
    d2 = periodic_second_difference(np.asarray(values, dtype=float), dx)
    scale = max(1.0, 5.0 * float(np.median(np.abs(d2))))
    concave = np.where(d2 < -scale)[0]
    mask = np.ones(d2.size, dtype=bool)
    for j in concave:
        mask[(j + np.arange(-guard_radius, guard_radius + 1)) % d2.size] = False
    if not np.any(mask):
        return float(np.max(d2))
    return float(np.max(d2[mask]))


@dataclass
class ValueField:
    """Space-time samples of a value function on the uniform circle grid."""

    times: np.ndarray   # (K+1,)
    nodes: np.ndarray   # (N,)
    values: np.ndarray  # (K+1, N)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dx(self) -> float:
        return 1.0 / self.nodes.size

    def slice_index(self, t: float) -> int:
        return time_index(self.times, t)

    def slice_at(self, t: float) -> np.ndarray:
        return self.values[self.slice_index(t)]

    def lipschitz_constant(self, k: int) -> float:
        w = self.values[k]
        return float(np.max(np.abs(np.roll(w, -1) - w)) / self.dx)

    def semiconcavity_constant(self, k: int, exclude_kink_artifacts: bool = True) -> float:
        if exclude_kink_artifacts:
            return semiconcavity_upper_bound(self.values[k], self.dx)
        return float(np.max(periodic_second_difference(self.values[k], self.dx)))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,x,w\n")
            for k, t in enumerate(self.times):
                for j, x in enumerate(self.nodes):
                    fh.write(f"{t:.17g},{x:.17g},{self.values[k, j]:.17g}\n")


class HopfLaxStepper:
    """Precomputed one-step Hopf-Lax operator for a fixed (model, n, dt).

    Not thread-safe: every step overwrites the stepper's scratch buffers.
    The arrays a step returns are fresh and stay valid after later steps.
    """

    def __init__(self, model: HamiltonianModel, n: int, dt: float, vmax: float | None = None,
                 strict_boundary: bool = True):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.model = model
        self.n = int(n)
        self.dt = float(dt)
        self.strict_boundary = bool(strict_boundary)
        self.vmax = float(model.velocity_cutoff if vmax is None else vmax)
        self.dx = 1.0 / self.n
        self.nodes = grid(self.n)

        cells = int(np.floor(self.vmax * self.dt / self.dx + 1e-12))
        half = (self.n - 1) // 2
        # when the velocity window spans the half circle the search boundary
        # is the antipode, not the cutoff, and may legitimately hold the argmin
        self.boundary_is_cutoff = cells <= half
        cells = min(cells, half)
        if cells < 1:
            raise ValueError(
                "velocity window smaller than one grid cell; "
                "increase dt, n or the velocity cutoff"
            )
        self.cells = cells
        self.offsets = np.arange(-cells, cells + 1)          # ascending signed cells
        self.velocities = self.offsets * (self.dx / self.dt)
        m = self.offsets.size
        # (n, m): row j holds dt L(x_j, v_i) over the offsets i
        self.cost_l = np.ascontiguousarray(
            (self.dt * model.lagrangian_table(self.nodes, self.velocities)).T)
        # wrapped[i] = w[(i - cells) % n]; row j of the window holds w at the
        # origins j - offsets, i.e. wrapped[j + 2 cells - i] for offset i
        self._wrapped = np.empty(self.n + 2 * cells)
        self._window = np.lib.stride_tricks.sliding_window_view(self._wrapped, m)[:, ::-1]
        self._cost = np.empty((self.n, m))
        # the refinement's neighbour terms of cost_l at each (j, k), edges
        # clamped: 0.5 (lp - lm) and 0.5 (lp - 2 lk + lm); scaling by 0.5 is
        # exact, so delta times a term equals 0.5 delta (lp - lm) bit for bit
        padded = np.pad(self.cost_l, ((0, 0), (1, 1)), mode="edge")
        lm, lk, lp = padded[:, :-2], padded[:, 1:-1], padded[:, 2:]
        self._slope = 0.5 * (lp - lm)
        self._curvature = 0.5 * (lp - 2.0 * lk + lm)
        self._interior = np.ones(m, dtype=bool)              # offsets inside the window
        self._interior[[0, -1]] = False
        rows = np.arange(self.n)
        # flat indices of (j, k - 1), (j, k), (j, k + 1) at k = 0, and the
        # wrapped indices of the origins of those three offsets
        self._flat3 = rows * m + np.array([[-1], [0], [1]])
        self._origin3 = rows + 2 * cells + np.array([[1], [0], [-1]])

    def step(self, w: np.ndarray, want_origins: bool = False):
        """One Hopf-Lax step; optionally returns the origin displacements.

        Displacement d(x) means the minimising origin was y = x - d at the
        earlier slice.  Ties go to the smallest signed displacement.
        """
        n, c = self.n, self.cells
        wrapped = self._wrapped
        wrapped[c:c + n] = w
        wrapped[:c] = wrapped[n:n + c]
        wrapped[c + n:] = wrapped[c:2 * c]
        cost = np.add(self._window, self.cost_l, out=self._cost)
        k = cost.argmin(axis=1)
        interior = self._interior[k]
        if self.strict_boundary and self.boundary_is_cutoff and not interior.all():
            raise VelocityCutoffError(
                "Hopf-Lax argmin sits on the velocity search boundary"
            )
        # the argmin and its two neighbours; on the window's edge a
        # neighbour is clipped or read from the next row, and such a lane
        # never takes the refinement
        flat3 = self._flat3 + k
        flat = flat3[1]
        cm, ck, cp = cost.take(flat3, mode="clip")
        wm, wk, wp = wrapped.take(self._origin3 - k, mode="clip")

        denom = cp - 2.0 * ck + cm
        safe = interior & (denom > 1e-300)
        delta = np.zeros(n)
        np.divide(0.5 * (cm - cp), denom, out=delta, where=safe)
        np.minimum(np.maximum(delta, -0.5, out=delta), 0.5, out=delta)

        # w is linear between the argmin origin and its neighbour on the
        # side of delta, which holds the refined origin x - disp
        w_ref = wk + np.abs(delta) * (np.where(delta > 0.0, wp, wm) - wk)
        l_ref = (self.cost_l.take(flat) + delta * self._slope.take(flat)
                 + delta**2 * self._curvature.take(flat))
        refined = w_ref + l_ref
        # a lane off the refinement has delta = 0 and refined == ck; numpy's
        # minimum returns its second operand on a tie, so ck is kept there
        w_next = np.minimum(refined, ck)
        if not want_origins:
            return w_next, None
        shift = self.offsets[k]
        origins = np.where(refined < ck, (shift + delta) * self.dx, shift * self.dx)
        return w_next, origins


def slice_count(t_final: float, dt: float) -> int:
    """Number of steps covering t_final; the horizon must sit on the grid."""
    steps_f = t_final / dt
    steps = int(round(steps_f))
    if steps < 1 or abs(steps_f - steps) > 1e-9 * max(1.0, steps_f):
        raise ValueError("horizon must be a positive integer multiple of dt")
    return steps


@dataclass
class SweepWindow:
    """Slices w_k for k = start .. start + L of one sweep, and the argmin
    origin displacements of the L steps between them (None when the sweep
    was run without origins)."""

    start: int
    w: np.ndarray                  # (L+1, N)
    origins: np.ndarray | None     # (L, N)


def sweep(stepper: HopfLaxStepper, phi: np.ndarray, steps: int, windows=(),
          with_origins: bool = True) -> tuple[np.ndarray, list]:
    """Run `steps` Hopf-Lax steps from phi, keeping only what is asked for.

    Each (k0, k1) in `windows`, 0 <= k0 <= k1 <= steps, records the slices
    w_k0 .. w_k1 and, with_origins, the origins of the steps k0 -> k1; the
    rest of the evolution is dropped as it goes.  Returns the final slice
    and one SweepWindow per requested window, in order.
    """
    w = np.asarray(phi, dtype=float)
    records = []
    for k0, k1 in windows:
        if not 0 <= k0 <= k1 <= steps:
            raise ValueError(f"sweep window ({k0}, {k1}) outside 0..{steps}")
        records.append(SweepWindow(k0, np.empty((k1 - k0 + 1, w.size)),
                                   np.empty((k1 - k0, w.size)) if with_origins else None))
    bounds = [(rec, k0, k1) for rec, (k0, k1) in zip(records, windows)]
    for k in range(steps + 1):
        for rec, k0, k1 in bounds:
            if k0 <= k <= k1:
                rec.w[k - k0] = w
        if k == steps:
            break
        stepping = [(rec, k0) for rec, k0, k1 in bounds if with_origins and k0 <= k < k1]
        w, origins = stepper.step(w, want_origins=bool(stepping))
        for rec, k0 in stepping:
            rec.origins[k - k0] = origins
    return w, records


def evolve(phi: np.ndarray, t_final: float, model: HamiltonianModel, dt: float,
           source=None, vmax: float | None = None,
           strict_boundary: bool = True) -> ValueField:
    """Iterate the Hopf-Lax step from phi up to t_final.

    `source` is an x-independent forcing s(t) (callable or array sampled on
    the slice grid); its cumulative trapezoid integral is added slice-wise,
    so the pure semigroup corresponds to source=None.
    """
    phi = np.asarray(phi, dtype=float)
    steps = slice_count(t_final, dt)
    stepper = HopfLaxStepper(model, phi.size, dt, vmax, strict_boundary)
    _, (rec,) = sweep(stepper, phi, steps, [(0, steps)], with_origins=False)
    values = rec.w
    times = dt * np.arange(steps + 1)
    if source is not None:
        samples = source(times) if callable(source) else np.asarray(source, dtype=float)
        if samples.shape != times.shape:
            raise ValueError("source samples must match the slice grid")
        values += cumulative_trapezoid(samples, dt)[:, None]
    return ValueField(times=times, nodes=stepper.nodes, values=values)


def minimal_action(model: HamiltonianModel, x: float, y: float, t: float,
                   n: int = 512, dt: float = 2e-3,
                   big: float = SOFT_INDICATOR_HEIGHT) -> float:
    """Minimal action h_t(x, y) between grid-snapped endpoints.

    Computed by evolving a soft indicator (0 at x, `big` elsewhere) and
    reading the slice at y; an O(grid spacing) approximation of the exact
    infimum over curves.
    """
    if t < dt:
        raise ValueError("t must be at least one time step")
    phi = np.full(n, big)
    phi[int(round((x % 1.0) * n)) % n] = 0.0
    # the indicator cliff saturates the window at the plateau edge, which is
    # harmless for endpoints whose optimal speed stays below the cutoff
    field = evolve(phi, t, model, dt, strict_boundary=False)
    j = int(round((y % 1.0) * n)) % n
    return float(field.values[-1, j])


@dataclass
class CriticalValueResult:
    c0: float
    oscillation: float
    t_probe: float
    n: int
    dt: float
    w_final: np.ndarray
    w_mid: np.ndarray
    semiconcavity: float  # measured at t = 1

    def __float__(self) -> float:
        return self.c0


def critical_value(model: HamiltonianModel, t_probe: float = 50.0, n: int = 512,
                   dt: float = 2e-3, tol_c0: float = 0.05,
                   vmax: float | None = None) -> CriticalValueResult:
    """Critical value from the long-time slope of the semigroup.

    Runs the semigroup from phi = 0, estimates c0 from the drop of the
    spatial mean between t_probe/2 and t_probe, and reports the
    oscillation of (w + c0 t) between those two probes as the
    convergence diagnostic.
    """
    if t_probe < T_PROBE_MIN:
        raise ValueError(f"t_probe must be at least {T_PROBE_MIN:g}")
    steps = slice_count(t_probe, dt)
    half = steps // 2
    k_one = max(1, min(steps, int(round(1.0 / dt))))
    stepper = HopfLaxStepper(model, n, dt, vmax)
    w, (one, mid) = sweep(stepper, np.zeros(n), steps, [(k_one, k_one), (half, half)])
    c_sc = semiconcavity_upper_bound(one.w[0], stepper.dx)
    w_mid = mid.w[0]
    t_mid = half * dt
    c0 = -(float(np.mean(w)) - float(np.mean(w_mid))) / (t_probe - t_mid)
    shifted = (w + c0 * t_probe) - (w_mid + c0 * t_mid)
    oscillation = float(np.max(shifted) - np.min(shifted))
    result = CriticalValueResult(
        c0=c0, oscillation=oscillation, t_probe=t_probe, n=n, dt=dt,
        w_final=w, w_mid=w_mid, semiconcavity=c_sc,
    )
    if oscillation > tol_c0:
        raise NotConvergedError(
            f"critical value diagnostic {oscillation:.3g} exceeds tol {tol_c0:.3g}"
        )
    return result


@dataclass
class WeakKamResult:
    u0: np.ndarray
    gradient: np.ndarray
    residuals: np.ndarray
    kink_mask: np.ndarray  # True where the node is excluded as a kink
    c0: float

    def max_residual(self) -> float:
        keep = ~self.kink_mask
        return float(np.max(self.residuals[keep]))


def weak_kam_solution(model: HamiltonianModel, c0: float | None = None,
                      t_probe: float = 50.0, n: int = 512, dt: float = 2e-3,
                      tol_c0: float = 0.05, probe: CriticalValueResult | None = None
                      ) -> WeakKamResult:
    """Stationary solution u0 as the long-time limit w(., t) + c0 t.

    Normalised to min u0 = 0.  The stationary residual |H(x, Du0) - c0|
    uses centered differences; nodes whose second difference falls under
    -max(C_sc, 1) are concave kinks and are masked out of the report.
    """
    if probe is None:
        probe = critical_value(model, t_probe, n, dt, tol_c0)
    if c0 is None:
        c0 = probe.c0
    u0 = probe.w_final + c0 * probe.t_probe
    u0 = u0 - float(np.min(u0))
    dx = 1.0 / probe.n
    du0 = periodic_gradient(u0, dx)
    residuals = np.abs(model.h(grid(probe.n), du0) - c0)
    threshold = -max(probe.semiconcavity, 1.0)
    kinks = periodic_second_difference(u0, dx) < threshold
    return WeakKamResult(u0=u0, gradient=du0, residuals=residuals,
                         kink_mask=kinks, c0=c0)


def alpha_function(model: Mechanical, a: float, t_probe: float = 20.0,
                   n: int = 256, dt: float = 2e-3, tol_c0: float = 0.05) -> float:
    """Mather alpha function: critical value of H_a(x,p) = (p+a)^2/2 + V(x)."""
    if not isinstance(model, Mechanical):
        raise TypeError("alpha_function expects a mechanical model")
    shifted = Mechanical(shift=float(a), potential=model.potential)
    return critical_value(shifted, t_probe, n, dt, tol_c0).c0
