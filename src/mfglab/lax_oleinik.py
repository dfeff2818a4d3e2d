"""Value-function evolution by the Lax-Oleinik semigroup on a circle grid.

The one-step operator minimises w(y) + dt L(x, (x-y)/dt) over candidate
origins y inside the velocity window, then sharpens the discrete argmin
with a parabolic sub-grid fit.  The refined candidate is re-scored with
linearly interpolated w plus a quadratic-in-v interpolation of L, which
keeps the operator monotone in w up to the refinement error and makes it
exact for velocity-quadratic Lagrangians on flat data.  L(x, v) =
K(v) - V(x) reads V at the arrival node, so V never moves the argmin: a
step minimises w(y) + dt K over the m offsets and subtracts dt V(x) last,
and a stepper holds the (m,) kinetic row, not a table per node.

A stepper reads the candidate origins through a strided (n, m) view of a
wrapped copy of w, so a step is a few whole-array numpy calls with no
index gather; the sub-grid value is read from the same window.  One
lookup of the argmin's offset in a table of interior offsets gives both
the velocity-cutoff check and the lanes that may take the refinement.  An
argmin on the window's edge raises whenever that edge is the velocity
cutoff, not the antipode.  The wrapped copy and the cost table are scratch
buffers that every step overwrites, so one stepper must not be shared
across threads.  With V = 0 a uniform field maps to a uniform one, so when
w is finite and bit-uniform the step runs lane 0 alone in Python floats,
by the vector step's operations in the same order, and spreads its result
over the circle.

Long-horizon runs of the same operator give the critical value of the
Hamiltonian, its stationary solution, and the alpha function of shifted
mechanical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError, VelocityCutoffError
from .hamiltonians import VELOCITY_CUTOFF, HamiltonianModel, Mechanical
from .torus import grid, periodic_gradient, periodic_second_difference

T_PROBE_MIN = 20.0  # shortest probe over which the long-time slope settles


def median(values: np.ndarray) -> float:
    """np.median of a 1-D float array, NaN if any value is NaN.

    The same partition and mean as np.median, without its NaN check, which
    imports numpy.ma on its first call.
    """
    size = values.size
    half = size // 2
    middle = [half] if size % 2 else [half - 1, half]
    part = np.partition(values, middle + [-1])    # NaN sorts to the end
    if np.isnan(part[-1]):
        return math.nan
    # np.median's mean of the middle values sums from +0.0, so -0.0 gives 0.0
    if size % 2:
        return 0.0 + float(part[half])
    return (0.0 + float(part[half - 1]) + float(part[half])) / 2


def semiconcavity_upper_bound(values: np.ndarray, dx: float) -> float:
    """Largest centered second difference away from concave kinks.

    A semiconcave function keeps its upper curvature bound across kinks,
    but the discrete argmin refinement leaves O(jump/dx) spikes on the
    nodes flanking a kink; the two nodes on each side are excluded.
    """
    d2 = periodic_second_difference(np.asarray(values, dtype=float), dx)
    scale = max(1.0, 5.0 * median(np.abs(d2)))
    concave = np.where(d2 < -scale)[0]
    mask = np.ones(d2.size, dtype=bool)
    for j in concave:
        mask[(j + np.arange(-2, 3)) % d2.size] = False
    if not np.any(mask):
        return float(np.max(d2))
    return float(np.max(d2[mask]))


class HopfLaxStepper:
    """Precomputed one-step Hopf-Lax operator for a fixed (model, n, dt).

    Not thread-safe: every step overwrites the stepper's scratch buffers.
    The arrays a step returns are fresh and stay valid after later steps.
    With V = 0 the one-lane step of a finite uniform field is exact: every
    lane reads the same costs and window, save the neighbours of an argmin
    on the window's edge, and such a lane never takes the refinement.  That
    lane runs in Python floats, in the vector step's order of operations,
    and writes none of the scratch buffers.
    """

    def __init__(self, model: HamiltonianModel, n: int, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.n = int(n)
        self.dt = float(dt)
        self.dx = 1.0 / self.n
        self.nodes = grid(self.n)

        cells = int(np.floor(VELOCITY_CUTOFF * self.dt / self.dx + 1e-12))
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
        velocities = self.offsets * (self.dx / self.dt)
        m = self.offsets.size
        kinetic, potential = model.lagrangian_parts(self.nodes, velocities)
        self.kinetic = self.dt * kinetic                    # (m,) dt K over the offsets
        self.potential = self.dt * potential                # (n,) dt V over the nodes
        # the window add is faster with a contiguous (n, m) tiling than a broadcast row
        self._kinetic_rows = np.tile(self.kinetic, (self.n, 1))
        # wrapped[i] = w[(i - cells) % n]; row j of the window holds w at the
        # origins j - offsets, i.e. wrapped[j + 2 cells - i] for offset i
        self._wrapped = np.empty(self.n + 2 * cells)
        self._window = np.lib.stride_tricks.sliding_window_view(self._wrapped, m)[:, ::-1]
        self._cost = np.empty((self.n, m))
        # the refinement's neighbour terms of the kinetic row at each k, edges
        # clamped: 0.5 (lp - lm) and 0.5 (lp - 2 lk + lm); scaling by 0.5 is
        # exact, so delta times a term equals 0.5 delta (lp - lm) bit for bit
        padded = np.pad(self.kinetic, 1, mode="edge")
        lm, lk, lp = padded[:-2], padded[1:-1], padded[2:]
        self._slope = 0.5 * (lp - lm)
        self._curvature = 0.5 * (lp - 2.0 * lk + lm)
        self._interior = np.abs(self.offsets) < cells        # offsets inside the window
        rows = np.arange(self.n)
        # flat indices of (j, k - 1), (j, k), (j, k + 1) at k = 0, and the
        # wrapped indices of the origins of those three offsets
        self._flat3 = rows * m + np.array([[-1], [0], [1]])
        self._origin3 = rows + 2 * cells + np.array([[1], [0], [-1]])
        # the kinetic rows as Python floats, for the scalar step of a uniform
        # field: only if every dt V is +0.0 by its bits, which the step's
        # subtraction leaves out exactly, and K finite, so that the first
        # Python min is numpy's first argmin
        self._lane = None
        if not self.potential.view(np.uint64).any() and np.isfinite(self.kinetic).all():
            self._lane = (self.kinetic.tolist(), self._slope.tolist(),
                          self._curvature.tolist(), self.offsets.tolist())

    def step(self, w: np.ndarray, want_origins: bool = False):
        """One Hopf-Lax step; optionally returns the origin displacements.

        Displacement d(x) means the minimising origin was y = x - d at the
        earlier slice.  Ties go to the smallest signed displacement.
        """
        n, c = self.n, self.cells
        w = np.asarray(w, dtype=float)
        if self._lane is not None:
            w0 = float(w[0])
            bits = w.view(np.uint64)
            if math.isfinite(w0) and w[-1] == w0 and (bits == bits[0]).all():
                value, origin = self._lane_step(w0)
                return np.full(n, value), np.full(n, origin) if want_origins else None
        wrapped = self._wrapped
        wrapped[c:c + n] = w
        wrapped[:c] = wrapped[n:n + c]
        wrapped[c + n:] = wrapped[c:2 * c]
        cost = np.add(self._window, self._kinetic_rows, out=self._cost)
        k = cost.argmin(axis=1)
        interior = self._interior[k]
        if self.boundary_is_cutoff and not interior.all():
            raise VelocityCutoffError(
                "Hopf-Lax argmin sits on the velocity search boundary"
            )
        # the argmin and its two neighbours; on the window's edge a
        # neighbour is clipped or read from the next row, and such a lane
        # never takes the refinement
        cm, ck, cp = cost.take(self._flat3 + k, mode="clip")
        wm, wk, wp = wrapped.take(self._origin3 - k, mode="clip")

        denom = cp - 2.0 * ck + cm
        safe = interior & (denom > 1e-300)
        delta = np.zeros(k.size)
        np.divide(0.5 * (cm - cp), denom, out=delta, where=safe)
        np.minimum(np.maximum(delta, -0.5, out=delta), 0.5, out=delta)

        # w is linear between the argmin origin and its neighbour on the
        # side of delta, which holds the refined origin x - disp
        w_ref = wk + np.abs(delta) * (np.where(delta > 0.0, wp, wm) - wk)
        l_ref = (self.kinetic.take(k) + delta * self._slope.take(k)
                 + delta**2 * self._curvature.take(k))
        refined = w_ref + l_ref
        # a lane off the refinement has delta = 0 and refined == ck; numpy's
        # minimum returns its second operand on a tie, so ck is kept there
        w_next = np.minimum(refined, ck)
        w_next -= self.potential
        if not want_origins:
            return w_next, None
        shift = self.offsets[k]
        return w_next, np.where(refined < ck, (shift + delta) * self.dx, shift * self.dx)

    def _lane_step(self, w0: float) -> tuple[float, float]:
        """Value and origin of every lane of the step of the field w = w0,
        by the vector step's operations on lane 0 in the same order.  All
        three neighbours' w equal w0, and w_ref keeps its product with
        w0 - w0 so that w0 = -0.0 comes out as 0.0 there too."""
        kinetic, slope, curvature, offsets = self._lane
        costs = [w0 + l for l in kinetic]
        ck = min(costs)
        k = costs.index(ck)                 # the first argmin, as numpy's
        last = len(costs) - 1
        interior = 0 < k < last
        if self.boundary_is_cutoff and not interior:
            raise VelocityCutoffError(
                "Hopf-Lax argmin sits on the velocity search boundary"
            )
        delta = 0.0
        if interior:                        # only such a lane is refined
            cm, cp = costs[k - 1], costs[k + 1]
            denom = cp - 2.0 * ck + cm
            if denom > 1e-300:
                delta = min(max(0.5 * (cm - cp) / denom, -0.5), 0.5)
        w_ref = w0 + abs(delta) * (w0 - w0)
        refined = w_ref + (kinetic[k] + delta * slope[k] + delta * delta * curvature[k])
        if refined < ck:
            return refined, (offsets[k] + delta) * self.dx
        return ck, offsets[k] * self.dx


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
    origin displacements of the L steps between them."""

    start: int
    w: np.ndarray          # (L+1, N)
    origins: np.ndarray    # (L, N)


def sweep(stepper: HopfLaxStepper, phi: np.ndarray, steps: int,
          windows=()) -> tuple[np.ndarray, list]:
    """Run `steps` Hopf-Lax steps from phi, keeping only what is asked for.

    Each (k0, k1) in `windows`, 0 <= k0 <= k1 <= steps, records the slices
    w_k0 .. w_k1 and the origins of the steps k0 -> k1; the rest of the
    evolution is dropped as it goes.  Returns the final slice and one
    SweepWindow per requested window, in order.
    """
    w = np.asarray(phi, dtype=float)
    records = []
    for k0, k1 in windows:
        if not 0 <= k0 <= k1 <= steps:
            raise ValueError(f"sweep window ({k0}, {k1}) outside 0..{steps}")
        records.append(SweepWindow(k0, np.empty((k1 - k0 + 1, w.size)),
                                   np.empty((k1 - k0, w.size))))
    bounds = [(rec, k0, k1) for rec, (k0, k1) in zip(records, windows)]
    for k in range(steps + 1):
        for rec, k0, k1 in bounds:
            if k0 <= k <= k1:
                rec.w[k - k0] = w
        if k == steps:
            break
        stepping = [(rec, k0) for rec, k0, k1 in bounds if k0 <= k < k1]
        w, origins = stepper.step(w, want_origins=bool(stepping))
        for rec, k0 in stepping:
            rec.origins[k - k0] = origins
    return w, records


@dataclass
class CriticalValueResult:
    c0: float
    oscillation: float
    t_probe: float
    n: int
    w_final: np.ndarray
    semiconcavity: float  # measured at t = 1


def critical_value(model: HamiltonianModel, t_probe: float, n: int, dt: float,
                   tol_c0: float = 0.05) -> CriticalValueResult:
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
    stepper = HopfLaxStepper(model, n, dt)
    w, (one, mid) = sweep(stepper, np.zeros(n), steps, [(k_one, k_one), (half, half)])
    c_sc = semiconcavity_upper_bound(one.w[0], stepper.dx)
    w_mid = mid.w[0]
    t_mid = half * dt
    c0 = -(float(np.mean(w)) - float(np.mean(w_mid))) / (t_probe - t_mid)
    shifted = (w + c0 * t_probe) - (w_mid + c0 * t_mid)
    oscillation = float(np.max(shifted) - np.min(shifted))
    result = CriticalValueResult(
        c0=c0, oscillation=oscillation, t_probe=t_probe, n=n,
        w_final=w, semiconcavity=c_sc,
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


def weak_kam_solution(model: HamiltonianModel, probe: CriticalValueResult
                      ) -> WeakKamResult:
    """Stationary solution u0 as the long-time limit w(., t) + c0 t.

    Normalised to min u0 = 0.  The stationary residual |H(x, Du0) - c0|
    uses centered differences; nodes whose second difference falls under
    -max(C_sc, 1) are concave kinks and are masked out of the report.
    """
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


def alpha_function(model: Mechanical, a: float, t_probe: float, n: int, dt: float,
                   tol_c0: float = 0.05) -> float:
    """Mather alpha function: critical value of H_a(x,p) = (p+a)^2/2 + V(x)."""
    if not isinstance(model, Mechanical):
        raise TypeError("alpha_function expects a mechanical model")
    shifted = Mechanical(shift=float(a), potential=model.potential)
    return critical_value(shifted, t_probe, n, dt, tol_c0).c0
