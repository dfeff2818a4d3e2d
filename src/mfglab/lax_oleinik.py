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
across threads.

The one-candidate rule.  Let kappa = dt K be the kinetic row, i0 its first
argmin and D = max_j |w[j + 1] - w[j]| around the circle.  On one lane the
origins of offsets i and i0 are |i - i0| nodes apart, so w differs there by
at most |i - i0| D, and offset i can tie or beat i0 only if kappa_i -
kappa_i0 <= |i - i0| D.  Let s* = min over i != i0 of (kappa_i - kappa_i0) /
|i - i0|, fixed per stepper and defined only for 0 < i0 < m - 1.  Then
D < s* makes i0 every lane's strict argmin in exact arithmetic, and the
step scores only the offsets i0 - 1 .. i0 + 1 with one (3, n) add, in
place of the (n, m) add, the argmin, the cutoff check and the neighbour
gathers; both paths share one refinement.  The rounding margin, with
u = 2^-52: a computed gap is within a factor 1 + u of the exact one, so
exact gaps are at most D (1 + u) and every |w_j| <= W = |w_0| + n D; each
cost w + kappa is rounded by at most u (W + max|kappa|) / 2; and each
computed quotient of s* is within a factor 1 + u of the exact one, with
s* <= 2 max|kappa|.  Hence every computed cost at i != i0 exceeds the one
at i0 once D (1 + u) + u (W + 3 max|kappa|) < s*.  The step tests the
stronger D (1 + 8u) + 16u (|w_0| + n D + max|kappa|) < s*, whose slack
also covers the rounding of the test itself, so the rule picks the argmin
that the full search would pick, and every result is bit-equal.  The test
is monotone in D and |w[1] - w[0]| <= D, so the step first tries that one
gap in Python floats and scans the circle only when it passes; on a rough
field the cheap failure spares the scan.  A NaN or infinite D fails the
test and takes the full search.

Long-horizon runs of the same operator give the critical value of the
Hamiltonian, its stationary solution, and the alpha function of shifted
mechanical models.  When dt V takes one value at every node, a uniform
field steps to a uniform one by the same increment, so the critical-value
probe from phi = 0 takes one step and scales it in place of the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError, VelocityCutoffError
from .hamiltonians import VELOCITY_CUTOFF, HamiltonianModel, Mechanical
from .torus import grid, periodic_gradient, periodic_second_difference

T_PROBE_MIN = 20.0  # shortest probe over which the long-time slope settles
ULP = 2.0 ** -52     # spacing of doubles at 1; the one-candidate rule's round-off unit


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

    A field whose largest neighbour gap D passes the one-candidate rule,
    D (1 + 8u) + 16u (|w_0| + n D + max|dt K|) < s*, has the kinetic row's
    interior first argmin i0 as every lane's argmin; s* is the least slope
    (dt K_i - dt K_i0) / |i - i0| and u = 2^-52 (the module docstring
    derives the margin).  Such a step scores the offsets i0 - 1 .. i0 + 1
    alone and writes no row of the cost buffer.
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
        # the one-candidate rule: i0 is the kinetic row's first argmin and
        # s_star = s* the least slope (K_i - K_i0) / |i - i0| that any
        # other offset climbs; -1 turns the rule off
        finite = bool(np.isfinite(self.kinetic).all())
        self._i0 = int(self.kinetic.argmin())
        self._s_star = -1.0
        self._kinetic_max = float(np.max(np.abs(self.kinetic)))
        if finite and 0 < self._i0 < m - 1:
            reach = np.abs(np.arange(m) - self._i0)
            others = reach > 0
            climb = (self.kinetic[others] - self.kinetic[self._i0]) / reach[others]
            self._s_star = float(climb.min())
            # row i of the transposed window holds every lane's origin at
            # offset i; the rule reads rows i0 - 1 .. i0 + 1 and K there
            self._rows3 = self._window.T[self._i0 - 1:self._i0 + 2]
            self._kinetic3 = self.kinetic[self._i0 - 1:self._i0 + 2, None]
        # neighbours on the circle: wrapped[c + 1 + j] - wrapped[c + j] for
        # j < n covers every pair, the wrap pair (w[n - 1], w[0]) included
        self._ahead = self._wrapped[cells + 1:cells + self.n + 1]
        self._here = self._wrapped[cells:cells + self.n]
        self._gaps = np.empty(self.n)

    def step(self, w: np.ndarray, want_origins: bool = False):
        """One Hopf-Lax step; optionally returns the origin displacements.

        Displacement d(x) means the minimising origin was y = x - d at the
        earlier slice.  Ties go to the smallest signed displacement.
        """
        n, c = self.n, self.cells
        w = np.asarray(w, dtype=float)
        w0 = float(w[0])
        wrapped = self._wrapped
        wrapped[c:c + n] = w
        wrapped[:c] = wrapped[n:n + c]
        wrapped[c + n:] = wrapped[c:2 * c]
        # |w[1] - w[0]| is one of the gaps that D bounds and the test is
        # monotone in D, so a pair that fails it spares the scan
        if self._one_candidate(abs(float(w[1]) - w0), w0):
            gaps = np.subtract(self._ahead, self._here, out=self._gaps)
            lip = float(np.abs(gaps, out=gaps).max())   # NaN or inf if w is not finite
            if self._one_candidate(lip, w0):
                rows = self._rows3
                return self._refine(self._i0, True, rows + self._kinetic3, rows, want_origins)
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
        return self._refine(k, interior, cost.take(self._flat3 + k, mode="clip"),
                            wrapped.take(self._origin3 - k, mode="clip"), want_origins)

    def _one_candidate(self, lip: float, w0: float) -> bool:
        """Whether i0 is every lane's first argmin, for a field whose
        neighbour gaps are at most lip and whose value at node 0 is w0."""
        return (lip * (1.0 + 8.0 * ULP) + 16.0 * ULP * (abs(w0) + self.n * lip
                                                      + self._kinetic_max)
                < self._s_star)

    def _refine(self, k, interior, costs, origins_w, want_origins):
        """The step's value and origins from the argmin k, the lanes that
        may take the refinement, and the (3, n) costs and w at the offsets
        k - 1, k, k + 1.  k and interior are per lane, or one offset and True."""
        cm, ck, cp = costs
        wm, wk, wp = origins_w
        denom = cp - 2.0 * ck + cm
        safe = interior & (denom > 1e-300)
        delta = np.zeros(ck.size)
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
    convergence diagnostic.  When dt V is one value at every node, each
    step adds the same uniform increment w1, so the slices at k steps are
    k w1 and one step replaces the sweep.
    """
    if t_probe < T_PROBE_MIN:
        raise ValueError(f"t_probe must be at least {T_PROBE_MIN:g}")
    steps = slice_count(t_probe, dt)
    half = steps // 2
    k_one = max(1, min(steps, int(round(1.0 / dt))))
    stepper = HopfLaxStepper(model, n, dt)
    if np.ptp(stepper.potential) == 0.0:
        w1 = stepper.step(np.zeros(n))[0]
        w, w_one, w_mid = steps * w1, k_one * w1, half * w1
    else:
        w, (one, mid) = sweep(stepper, np.zeros(n), steps,
                              [(k_one, k_one), (half, half)])
        w_one, w_mid = one.w[0], mid.w[0]
    c_sc = semiconcavity_upper_bound(w_one, stepper.dx)
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
