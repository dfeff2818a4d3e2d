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
index gather over the window; the argmin's neighbours and the sub-grid
value are read from the same wrapped copy.  One lookup of the argmin's
offset in a table of interior offsets gives both the velocity-cutoff
check and the lanes that may take the refinement.  An argmin on the
window's edge raises whenever that edge is the velocity cutoff, not the
antipode.  The wrapped copy and the cost block are scratch buffers that
every step overwrites, so one stepper must not be shared across threads.

The band.  Let kappa = dt K be the kinetic row, i0 its first argmin and
D = max_j |w[j + 1] - w[j]| around the circle.  On one lane the origins of
offsets i and i0 are |i - i0| nodes apart, so w differs there by at most
|i - i0| D, and offset i can tie or beat i0 only if its quotient
q_i = (kappa_i - kappa_i0) / |i - i0| is at most D.  The rounding margin,
with u = 2^-52: a computed gap is within a factor 1 + u of the exact one,
so exact gaps are at most D (1 + u) and every |w_j| <= W = |w_0| + n D;
each cost w + kappa is rounded by at most u (W + max|kappa|) / 2; and a
computed quotient is within a factor 1 + u of the exact one, with
q_i <= 2 max|kappa|.  Hence the computed cost at i exceeds the one at i0
on every lane once D (1 + u) + u (W + 3 max|kappa|) < q_i.  The step
computes the stronger reach = D (1 + 8u) + 16u (|w_0| + n D + max|kappa|),
whose slack also covers the rounding of reach itself, and excludes every
offset whose computed quotient exceeds it.  On each side of i0 the
threshold of the offset i0 +- r is the suffix minimum of the quotients
over the offsets at or beyond i0 +- r on that side; thresholds grow
outward, they are fixed per stepper, and two bisections of the reach
into them give the band lo .. hi outside which every offset is excluded.
An excluded offset loses strictly to i0 on every lane, so the global
minimum lies in the band, and the band's first argmin is the global first
argmin: every value and origin is bit-equal to the search of the whole
window.  A band that misses both window edges holds only interior
offsets, so its argmin needs no cutoff check.  When lo == hi the argmin
is i0 on every lane and the step scores the offsets i0 - 1 .. i0 + 1 with
one (3, n) add and no search; otherwise it adds only the band's columns
into an (n, hi - lo + 1) block.  A NaN or infinite D gives a reach that
no threshold exceeds, and the band is the whole window.

A long-horizon run of the same operator, the critical-value probe, gives
the critical value c0 of the Hamiltonian together with its stationary
(weak KAM) solution u0, the concave kinks of u0 and its stationary
residual, all in one CriticalValueResult and held to PROBE_TOL; probes of
shifted mechanical models give the alpha function.  When dt V takes one
value at every node, a uniform field steps to a uniform one by the same
increment, so the critical-value probe from phi = 0 takes one step and
scales it in place of the sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import MFGLabError
from .hamiltonians import VELOCITY_CUTOFF, HamiltonianModel, Mechanical
from .torus import grid, periodic_gradient, periodic_second_difference

T_PROBE_MIN = 20.0  # shortest probe over which the long-time slope settles
PROBE_TOL = 0.05    # largest oscillation of w + c0 t the probe accepts
ULP = 2.0 ** -52     # spacing of doubles at 1; the band rule's round-off unit


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

    A step first finds the band of offsets lo .. hi that can hold an
    argmin (the band rule, which the module docstring derives with its
    rounding margin).  A band of the one interior offset i0
    scores i0 - 1 .. i0 + 1 alone and writes nothing to the cost block;
    a wider band adds its hi - lo + 1 columns of the window into the block
    and searches them.  A stepper with s_star = -1 (a non-finite kinetic
    row) searches the whole window on every step.
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
        # wrapped[i] = w[(i - cells) % n]; row j of the window holds w at the
        # origins j - offsets, i.e. wrapped[j + 2 cells - i] for offset i
        self._wrapped = np.empty(self.n + 2 * cells)
        self._window = np.lib.stride_tricks.sliding_window_view(self._wrapped, m)[:, ::-1]
        self._block = np.empty(self.n * m)    # the (n, width) costs of a band
        # per offset k, edges clamped: the kinetic row at k - 1, k and k + 1
        # and the refinement's terms 0.5 (lp - lm) and 0.5 (lp - 2 lk + lm);
        # scaling by 0.5 is exact, so delta times a term equals
        # 0.5 delta (lp - lm) bit for bit
        padded = np.pad(self.kinetic, 1, mode="edge")
        lm, lk, lp = padded[:-2], padded[1:-1], padded[2:]
        self._terms = np.stack((lm, lk, lp, 0.5 * (lp - lm), 0.5 * (lp - 2.0 * lk + lm)))
        self._interior = np.abs(self.offsets) < cells        # offsets inside the window
        # the wrapped indices of the origins of offsets k - 1, k, k + 1 at k = 0
        self._origin3 = np.arange(self.n) + 2 * cells - np.array([[-1], [0], [1]])
        # the band: i0 is the kinetic row's first argmin; left[r - 1] and
        # right[r - 1] are the least quotient (K_j - K_i0) / |j - i0| over the
        # offsets j at or beyond i0 - r and i0 + r, and s_star = s* the least
        # of all; -1 turns the band off and every step searches the window
        self._i0 = i0 = int(self.kinetic.argmin())
        self._s_star = -1.0
        if np.isfinite(self.kinetic).all():
            climb = (self.kinetic - self.kinetic[i0]) / np.abs(np.arange(m) - i0).clip(1)
            self._left = np.minimum.accumulate(climb[:i0]).tolist()[::-1]
            self._right = np.minimum.accumulate(climb[:i0:-1]).tolist()[::-1]
            self._s_star = min(self._left[:1] + self._right[:1])
        self._kinetic_max = float(np.max(np.abs(self.kinetic)))
        if 0 < i0 < m - 1:
            # row i of the transposed window holds every lane's origin at
            # offset i; a band of one interior offset reads rows i0 - 1 .. i0 + 1
            self._rows3 = self._window.T[i0 - 1:i0 + 2]
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
        n, c, m = self.n, self.cells, self.offsets.size
        w = np.asarray(w, dtype=float)
        wrapped = self._wrapped
        wrapped[c:c + n] = w
        wrapped[:c] = wrapped[n:n + c]
        wrapped[c + n:] = wrapped[c:2 * c]
        lo, hi = self._band(float(w[0]))
        if lo == hi and 0 < lo < m - 1:
            rows = self._rows3
            terms = self._terms[:, lo]
            return self._refine(lo, True, rows + terms[:3, None], rows, terms, want_origins)
        width = hi + 1 - lo
        cost = np.add(self._window[:, lo:hi + 1], self.kinetic[lo:hi + 1],
                      out=self._block[:n * width].reshape(n, width))
        k = cost.argmin(axis=1)
        k += lo
        interior = True
        if lo == 0 or hi == m - 1:
            interior = self._interior[k]
            if self.boundary_is_cutoff and not interior.all():
                raise MFGLabError(
                    "Hopf-Lax argmin sits on the velocity search boundary"
                )
        # the argmin and its two neighbours, recomputed from the window as
        # the band's add computed them; on the window's edge a neighbour is
        # clipped or read from the next lane, and such a lane never takes
        # the refinement
        terms = self._terms.take(k, axis=1)
        origins_w = wrapped.take(self._origin3 - k, mode="clip")
        return self._refine(k, interior, origins_w + terms[:3], origins_w, terms,
                            want_origins)

    def _band(self, w0: float) -> tuple[int, int]:
        """The offsets lo .. hi that can hold a lane's argmin, for the field
        in the wrapped buffer whose value at node 0 is w0."""
        if self._s_star < 0.0:
            return 0, self.offsets.size - 1
        gaps = np.subtract(self._ahead, self._here, out=self._gaps)
        lip = float(np.abs(gaps, out=gaps).max())   # NaN or inf if w is not finite
        reach = lip * (1.0 + 8.0 * ULP) + 16.0 * ULP * (abs(w0) + self.n * lip
                                                      + self._kinetic_max)
        # a NaN or infinite reach compares below no threshold, so the
        # bisections reach both ends of the window
        i0 = self._i0
        return i0 - bisect_right(self._left, reach), i0 + bisect_right(self._right, reach)

    def _refine(self, k, interior, costs, origins_w, terms, want_origins):
        """The step's value and origins from the argmin k, the lanes that
        may take the refinement, the (3, n) costs and w at the offsets
        k - 1, k, k + 1, and the columns of the per-offset terms at k.  k,
        interior and terms are per lane, or one offset's and True."""
        cm, ck, cp = costs
        wm, wk, wp = origins_w
        _, lk, _, slope, curvature = terms
        denom = cp - 2.0 * ck + cm
        safe = denom > 1e-300
        if interior is not True:
            safe &= interior
        delta = np.zeros(ck.size)
        np.divide(0.5 * (cm - cp), denom, out=delta, where=safe)
        np.minimum(np.maximum(delta, -0.5, out=delta), 0.5, out=delta)

        # w is linear between the argmin origin and its neighbour on the
        # side of delta, which holds the refined origin x - disp
        w_ref = wk + np.abs(delta) * (np.where(delta > 0.0, wp, wm) - wk)
        l_ref = lk + delta * slope + delta**2 * curvature
        refined = w_ref + l_ref
        # the refinement wins only where it is strictly below the discrete
        # minimum: a lane off the refinement has refined == ck and keeps ck,
        # and so does a lane beside an infinite node, whose refinement is
        # inf / inf = NaN
        better = refined < ck
        w_next = np.where(better, refined, ck)
        w_next -= self.potential
        if not want_origins:
            return w_next, None
        shift = self.offsets[k]
        return w_next, np.where(better, (shift + delta) * self.dx, shift * self.dx)


def slice_count(t_final: float, dt: float) -> int:
    """Number of steps covering t_final; the horizon must sit on the grid."""
    steps_f = t_final / dt
    steps = int(round(steps_f))
    if steps < 1 or abs(steps_f - steps) > 1e-9 * max(1.0, steps_f):
        raise ValueError("horizon must be a positive integer multiple of dt")
    return steps


@dataclass
class SweepRecord:
    """Every slice w_0 .. w_L of one sweep and the argmin origin
    displacements of the L steps between them."""

    w: np.ndarray          # (L+1, N)
    origins: np.ndarray    # (L, N)


def sweep(stepper: HopfLaxStepper, phi: np.ndarray, steps: int,
          record: bool = False) -> tuple[np.ndarray, SweepRecord | None]:
    """Run `steps` Hopf-Lax steps from phi.

    Returns the final slice and, when `record` is set, a SweepRecord of
    every slice and every step's origins; otherwise None, and the
    evolution is dropped as it goes.  A caller that reads a few slices
    splits its run into sweeps that end there.
    """
    w = np.asarray(phi, dtype=float)
    if not record:
        for _ in range(steps):
            w = stepper.step(w)[0]
        return w, None
    rec = SweepRecord(np.empty((steps + 1, w.size)), np.empty((steps, w.size)))
    rec.w[0] = w
    for k in range(steps):
        w, rec.origins[k] = stepper.step(w, want_origins=True)
        rec.w[k + 1] = w
    return w, rec


@dataclass
class CriticalValueResult:
    c0: float
    oscillation: float
    u0: np.ndarray         # stationary solution, min u0 = 0
    kink_mask: np.ndarray  # True where the node is excluded as a kink
    residual: float        # max |H(x, Du0) - c0| over the nodes off the kinks


def critical_value(model: HamiltonianModel, t_probe: float, n: int, dt: float
                   ) -> CriticalValueResult:
    """Critical value and stationary solution from the long-time semigroup.

    Runs the semigroup from phi = 0, estimates c0 from the drop of the
    spatial mean between t_probe/2 and t_probe, and reports the
    oscillation of (w + c0 t) between those two probes as the
    convergence diagnostic, held to PROBE_TOL.  When dt V is one value at
    every node, each step adds the same uniform increment w1, so the
    slices at k steps are k w1 and one step replaces the sweep.

    The stationary solution is the long-time limit u0 = w(., t_probe) +
    c0 t_probe, normalised to min u0 = 0.  The stationary residual
    |H(x, Du0) - c0| uses centered differences; nodes whose second
    difference falls under -max(C_sc, 1), with C_sc the semiconcavity at
    t = 1, are concave kinks and are left out of its max.
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
        # three sweeps that end at the read slices; k_one <= half, except in
        # a one-step probe, whose half is 0
        w_one, _ = sweep(stepper, np.zeros(n), k_one)
        w_mid = sweep(stepper, w_one, half - k_one)[0] if half else np.zeros(n)
        w, _ = sweep(stepper, w_mid, steps - half)
    c_sc = semiconcavity_upper_bound(w_one, stepper.dx)
    t_mid = half * dt
    c0 = -(float(np.mean(w)) - float(np.mean(w_mid))) / (t_probe - t_mid)
    shifted = (w + c0 * t_probe) - (w_mid + c0 * t_mid)
    oscillation = float(np.max(shifted) - np.min(shifted))
    if oscillation > PROBE_TOL:
        raise MFGLabError(
            f"critical value diagnostic {oscillation:.3g} exceeds tol {PROBE_TOL:.3g}"
        )
    u0 = w + c0 * t_probe
    u0 = u0 - float(np.min(u0))
    residuals = np.abs(model.h(stepper.nodes, periodic_gradient(u0, stepper.dx)) - c0)
    kinks = periodic_second_difference(u0, stepper.dx) < -max(c_sc, 1.0)
    return CriticalValueResult(c0=c0, oscillation=oscillation, u0=u0, kink_mask=kinks,
                               residual=float(np.max(residuals[~kinks])))


def alpha_function(model: Mechanical, a: float, t_probe: float, n: int, dt: float
                   ) -> float:
    """Mather alpha function: critical value of H_a(x,p) = (p+a)^2/2 + V(x)."""
    if not isinstance(model, Mechanical):
        raise TypeError("alpha_function expects a mechanical model")
    shifted = Mechanical(shift=float(a), potential=model.potential)
    return critical_value(shifted, t_probe, n, dt).c0
