import copy
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import simpson

from mfglab.errors import MFGLabError
from mfglab.hamiltonians import Mechanical, Potential, QuadraticDrift
from mfglab.lax_oleinik import (
    HopfLaxStepper,
    alpha_function,
    critical_value,
    median,
    semiconcavity_upper_bound,
    slice_count,
    sweep,
)
from mfglab.torus import (
    grid,
    periodic_gradient,
    periodic_interp,
    periodic_second_difference,
)


def _slices(phi, steps, model, dt):
    """Every slice w_0 .. w_steps of the Hopf-Lax evolution from phi."""
    stepper = HopfLaxStepper(model, phi.size, dt)
    return sweep(stepper, phi, steps, record=True)[1].w


def test_step_preserves_rest_state(free_model, qd_model):
    for model in (free_model, qd_model):
        for dt in (1e-3, 1e-2):
            out = HopfLaxStepper(model, 128, dt).step(np.zeros(128))[0]
            assert np.max(np.abs(out)) < 1e-14


def test_step_matches_fine_grid_hopf_lax(free_model):
    n, dt = 512, 0.1
    xs = grid(n)
    phi = np.cos(2 * np.pi * xs)
    out = HopfLaxStepper(free_model, n, dt).step(phi)[0]
    zf = grid(10 * n)
    dist = np.abs((xs[:, None] - zf[None, :] + 0.5) % 1.0 - 0.5)
    brute = np.min(np.cos(2 * np.pi * zf)[None, :] + dist**2 / (2 * dt), axis=1)
    assert np.max(np.abs(out - brute)) < 1e-4


def test_step_raises_on_window_boundary(qd_model):
    xs = grid(128)
    steep = 5.0 * np.cos(2 * np.pi * xs)  # slopes ~ 31 exceed the cutoff 10
    # a steep rise and a gentle fall hit one side of the window only
    ramp = 2.0 * np.interp(xs, [0.0, 0.1, 1.0], [0.0, 1.0, 0.0])
    for w in (steep, ramp, ramp[::-1]):
        with pytest.raises(MFGLabError, match="velocity search boundary"):
            HopfLaxStepper(qd_model, 128, 2e-3).step(w)[0]


def test_step_ties_go_to_the_smallest_displacement(free_model):
    stepper = HopfLaxStepper(free_model, 64, 5e-3)
    w = np.zeros(64)
    w[10] = 1.0  # node 10 reaches its neighbours 9 and 11 at equal cost
    origins = stepper.step(w, want_origins=True)[1]
    assert origins[10] == -stepper.dx


def test_evolve_semigroup_property(qd_model, smooth_values_128):
    """200 steps equal 125 steps followed by 75 more from the slice reached."""
    stepper = HopfLaxStepper(qd_model, 128, 2e-3)
    w_full, _ = sweep(stepper, smooth_values_128, 200)
    w_mid, _ = sweep(stepper, smooth_values_128, 125)
    w_tail, _ = sweep(stepper, w_mid, 75)
    assert np.max(np.abs(w_tail - w_full)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, 64, elements=st.floats(-1.0, 1.0)))
def test_step_value_does_not_depend_on_origins(cosine_model, w):
    stepper = HopfLaxStepper(cosine_model, *_ORACLE_GRIDS[3])
    with_origins, origins = stepper.step(w, want_origins=True)
    plain, none = stepper.step(w)
    assert none is None and origins.shape == w.shape
    assert np.array_equal(with_origins, plain)


def _reference_step(stepper, w, want_origins=False):
    """The step as an (m, n) index gather with periodic_interp re-scoring;
    the oracle the windowed HopfLaxStepper.step must reproduce."""
    offsets, n, dx = stepper.offsets, stepper.n, stepper.dx
    kinetic = stepper.kinetic
    gather = (np.arange(n)[None, :] - offsets[:, None]) % n
    cost = w[gather] + kinetic[:, None]
    k = np.argmin(cost, axis=0)
    m = offsets.size
    if stepper.boundary_is_cutoff and (np.any(k == 0) or np.any(k == m - 1)):
        raise MFGLabError("Hopf-Lax argmin sits on the velocity search boundary")
    jj = np.arange(n)
    ck = cost[k, jj]
    interior = (k > 0) & (k < m - 1)
    km = np.where(interior, k - 1, k)
    kp = np.where(interior, k + 1, k)
    cm = cost[km, jj]
    cp = cost[kp, jj]
    denom = cp - 2.0 * ck + cm
    safe = interior & (denom > 1e-300)
    delta = np.where(safe, 0.5 * (cm - cp) / np.where(safe, denom, 1.0), 0.0)
    delta = np.clip(delta, -0.5, 0.5)
    disp = (offsets[k] + delta) * dx
    w_ref = periodic_interp(stepper.nodes - disp, w)
    lm = kinetic[km]
    lk = kinetic[k]
    lp = kinetic[kp]
    l_ref = lk + 0.5 * delta * (lp - lm) + 0.5 * delta**2 * (lp - 2.0 * lk + lm)
    refined = w_ref + l_ref
    use = safe & (refined < ck)
    w_next = np.where(use, refined, ck) - stepper.potential
    if not want_origins:
        return w_next, None
    return w_next, np.where(use, disp, offsets[k] * dx)


_ORACLE_MODELS = {
    "quadratic-drift": QuadraticDrift(),
    "cosine-shifted": Mechanical(1.6, Potential.cosine()),
    "free-shifted": Mechanical(0.7, Potential.zero()),
}
# (n, dt): window of 3, 2 and 6 cells against the velocity cutoff, and one
# window clamped to the half circle, whose boundary may hold the argmin
_ORACLE_GRIDS = ((64, 5e-3), (128, 2e-3), (96, 6.5e-3), (64, 0.2))


def _stepper(model_name, grid_index):
    n, dt = _ORACLE_GRIDS[grid_index]
    return HopfLaxStepper(_ORACLE_MODELS[model_name], n, dt)


def _field(data, n):
    """Random field: a smooth wave plus node noise of a drawn amplitude."""
    noise = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    amp = data.draw(st.sampled_from([0.0, 1e-3, 0.05, 1.0]))
    wave = data.draw(st.floats(-2.0, 2.0))
    return wave * np.cos(2 * np.pi * grid(n)) + amp * noise


def _discrete_min_plus(stepper, w):
    """min over offsets of w(x - offset dx) + dt K, minus dt V(x), by brute force."""
    return np.min([np.roll(w, off) + stepper.kinetic[i]
                   for i, off in enumerate(stepper.offsets)], axis=0) - stepper.potential


def _step_or_error(step, *args):
    """The step with origins, or None where it hits the velocity cutoff;
    any other failure propagates."""
    try:
        return step(*args, want_origins=True)
    except MFGLabError as err:
        if "velocity search boundary" not in str(err):
            raise
        return None


@settings(max_examples=150, deadline=None)
@given(model_name=st.sampled_from(sorted(_ORACLE_MODELS)),
       grid_index=st.integers(0, len(_ORACLE_GRIDS) - 1),
       data=st.data())
def test_step_matches_gather_reference(model_name, grid_index, data):
    """Values agree with the gather oracle to round-off, the velocity-cutoff
    error is raised in exactly the same cases, and origins are bit-equal
    except where the refined value ties the discrete minimum to round-off:
    there the two round-offs may take different sides of the tie."""
    stepper = _stepper(model_name, grid_index)
    if grid_index == len(_ORACLE_GRIDS) - 1:
        assert not stepper.boundary_is_cutoff
    w = _field(data, stepper.n)
    new = _step_or_error(HopfLaxStepper.step, stepper, w)
    ref = _step_or_error(_reference_step, stepper, w)
    assert (new is None) == (ref is None)
    if new is None:
        return
    tol = 1e-12 * (1.0 + np.max(np.abs(w)))
    assert np.max(np.abs(new[0] - ref[0])) <= tol
    moved = new[1] != ref[1]
    disc = _discrete_min_plus(stepper, w)[moved]
    assert np.all(np.abs(new[0][moved] - disc) <= tol)
    assert np.all(np.abs(new[1][moved] - ref[1][moved]) <= 0.5 * stepper.dx)


def _windowed_step(stepper, w, want_origins=False):
    """The one-pass windowed step before its refinement terms were tabled:
    the per-step clamped neighbour gather and np.where selection, kept as
    the oracle the current step must reproduce bit for bit.  Re-frozen for
    the separable Lagrangian K(v) - V(x): the cost adds the kinetic row
    dt K and the value subtracts the potential column dt V last, since the
    step no longer adds dt (K - V) in one table and the two orders round
    apart when V is not zero."""
    n, c, m = stepper.n, stepper.cells, stepper.offsets.size
    wrapped = np.concatenate((w[n - c:], w, w[:c]))
    window = np.lib.stride_tricks.sliding_window_view(wrapped, m)[:, ::-1]
    cost = window + stepper.kinetic
    k = cost.argmin(axis=1)
    if stepper.boundary_is_cutoff and (k.min() == 0 or k.max() == m - 1):
        raise MFGLabError("Hopf-Lax argmin sits on the velocity search boundary")
    k3 = np.stack((np.maximum(k - 1, 0), k, np.minimum(k + 1, m - 1)))
    flat = k3 + np.arange(n) * m
    cm, ck, cp = cost.take(flat)
    lm, lk, lp = stepper.kinetic.take(k3)
    wm, wk, wp = wrapped.take(np.arange(n) + 2 * c - k3)
    interior = (k > 0) & (k < m - 1)
    denom = cp - 2.0 * ck + cm
    safe = interior & (denom > 1e-300)
    delta = np.where(safe, 0.5 * (cm - cp) / np.where(safe, denom, 1.0), 0.0)
    delta = np.minimum(np.maximum(delta, -0.5), 0.5)
    w_ref = wk + np.abs(delta) * (np.where(delta > 0.0, wp, wm) - wk)
    l_ref = lk + 0.5 * delta * (lp - lm) + 0.5 * delta**2 * (lp - 2.0 * lk + lm)
    refined = w_ref + l_ref
    use = safe & (refined < ck)
    w_next = np.where(use, refined, ck) - stepper.potential
    if not want_origins:
        return w_next, None
    shift = stepper.offsets[k]
    return w_next, np.where(use, (shift + delta) * stepper.dx, shift * stepper.dx)


def _bit_equal(a, b):
    """Equal arrays down to the sign of zero."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(model_name=st.sampled_from(sorted(_ORACLE_MODELS)),
       grid_index=st.integers(0, len(_ORACLE_GRIDS) - 1),
       data=st.data())
def test_step_bit_equals_windowed_oracle(model_name, grid_index, data):
    """Values and origins bit-equal the frozen windowed step, with and
    without origins, and the velocity-cutoff error comes in the same cases."""
    stepper = _stepper(model_name, grid_index)
    w = _field(data, stepper.n)
    new = _step_or_error(HopfLaxStepper.step, stepper, w)
    ref = _step_or_error(_windowed_step, stepper, w)
    assert (new is None) == (ref is None)
    if new is None:
        return
    assert _bit_equal(new[0], ref[0]) and _bit_equal(new[1], ref[1])
    assert _bit_equal(stepper.step(w)[0], ref[0])


@pytest.mark.parametrize("model_name", sorted(_ORACLE_MODELS))
def test_sweep_from_rest_bit_equals_windowed_oracle(model_name):
    """Sweeps from phi = 0, whose flat start puts ties in the argmin and in
    the refinement, step by step against the frozen windowed step: 500
    steps on an oracle grid, and the benchmark's probe grid, n = 512 and
    dt = 0.004 over 5000 steps, where the uniform value of an x-independent
    Lagrangian crosses binades."""
    model = _ORACLE_MODELS[model_name]
    for n, dt, steps in (_ORACLE_GRIDS[1] + (500,), (512, 4e-3, 5000)):
        stepper = HopfLaxStepper(model, n, dt)
        w_new = w_ref = np.zeros(n)
        for _ in range(steps):
            w_new, origins_new = stepper.step(w_new, want_origins=True)
            w_ref, origins_ref = _windowed_step(stepper, w_ref, want_origins=True)
            assert _bit_equal(w_new, w_ref) and _bit_equal(origins_new, origins_ref)


# Lagrangians that do not depend on x; the shift 12 puts the argmin of a
# uniform field past every window, on the velocity cutoff of the first three
# grids and on the antipode of the half-circle grid
_X_INDEPENDENT = {
    "quadratic-drift": _ORACLE_MODELS["quadratic-drift"],
    "free-shifted": _ORACLE_MODELS["free-shifted"],
    "free-past-cutoff": Mechanical(12.0, Potential.zero()),
}


@settings(max_examples=150, deadline=None)
@given(model_name=st.sampled_from(sorted(_X_INDEPENDENT)),
       grid_index=st.integers(0, len(_ORACLE_GRIDS) - 1),
       value=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e300, 1e300]),
                       st.floats(-1e6, 1e6)),
       data=st.data())
def test_uniform_field_bit_equals_windowed_oracle(model_name, grid_index, value, data):
    """A uniform field on an x-independent Lagrangian, and the same field
    one ulp off in one lane: values and origins bit-equal the frozen
    windowed step, with and without origins, and the velocity-cutoff error
    comes in the same cases."""
    n, dt = _ORACLE_GRIDS[grid_index]
    stepper = HopfLaxStepper(_X_INDEPENDENT[model_name], n, dt)
    w = np.full(n, value)
    if data.draw(st.booleans()):
        lane = data.draw(st.integers(0, n - 1))
        w[lane] = np.nextafter(value, data.draw(st.sampled_from([-np.inf, np.inf])))
    new = _step_or_error(HopfLaxStepper.step, stepper, w)
    ref = _step_or_error(_windowed_step, stepper, w)
    assert (new is None) == (ref is None)
    if model_name == "free-past-cutoff":
        assert (new is None) == stepper.boundary_is_cutoff
    if new is None:
        return
    assert _bit_equal(new[0], ref[0]) and _bit_equal(new[1], ref[1])
    assert _bit_equal(stepper.step(w)[0], ref[0])


U = 2.0 ** -52   # spacing of doubles at 1


def _neighbour_gap(w):
    """Largest |w[j + 1] - w[j]| around the circle, as the step scans it."""
    return float(np.max(np.abs(np.roll(w, -1) - w)))


def _reach(stepper, w):
    """The band rule's padded gap bound of w as the module docstring
    states it: D (1 + 8u) + 16u (|w_0| + n D + max|dt K|)."""
    lip = _neighbour_gap(w)
    return lip * (1.0 + 8.0 * U) + 16.0 * U * (abs(float(w[0])) + stepper.n * lip
                                              + float(np.max(np.abs(stepper.kinetic))))


def _thresholds(stepper):
    """Each offset j != i0 with its threshold, the least quotient
    (dt K_i - dt K_i0) / |i - i0| over the offsets i on j's side of the
    kinetic row's first argmin i0 with |i - i0| >= |j - i0|."""
    kinetic = stepper.kinetic
    i0, m = int(np.argmin(kinetic)), kinetic.size
    side = np.arange(m) - i0
    quotient = (kinetic - kinetic[i0]) / np.maximum(np.abs(side), 1)
    return {j: float(np.min(quotient[(side * side[j] > 0) & (np.abs(side) >= abs(side[j]))]))
            for j in range(m) if j != i0}


def _band_of(stepper, w):
    """The offsets lo .. hi that the band rule lets hold an argmin for w:
    i0 and every offset whose threshold the reach does not stay under."""
    reach = _reach(stepper, w)
    inside = [int(np.argmin(stepper.kinetic))]
    inside += [j for j, t in _thresholds(stepper).items() if not reach < t]
    return min(inside), max(inside)


def _block_entries_written(stepper, w):
    """Entries of the band's cost block that a step of w writes, checked
    to be the same with and without origins."""
    counts = set()
    for want_origins in (False, True):
        stepper._block.fill(np.nan)
        stepper.step(w, want_origins=want_origins)
        counts.add(int((~np.isnan(stepper._block)).sum()))
    (count,) = counts
    return count


def test_uniform_step_writes_no_cost_row(qd_model, cosine_model):
    """A step writes n entries of the cost block per offset of its band
    and nothing else, and a band of one interior offset writes none.  A
    uniform field and a field one ulp off uniform on the x-independent
    drifted quadratic, a gentle wave and a uniform field under a cosine
    potential take one offset; a rough wave on the drifted quadratic and a
    steep one under the cosine potential take a band inside the window
    (m = 5 offsets here), the steep wave on the drifted quadratic a band
    on the window's edge, and a field with an infinite node the whole window."""
    n = 128
    uniform = np.full(n, 0.3)
    ulp_off = uniform.copy()
    ulp_off[77] = np.nextafter(0.3, 1.0)
    wave = 0.3 + 0.01 * np.cos(2 * np.pi * grid(n))
    rough = 0.3 + 0.2 * np.cos(2 * np.pi * grid(n))
    steep = 0.3 + 0.5 * np.cos(2 * np.pi * grid(n))
    gap = wave.copy()
    gap[5] = np.inf
    one, inside, edge = "one", "inside", "edge"
    cases = ((qd_model, uniform, one), (qd_model, ulp_off, one), (qd_model, wave, one),
             (cosine_model, uniform, one), (qd_model, rough, inside),
             (cosine_model, steep, inside), (qd_model, steep, edge), (qd_model, gap, edge))
    for model, w, regime in cases:
        stepper = HopfLaxStepper(model, n, 2e-3)
        lo, hi = _band_of(stepper, w)
        m = stepper.offsets.size
        seen = one if lo == hi else inside if 0 < lo and hi < m - 1 else edge
        assert seen == regime
        with np.errstate(invalid="ignore"):      # inf - inf beside the infinite node
            written = _block_entries_written(stepper, w)
            origins = stepper.step(w, want_origins=True)[1]
            assert _bit_equal(origins, _windowed_step(stepper, w, want_origins=True)[1])
        assert written == (0 if regime == one else n * (hi + 1 - lo))
        assert stepper._band(float(w[0])) == (lo, hi)   # the buffer holds w now


class _ConstantPotential:
    """A model's kinetic part with V = value at every node; the model's own
    V must be zero."""

    def __init__(self, model, value):
        self.model, self.value = model, value

    def h(self, xs, ps):
        return self.model.h(xs, ps) + self.value

    def lagrangian_parts(self, xs, vs):
        kinetic, potential = self.model.lagrangian_parts(xs, vs)
        return kinetic, np.full_like(potential, self.value)


def _count_steps(monkeypatch):
    """A list that grows by one entry on every HopfLaxStepper.step call."""
    calls = []
    step = HopfLaxStepper.step

    def counted(self, w, want_origins=False):
        calls.append(self.n)
        return step(self, w, want_origins)

    monkeypatch.setattr(HopfLaxStepper, "step", counted)
    return calls


def test_uniform_potential_bit_equals_windowed_oracle(monkeypatch):
    """Potential.double_well(X, 0) is -0.0 at every node: for it, for +0.0
    and for any V that is one value at every node, uniform fields step
    bit-equal to the frozen windowed step over the benchmark's probe grid
    n = 512, dt = 0.004, and the critical-value probe takes one step."""
    n, dt = 512, 4e-3
    negative_zero = Mechanical(0.0, Potential.from_name("double-well(0.5,0)"))
    models = (negative_zero, Mechanical(0.0, Potential.zero()),
              _ConstantPotential(QuadraticDrift(), 0.25),
              _ConstantPotential(Mechanical(0.7, Potential.zero()), -3.0))
    assert np.signbit(HopfLaxStepper(negative_zero, n, dt).potential).all()
    calls = _count_steps(monkeypatch)
    for model in models:
        stepper = HopfLaxStepper(model, n, dt)
        # at -1e300 every offset ties, the first argmin is on the cutoff and
        # the step, whose reach now spans the window, scores all m offsets
        for value in (0.0, -0.0, 0.3, -1e300):
            w = np.full(n, value)
            stepper._block.fill(np.nan)
            new = _step_or_error(HopfLaxStepper.step, stepper, w)
            written = int((~np.isnan(stepper._block)).sum())
            assert written == (stepper._block.size if value == -1e300 else 0)
            ref = _step_or_error(_windowed_step, stepper, w)
            assert (new is None) == (ref is None) == (value == -1e300)
            if new is not None:
                assert _bit_equal(new[0], ref[0]) and _bit_equal(new[1], ref[1])
                assert _bit_equal(stepper.step(w)[0], ref[0])
        calls.clear()
        probe = critical_value(model, 20.0, n, dt)
        assert calls == [n] and probe.oscillation == 0.0


_CLOSED_FORM_GRIDS = ((512, 4e-3), (256, 2e-3), (64, 5e-3))


@pytest.mark.parametrize("n, dt", _CLOSED_FORM_GRIDS)
def test_uniform_potential_probe_is_one_step(monkeypatch, cosine_model, n, dt):
    """With dt V one value at every node the probe takes one step from
    phi = 0 and scales it.  Mechanical(a, zero) gives c0 within 4 ulp of
    the exact a^2 / 2 of the double a, the drifted quadratic gives
    |c0| <= 1e-15, and each agrees with the slope of a stepped sweep of the
    same stepper to 1e-11 (1 + |c0|).  A cosine V still sweeps every step."""
    t_probe = 20.0
    steps = slice_count(t_probe, dt)
    half = steps // 2
    calls = _count_steps(monkeypatch)
    for a in (0.7, -1.3, 3.3, None):
        model = QuadraticDrift() if a is None else Mechanical(a, Potential.zero())
        calls.clear()
        c0 = critical_value(model, t_probe, n, dt).c0
        assert len(calls) == 1
        if a is None:
            assert abs(c0) <= 1e-15
        else:
            exact = Fraction(a) ** 2 / 2
            assert abs(Fraction(c0) - exact) <= 4 * Fraction(np.spacing(float(exact)))
        stepper = HopfLaxStepper(model, n, dt)
        w_mid, _ = sweep(stepper, np.zeros(n), half)
        w, _ = sweep(stepper, w_mid, steps - half)
        swept = -(float(np.mean(w)) - float(np.mean(w_mid))) / (t_probe - half * dt)
        assert abs(c0 - swept) <= 1e-11 * (1.0 + abs(c0))
    calls.clear()
    critical_value(cosine_model, t_probe, n, dt)
    assert len(calls) == steps


def _float_key(x):
    """An integer that orders doubles as their values do, one step per ulp."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _key_float(key):
    """The double of a _float_key."""
    bits = key if key >= 0 else -key | -0x8000000000000000
    return float(np.int64(bits).view(np.float64))


def _first_key(lo, hi, holds):
    """Smallest key in lo .. hi at which the monotone predicate holds."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _band_field(stepper, data):
    """A field whose reach sits just below, at or just above one drawn
    threshold, any offset's: a wave, or a wave plus node noise, at half
    the threshold's gap, whose top node is raised to the double where the
    reach crosses it (at level 0 the reach can land on the threshold).  Then optionally an exact tie on one lane between two
    of i0, the band's edges and the offsets just past them, a shift to
    |w| ~ 1e300, or non-finite nodes."""
    n, offsets = stepper.n, stepper.offsets
    target = data.draw(st.sampled_from(sorted(set(_thresholds(stepper).values()))))
    base = np.cos(2 * np.pi * data.draw(st.integers(1, 3)) * grid(n)
                  + data.draw(st.floats(0.0, 1.0)))
    if data.draw(st.booleans()):
        base += data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    base = np.roll(base, n // 2 - int(np.argmax(base)))   # the top node away from node 0
    # the top node at the drawn level, so at level 0 its ulps are finer than the target's
    w = (base - base.max()) * (0.5 * target / _neighbour_gap(base)) + data.draw(
        st.sampled_from([0.0, 0.0, 0.3, -7.0, 1e6]))
    top = n // 2
    # raising the top node widens its two gaps, so the reach grows with it
    low, high = _float_key(w[top]), _float_key(w[top] + 4.0 * target + 1.0)

    def reach_at(key):
        w[top] = _key_float(key)
        return _reach(stepper, w)

    side = data.draw(st.sampled_from(["below", "at", "above"]))
    key = _first_key(low, high, lambda k: not reach_at(k) < target)
    if side == "below":
        key -= 1
    elif side == "above":
        key = _first_key(key, high, lambda k: reach_at(k) > target)
    reach_at(key)
    twist = data.draw(st.sampled_from(["none", "none", "tie", "huge", "nan", "inf"]))
    if twist == "tie":
        lo, hi = _band_of(stepper, w)
        i0 = int(np.argmin(stepper.kinetic))
        edges = sorted({i for i in (i0, lo, hi, lo - 1, hi + 1) if 0 <= i < offsets.size})
        a, b = data.draw(st.permutations(edges))[:2] if len(edges) > 1 else (i0, i0)
        lane = data.draw(st.integers(0, n - 1))
        ya, yb = (lane - offsets[a]) % n, (lane - offsets[b]) % n
        ka, kb = stepper.kinetic[a], stepper.kinetic[b]
        w[yb] = (w[ya] + ka) - kb
        for _ in range(4):                  # walk w[yb] onto the exact tie
            gap_to_tie = (w[yb] + kb) - (w[ya] + ka)
            if gap_to_tie == 0.0:
                break
            w[yb] = np.nextafter(w[yb], -np.inf if gap_to_tie > 0.0 else np.inf)
    elif twist == "huge":
        w = np.float64(data.draw(st.sampled_from([1e300, -1e300]))) + w
    elif twist in ("nan", "inf"):
        bad = {"nan": np.nan, "inf": data.draw(st.sampled_from([np.inf, -np.inf]))}[twist]
        w[data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))] = bad
    return w


_BAND_MODELS = {**_ORACLE_MODELS, "free-past-cutoff": _X_INDEPENDENT["free-past-cutoff"]}


@settings(max_examples=300, deadline=None)
@given(model_name=st.sampled_from(sorted(_BAND_MODELS)),
       grid_index=st.integers(0, len(_ORACLE_GRIDS) - 1),
       data=st.data())
def test_one_candidate_step_bit_equals_windowed_oracle(model_name, grid_index, data):
    """With the reach just below, at or just above any offset's threshold,
    bands on either window edge (the drifted free model's i0 is on the
    cutoff), exact ties between band-edge offsets, |w| ~ 1e300 and
    non-finite nodes: the step takes the band that the thresholds give,
    and its values and origins bit-equal the same stepper with the band
    rule turned off and the frozen windowed step, with and without
    origins; the velocity-cutoff error comes in the same cases."""
    n, dt = _ORACLE_GRIDS[grid_index]
    stepper = HopfLaxStepper(_BAND_MODELS[model_name], n, dt)
    full = copy.copy(stepper)
    full._s_star = -1.0
    w = _band_field(stepper, data)
    with np.errstate(all="ignore"):
        new = _step_or_error(HopfLaxStepper.step, stepper, w)
        assert stepper._band(float(w[0])) == _band_of(stepper, w)
        plain = None if new is None else stepper.step(w)[0]
        for ref_step in (full.step, partial(_windowed_step, stepper)):
            ref = _step_or_error(ref_step, w)
            assert (new is None) == (ref is None)
            if new is not None:
                assert _bit_equal(new[0], ref[0]) and _bit_equal(new[1], ref[1])
                assert _bit_equal(plain, ref[0])


@settings(max_examples=150, deadline=None)
@given(shift=st.sampled_from([0.0, 1.6, -0.7]),
       potential=st.sampled_from(["cosine", "double-well(0.5,1)"]),
       grid_index=st.integers(0, len(_ORACLE_GRIDS)),
       data=st.data())
def test_potential_shifts_values_not_origins(shift, potential, grid_index, data):
    """V(x) is read at the arrival node, so against the same shift with
    V = 0 a step's values move by exactly -dt V(x), bit for bit, its origins
    not at all, and the velocity-cutoff error comes in the same cases; on
    the oracle grids and the benchmark's probe grid n = 512, dt = 0.004."""
    n, dt = (_ORACLE_GRIDS + ((512, 4e-3),))[grid_index]
    stepper = HopfLaxStepper(Mechanical(shift, Potential.from_name(potential)), n, dt)
    flat = HopfLaxStepper(Mechanical(shift, Potential.zero()), n, dt)
    w = _field(data, n)
    new = _step_or_error(HopfLaxStepper.step, stepper, w)
    ref = _step_or_error(HopfLaxStepper.step, flat, w)
    assert (new is None) == (ref is None)
    if new is None:
        return
    drop = dt * Potential.from_name(potential).value(grid(n))
    assert _bit_equal(new[0], ref[0] - drop) and _bit_equal(new[1], ref[1])


def test_stepper_holds_no_per_node_lagrangian():
    """A built stepper holds one (n, m) array, the band's cost block, and
    no (n, m) Lagrangian table per node."""
    n, dt = 4096, 1e-3
    model = Mechanical(1.6, Potential.cosine())
    tracemalloc.start()
    try:
        stepper = HopfLaxStepper(model, n, dt)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2.5 * n * stepper.offsets.size * 8


def test_step_results_outlive_the_next_step(cosine_model):
    stepper = HopfLaxStepper(cosine_model, 128, 2e-3)
    xs = grid(128)
    w_next, origins = stepper.step(0.3 * np.cos(2 * np.pi * xs), want_origins=True)
    kept = w_next.copy(), origins.copy()
    stepper.step(0.3 * np.sin(2 * np.pi * xs), want_origins=True)
    assert np.array_equal(w_next, kept[0]) and np.array_equal(origins, kept[1])


@settings(max_examples=60, deadline=None)
@given(w=arrays(np.float64, 64, elements=st.floats(-1.0, 1.0)),
       c=st.floats(-100.0, 100.0))
def test_step_commutes_with_constants(w, c):
    stepper = _stepper("cosine-shifted", 3)
    gap = stepper.step(w + c)[0] - stepper.step(w)[0] - c
    assert np.max(np.abs(gap)) <= 1e-12 * (1.0 + abs(c))


@settings(max_examples=60, deadline=None)
@given(w=arrays(np.float64, 64, elements=st.floats(-1.0, 1.0)),
       bump=arrays(np.float64, 64, elements=st.floats(0.0, 1.0)),
       model_name=st.sampled_from(sorted(_ORACLE_MODELS)))
def test_step_monotone_up_to_its_refinement(w, bump, model_name):
    """step(w + bump) >= step(w) - r with r = disc(w + bump) - step(w + bump)
    the refinement's own gain; plain monotonicity fails on rough w."""
    stepper = _stepper(model_name, 3)
    lower = stepper.step(w)[0]
    upper = stepper.step(w + bump)[0]
    r = _discrete_min_plus(stepper, w + bump) - upper
    assert np.min(r) >= 0.0
    assert np.min(upper - lower + r) >= -1e-12 * (1.0 + np.max(np.abs(w)))


@pytest.mark.parametrize("steps", [0, 1, 40])
def test_sweep_matches_a_step_loop(cosine_model, smooth_values_128, steps):
    """A recorded sweep's slices and origins, and an unrecorded sweep's
    end, equal those of a plain step loop bit for bit."""
    stepper = HopfLaxStepper(cosine_model, 128, 2e-3)
    values, origins = [smooth_values_128], []
    for _ in range(steps):
        w, d = stepper.step(values[-1], want_origins=True)
        values.append(w)
        origins.append(d)
    w_end, rec = sweep(stepper, smooth_values_128, steps, record=True)
    assert np.array_equal(w_end, values[-1])
    assert np.array_equal(rec.w, np.array(values))
    assert np.array_equal(rec.origins, np.array(origins).reshape(steps, 128))
    w_plain, none = sweep(stepper, smooth_values_128, steps)
    assert none is None and np.array_equal(w_plain, values[-1])


def test_evolve_monotone(qd_model, smooth_values_128):
    xs = grid(128)
    bump = 0.05 * (1.0 + np.sin(2 * np.pi * xs))
    lower = _slices(smooth_values_128, 100, qd_model, 2e-3)
    upper = _slices(smooth_values_128 + bump, 100, qd_model, 2e-3)
    assert np.min(upper - lower) > -1e-9


def test_evolve_translation_invariance(qd_model, smooth_values_128):
    base = _slices(smooth_values_128, 100, qd_model, 2e-3)
    shifted = _slices(smooth_values_128 + 3.7, 100, qd_model, 2e-3)
    assert np.max(np.abs(shifted - base - 3.7)) < 1e-12


def test_critical_value_quadratic_drift(qd_model):
    res = critical_value(qd_model, t_probe=20.0, n=256, dt=2e-3)
    assert abs(res.c0) < 1e-3


def test_critical_value_free(free_model):
    res = critical_value(free_model, t_probe=20.0, n=256, dt=2e-3)
    assert abs(res.c0) < 1e-3


def test_critical_value_cosine(cosine_model):
    res = critical_value(cosine_model, t_probe=50.0, n=512, dt=2e-3)
    assert res.c0 == pytest.approx(1.0, abs=1e-2)


def test_critical_value_requires_long_probe(qd_model):
    with pytest.raises(ValueError):
        critical_value(qd_model, t_probe=5.0, n=128, dt=2e-3)


def test_critical_value_not_converged_diagnostic(cosine_model, monkeypatch):
    import mfglab.lax_oleinik as lax_oleinik

    monkeypatch.setattr(lax_oleinik, "PROBE_TOL", 1e-14)
    with pytest.raises(MFGLabError, match="exceeds tol 1e-14"):
        critical_value(cosine_model, t_probe=50.0, n=512, dt=2e-3)


def test_critical_value_grid_refinement(cosine_model):
    coarse = critical_value(cosine_model, t_probe=20.0, n=256, dt=2e-3).c0
    fine = critical_value(cosine_model, t_probe=20.0, n=512, dt=2e-3).c0
    assert abs(fine - coarse) < 2e-2  # doubling n moves c0 below 2x tolerance


def test_probe_reads_its_sweep_at_one_half_and_end():
    """A potential that is not uniform takes the sweep path: c0 and the
    oscillation equal those read from a plain step loop at half = steps // 2
    and steps, and u0, its kink mask and its residual equal those built from
    the loop's slices at k_one = 1/dt (the semiconcavity) and steps, bit for
    bit."""
    model, n, dt, t_probe = Mechanical(1.6, Potential.cosine()), 128, 5e-3, 20.0
    stepper = HopfLaxStepper(model, n, dt)
    assert np.ptp(stepper.potential) > 0.0
    steps = slice_count(t_probe, dt)
    k_one, half = round(1.0 / dt), steps // 2
    w, read = np.zeros(n), {}
    for k in range(1, steps + 1):
        w = stepper.step(w)[0]
        if k in (k_one, half):
            read[k] = w
    t_mid = half * dt
    c0 = -(float(np.mean(w)) - float(np.mean(read[half]))) / (t_probe - t_mid)
    shifted = (w + c0 * t_probe) - (read[half] + c0 * t_mid)

    probe = critical_value(model, t_probe, n, dt)
    assert probe.c0 == c0
    assert probe.oscillation == float(np.max(shifted) - np.min(shifted))
    u0 = w + c0 * t_probe
    u0 = u0 - float(np.min(u0))
    c_sc = semiconcavity_upper_bound(read[k_one], stepper.dx)
    kinks = periodic_second_difference(u0, stepper.dx) < -max(c_sc, 1.0)
    residuals = np.abs(model.h(grid(n), periodic_gradient(u0, stepper.dx)) - c0)
    assert np.array_equal(probe.u0, u0)
    assert np.array_equal(probe.kink_mask, kinks)
    assert probe.residual == float(np.max(residuals[~kinks]))


def test_weak_kam_quadratic_drift(qd_model):
    probe = critical_value(qd_model, 20.0, 256, 2e-3)
    assert np.max(np.abs(probe.u0)) < 1e-12
    assert probe.residual < 1e-12


def test_weak_kam_free(free_model):
    probe = critical_value(free_model, 20.0, 256, 2e-3)
    assert np.max(np.abs(probe.u0)) < 1e-12


def test_weak_kam_cosine_closed_form(cosine_weak_kam):
    xs = grid(cosine_weak_kam.u0.size)
    exact = (2.0 / np.pi) * (1.0 - np.abs(np.cos(np.pi * xs)))
    assert np.max(np.abs(cosine_weak_kam.u0 - exact)) < 5e-3
    assert cosine_weak_kam.residual <= 5e-2
    kinks = np.where(cosine_weak_kam.kink_mask)[0]
    assert kinks.size >= 1
    assert np.all(np.abs(xs[kinks] - 0.5) < 2.0 / xs.size)  # concave kink at 1/2


def test_equi_lipschitz_and_semiconcave_after_t1(cosine_model):
    """Sampled at t = 1, 1.5, .., 3, the largest difference quotient and the
    semiconcavity bound stay within 10% of their values at t = 1."""
    n, dt = 256, 2e-3
    xs = grid(n)
    values = _slices(np.cos(2 * np.pi * xs), 1500, cosine_model, dt)

    def lipschitz(w):
        return float(np.max(np.abs(np.roll(w, -1) - w)) * n)

    k1 = 500
    lip_ref = lipschitz(values[k1])
    sc_ref = semiconcavity_upper_bound(values[k1], 1.0 / n)
    for k in (750, 1000, 1250, 1500):
        assert lipschitz(values[k]) <= 1.1 * lip_ref + 1e-9
        assert semiconcavity_upper_bound(values[k], 1.0 / n) <= 1.1 * sc_ref + 1e-9


def test_alpha_free_closed_form(free_model):
    for a in (0.0, 0.7, -1.2):
        alpha = alpha_function(free_model, a, t_probe=20.0, n=256, dt=2e-3)
        assert alpha == pytest.approx(0.5 * a**2, abs=1e-2)


def test_alpha_double_well_plateau_edges(double_well_model):
    fine = np.linspace(0.0, 1.0, 2001)
    a0 = simpson(np.sqrt(-2.0 * double_well_model.potential.value(fine)), x=fine)
    assert a0 == pytest.approx(np.sqrt(2.0) / np.pi, abs=1e-9)
    assert abs(alpha_function(double_well_model, 0.0, 20.0, 256, 2e-3)) <= 1e-2
    assert abs(alpha_function(double_well_model, 0.9 * a0, 20.0, 256, 2e-3)) <= 1e-2
    assert alpha_function(double_well_model, 1.5 * a0, 20.0, 256, 2e-3) > 1e-2


def test_alpha_requires_mechanical(qd_model):
    with pytest.raises(TypeError):
        alpha_function(qd_model, 0.5, 20.0, 256, 2e-3)


def test_evolve_rejects_off_grid_horizon():
    with pytest.raises(ValueError):
        slice_count(0.0031, 2e-3)
    assert slice_count(0.004, 2e-3) == 2


def test_kink_detection_skips_smooth_fields(free_model):
    assert not np.any(critical_value(free_model, 20.0, 256, 2e-3).kink_mask)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(
    arrays(np.float64, st.integers(1, 39)),
    arrays(np.float64, st.sampled_from([511, 512, 1024]),
           elements=st.floats(-1e300, 1e300, allow_subnormal=True))))
def test_median_bit_equals_numpy(values):
    """The probe's median is np.median bit for bit, signed zeros, infinities
    and overflow included, and NaN whenever a value is NaN."""
    with np.errstate(all="ignore"):         # np.median warns on inf - inf
        ours, reference = median(values), np.median(values)
    if np.isnan(reference):
        assert np.isnan(ours)
    else:
        assert np.float64(ours).tobytes() == np.float64(reference).tobytes()


def test_second_difference_helper():
    xs = grid(64)
    values = np.cos(2 * np.pi * xs)
    d2 = periodic_second_difference(values, 1.0 / 64)
    exact = -(2 * np.pi) ** 2 * np.cos(2 * np.pi * xs)
    assert np.max(np.abs(d2 - exact)) < 0.5
