import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfglab.characteristics import (
    FIXED_POINTS,
    K1_POINTS,
    K1_TIMES,
    PERIODIC_ORBIT,
    DriftField,
    FlowMap,
    drift_field,
    flow_lipschitz_constant,
    forward_flow,
)
from mfglab.errors import MFGLabError
from mfglab.hamiltonians import Mechanical, Potential
from mfglab.lax_oleinik import critical_value, weak_kam_solution
from mfglab.torus import circle_distance, grid, periodic_interp, wrap


def synthetic_drift(v_values) -> DriftField:
    v_values = np.asarray(v_values, dtype=float)
    n = v_values.size
    tau = float(np.sum(1.0 / np.abs(v_values)) / n)
    return DriftField(nodes=grid(n), v=v_values,
                      classification=PERIODIC_ORBIT, tau=tau)


@pytest.fixture(scope="module")
def qd_drift(qd_regime_256):
    _c0, _u0, df = qd_regime_256
    return df


@pytest.fixture(scope="module")
def wavy_drift():
    xs = grid(2048)
    return synthetic_drift(1.0 + 0.3 * np.sin(2 * np.pi * xs))


@pytest.fixture(scope="module")
def wavy_negative_drift():
    """Nonuniform drift winding the other way: a decreasing G-table."""
    xs = grid(2048)
    return synthetic_drift(-(1.0 + 0.3 * np.sin(2 * np.pi * xs)))


def test_drift_field_quadratic_drift(qd_drift):
    assert qd_drift.classification == PERIODIC_ORBIT
    assert qd_drift.tau == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(qd_drift.v + 1.0)) < 1e-12


def test_drift_field_shifted_free():
    model = Mechanical(1.0, Potential.zero())
    wk = weak_kam_solution(model, critical_value(model, 20.0, 256, 2e-3))
    df = drift_field(wk.u0, model)
    assert df.classification == PERIODIC_ORBIT
    assert df.tau == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(df.v - 1.0)) < 1e-9


def test_drift_field_cosine_fixed_points(cosine_model, cosine_weak_kam):
    df = drift_field(cosine_weak_kam.u0, cosine_model)
    assert df.classification == FIXED_POINTS
    assert df.tau is None
    with pytest.raises(MFGLabError, match="periodic-orbit regime"):
        df.require_periodic()


def test_drift_field_ambiguous_band():
    model = Mechanical(7.5e-4, Potential.zero())  # v in (V_FLOOR/2, V_FLOOR)
    with pytest.raises(MFGLabError, match="guard band"):
        drift_field(np.zeros(128), model)


def test_forward_flow_rigid_rotation(qd_drift):
    out = forward_flow(qd_drift, 0.5, 0.25)
    assert circle_distance(out, 0.75) < 1e-12


def test_forward_flow_identity_at_reference(qd_drift):
    assert forward_flow(qd_drift, 0.0, 0.4) == pytest.approx(0.4)


def test_forward_flow_periodic_in_t(qd_drift, wavy_drift):
    for df in (qd_drift, wavy_drift):
        tau = df.tau
        for y in (0.1, 0.37, 0.9):
            lap = forward_flow(df, tau, y)
            assert circle_distance(lap, y) < 1e-6


def test_inverse_flow_rigid_rotation(qd_drift):
    fm = FlowMap(qd_drift)
    assert circle_distance(fm.phi_inverse(0.5, 0.75), 0.25) < 1e-10
    assert circle_distance(fm.phi_inverse(0.0, 0.42), 0.42) < 1e-12


def test_round_trip_rigid(qd_drift):
    fm = FlowMap(qd_drift)
    rng = np.random.default_rng(1)
    ys, ts = rng.random(100), 3.0 * rng.random(100)
    xs = forward_flow(qd_drift, ts, ys[:, None])[:, 0]  # one point per span
    for y, t, x in zip(ys, ts, xs):
        back = fm.phi_inverse(float(t), x)
        assert circle_distance(back, y) < 1e-6
    assert xs[0] == forward_flow(qd_drift, float(ts[0]), float(ys[0]))


def test_round_trip_wavy(wavy_drift):
    fm = FlowMap(wavy_drift)
    rng = np.random.default_rng(2)
    ys, ts = rng.random(100), 2.0 * rng.random(100)
    xs = forward_flow(wavy_drift, ts, ys[:, None])[:, 0]  # one point per span
    for y, t, x in zip(ys, ts, xs):
        back = fm.phi_inverse(float(t), x)
        assert circle_distance(back, y) < 1e-6
    for i in (0, 1):
        assert xs[i] == forward_flow(wavy_drift, float(ts[i]), float(ys[i]))


def test_flow_group_property(wavy_drift):
    rng = np.random.default_rng(3)
    xs = rng.random(20)
    s, t, T = np.sort(2.0 * rng.random((20, 3)), axis=1).T
    direct = forward_flow(wavy_drift, T - s, xs[:, None])[:, 0]
    halfway = forward_flow(wavy_drift, T - t, xs[:, None])
    via = forward_flow(wavy_drift, t - s, halfway)[:, 0]
    for a, b in zip(direct, via):
        assert circle_distance(a, b) < 1e-6
    assert halfway[0, 0] == forward_flow(wavy_drift, float(T[0] - t[0]), float(xs[0]))


@pytest.fixture(scope="module")
def wavy_flow_maps(wavy_drift, wavy_negative_drift):
    return {1.0: FlowMap(wavy_drift), -1.0: FlowMap(wavy_negative_drift)}


@settings(max_examples=200, deadline=None)
@given(y=st.floats(0.0, 1.0, exclude_max=True), s1=st.floats(0.0, 1.5),
       s2=st.floats(0.0, 1.5), sign=st.sampled_from([1.0, -1.0]))
@example(y=0.0, s1=0.0, s2=0.0, sign=-1.0)
def test_flow_map_group_property(wavy_flow_maps, y, s1, s2, sign):
    """The exact flow composes over spans up to 3 (about three periods),
    and phi undoes phi_inverse, for both drift signs."""
    fm = wavy_flow_maps[sign]
    composed = fm.phi_inverse(s1, fm.phi_inverse(s2, y))
    assert circle_distance(fm.phi_inverse(s1 + s2, y), composed) <= 1e-12
    assert circle_distance(fm.phi(s1, fm.phi_inverse(s1, y)), y) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(y=st.floats(0.0, 1.0, exclude_max=True), s1=st.floats(0.0, 1.5),
       s2=st.floats(0.0, 1.5), sign=st.sampled_from([1.0, -1.0]))
@example(y=np.nextafter(1.0, 0.0), s1=0.0, s2=0.0, sign=-1.0)
def test_forward_flow_composes_exactly(wavy_drift, wavy_negative_drift, y, s1, s2, sign):
    """The closed-form flow has the group property to round-off over spans
    up to 3, for both drift signs; RK4 held it only to its truncation error."""
    df = wavy_drift if sign > 0 else wavy_negative_drift
    composed = forward_flow(df, s1, forward_flow(df, s2, y))
    assert circle_distance(forward_flow(df, s1 + s2, y), composed) <= 1e-12


def test_g_based_flow_matches_rk4(wavy_drift, wavy_negative_drift):
    xs = np.array([0.05, 0.33, 0.78])
    for df in (wavy_drift, wavy_negative_drift):
        rk4 = _rk4_flow(df, np.array([[1.4]]), xs)[0]
        assert np.max(circle_distance(rk4, FlowMap(df).phi(1.4, xs))) < 1e-6


def test_flow_map_invariant_round_trip(wavy_drift, wavy_negative_drift):
    rng = np.random.default_rng(4)
    ys = rng.random(50)
    for df in (wavy_drift, wavy_negative_drift):
        fm = FlowMap(df)
        imgs = fm.phi(1.7, ys)
        back = fm.phi_inverse(1.7, imgs)
        assert np.max(circle_distance(back, ys)) < 1e-6
        # targets exactly on the table's nodes, then on the 0/1 seam from
        # both sides: after one full winding, and a hair off G = 0
        assert np.max(circle_distance(fm.phi_inverse(0.0, df.nodes), df.nodes)) < 1e-12
        seam = np.array([0.0, np.nextafter(1.0, 0.0)])
        for span in (abs(fm.winding), 1e-18):
            assert np.max(circle_distance(fm.phi_inverse(span, seam), seam)) < 1e-12
            assert np.max(circle_distance(fm.phi(span, seam), seam)) < 1e-12


def test_forward_flow_requires_t_before_reference(qd_drift):
    with pytest.raises(ValueError):
        forward_flow(qd_drift, -1.0, 0.5)


def test_lipschitz_constant_rigid(qd_drift):
    assert flow_lipschitz_constant(qd_drift) == pytest.approx(1.0, abs=1e-9)


def _reference_k1(df):
    """K1 as flow_lipschitz_constant measured it before it batched its
    spans: one scalar forward_flow call per span, one pass per point."""
    tau = float(df.tau)
    xs = grid(K1_POINTS)
    spans = tau - tau * np.arange(K1_TIMES) / (K1_TIMES - 1)
    k1 = 0.0
    for s in spans:
        imgs = forward_flow(df, float(s), xs)
        for i in range(K1_POINTS):
            base = circle_distance(xs[i], xs[i + 1:])
            moved = circle_distance(imgs[i], imgs[i + 1:])
            keep = base >= df.dx
            if np.any(keep):
                k1 = max(k1, float(np.max(moved[keep] / base[keep])))
    return k1


def test_lipschitz_constant_matches_per_span_reference(wavy_drift, wavy_negative_drift):
    for df in (wavy_drift, wavy_negative_drift):
        k1 = flow_lipschitz_constant(df)
        assert k1 >= 1.0 - 1e-9  # some pair must spread at least rigidly over a period
        assert k1 == _reference_k1(df)


def test_forward_flow_batched_times_match_scalar_calls(wavy_drift, wavy_negative_drift):
    rng = np.random.default_rng(5)
    xs = rng.random(17)
    # unsorted, with a repeated span and a zero span
    spans = np.array([0.2, 0.03, 0.0, 0.3, 0.03, 0.1])
    for df in (wavy_drift, wavy_negative_drift):
        rows = forward_flow(df, spans, xs)
        assert rows.shape == (spans.size, xs.size)
        for row, s in zip(rows, spans):
            assert np.array_equal(row, forward_flow(df, float(s), xs))
        assert np.array_equal(rows[2], xs % 1.0)
        single = forward_flow(df, 0.3, 0.25)
        assert np.shape(single) == () and single == forward_flow(df, spans[3:4], 0.25)[0]
        assert forward_flow(df, 0.3, xs).shape == xs.shape
        for late in (0, 3, 5):
            with pytest.raises(ValueError):
                forward_flow(df, np.where(np.arange(spans.size) == late, -0.5, spans), xs)


def test_forward_flow_per_row_points_match_scalar_calls(wavy_drift, wavy_negative_drift):
    rng = np.random.default_rng(6)
    spans = np.array([0.2, 0.03, 0.0, 0.3, 0.03, 0.1])  # unsorted, a repeat, a zero
    points = rng.random((spans.size, 5))
    points[1, :2] = 0.0, np.nextafter(1.0, 0.0)  # the 0/1 seam
    for df in (wavy_drift, wavy_negative_drift):
        rows = forward_flow(df, spans, points)
        assert rows.shape == points.shape
        for row, s, x in zip(rows, spans, points):
            assert np.array_equal(row, forward_flow(df, float(s), x))
        assert np.array_equal(rows[2], points[2])
        single = forward_flow(df, spans, points[:, :1])
        assert single.shape == (spans.size, 1) and np.array_equal(single[:, 0], rows[:, 0])


def _interp_rk4(v, y, h, steps):
    """RK4 for y' = -v(y), v the periodic_interp of the node drift at every
    stage: the oracle for forward_flow's closed form."""
    for _ in range(steps):
        k1 = -periodic_interp(y, v)
        k2 = -periodic_interp(y + 0.5 * h * k1, v)
        k3 = -periodic_interp(y + 0.5 * h * k2, v)
        k4 = -periodic_interp(y + h * k3, v)
        y = (y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)) % 1.0
    return y


def _rk4_flow(df, spans, x, refine=1):
    """_interp_rk4 over a column of spans, one row each, in the steps the
    longest span took in the RK4 forward_flow (h <= dx / (4 max|v|)), made
    refine times as many; shorter spans take as many, finer, steps."""
    steps = refine * int(np.ceil(np.max(spans) * np.max(np.abs(df.v)) / (0.25 * df.dx)))
    return _interp_rk4(df.v, np.broadcast_to(x, (spans.shape[0],) + np.shape(x)),
                       spans / max(steps, 1), steps)


# (n, bound): the largest gap measured over both drift signs, 1.63e-7 at
# n = 96 and 1.05e-10 at n = 2048, times a margin of 3, rounded up
@pytest.mark.parametrize("n, bound", [(96, 5e-7), (2048, 3.2e-10)], ids=["96", "2048"])
def test_forward_flow_matches_rk4_oracle(n, bound):
    """The closed-form flow against RK4 on the same piecewise-linear drift,
    for both drift signs, from the 0/1 seam (a hair below 0 wraps to 1.0),
    a node and random points.  At n = 96 the gap is the oracle's truncation
    error: halving its h shrinks the worst gap at least four-fold (5.3 and
    8.7 measured)."""
    xs = grid(n)
    y = np.concatenate(([0.0, np.nextafter(1.0, 0.0), -np.nextafter(0.0, 1.0), xs[1]],
                        np.random.default_rng(8).random(5)))
    spans = np.array([[0.0], [0.01], [0.3], [1.0], [2.5]])
    for sign in (1.0, -1.0):
        df = synthetic_drift(sign * (1.0 + 0.3 * np.sin(2 * np.pi * xs)))
        exact = forward_flow(df, spans[:, 0], y)
        gap = np.max(circle_distance(exact, _rk4_flow(df, spans, y)))
        assert gap <= bound, (sign, gap)
        assert np.array_equal(exact[0], wrap(y))
        if n == 96:
            halved = np.max(circle_distance(exact, _rk4_flow(df, spans, y, refine=2)))
            assert halved <= gap / 4.0, (sign, gap, halved)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, -np.nextafter(0.0, 1.0), -1.0, np.nextafter(1.0, 0.0), -1e-17, -2.5]))
def test_wrap_bit_equals_float_remainder(x):
    """wrap's x - floor(x) is numpy's x % 1.0 bit for bit, signed zeros
    and the tiny negatives that round up to 1.0 included."""
    assert wrap(x).tobytes() == (np.asarray(x) % 1.0).tobytes()
    row = np.array([x, -x, x / 3.0])
    assert wrap(row).tobytes() == (row % 1.0).tobytes()


def test_flow_csv_export(tmp_path, qd_drift):
    """periodic writes the flow's G-table as x,G,v rows, one per node, every
    number in .17g; its probe here is the one behind qd_drift."""
    from mfglab.cli import main

    cfg = tmp_path / "qd.ini"
    cfg.write_text("[grid]\nn = 256\ndt = 0.004\n[run]\ndt_probe = 0.002\n")
    assert main(["periodic", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    fm = FlowMap(qd_drift)
    rows = "".join(f"{x:.17g},{g:.17g},{v:.17g}\n"
                   for x, g, v in zip(qd_drift.nodes, fm.g_nodes, qd_drift.v))
    assert (tmp_path / "flow.csv").read_text() == "x,G,v\n" + rows


def test_winding_equals_signed_period(qd_drift, wavy_drift):
    assert FlowMap(qd_drift).winding == pytest.approx(-qd_drift.tau, abs=1e-12)
    assert FlowMap(wavy_drift).winding == pytest.approx(wavy_drift.tau, rel=1e-12)
