import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mfglab.characteristics import PERIODIC_ORBIT, DriftField, FlowMap
from mfglab.errors import MFGLabError
from mfglab.measures import (
    BLOCK_POINTS,
    PARTICLES,
    CircleMeasure,
    TransportTable,
    invariant_density,
    pushforward,
    random_fourier_density,
    wasserstein1,
)
from mfglab.torus import circle_distance, grid, periodic_interp


def lp_wasserstein1(m1: CircleMeasure, m2: CircleMeasure) -> float:
    """Transportation linear program with circle-distance cost."""
    x1, w1 = m1.positions, m1.weights
    x2, w2 = m2.positions, m2.weights
    cost = circle_distance(x1[:, None], x2[None, :])
    n1, n2 = x1.size, x2.size
    rows = []
    for i in range(n1):
        row = np.zeros((n1, n2))
        row[i, :] = 1.0
        rows.append(row.ravel())
    for j in range(n2):
        row = np.zeros((n1, n2))
        row[:, j] = 1.0
        rows.append(row.ravel())
    res = linprog(cost.ravel(), A_eq=np.array(rows),
                  b_eq=np.concatenate([w1, w2]), bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def atoms(positions, weights):
    """Particle measure with the given weights scaled to unit mass."""
    weights = np.asarray(weights, dtype=float)
    return CircleMeasure(PARTICLES, np.asarray(positions, dtype=float),
                         weights / np.sum(weights))


def random_atoms(rng, max_atoms=6):
    k = int(rng.integers(1, max_atoms + 1))
    weights = rng.random(k) + 0.05
    return atoms(rng.random(k), weights / weights.sum())


@pytest.fixture(scope="module")
def rotation_flow(qd_regime_256):
    _c0, _u0, df = qd_regime_256
    return df, FlowMap(df)


def test_mass_invariants():
    with pytest.raises(ValueError):
        CircleMeasure.from_masses(np.full(8, 0.2))  # mass 1.6
    with pytest.raises(ValueError):
        CircleMeasure.from_density_values(np.array([1.0, -0.5, 1.0, 1.0]))
    m = CircleMeasure.from_name("one-plus-cosine", 128)
    assert abs(float(np.sum(m.weights)) - 1.0) <= 1e-12
    assert np.all(m.positions >= 0.0) and np.all(m.positions < 1.0)


def test_measure_ids():
    lebesgue = CircleMeasure.from_name("lebesgue", 64)
    assert np.allclose(lebesgue.density_values, 1.0)
    bump = CircleMeasure.from_name("gaussian-bump(0.3,0.05)", 256)
    assert bump.positions[np.argmax(bump.weights)] == pytest.approx(0.3, abs=1e-2)
    with pytest.raises(ValueError):
        CircleMeasure.from_name("dirac-comb", 64)


def test_w1_identical_measures_vanishes():
    m = CircleMeasure.from_name("one-plus-cosine", 128)
    assert wasserstein1(m, m) == 0.0


def test_w1_between_diracs_wraps():
    assert wasserstein1(atoms([0.0], [1.0]), atoms([0.3], [1.0])) \
        == pytest.approx(0.3, abs=1e-15)
    assert wasserstein1(atoms([0.0], [1.0]), atoms([0.8], [1.0])) \
        == pytest.approx(0.2, abs=1e-15)


def test_w1_matches_transportation_lp():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m1, m2 = random_atoms(rng), random_atoms(rng)
        assert abs(wasserstein1(m1, m2) - lp_wasserstein1(m1, m2)) < 1e-9


_atoms = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6,
                  unique=True).flatmap(
    lambda xs: st.lists(st.floats(0.05, 1.0), min_size=len(xs), max_size=len(xs)).map(
        lambda ws: atoms(xs, ws)))


@settings(max_examples=200, deadline=None)
@given(a=_atoms, b=_atoms, c=_atoms)
def test_w1_metric_axioms(a, b, c):
    """W1 is symmetric, zero on identical measures, within [0, 1/2] (the
    circle's diameter) and obeys the triangle inequality."""
    assert abs(wasserstein1(a, b) - wasserstein1(b, a)) <= 1e-12
    assert wasserstein1(a, a) == 0.0
    assert 0.0 <= wasserstein1(a, b) <= 0.5 + 1e-12
    assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-12


def test_w1_metrizes_weak_convergence():
    target = atoms([0.3], [1.0])
    gaps = [wasserstein1(CircleMeasure.from_name(f"gaussian-bump(0.3,{w})", 512), target)
            for w in (0.1, 0.05, 0.02, 0.01)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02
    two_bumps = wasserstein1(CircleMeasure.from_name("gaussian-bump(0.2,0.01)", 512),
                             CircleMeasure.from_name("gaussian-bump(0.6,0.01)", 512))
    assert two_bumps == pytest.approx(0.4, abs=5e-3)


def test_pushforward_identity_at_reference(rotation_flow):
    _df, fm = rotation_flow
    m = CircleMeasure.from_name("one-plus-cosine", 256)
    assert pushforward(fm, m, 0.0) is m


def test_pushforward_density_rigid_rotation(rotation_flow):
    _df, fm = rotation_flow
    n = 256
    m = CircleMeasure.from_name("one-plus-cosine", n)
    out = pushforward(fm, m, 0.3)
    xs = grid(n)
    target = 1.0 + np.cos(2 * np.pi * (xs - 0.3))
    assert np.max(np.abs(out.density_values - target)) < 1e-4


def test_pushforward_particles_rigid_rotation(rotation_flow):
    _df, fm = rotation_flow
    m = atoms([0.1, 0.6], [0.25, 0.75])
    out = pushforward(fm, m, 0.25)
    assert np.max(circle_distance(out.positions, [0.35, 0.85])) < 1e-9
    assert np.allclose(out.weights, m.weights)


def test_pushforward_fixes_invariant_density(rotation_flow):
    df, fm = rotation_flow
    m_star = invariant_density(df)
    moved = pushforward(fm, m_star, 0.77)
    assert wasserstein1(moved, m_star) <= 1e-4


def test_pushforward_is_flow_action(rotation_flow):
    _df, fm = rotation_flow
    cloud = atoms(np.random.default_rng(8).random(200), np.ones(200))
    dens = CircleMeasure.from_name("one-plus-cosine", 512)
    for m in (cloud, dens):
        one_hop = pushforward(fm, m, 0.8)
        two_hops = pushforward(fm, pushforward(fm, m, 0.4), 0.4)
        assert wasserstein1(one_hop, two_hops) <= 1e-6


def test_pushforward_lipschitz_path(rotation_flow):
    _df, fm = rotation_flow
    m = CircleMeasure.from_name("one-plus-cosine", 256)
    max_speed = 1.0
    for a, b in [(0.1, 0.0), (0.5, 0.0), (1.0, 0.75)]:
        moved_a = pushforward(fm, m, a)
        moved_b = pushforward(fm, m, b)
        assert wasserstein1(moved_a, moved_b) <= max_speed * abs(a - b) + 1e-6


class _BrokenFlow:
    """Inverse map with a fold; its Jacobian is not mass-preserving."""

    def phi_inverse(self, s, y):
        y = np.asarray(y, dtype=float)
        return (0.3 * np.abs(np.sin(2 * np.pi * y))) % 1.0

    def phi(self, s, x):
        return x


def _reference_masses(fm, spans, m):
    """The push-forward as the table computed it before it fixed its
    stencils: interpolate the density at the inverse-flow nodes, times the
    centered-difference Jacobian, then renormalise each row."""
    n = m.n
    xinv = np.array([fm.phi_inverse(float(s), grid(n)) for s in spans])
    jac = ((np.roll(xinv, -1, axis=1) - np.roll(xinv, 1, axis=1)) % 1.0) * (n / 2.0)
    values = periodic_interp(xinv, m.density_values) * jac
    totals = values.mean(axis=1)
    values /= (totals * n)[:, None]
    return values


def test_transport_table_matches_interpolation_at_inverse_nodes():
    n = 256
    xs = grid(n)
    m = CircleMeasure.from_name("gaussian-bump(0.3,0.1)", n)
    for sign in (1.0, -1.0):
        v = sign * (1.0 + 0.3 * np.sin(2 * np.pi * xs))
        df = DriftField(nodes=xs, v=v, classification=PERIODIC_ORBIT,
                        tau=float(np.sum(1.0 / np.abs(v)) / n))
        fm = FlowMap(df)
        spans = df.tau * np.arange(40) / 39
        masses = TransportTable(fm, spans, n).masses(m)
        assert np.array_equal(masses, _reference_masses(fm, spans, m))
        one = pushforward(fm, m, 0.63)  # a one-row table
        assert np.array_equal(one.weights, _reference_masses(fm, [0.63], m)[0])


def test_transport_table_blocks_bit_equal_one_span_calls():
    """Pushes streamed in blocks of span rows, with a row count that ends in
    a partial block and a grid with one row per block, give the masses of
    the per-span reference bit for bit, and means within 1e-14 times
    max|f| of the mean of f under those masses."""
    for n, count in ((256, 300), (BLOCK_POINTS, 3)):
        xs = grid(n)
        v = -(1.0 + 0.3 * np.sin(2 * np.pi * xs))
        df = DriftField(nodes=xs, v=v, classification=PERIODIC_ORBIT,
                        tau=float(np.sum(1.0 / np.abs(v)) / n))
        fm = FlowMap(df)
        spans = df.tau * np.arange(count) / 37
        table = TransportTable(fm, spans, n)
        m = CircleMeasure.from_name("gaussian-bump(0.3,0.1)", n)
        reference = _reference_masses(fm, spans, m)
        assert table.masses(m).tobytes() == reference.tobytes()
        f = np.cos(4 * np.pi * xs)
        means = table.means([m.density_values], f)[:, 0]
        assert np.max(np.abs(means - reference @ f)) <= 1e-14


def test_transport_table_holds_no_stencil():
    """A built table holds the grid and the spans, no array with more than
    max(n, rows) entries: each push builds its stencil block by block."""
    n, rows = 512, 2001
    xs = grid(n)
    df = DriftField(nodes=xs, v=-np.ones(n), classification=PERIODIC_ORBIT, tau=1.0)
    fm = FlowMap(df)
    spans = list(1e-3 * np.arange(rows))
    tracemalloc.start()
    try:
        table = TransportTable(fm, spans, n)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2.5 * max(n, rows) * 8
    arrays = [value for value in vars(table).values() if isinstance(value, np.ndarray)]
    assert max(a.size for a in arrays) <= max(n, rows)


def test_transport_table_build_peak_memory():
    """Building a 2001 x 512 table, criterion 2's, and pushing one density
    through it peaks at 9.5 MB of traced allocations, the 8.2 MB result
    and one block's stencil; a table that held its stencil and Jacobian
    peaked at 41.0 MB."""
    n = 512
    xs = grid(n)
    df = DriftField(nodes=xs, v=-np.ones(n), classification=PERIODIC_ORBIT, tau=1.0)
    fm = FlowMap(df)
    spans = 1e-3 * np.arange(2000, -1, -1)
    m = CircleMeasure.from_name("one-plus-cosine", n)
    tracemalloc.start()
    try:
        TransportTable(fm, spans, n).masses(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10.0e6


def _wavy_table(n, rows, amplitude):
    """A table over one period of the drift v = 1 + amplitude sin(2 pi x)."""
    xs = grid(n)
    v = 1.0 + amplitude * np.sin(2 * np.pi * xs)
    df = DriftField(nodes=xs, v=v, classification=PERIODIC_ORBIT,
                    tau=float(np.sum(1.0 / np.abs(v)) / n))
    return TransportTable(FlowMap(df), df.tau * np.arange(rows) / (rows - 1), n)


def _cosine_densities(n, count, rng):
    """Densities 1 + a cos(2 pi (x - p)) with |a| <= 0.3 and random phases."""
    xs = grid(n)
    return [CircleMeasure.from_density_values(
        1.0 + rng.uniform(-0.3, 0.3) * np.cos(2 * np.pi * (xs - rng.random())))
        for _ in range(count)]


@pytest.mark.parametrize("n, rows, amplitude", [(64, 300, 0.1), (512, 343, 0.3)])
def test_transport_table_means_match_masses(n, rows, amplitude):
    """means gives the mean of f under every row of masses(m), to 1e-14
    times max|f| (the scale of a mean of f), for random densities over
    tables of one and of several row blocks; it takes a list or an array
    of density values, and no density gives an empty (rows, 0) result."""
    table = _wavy_table(n, rows, amplitude)
    rng = np.random.default_rng(n)
    measures = _cosine_densities(n, 7, rng)
    f = rng.uniform(-1.0, 1.0) * np.cos(4 * np.pi * grid(n)) + rng.uniform(-1.0, 1.0, n)
    got = table.means([m.density_values for m in measures], f)
    assert got.shape == (rows, len(measures))
    for column, m in zip(got.T, measures):
        assert np.max(np.abs(column - table.masses(m) @ f)) <= 1e-14 * np.max(np.abs(f))
    stacked = np.array([m.density_values for m in measures])
    assert np.array_equal(table.means(stacked, f), got)
    assert table.means([], f).shape == (rows, 0)


def test_transport_table_means_mass_drift_error():
    """means fails the mass-drift check where masses does: for a folded inverse
    map whatever the density, and for a density that drifts among ones
    that do not; and not for the same densities on a valid table."""
    n = 128
    m = CircleMeasure.from_name("one-plus-cosine", n)
    broken = TransportTable(_BrokenFlow(), [1.0], n)
    with pytest.raises(MFGLabError, match="mass drift"):
        broken.masses(m)
    with pytest.raises(MFGLabError, match="mass drift"):
        broken.means([m.density_values], grid(n))
    table = _wavy_table(n, 40, 0.3)
    fine = CircleMeasure.from_name("lebesgue", n)
    table.masses(fine)
    table.means([fine.density_values, fine.density_values], grid(n))
    steep = CircleMeasure.from_name("gaussian-bump(0.5,0.02)", n)
    with pytest.raises(MFGLabError, match="mass drift"):
        table.masses(steep)
    with pytest.raises(MFGLabError, match="mass drift"):
        table.means([fine.density_values, steep.density_values], grid(n))


def test_transport_table_means_peak_memory():
    """The lipschitz-c averaging at the benchmark's size, a 343 x 512 table
    built and read by 40 densities, peaks at 2.51 MB of traced allocations
    with one means call, where the 40 masses pushes it replaces peak at
    2.89 MB; with a table that held its stencil the two peaked at 5.85 and
    7.16 MB."""
    densities = [m.density_values for m in _cosine_densities(512, 40, np.random.default_rng(5))]
    f = np.cos(4 * np.pi * grid(512))

    def one_means():
        return _wavy_table(512, 343, 0.3).means(densities, f)

    def forty_masses():
        table = _wavy_table(512, 343, 0.3)
        return [table.masses(CircleMeasure.from_density_values(d)) @ f for d in densities]

    peaks = []
    for average in (one_means, forty_masses):
        tracemalloc.start()
        try:
            average()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2.6e6 and peaks[0] <= peaks[1]


def test_pushforward_mass_drift_error():
    m = CircleMeasure.from_name("one-plus-cosine", 128)
    with pytest.raises(MFGLabError, match="mass drift"):
        pushforward(_BrokenFlow(), m, 1.0)


def test_measure_csv(tmp_path):
    """wasserstein writes each measure as x,mass rows of its nodes and node
    masses, every number in .17g."""
    from mfglab.cli import main

    cfg = tmp_path / "ws.ini"
    cfg.write_text("[grid]\nn = 64\ndt = 0.004\n[measures]\nm1 = lebesgue\n"
                   "m2 = gaussian-bump(0.3,0.1)\n")
    assert main(["wasserstein", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for name, measure in (("m1", "lebesgue"), ("m2", "gaussian-bump(0.3,0.1)")):
        m = CircleMeasure.from_name(measure, 64)
        rows = "".join(f"{x:.17g},{w:.17g}\n" for x, w in zip(m.positions, m.weights))
        assert (tmp_path / f"{name}.csv").read_text() == "x,mass\n" + rows


def test_random_fourier_density_valid():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_fourier_density(128, rng)
        assert np.all(m.weights >= 0.0)
        assert abs(float(np.sum(m.weights)) - 1.0) <= 1e-12
