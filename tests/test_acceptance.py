"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion N (<name>): PASS/FAIL` line (visible with
pytest -s or in the captured output on failure) and asserts the criterion.
"""

import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import linprog

from mfglab.characteristics import FlowMap, forward_flow
from mfglab.coupling import CouplingFunctional, monotonicity_defect
from mfglab.explicit_solution import ExplicitInstance, hjb_residual, transport_residual
from mfglab.hamiltonians import Mechanical, Potential, QuadraticDrift
from mfglab.lax_oleinik import alpha_function, critical_value
from mfglab.measures import (
    PARTICLES,
    CircleMeasure,
    invariant_density,
    pushforward,
    random_fourier_density,
    wasserstein1,
)
from mfglab.mfg import (
    lipschitz_c_experiment,
    long_time_convergence_experiment,
    periodic_regime,
    periodic_solution,
)
from mfglab.torus import circle_distance, grid

N = 512
DT = 1e-3


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def qd_model():
    return QuadraticDrift()


@pytest.fixture(scope="module")
def coupling_cos():
    return CouplingFunctional.cosine4pi()


@pytest.fixture(scope="module")
def m_cos():
    return CircleMeasure.from_name("one-plus-cosine", N)


@pytest.fixture(scope="module")
def qd_regime(qd_model):
    return periodic_regime(qd_model, critical_value(qd_model, 20.0, N, DT))


@pytest.fixture(scope="module")
def periodic_run(qd_model, coupling_cos, m_cos, qd_regime):
    start = time.perf_counter()
    ps = periodic_solution(m_cos, qd_regime, coupling_cos, dt=DT)
    return ps, time.perf_counter() - start


def test_criterion_1_example_identity():
    start = time.perf_counter()
    closed = ExplicitInstance(n_grid=64, n_time=64)
    sampled = ExplicitInstance(n_grid=256, n_time=256)
    values = (
        hjb_residual(closed, closed_form=True),
        transport_residual(closed, closed_form=True),
        hjb_residual(sampled, closed_form=False),
        transport_residual(sampled, closed_form=False),
    )
    elapsed = time.perf_counter() - start
    ok = (values[0] <= 1e-10 and values[1] <= 1e-10
          and values[2] <= 1e-3 and values[3] <= 1e-3 and elapsed < 1.0)
    report(1, "example identity",
           ok, f"closed={values[0]:.2e}/{values[1]:.2e} "
               f"grid={values[2]:.2e}/{values[3]:.2e} {elapsed:.2f}s")


def test_criterion_2_periodic_solution_reproduction(periodic_run):
    ps, elapsed = periodic_run
    xs = ps.nodes
    c_ok = abs(ps.c_mt) <= 1e-3
    u_gap = float(np.max(np.abs(ps.u_bar - np.sin(2 * np.pi * ps.times)[:, None])))
    m_gap = 0.0
    for k, t in enumerate(ps.times):
        target = CircleMeasure.from_density_values(
            1.0 + np.cos(2 * np.pi * (xs + t - ps.times[-1])))
        m_gap = max(m_gap, wasserstein1(ps.m_bar[k], target))
    ok = c_ok and u_gap <= 1e-2 and m_gap <= 5e-3 and elapsed < 30.0
    report(2, "periodic-solution reproduction", ok,
           f"c={ps.c_mt:.2e} u_gap={u_gap:.2e} m_gap={m_gap:.2e} {elapsed:.1f}s")


def test_criterion_3_critical_values(qd_model):
    qd = critical_value(qd_model, t_probe=50.0, n=N, dt=2e-3).c0
    cosine = critical_value(Mechanical(0.0, Potential.cosine()),
                            t_probe=50.0, n=N, dt=2e-3).c0
    ok = abs(qd) <= 1e-3 and abs(cosine - 1.0) <= 1e-2
    report(3, "critical values", ok, f"drift={qd:.2e} cosine={cosine:.6f}")


def test_criterion_4_alpha_plateau():
    model = Mechanical(0.0, Potential.double_well(0.5, 1.0))
    fine = np.linspace(0.0, 1.0, 4001)
    a0 = float(simpson(np.sqrt(-2.0 * model.potential.value(fine)), x=fine))

    def alpha(a):
        return alpha_function(model, a, t_probe=20.0, n=256, dt=2e-3)

    plateau = [alpha(a) for a in (0.0, 0.5 * a0, -0.5 * a0, 0.9 * a0, -0.9 * a0)]
    beyond = alpha(1.5 * a0)
    a_grid = np.linspace(-2.0 * a0, 2.0 * a0, 21)
    samples = np.array([alpha(a) for a in a_grid])
    second = samples[2:] - 2.0 * samples[1:-1] + samples[:-2]
    ok = (max(abs(v) for v in plateau) <= 1e-2 and beyond > 1e-2
          and float(np.min(second)) >= -1e-2)
    report(4, "alpha-function plateau", ok,
           f"max|plateau|={max(abs(v) for v in plateau):.2e} "
           f"alpha(1.5 a0)={beyond:.3f} min_second={float(np.min(second)):.2e}")


def test_criterion_5_periodicity_and_nontriviality(periodic_run, m_cos):
    ps, _ = periodic_run
    distance = wasserstein1(m_cos, ps.m_star)
    ok = (ps.periodicity_defect <= 1e-4
          and distance >= 1e-2
          and ps.nontriviality_gap >= 1e-3)
    report(5, "periodicity and non-triviality", ok,
           f"defect={ps.periodicity_defect:.2e} gap={ps.nontriviality_gap:.3f} "
           f"d1(m_T, m*)={distance:.3f}")


def test_criterion_6_lipschitz_constant_of_c(qd_model, coupling_cos, qd_regime):
    rng = np.random.default_rng(2026)
    pairs = [(random_fourier_density(N, rng), random_fourier_density(N, rng))
             for _ in range(50)]
    rep = lipschitz_c_experiment(pairs, qd_regime, coupling_cos, dt=DT)
    ok = rep.ratios.size == 50 and rep.violations == 0
    report(6, "Lipschitz constant of c(m_T)", ok,
           f"max_ratio={rep.max_ratio:.2e} bound={rep.bound:.2f} "
           f"violations={rep.violations}")


def test_criterion_7_long_time_convergence(qd_model, coupling_cos, m_cos, qd_regime):
    xs = grid(N)
    start = time.perf_counter()
    rep = long_time_convergence_experiment(
        np.cos(2 * np.pi * xs), m_cos, qd_model, qd_regime, coupling_cos,
        [5.0, 10.0, 20.0, 40.0], window=0.5, dt=DT)
    elapsed = time.perf_counter() - start
    d1, uu = rep.d1_deviation, rep.u_deviation
    monotone = all(d1[i + 1] <= 1.1 * d1[i] for i in range(3)) \
        and all(uu[i + 1] <= 1.1 * uu[i] for i in range(3))
    ok = monotone and d1[-1] <= 5e-3 and d1[-1] <= 0.5 * d1[0] and elapsed < 300.0
    report(7, "long-time convergence", ok,
           f"d1={['%.4f' % v for v in d1]} u={['%.4f' % v for v in uu]} "
           f"{elapsed:.0f}s")


def _lp_wasserstein(m1, m2):
    cost = circle_distance(m1.positions[:, None], m2.positions[None, :])
    n1, n2 = m1.positions.size, m2.positions.size
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
                  b_eq=np.concatenate([m1.weights, m2.weights]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def test_criterion_8_wasserstein_lp_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        k1, k2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        w1 = rng.random(k1) + 0.05
        w2 = rng.random(k2) + 0.05
        m1 = CircleMeasure(PARTICLES, rng.random(k1), w1 / w1.sum())
        m2 = CircleMeasure(PARTICLES, rng.random(k2), w2 / w2.sum())
        worst = max(worst, abs(wasserstein1(m1, m2) - _lp_wasserstein(m1, m2)))
    ok = worst <= 1e-9
    report(8, "Wasserstein LP oracle", ok, f"worst gap={worst:.2e} over 1000 trials")


def test_criterion_9_flow_identities(qd_regime):
    _c0, _u0, df = qd_regime
    fm = FlowMap(df)
    rng = np.random.default_rng(9)
    ys, ts = rng.random(100), 3.0 * rng.random(100)
    images = forward_flow(df, ts, ys[:, None])[:, 0]  # one point per span
    assert images[0] == forward_flow(df, float(ts[0]), float(ys[0]))
    round_trip = 0.0
    for y, t, x in zip(ys, ts, images):
        round_trip = max(round_trip, float(circle_distance(
            fm.phi_inverse(float(t), x), y)))
    xs = rng.random(30)
    s, t, big_t = np.sort(3.0 * rng.random((30, 3)), axis=1).T
    direct = forward_flow(df, big_t - s, xs[:, None])[:, 0]
    via = forward_flow(df, t - s, forward_flow(df, big_t - t, xs[:, None]))[:, 0]
    group = float(np.max(circle_distance(direct, via)))
    m_star = invariant_density(df)
    stationarity = max(
        wasserstein1(pushforward(fm, m_star, s), m_star)
        for s in (1.0, 0.75, 0.23))
    ok = round_trip <= 1e-6 and group <= 1e-6 and stationarity <= 1e-4
    report(9, "flow identities", ok,
           f"round_trip={round_trip:.2e} group={group:.2e} "
           f"invariant={stationarity:.2e}")


def test_criterion_10_monotone_coupling_certificate(coupling_cos):
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        m1 = random_fourier_density(256, rng)
        m2 = random_fourier_density(256, rng)
        worst = max(worst, abs(monotonicity_defect(coupling_cos, m1, m2)))
    ok = worst <= 1e-12
    report(10, "monotone-coupling certificate", ok, f"worst defect={worst:.2e}")
