"""Batch experiment runner.

Every subcommand reads a sectioned key/value config, writes a JSON summary
with a fixed schema plus CSV artifacts and a plotting script into the
output directory, and exits 0 on success, 1 on a numerical-tolerance
failure, 2 on invalid input.  Identical configs produce byte-identical
summaries; the only randomness (measure-pair generation) is seeded.
lipschitz-c's --seed draws NumPy's default_rng(seed) PCG64 stream,
reproduced bit for bit by measures.PCG64Stream without loading NumPy's
random subpackage, so every seed gives the same pairs as that generator.

The pass/fail bounds are the constants below; only converge's final d1
bound is a config key.  A run that fails a check still writes its summary
and names the check, its value and its bound on one stderr line.  Each
store is refused by its builder: an mfg experiment, or alpha's or lipschitz-c's runner.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from operator import methodcaller
from pathlib import Path

import numpy as np

from . import explicit_solution as explicit
from .config import RunConfig
from .errors import ConfigError, MFGLabError
from .lax_oleinik import alpha_function, critical_value
from .measures import PCG64Stream, random_fourier_density, wasserstein1
from .mfg import (
    LIPSCHITZ_SLACK,
    PeriodicRegime,
    lipschitz_c_experiment,
    long_time_convergence_experiment,
    periodic_regime,
    periodic_solution,
    require_store,
    solve_finite_horizon,
)

SUMMARY_KEYS = ("c0", "tau", "c_mT", "periodicity_defect", "nontriviality_gap",
                "lipschitz_ratio_max", "convergence_table")

CONVEXITY_TOL = 1e-2         # alpha: least second difference of alpha >= -this
PERIODICITY_TOL = 1e-4       # periodic: d1 between slices one period apart
NONTRIVIALITY_TOL = 1e-3     # periodic: least d1 spread of m_bar from m_bar(0) ...
INVARIANT_RADIUS = 1e-2      # ... unless m_T lies within this d1 of m_star
CONVERGE_SLACK = 0.1         # converge: a deviation may rise by this factor
RESIDUAL_CLOSED_TOL = 1e-10  # verify-example: closed-form residuals
RESIDUAL_GRID_TOL = 1e-3     # verify-example: sampled-grid residuals


def _write_summary(out: Path, command: str, cfg: RunConfig, failure,
                   fields: dict, extras: dict) -> int:
    """Write summary.json and return the run's exit code: 0, or 1 when a
    check failed, with the failure on one stderr line."""
    payload = {key: None for key in SUMMARY_KEYS}
    payload.update(fields)
    payload.update({
        "command": command,
        "config": asdict(cfg),
        "pass": failure is None,
        "extras": extras,
    })
    numpy_values = methodcaller("tolist")  # the values json cannot write itself
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                          default=numpy_values) + "\n"
    except ValueError:
        plain = json.loads(json.dumps(payload, default=numpy_values))
        raise MFGLabError(f"summary value {_non_finite(plain)} is not finite") from None
    (out / "summary.json").write_text(text)
    if failure is None:
        return 0
    print(f"check failed: {failure}", file=sys.stderr)
    return 1


def _non_finite(value, path=""):
    """Path of the first non-finite number in a value read back from
    JSON, in key order, as key.key[index]; None if every number is finite."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in sorted(value.items()))
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for where, item in items:
        found = _non_finite(item, where)
        if found is not None:
            return found
    return None


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the CSV artifacts written next to this script.\"\"\"
import csv
import sys
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).parent
for csv_path in sorted(HERE.glob("*.csv")):
    with open(csv_path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = list(zip(*[[float(v) for v in row] for row in reader]))
    if not cols:
        continue
    fig, ax = plt.subplots()
    if header[0] == "t" and len(header) == 3:
        # space-time field: plot a few time slices of column 3 against column 2
        ts = sorted(set(cols[0]))
        picks = ts[:: max(1, len(ts) // 6)]
        for t in picks:
            xs = [x for tt, x in zip(cols[0], cols[1]) if tt == t]
            ys = [y for tt, y in zip(cols[0], cols[2]) if tt == t]
            ax.plot(xs, ys, label=f"t={t:.3g}")
        ax.legend(fontsize=7)
        ax.set_xlabel(header[1]); ax.set_ylabel(header[2])
    else:
        for j in range(1, len(header)):
            ax.plot(cols[0], cols[j], label=header[j])
        ax.legend(fontsize=7)
        ax.set_xlabel(header[0])
    ax.set_title(csv_path.name)
    fig.savefig(csv_path.with_suffix(".png"), dpi=120)
    plt.close(fig)
print("plots written to", HERE)
"""


def _failure(checks):
    """The first of the checks (name, value, relation, bound) that fails,
    as one line, or None; relation is "<=" or ">=", and NaN fails both."""
    for name, value, relation, bound in checks:
        if not (value <= bound if relation == "<=" else value >= bound):
            return f"{name}: {value:.6g} is not {relation} {bound:.6g}"
    return None


def _auto_stride(cfg: RunConfig, n_slices: int) -> int:
    if cfg.csv_stride > 0:
        return cfg.csv_stride
    return max(1, n_slices // 100)


def _probe(cfg: RunConfig, model):
    """The critical-value probe of the config."""
    return critical_value(model, cfg.t_probe, cfg.n, cfg.dt_probe)


def _regime(cfg: RunConfig, model) -> PeriodicRegime:
    """The periodic regime of the config's probe."""
    return periodic_regime(model, _probe(cfg, model))


def run_critical_value(cfg: RunConfig, out: Path, _args: argparse.Namespace) -> int:
    model = cfg.build_model()
    probe = _probe(cfg, model)
    _write_csv(out / "u0.csv", "x,u0",
               zip(np.arange(cfg.n) / cfg.n, probe.u0))
    return _write_summary(out, "critical-value", cfg, None,
                          {"c0": probe.c0},
                          {"oscillation": probe.oscillation,
                           "stationary_residual": probe.residual,
                           "kink_nodes": int(np.sum(probe.kink_mask))})


def _parse_a_grid(text: str) -> np.ndarray:
    """The --a-grid flag lo:hi:count as count evenly spaced shifts."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError(f"a-grid invariant violated: --a-grid must be lo:hi:count "
                          f"with an integer count, got {text!r}") from None
    if count < 1 or not math.isfinite(hi - lo):  # a Python float: inf, no warning
        raise ConfigError(f"a-grid invariant violated: --a-grid needs finite lo, hi, "
                          f"hi - lo and count >= 1, got {text!r}")
    require_store("alpha", 2 * count * 8)  # the shifts and their alpha values
    return np.linspace(lo, hi, count)


def run_alpha(cfg: RunConfig, out: Path, args: argparse.Namespace) -> int:
    model = cfg.build_model()
    if not hasattr(model, "potential"):
        raise ConfigError("the alpha function needs a mechanical model")
    shifts = _parse_a_grid(args.a_grid)
    for a in shifts:  # each probe's model, refused before the first probe runs
        try:
            replace(model, shift=float(a)).validate()
        except ValueError as exc:
            raise ConfigError(f"a-grid invariant violated: shift a = {a:g}: {exc}") from None
    alphas = np.array([
        alpha_function(model, float(a), cfg.t_probe, cfg.n, cfg.dt_probe)
        for a in shifts
    ])
    _write_csv(out / "alpha.csv", "a,alpha", zip(shifts, alphas))
    convexity = failure = None
    if shifts.size >= 3:
        spacing = np.diff(shifts)
        if np.allclose(spacing, spacing[0], rtol=1e-9):
            second = alphas[2:] - 2.0 * alphas[1:-1] + alphas[:-2]
            convexity = float(np.min(second))
            failure = _failure([("convexity_min_second_difference", convexity, ">=",
                                 -CONVEXITY_TOL)])
    return _write_summary(out, "alpha", cfg, failure, {},
                          {"a_values": shifts, "alpha": alphas,
                           "convexity_min_second_difference": convexity})


def run_solve(cfg: RunConfig, out: Path, _args: argparse.Namespace) -> int:
    if not math.isfinite(cfg.c * cfg.horizon):  # the shift c t of the value field
        raise ConfigError(f"number invariant violated: c * horizon must be finite, "
                          f"got c = {cfg.c:g}, horizon = {cfg.horizon:g}")
    model = cfg.build_model()
    functional = cfg.build_coupling()
    m_t = cfg.build_measure(cfg.m_t)
    sol = solve_finite_horizon(cfg.build_phi(), m_t, cfg.c, cfg.horizon,
                               model, functional, cfg.dt)
    stride = _auto_stride(cfg, sol.times.size)
    _write_csv(out / "u.csv", "t,x,u",
               ((sol.times[k], x, u) for k in range(0, sol.times.size, stride)
                for x, u in zip(sol.nodes, sol.u_at(k))))
    _write_csv(out / "m.csv", "t,x,w",
               ((sol.times[k], x, w) for k in range(0, sol.times.size, stride)
                for x, w in zip(sol.m_positions[k], sol.m_weights)))
    return _write_summary(out, "solve", cfg, None, {},
                          {"c": sol.c,
                           "coupling_final": float(sol.coupling_series[-1]),
                           "horizon": cfg.horizon})


def run_periodic(cfg: RunConfig, out: Path, _args: argparse.Namespace) -> int:
    model = cfg.build_model()
    functional = cfg.build_coupling()
    m_t = cfg.build_measure(cfg.m_t)
    regime = _regime(cfg, model)
    ps = periodic_solution(m_t, regime, functional, dt=cfg.dt, periods=cfg.periods)
    stride = _auto_stride(cfg, ps.times.size)
    _write_csv(out / "ubar.csv", "t,x,u",
               ((ps.times[k], x, u) for k in range(0, ps.times.size, stride)
                for x, u in zip(ps.nodes, ps.u_bar[k])))
    _write_csv(out / "mbar.csv", "t,x,mass",
               ((ps.times[k], x, w) for k in range(0, ps.times.size, stride)
                for x, w in zip(ps.m_bar[k].positions, ps.m_bar[k].weights)))
    _write_csv(out / "flow.csv", "x,G,v", zip(ps.flow.df.nodes, ps.flow.g_nodes, ps.flow.df.v))
    checks = [("periodicity_defect", ps.periodicity_defect, "<=", PERIODICITY_TOL)]
    if not ps.distance_to_invariant < INVARIANT_RADIUS:  # m_T away from m_star
        checks.append(("nontriviality_gap", ps.nontriviality_gap, ">=", NONTRIVIALITY_TOL))
    failure = _failure(checks)
    return _write_summary(out, "periodic", cfg, failure,
                          {"c0": ps.c0, "tau": ps.tau, "c_mT": ps.c_mt,
                           "periodicity_defect": ps.periodicity_defect,
                           "nontriviality_gap": ps.nontriviality_gap},
                          {"mather_class": ps.drift.classification,
                           "distance_to_invariant": ps.distance_to_invariant})


def run_lipschitz(cfg: RunConfig, out: Path, args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed invariant violated: --seed must be >= 0, got {args.seed}")
    model = cfg.build_model()
    functional = cfg.build_coupling()
    # the 2 pairs measures built here, five n-vectors each, before the probe
    require_store("lipschitz-c", 2 * cfg.pairs * 5 * cfg.n * 8)
    regime = _regime(cfg, model)
    rng = PCG64Stream(args.seed)
    pairs = [(random_fourier_density(cfg.n, rng), random_fourier_density(cfg.n, rng))
             for _ in range(cfg.pairs)]
    report = lipschitz_c_experiment(pairs, regime, functional, dt=cfg.dt)
    _write_csv(out / "ratios.csv", "d1,gap,ratio",
               zip(report.distances, report.gaps, report.ratios))
    failure = None
    if report.violations:  # pairs whose ratio exceeds bound + LIPSCHITZ_SLACK
        failure = (f"lipschitz_ratio_max: {report.max_ratio:.6g} is not <= bound + slack "
                   f"{report.bound:.6g} + {LIPSCHITZ_SLACK:g} ({report.violations} of "
                   f"{len(pairs)} pairs)")
    return _write_summary(out, "lipschitz-c", cfg, failure,
                          {"lipschitz_ratio_max": report.max_ratio},
                          {"bound": report.bound, "k1": report.k1, "seed": args.seed,
                           "violations": report.violations, "pairs": len(pairs)})


def run_converge(cfg: RunConfig, out: Path, _args: argparse.Namespace) -> int:
    model = cfg.build_model()
    functional = cfg.build_coupling()
    m_t = cfg.build_measure(cfg.m_t)
    regime = _regime(cfg, model)
    report = long_time_convergence_experiment(
        cfg.build_phi(), m_t, model, regime, functional, cfg.horizons,
        window=cfg.window, dt=cfg.dt)
    table = [list(row) for row in zip(report.horizons, report.d1_deviation,
                                      report.u_deviation)]
    _write_csv(out / "converge.csv", "horizon,d1_deviation,u_deviation", table)
    slack = 1.0 + CONVERGE_SLACK
    rises = [(f"{name} at T = {now[0]:g} vs {slack:g} x its T = {before[0]:g} value",
              now[col], "<=", before[col] * slack)
             for col, name in ((1, "d1_deviation"), (2, "u_deviation"))
             for before, now in zip(table, table[1:])]
    failure = _failure(rises + [(f"d1_deviation at T = {table[-1][0]:g} vs tol_converge_final",
                                 table[-1][1], "<=", cfg.tol_converge_final)])
    return _write_summary(out, "converge", cfg, failure,
                          {"convergence_table": table, "c_mT": report.c_mt},
                          {"window": cfg.window})


def run_wasserstein(cfg: RunConfig, out: Path, _args: argparse.Namespace) -> int:
    m1 = cfg.build_measure(cfg.m1)
    m2 = cfg.build_measure(cfg.m2)
    d1 = wasserstein1(m1, m2)
    _write_csv(out / "m1.csv", "x,mass", zip(m1.positions, m1.weights))
    _write_csv(out / "m2.csv", "x,mass", zip(m2.positions, m2.weights))
    return _write_summary(out, "wasserstein", cfg, None, {},
                          {"d1": d1, "m1": cfg.m1, "m2": cfg.m2})


def run_verify_example(cfg: RunConfig, out: Path, _args: argparse.Namespace) -> int:
    closed = explicit.ExplicitInstance(n_grid=64, n_time=64)
    # dt != dx: with dt = dx the centred time and space differences of
    # m(x + t) cancel, and the grid transport residual reads round-off
    sampled = explicit.ExplicitInstance(n_grid=256, n_time=512)
    results = {
        "hjb_closed": explicit.hjb_residual(closed, closed_form=True),
        "transport_closed": explicit.transport_residual(closed, closed_form=True),
        "hjb_grid": explicit.hjb_residual(sampled, closed_form=False),
        "transport_grid": explicit.transport_residual(sampled, closed_form=False),
    }
    for key, value in results.items():
        print(f"{key.replace('_', ' ')}: {value:.6e}")
    failure = _failure([(key, value, "<=", RESIDUAL_CLOSED_TOL if key.endswith("closed")
                         else RESIDUAL_GRID_TOL) for key, value in results.items()])
    print("FAIL" if failure else "PASS")
    return _write_summary(out, "verify-example", cfg, failure, {}, results)


RUNNERS = {
    "critical-value": run_critical_value,
    "alpha": run_alpha,
    "solve": run_solve,
    "periodic": run_periodic,
    "lipschitz-c": run_lipschitz,
    "converge": run_converge,
    "wasserstein": run_wasserstein,
    "verify-example": run_verify_example,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description="numerical laboratory for first-order mean field games on the circle",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the run configuration file")
        p.add_argument("--out", default="out", help="output directory")
        if name == "lipschitz-c":
            p.add_argument("--seed", type=int, default=0,
                           help="seed for random measure-pair generation")
        if name == "alpha":
            p.add_argument("--a-grid", default="0:0:1", help="lo:hi:count grid of shifts")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {str(out)!r}: "
                              f"{exc.strerror}") from None
        code = RUNNERS[args.command](cfg, out, args)
        (out / "plot.py").write_text(_PLOT_SCRIPT)
        return code
    except ConfigError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except MFGLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
