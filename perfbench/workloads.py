"""The benchmark's workloads: seeded config generation, the outputs each
run must reproduce, and the comparison against the pinned references.

The seed only draws inputs that leave the amount of work unchanged (the
final-measure bump, the alpha shift-grid offset, the measure-pair seed).
Grid size, time steps, horizons and counts are fixed per workload.  Each
drawn input comes from a small fixed grid, so every input a seed can
produce has a pinned reference output in ``reference.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A run passes when |value - reference| <= ATOL + RTOL * |reference| for
# every pinned output.  RTOL catches any shift beyond reordered float
# arithmetic; ATOL covers outputs that are zero up to round-off (c(m_T)
# of the x-independent QuadraticDrift flow, ~1e-16).
RTOL = 1e-6
ATOL = 1e-12

# Gaussian-bump final measures: any centre on the circle (the drift model
# is x-independent, so no centre is special) and widths that the n = 512
# grid resolves with > 60 nodes per standard deviation while the bump
# stays far from uniform.
BUMP_CENTRES = tuple(k / 8 for k in range(8))
BUMP_WIDTHS = (0.12, 0.15, 0.18)
# Alpha shift-grid offsets: the shifted grid [-0.9 + o, 0.9 + o] stays
# inside the cosine potential's plateau |a| <= 4/pi, where alpha = max V.
ALPHA_OFFSETS = tuple(round(-0.1 + 0.025 * k, 6) for k in range(9))
PAIR_SEEDS = tuple(range(16))
# Momentum shift of the lipschitz-c model.  Outside the cosine potential's
# plateau |a| <= 4/pi the weak-KAM drift never vanishes (a periodic orbit,
# as lipschitz-c requires) and its speed varies along the circle, so c(m)
# depends on m and the averager's outputs are not zero.
LIPSCHITZ_SHIFT = 1.6

_QD_HEAD = """\
[model]
family = quadratic-drift
[coupling]
f = cosine4pi
"""


def _bump(variant):
    return f"gaussian-bump({variant['centre']:g},{variant['width']:g})"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int                 # grid nodes, for node-steps/s
    grids: dict            # drawn input -> the values a seed can pick

    def variants(self):
        keys = list(self.grids)
        return [dict(zip(keys, values)) for values in itertools.product(*self.grids.values())]

    def variant(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {key: rng.choice(values) for key, values in self.grids.items()}

    @staticmethod
    def key(variant: dict) -> str:
        return ",".join(f"{k}={variant[k]:g}" for k in sorted(variant))

    def config_text(self, variant: dict) -> str:
        return _CONFIGS[self.name](variant)

    def argv(self, variant: dict, config: Path, out: Path) -> list:
        argv = [self.command, "--config", str(config), "--out", str(out)]
        if self.name == "alpha-cos256":
            o = variant["offset"]
            argv.append(f"--a-grid={-0.9 + o!r}:{0.9 + o!r}:3")
        if self.name == "lipschitz-cos512":
            argv += ["--seed", str(variant["pair_seed"])]
        return argv

    def outputs(self, out: Path) -> dict:
        """The pinned outputs of one run, read from its artifacts."""
        summary = json.loads((out / "summary.json").read_text())
        if self.name == "converge-qd512":
            return {"c_mT": summary["c_mT"],
                    "convergence_table": summary["convergence_table"]}
        if self.name == "alpha-cos256":
            return {"alpha": summary["extras"]["alpha"]}
        if self.name == "lipschitz-cos512":
            return {"lipschitz_ratio_max": summary["lipschitz_ratio_max"],
                    "k1": summary["extras"]["k1"],
                    "violations": summary["extras"]["violations"],
                    **_ratios_csv_outputs(out)}
        return {"coupling_final": summary["extras"]["coupling_final"],
                **_solve_csv_outputs(out, self.n)}


def _ratios_csv_outputs(out: Path) -> dict:
    """The d1 and c-gap columns of ratios.csv, one entry per pair: the
    gaps pin the averager's period averages of F."""
    rows = [row.split(",") for row in (out / "ratios.csv").read_text().splitlines()[1:]]
    return {"d1": [float(row[0]) for row in rows], "gap": [float(row[1]) for row in rows]}


def _solve_csv_outputs(out: Path, n: int) -> dict:
    """Mean of u on the last written slice and the first circular moment
    of the transported measure at t = 0 (the end of the backtracking)."""
    u_rows = (out / "u.csv").read_text().splitlines()[-n:]
    u_mean = math.fsum(float(row.rsplit(",", 1)[1]) for row in u_rows) / n
    m_rows = (out / "m.csv").read_text().splitlines()[1:n + 1]
    cos_m = sin_m = 0.0
    for row in m_rows:
        t, x, w = (float(v) for v in row.split(","))
        if t != 0.0:
            raise ValueError("m.csv does not start with the t = 0 slice")
        cos_m += w * math.cos(2.0 * math.pi * x)
        sin_m += w * math.sin(2.0 * math.pi * x)
    return {"u_last_mean": u_mean, "m0_cos_moment": cos_m, "m0_sin_moment": sin_m}


_CONFIGS = {
    "converge-qd512": lambda v: _QD_HEAD + f"""\
[grid]
n = 512
dt = 0.004
[measures]
m_t = {_bump(v)}
[run]
t_probe = 20.0
dt_probe = 0.004
horizons = 3 6
window = 0.5
phi = cosine
[tolerances]
; d1 at the last horizon (T = 6) is about 0.01-0.03 for these bumps; the
; package default 5e-3 is meant for the T = 40 horizon of the full study
tol_converge_final = 0.05
""",
    "alpha-cos256": lambda v: """\
[model]
family = mechanical
potential = cosine
[grid]
n = 256
[run]
t_probe = 20.0
dt_probe = 0.004
""",
    "lipschitz-cos512": lambda v: f"""\
[model]
family = mechanical
potential = cosine
shift = {LIPSCHITZ_SHIFT!r}
[coupling]
f = cosine4pi
[grid]
n = 512
dt = 0.002
[run]
t_probe = 20.0
dt_probe = 0.004
pairs = 20
""",
    "solve-qd4096": lambda v: _QD_HEAD + f"""\
[grid]
n = 4096
dt = 0.001
[measures]
m_t = {_bump(v)}
[run]
horizon = 0.4
phi = cosine
c = 0.0
; every 8th slice: 51 slices of 4096 rows in each of u.csv and m.csv
csv_stride = 8
""",
}

WORKLOADS = {w.name: w for w in (
    Workload("converge-qd512", "converge", 512, {"centre": BUMP_CENTRES, "width": BUMP_WIDTHS}),
    Workload("alpha-cos256", "alpha", 256, {"offset": ALPHA_OFFSETS}),
    Workload("lipschitz-cos512", "lipschitz-c", 512, {"pair_seed": PAIR_SEEDS}),
    Workload("solve-qd4096", "solve", 4096, {"centre": BUMP_CENTRES, "width": BUMP_WIDTHS}),
)}


# -- pinned references ------------------------------------------------------
def flatten(value, prefix=""):
    """Nested lists and dicts of numbers -> {dotted.path[i]: number}."""
    if isinstance(value, dict):
        out = {}
        for k in sorted(value):
            out.update(flatten(value[k], f"{prefix}.{k}" if prefix else k))
        return out
    if isinstance(value, list):
        out = {f"{prefix}.len": len(value)}
        for i, item in enumerate(value):
            out.update(flatten(item, f"{prefix}[{i}]"))
        return out
    return {prefix: value}


def compare(outputs: dict, reference: dict) -> list:
    """Mismatches between a run's outputs and its pinned reference."""
    got, want = flatten(outputs), flatten(reference)
    problems = []
    for key, ref in want.items():
        if key not in got:
            problems.append(f"{key}: missing (reference {ref!r})")
            continue
        value = got[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{key}: {value!r} is not a finite number (reference {ref!r})")
        elif abs(value - ref) > ATOL + RTOL * abs(ref):
            problems.append(f"{key}: {value!r} differs from reference {ref!r}")
    problems += [f"{key}: not in the reference" for key in got if key not in want]
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
