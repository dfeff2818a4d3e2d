"""mfglab benchmark: runs one CLI subcommand per sample in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S [--trace 0|1]

Run from the root of a checkout.  A run writes a config generated from
the seed, then starts ``child.py`` again and again (one process at a
time, BLAS pinned to one thread) until the next sample would not finish
within S seconds.  Every sample's outputs are checked against the pinned
references in ``reference.json``; a non-zero exit, an exception or a
mismatch makes the sample fail.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics (medians over the samples).  With ``--trace 1`` untraced and
traced samples alternate and the JSON carries the per-layer metrics of
the traced samples plus the tracing overhead.  ``--workload all`` runs
every workload in interleaved order and prints a table per workload.
See README.md for the workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_NAMES
from workloads import WORKLOADS, compare, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class SetupFailure(RuntimeError):
    """The program could not be imported from this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # main() warms the bytecode cache once
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def run_child(workload, variant, run_dir: Path, trace: bool) -> dict:
    """Start one sample; its record holds the outputs or why it failed."""
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    result_path = run_dir / "result.json"
    result_path.unlink(missing_ok=True)
    tail = [str(result_path), "1" if trace else "0", str(run_dir / "spans.json"), "--",
            *workload.argv(variant, run_dir / "run.ini", out)]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spawn_ns), *tail],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": trace, "failure": f"timed out after {CHILD_TIMEOUT_S} s"}
    if not result_path.exists():
        return {"traced": trace,
                "failure": f"child died (exit {proc.returncode}): {proc.stderr[-2000:]}"}
    record = json.loads(result_path.read_text())
    record["traced"] = trace
    file = record.get("mfglab_file") or ""
    if record["stage"] == "setup" or not Path(file).resolve().is_relative_to(SRC):
        raise SetupFailure(f"mfglab not importable from {SRC}: {record.get('error') or file}")
    record["failure"] = None
    if record["error"]:
        record["failure"] = record["error"]
    elif record["exit_code"] != 0:
        record["failure"] = f"exit code {record['exit_code']}: {proc.stderr[-2000:]}"
    else:
        try:
            if json.loads((out / "summary.json").read_text()).get("pass") is not True:
                raise ValueError("summary.json reports pass = false")
            record["outputs"] = workload.outputs(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            record["failure"] = f"unreadable or failing outputs: {exc!r}"
    if trace and record["failure"] is None:
        record["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return record


def check_outputs(record, workload, variant, reference) -> dict:
    """Fail the sample when its outputs differ from the pinned reference."""
    if record["failure"] is None:
        pinned = reference["workloads"][workload.name].get(workload.key(variant))
        if pinned is None:
            record["failure"] = f"no pinned reference for {workload.key(variant)}"
        else:
            problems = compare(record["outputs"], pinned)
            record["failure"] = "; ".join(problems) if problems else None
    return record


def prepare(workload, variant) -> dict:
    """Write the run's config for these inputs and return the run state."""
    run_dir = WORK / workload.name
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "run.ini").write_text(workload.config_text(variant))
    return {"workload": workload, "variant": variant, "dir": run_dir, "samples": []}


def measure(names, seed: int, seconds: float, trace: bool) -> dict:
    """Interleave samples of the named workloads until time runs out."""
    reference = load_reference()
    runs = {name: prepare(WORKLOADS[name], WORKLOADS[name].variant(seed)) for name in names}
    start = time.monotonic()
    turn = 0
    while True:
        traced = trace and turn % 2 == 1
        round_start = time.monotonic()
        for run in runs.values():
            record = run_child(run["workload"], run["variant"], run["dir"], traced)
            run["samples"].append(check_outputs(record, run["workload"], run["variant"], reference))
        turn += 1
        now = time.monotonic()
        need_traced = trace and turn < 2
        if not need_traced and (now - start) + (now - round_start) > seconds:
            return runs


# -- statistics -------------------------------------------------------------
def high_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples
    above it, or None when there are too few samples."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(samples) -> dict:
    good = [s for s in samples if not s["traced"] and s["failure"] is None]
    return {name: {"value": _median([s[name] for s in good]), "unit": unit,
                   "samples": [s[name] for s in good]}
            for name, unit in END_TO_END}


def per_layer(samples, workload) -> dict:
    traced = [s for s in samples if s["traced"] and s.get("trace") and s["failure"] is None]
    plain = [s for s in samples if not s["traced"] and s["failure"] is None]
    metrics = {}

    def put(name, unit, values):
        # a count keeps an observed value, so exact counts stay integers
        middle = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = {"value": middle(values) if values else 0, "unit": unit}

    def layer(s, span):
        return s["trace"]["layers"].get(span, {"calls": 0, "errors": 0, "self_s": 0.0})

    for span in SPAN_NAMES:
        put(f"{span}.calls", "count", [layer(s, span)["calls"] for s in traced])
        put(f"{span}.self_s", "s", [layer(s, span)["self_s"] for s in traced])
        metrics[f"{span}.errors"] = {"value": sum(layer(s, span)["errors"] for s in samples
                                                  if s.get("trace")), "unit": "count"}

    def rate(work, span):
        return [work(s) / layer(s, span)["self_s"] if layer(s, span)["self_s"] > 0 else 0.0
                for s in traced]

    put("lax_oleinik.step.node_steps_per_s", "1/s",
        rate(lambda s: layer(s, "lax_oleinik.step")["calls"] * workload.n, "lax_oleinik.step"))
    put("characteristics.phi_inverse.points", "count",
        [s["trace"]["phi_inverse_points"] for s in traced])
    put("characteristics.phi_inverse.points_per_s", "1/s",
        rate(lambda s: s["trace"]["phi_inverse_points"], "characteristics.phi_inverse"))
    put("measures.pushforward.distinct_phase_ratio", "ratio",
        [s["trace"]["pushforward_phases"] / layer(s, "measures.pushforward")["calls"]
         if layer(s, "measures.pushforward")["calls"] else 0.0 for s in traced])
    put("mfg.solve_finite_horizon.stored_mb", "MB_computed",
        [s["trace"]["stored_bytes"] / 1e6 for s in traced])
    put("cli.artifact_bytes", "bytes", [s["artifact_bytes"] for s in traced])
    put("trace.top_level_coverage", "ratio",
        [s["trace"]["top_level_s"] / s["wall_s"] for s in traced])
    metrics["trace.missing_targets"] = {
        "value": max((len(s["trace"]["missing"]) for s in traced), default=0), "unit": "count"}
    metrics["trace_overhead_s"] = {
        "value": _median([s["wall_s"] for s in traced]) - _median([s["wall_s"] for s in plain]),
        "unit": "s"}
    return dict(sorted(metrics.items()))


# -- reporting --------------------------------------------------------------
def machine_facts(samples) -> dict:
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    return {"cores_in_affinity": len(os.sched_getaffinity(0)),
            "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), **versions,
            "child_blas_threads": 1}


def describe(name, run) -> list:
    samples = run["samples"]
    failed = [s for s in samples if s["failure"] is not None]
    lines = [f"workload {name}: inputs {WORKLOADS[name].key(run['variant'])}, "
             f"{len(samples)} samples ({sum(s['traced'] for s in samples)} traced), "
             f"error_rate {len(failed) / len(samples):.3f} ({len(failed)}/{len(samples)})"]
    for label, info in end_to_end(samples).items():
        values = info["samples"]
        high = high_percentile(values)
        tail = f"p{high[0]:.0f} {high[1]:.6g}" if high else "high percentile n/a (<= 10 samples)"
        lines.append(f"  {label:<12} median {info['value']:.6g} {info['unit']}  {tail}  n={len(values)}")
    lines += [f"  FAILED sample: {s['failure'].strip()[:500]}" for s in failed]
    missing = sorted({t for s in samples for t in s.get("trace", {}).get("missing", [])})
    lines += [f"  trace target missing: {target}" for target in missing]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfglab" / "cli.py").is_file():
        print(f"error: no mfglab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # compile once up front, so that setup_s never includes byte-compiling
    for directory in (SRC, BENCH):
        compileall.compile_dir(directory, quiet=1)
    try:
        runs = measure(names, args.seed, args.seconds, bool(args.trace))
    except SetupFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    all_samples = [s for run in runs.values() for s in run["samples"]]
    print("machine: " + json.dumps(machine_facts(all_samples)))
    for name, run in runs.items():
        print("\n".join(describe(name, run)))
        if args.trace:
            run["layers"] = per_layer(run["samples"], run["workload"])
            for metric, info in run["layers"].items():
                print(f"  {metric:<48} {info['value']:.6g} {info['unit']}")

    failed = sum(s["failure"] is not None for s in all_samples)
    if args.workload == "all":
        return 0 if failed == 0 else 1
    run = runs[args.workload]
    metrics = run["layers"] if args.trace else {
        k: {"value": v["value"], "unit": v["unit"]} for k, v in end_to_end(run["samples"]).items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(all_samples),
                      "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
