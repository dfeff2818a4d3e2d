"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, compare, load_reference  # noqa: E402


def test_self_time_subtracts_nested_children():
    ticks = iter([0, 10, 15, 40, 50, 100])  # ns, one per clock() call
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        return "leaf"

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def outer():
        wrapped_leaf()  # 10 -> 15
        wrapped_leaf()  # 40 -> 50
        return "outer"

    assert tracer.wrap("outer", outer)() == "outer"  # 0 -> 100
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["outer"]["total_s"] == pytest.approx(100e-9)
    assert summary["outer"]["self_s"] == pytest.approx(85e-9)
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == pytest.approx(15e-9)
    assert tracer.top_level_s() == pytest.approx(100e-9)
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_raising_call_is_counted_as_an_error():
    tracer = Tracer()

    def boom():
        raise ValueError("planted")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["boom"]["errors"] == 1
    assert tracer.stack == []


def test_missing_wrap_target_is_reported_not_raised():
    tracer = Tracer().install(targets=(
        ("gone.function", "json:no_such_function"),
        ("gone.method", "json:JSONDecoder.no_such_method"),
        ("gone.module", "no_such_module_for_the_tracer:f"),
    ))
    assert tracer.missing == ["json:no_such_function", "json:JSONDecoder.no_such_method",
                              "no_such_module_for_the_tracer:f"]
    assert tracer.spans == []


def test_function_is_rebound_where_it_was_imported_by_name():
    import mfglab
    import mfglab.measures
    import mfglab.mfg

    original = mfglab.measures.pushforward
    try:
        tracer = Tracer().install(targets=(("measures.pushforward",
                                            "mfglab.measures:pushforward"),))
        assert tracer.missing == []
        for module in (mfglab, mfglab.measures, mfglab.mfg):
            assert module.pushforward is not original
            assert module.pushforward.__wrapped__ is original
    finally:
        for module in (mfglab, mfglab.measures, mfglab.mfg):
            module.pushforward = original


def test_planted_output_perturbation_is_flagged():
    reference = load_reference()["workloads"]["converge-qd512"]
    pinned = next(iter(reference.values()))
    assert compare(json.loads(json.dumps(pinned)), pinned) == []

    shifted = json.loads(json.dumps(pinned))
    shifted["convergence_table"][1][1] *= 1.0 + 1e-5
    problems = compare(shifted, pinned)
    assert len(problems) == 1 and "convergence_table[1][1]" in problems[0]

    last_bit = json.loads(json.dumps(pinned))
    last_bit["convergence_table"][1][1] *= 1.0 + 1e-14
    assert compare(last_bit, pinned) == []

    truncated = json.loads(json.dumps(pinned))
    truncated["convergence_table"].pop()
    assert compare(truncated, pinned) != []


def test_planted_averager_perturbation_is_flagged():
    reference = load_reference()["workloads"]["lipschitz-cos512"]
    pinned = next(iter(reference.values()))
    assert compare(json.loads(json.dumps(pinned)), pinned) == []

    # the smallest c-gap: it must be pinned relative to its own size
    smallest = min(range(len(pinned["gap"])), key=lambda i: pinned["gap"][i])
    shifted = json.loads(json.dumps(pinned))
    shifted["gap"][smallest] *= 1.0 + 1e-3
    problems = compare(shifted, pinned)
    assert len(problems) == 1 and f"gap[{smallest}]" in problems[0]

    last_bit = json.loads(json.dumps(pinned))
    last_bit["gap"] = [g * (1.0 + 1e-14) for g in last_bit["gap"]]
    assert compare(last_bit, pinned) == []


def test_every_drawable_input_has_a_pinned_reference():
    reference = load_reference()["workloads"]
    for name, workload in WORKLOADS.items():
        keys = {workload.key(v) for v in workload.variants()}
        assert keys == set(reference[name]), name
        for seed in range(50):
            assert workload.variant(seed) == workload.variant(seed)
            assert workload.key(workload.variant(seed)) in keys


def test_emitted_metrics_match_benchmark_json():
    from run import END_TO_END, per_layer

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in END_TO_END]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    layers = {"cli.main": {"calls": 1, "errors": 0, "total_s": 1.0, "self_s": 0.5}}
    sample = {"traced": True, "failure": None, "wall_s": 1.0, "artifact_bytes": 10,
              "trace": {"layers": layers, "missing": [], "top_level_s": 1.0,
                        "phi_inverse_points": 0, "pushforward_phases": 0, "stored_bytes": 0}}
    plain = {"traced": False, "failure": None, "wall_s": 0.9}
    emitted = per_layer([plain, sample], WORKLOADS["alpha-cos256"])
    assert sorted(emitted) == sorted(m["name"] for m in bench["per_layer"])
    assert emitted["trace_overhead_s"]["value"] == pytest.approx(0.1)
    assert emitted["cli.main.self_s"]["value"] == pytest.approx(0.5)
