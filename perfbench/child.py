"""One measured call of ``mfglab.cli.main`` in a fresh interpreter.

run.py starts this script once per sample, with BLAS pinned to one thread
and ``src/`` of the checkout on PYTHONPATH, and passes the CLOCK_MONOTONIC
time (ns) taken just before the spawn, so that interpreter start-up counts
toward set-up time.

    child.py SPAWN_NS RESULT_JSON TRACE SPANS_JSON -- <mfglab arguments>

Set-up is interpreter start, ``import mfglab`` and parsing plus validating
the config, ending before the first numerical call.  Wall and CPU time
cover only the call into ``mfglab.cli.main``.  Memory is this process's
own ``ru_maxrss``.  With TRACE = 1 the tracer wraps the package's entry
points before the import completes, and the spans go to SPANS_JSON.
"""

import json
import resource
import sys
import time
import traceback


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spawn_ns, result_path, trace, spans_path, sep, *cli_argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SPAWN_NS RESULT_JSON TRACE SPANS_JSON -- ARGS")
    result = {"stage": "setup", "exit_code": None, "error": None}
    try:
        tracer = None
        if trace == "1":
            from tracer import OBSERVERS, Tracer
            tracer = Tracer().install(observers=OBSERVERS)
        import mfglab
        import mfglab.cli
        from mfglab.config import RunConfig

        result["mfglab_file"] = mfglab.__file__
        RunConfig.from_file(cli_argv[cli_argv.index("--config") + 1])
        setup_done = time.monotonic_ns()
        result["setup_s"] = (setup_done - int(spawn_ns)) * 1e-9

        result["stage"] = "run"
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            result["exit_code"] = mfglab.cli.main(cli_argv)
        finally:
            result["wall_s"] = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            result["cpu_s"] = _cpu_s(after) - _cpu_s(before)
            result["peak_rss_mb"] = after.ru_maxrss / 1024.0  # KiB on Linux
        result["stage"] = "done"
    except Exception:  # the run boundary: any exception is a failed sample
        result["error"] = traceback.format_exc()

    import numpy
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    try:
        from importlib.metadata import version
        result["versions"]["scipy"] = version("scipy")
    except ImportError:
        result["versions"]["scipy"] = None
    if tracer is not None:
        tracer.write(spans_path)
        result["trace"] = {
            "layers": tracer.summary(),
            "missing": tracer.missing,
            "top_level_s": tracer.top_level_s(),
            "phi_inverse_points": tracer.points,
            "pushforward_phases": len(tracer.phases),
            "stored_bytes": tracer.stored_bytes,
        }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
