"""Span recorder that wraps the package's public entry points by name.

Each wrapped call records one span: name, start, end, parent span and
whether it raised.  Spans stay in memory until the run ends.  A layer's
self time is its span's duration minus the time its child spans cover.

Targets are given as ``"module:qualname"`` strings and are resolved at
install time, so a target renamed or deleted by a later refactor is
reported as missing instead of breaking the benchmark.  A module-level
function is also re-bound in every loaded package module that imported
it by name (``from .measures import pushforward`` keeps its own
reference), so calls through those aliases are traced too.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "mfglab"

# (span name, target).  Several targets may share one span name.
TARGETS = (
    ("cli.main", "mfglab.cli:main"),
    ("lax_oleinik.stepper_init", "mfglab.lax_oleinik:HopfLaxStepper.__init__"),
    ("lax_oleinik.step", "mfglab.lax_oleinik:HopfLaxStepper.step"),
    ("lax_oleinik.critical_value", "mfglab.lax_oleinik:critical_value"),
    ("characteristics.flowmap_init", "mfglab.characteristics:FlowMap.__init__"),
    ("characteristics.phi", "mfglab.characteristics:FlowMap.phi"),
    ("characteristics.phi_inverse", "mfglab.characteristics:FlowMap.phi_inverse"),
    ("characteristics.forward_flow", "mfglab.characteristics:forward_flow"),
    ("measures.pushforward", "mfglab.measures:pushforward"),
    ("measures.wasserstein1", "mfglab.measures:wasserstein1"),
    ("coupling.evaluate", "mfglab.coupling:CouplingFunctional.__call__"),
    ("mfg.solve_finite_horizon", "mfglab.mfg:solve_finite_horizon"),
    ("mfg.averager.init", "mfglab.mfg:PeriodicCouplingAverager.__init__"),
    ("mfg.averager.series", "mfglab.mfg:PeriodicCouplingAverager.series"),
    ("mfg.experiment", "mfglab.mfg:periodic_solution"),
    ("mfg.experiment", "mfglab.mfg:lipschitz_c_experiment"),
    ("mfg.experiment", "mfglab.mfg:long_time_convergence_experiment"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _ in TARGETS))


class Tracer:
    """In-memory span store.  ``clock`` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []      # [name, start_ns, end_ns, parent_index, raised]
        self.stack = []
        self.missing = []    # targets that could not be resolved
        self.points = 0      # query points passed to FlowMap.phi_inverse
        self.phases = set()  # distinct (T - t) mod tau of push-forwards
        self.stored_bytes = 0

    # -- recording ------------------------------------------------------
    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``observe(tracer, args, kwargs, result)`` runs after a successful
        call and may record counts read from the arguments or the result.
        """
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS, observers=None):
        """Wrap every resolvable target; unresolvable ones go to ``missing``."""
        observers = observers or {}
        for name, target in targets:
            module_name, _, qualname = target.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapped = self.wrap(name, original, observers.get(target))
            setattr(owner, attr, wrapped)
            if owner is module:
                _rebind_aliases(original, wrapped)
        return self

    # -- reading --------------------------------------------------------
    def summary(self):
        """Per span name: calls, errors, total and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for index, (name, start, end, _, raised) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["errors"] += int(raised)
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns[index]) * 1e-9
        return out

    def top_level_s(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0) * 1e-9

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "raised"],
                       "spans": self.spans, "missing": self.missing}, fh)


def _rebind_aliases(original, wrapped):
    """Point every loaded package module's reference to ``original`` at ``wrapped``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


# -- observers: counts read from the arguments or results ---------------
def _count_points(tracer, args, kwargs, result):
    """FlowMap.phi_inverse(self, t, T, y): number of query points."""
    tracer.points += int(getattr(result, "size", 1))


def _record_phase(tracer, args, kwargs, result):
    """pushforward(fm, m, t, T): the flow phase (T - t) mod tau it needs."""
    fm, _m, t, T = (list(args) + [None] * 4)[:4]
    t = kwargs.get("t", t)
    T = kwargs.get("T", T)
    tau = getattr(fm, "tau", None)
    if tau is None or t is None or T is None:
        return
    phase = round(((T - t) % tau) * 1e9)
    if phase >= round(tau * 1e9):
        phase = 0
    tracer.phases.add(phase)


def _record_stored(tracer, args, kwargs, result):
    """Bytes of the (K+1, N) value and origin-chain arrays a solve returns."""
    total = sum(getattr(getattr(result, attr, None), "nbytes", 0) for attr in ("w", "m_positions"))
    tracer.stored_bytes = max(tracer.stored_bytes, total)


OBSERVERS = {
    "mfglab.characteristics:FlowMap.phi_inverse": _count_points,
    "mfglab.measures:pushforward": _record_phase,
    "mfglab.mfg:solve_finite_horizon": _record_stored,
}
