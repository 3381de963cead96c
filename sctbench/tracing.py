"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the public functions of each layer of ``repro`` from
the outside (the package itself is not modified) and aggregates, per
layer, the number of calls and the *self* time: the wall time spent in
the function minus the time spent in wrapped functions it called.
Nothing is recorded per call beyond two running sums, because
``Executor.step`` runs hundreds of thousands of times a second.

The wrappers are installed on the class or module attribute that the
callers look up at call time, including the two places a plain
``Executor.step`` patch would miss: the specialised fast-replay loop
(:mod:`repro.runtime.stepper` binds it per executor) and the engine's
``observe_fast`` entry point.  :meth:`Tracer.uninstall` restores every
original, so a run can alternate traced and untraced passes.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: prefix of the stderr line carrying a traced child's ledger as JSON
LEDGER_MARK = "SCTBENCH-LEDGER "

#: marks a patched attribute that was inherited, not the owner's own
_ABSENT = object()

#: span name -> workloads that must record at least one call to it.  The
#: traced run fails, naming the span, when a target records none: that
#: is how a wrapper silently bypassed by a hoisted bound method shows.
SPAN_TARGETS: Dict[str, Tuple[str, ...]] = {
    "executor.step": ("suite-exhaust", "dpor-scale", "bug-hunt",
                      "check-cold"),
    "executor.finish": ("suite-exhaust", "dpor-scale", "bug-hunt",
                        "check-cold"),
    "executor.snapshot": ("suite-exhaust", "dpor-scale"),
    "executor.from_snapshot": ("suite-exhaust", "dpor-scale"),
    "executor.pending_info": ("dpor-scale",),
    "engine.observe": ("suite-exhaust", "dpor-scale", "bug-hunt"),
    "state.compute_state_hash": ("suite-exhaust",),
    "program.instantiate": ("bug-hunt",),
    "snapshots.lookup": ("suite-exhaust",),
    "snapshots.insert": ("suite-exhaust",),
    "campaign.execute_cell": ("suite-exhaust",),
    "kernel.expand": ("suite-exhaust",),
    "kernel.run": ("suite-exhaust",),
    "dpor.run": ("dpor-scale",),
    "minimize": ("bug-hunt",),
    "shim.instrument": ("check-cold",),
    "check.check": ("check-cold",),
}

#: derived metric -> (unit, workloads whose traced run must give it a
#: non-empty base)
DERIVED: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "snapshots.lookup.hit_ratio": ("frac", ("suite-exhaust",)),
    "snapshots.insert.accept_ratio": ("frac", ("suite-exhaust",)),
    "state.hash_per_complete": ("1/schedule", ("suite-exhaust",)),
    "explore.pruned_ratio": ("frac", ("dpor-scale",)),
    "explore.schedules_per_hbr": ("schedules/hbr", ("dpor-scale",)),
    "minimize.replays": ("count", ("bug-hunt",)),
    "minimize.witness_events": ("count", ("bug-hunt",)),
    "import.repro_s": ("s", ("check-cold",)),
    "trace.overhead_frac": ("frac", ()),
}


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    out: List[Tuple[str, str]] = []
    for span in SPAN_TARGETS:
        out.append((f"{span}.calls", "count"))
        out.append((f"{span}.self_s", "s"))
    out.extend((name, unit) for name, (unit, _) in DERIVED.items())
    return out


class Ledger:
    """In-memory aggregate of one traced run (or of one traced child)."""

    def __init__(self) -> None:
        #: span -> [calls, self seconds]
        self.spans: Dict[str, List[float]] = {
            name: [0, 0.0] for name in SPAN_TARGETS
        }
        self.counters: Dict[str, float] = {
            "snapshots.lookup.hits": 0,
            "snapshots.insert.accepted": 0,
            "minimize.replays": 0,
            "minimize.witness_events": 0,
            "explore.schedules": 0,
            "explore.pruned": 0,
            "explore.hbrs": 0,
            "explore.complete": 0,
        }
        self.import_s: List[float] = []

    def add_stats(self, stats) -> None:
        """Count one finished exploration (an ``ExplorationStats``)."""
        c = self.counters
        c["explore.schedules"] += stats.num_schedules
        c["explore.pruned"] += stats.num_pruned
        c["explore.hbrs"] += stats.num_hbrs
        c["explore.complete"] += stats.num_complete

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": self.spans, "counters": self.counters,
                "import_s": self.import_s}

    def merge(self, payload: Dict[str, Any]) -> None:
        for name, (calls, self_s) in payload["spans"].items():
            span = self.spans[name]
            span[0] += calls
            span[1] += self_s
        for name, value in payload["counters"].items():
            self.counters[name] += value
        self.import_s.extend(payload["import_s"])

    def metrics(self, overhead_frac: float, passes: float
                ) -> Dict[str, Tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit).  Calls, self
        times and counts are per traced pass (``passes`` of them ran),
        so they compare with the end-to-end ``wall_s`` of one pass."""
        out: Dict[str, Tuple[float, str]] = {}
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.self_s"] = (self_s / passes, "s")
        c = self.counters
        lookups = self.spans["snapshots.lookup"][0]
        inserts = self.spans["snapshots.insert"][0]
        hashes = self.spans["state.compute_state_hash"][0]
        values = {
            "snapshots.lookup.hit_ratio":
                _ratio(c["snapshots.lookup.hits"], lookups),
            "snapshots.insert.accept_ratio":
                _ratio(c["snapshots.insert.accepted"], inserts),
            "state.hash_per_complete":
                _ratio(hashes, c["explore.complete"]),
            "explore.pruned_ratio":
                _ratio(c["explore.pruned"], c["explore.schedules"]),
            "explore.schedules_per_hbr":
                _ratio(c["explore.schedules"], c["explore.hbrs"]),
            "minimize.replays": c["minimize.replays"] / passes,
            "minimize.witness_events": c["minimize.witness_events"] / passes,
            "import.repro_s": (statistics.median(self.import_s)
                               if self.import_s else 0.0),
            "trace.overhead_frac": overhead_frac,
        }
        for name, (unit, _) in DERIVED.items():
            out[name] = (values[name], unit)
        return out

    def self_check(self, workload: str) -> None:
        """Fail loudly, naming the metric, when a layer this workload
        must exercise recorded nothing."""
        missing = [f"{name}.calls" for name, targets in SPAN_TARGETS.items()
                   if workload in targets and not self.spans[name][0]]
        c = self.counters
        bases = {
            "snapshots.lookup.hit_ratio": self.spans["snapshots.lookup"][0],
            "snapshots.insert.accept_ratio":
                self.spans["snapshots.insert"][0],
            "state.hash_per_complete": c["explore.complete"],
            "explore.pruned_ratio": c["explore.schedules"],
            "explore.schedules_per_hbr": c["explore.hbrs"],
            "minimize.replays": c["minimize.replays"],
            "minimize.witness_events": c["minimize.witness_events"],
            "import.repro_s": len(self.import_s),
        }
        missing += [name for name, (_, targets) in DERIVED.items()
                    if workload in targets and not bases[name]]
        if missing:
            raise SystemExit(
                f"trace self-check failed on workload {workload!r}: "
                f"no calls recorded for {', '.join(missing)}"
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_wrapper(fn: Callable, span: List[float], active: List[int],
                  stack: List[float],
                  on_result: Optional[Callable[[Any], None]] = None,
                  clock=time.perf_counter) -> Callable:
    """``fn`` timed into ``span`` with self-time accounting on ``stack``
    (one running child-time total per active wrapped call).  A call made
    while the same span is already active (an override calling
    ``super()``) is part of the outer call and passes straight through."""
    def traced(*args, **kwargs):
        if active[0]:
            return fn(*args, **kwargs)
        active[0] = 1
        stack.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            active[0] = 0
            span[0] += 1
            span[1] += dt - stack.pop()
            if stack:
                stack[-1] += dt
        if on_result is not None:
            on_result(result)
        return result
    traced.__wrapped__ = fn
    return traced


def _count_wrapper(fn: Callable, on_result: Callable[[Any], None]
                   ) -> Callable:
    """``fn`` with its results counted, untimed."""
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result)
        return result
    counted.__wrapped__ = fn
    return counted


def _strategy_classes(base) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "expand" in cls.__dict__ and cls is not base:
            out.append(cls)
    return out


def _engine_class(name: str) -> type:
    if name == "native":
        from repro.core.hb_native import NativeClockEngine
        return NativeClockEngine
    if name == "accel":
        from repro.core.hb_accel import AccelClockEngine
        return AccelClockEngine
    from repro.core.hb import DualClockEngine
    return DualClockEngine


class Tracer:
    """Installs and removes the per-layer wrappers around ``repro``."""

    def __init__(self, ledger: Optional[Ledger] = None) -> None:
        self.ledger = ledger or Ledger()
        self._stack: List[float] = []
        #: span -> [1 while a call of it is running]
        self._active: Dict[str, List[int]] = {
            name: [0] for name in SPAN_TARGETS}
        #: (owner, attribute, original value or _ABSENT)
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, span: Optional[str],
               on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Wrap ``owner.attr`` (a module or class attribute): timed into
        ``span``, or only counted through ``on_result`` when ``span`` is
        None."""
        raw = vars(owner).get(attr, _ABSENT)  # _ABSENT: inherited
        fn = getattr(owner, attr) if raw is _ABSENT else raw
        kind = type(fn) if isinstance(fn, (classmethod, staticmethod)) \
            else None
        inner = fn.__func__ if kind is not None else fn
        if span is None:
            wrapped = _count_wrapper(inner, on_result)
        else:
            wrapped = _span_wrapper(inner, self.ledger.spans[span],
                                    self._active[span], self._stack,
                                    on_result)
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)
        self._saved.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every traced layer (idempotent)."""
        if self._saved:
            return
        import repro.campaign.runner as runner
        import repro.explore.controller  # noqa: F401  (registers strategies)
        import repro.explore.minimize as minimize
        import repro.runtime.executor as executor_mod
        import repro.runtime.stepper as stepper
        import repro.shim._instrument as instrument_mod
        from repro.core.engines import resolve_engine
        from repro.explore.base import Explorer
        from repro.explore.dpor import DPORExplorer
        from repro.explore.kernel import KernelExplorer, Strategy
        from repro.explore.snapshots import SnapshotTree
        from repro.runtime.program import Program

        check_mod = sys.modules["repro.check"]
        ledger = self.ledger
        counters = ledger.counters
        Executor = executor_mod.Executor

        def lookup_hit(found) -> None:
            if found is not None:
                counters["snapshots.lookup.hits"] += 1

        def insert_accepted(stored) -> None:
            if stored:
                counters["snapshots.insert.accepted"] += 1

        def minimized(result) -> None:
            counters["minimize.replays"] += result.replays
            counters["minimize.witness_events"] += len(result.schedule)

        patch = self._patch
        patch(Executor, "step", "executor.step")
        patch(stepper, "_specialized_step", "executor.step")
        patch(Executor, "finish", "executor.finish")
        patch(Executor, "snapshot", "executor.snapshot")
        patch(Executor, "from_snapshot", "executor.from_snapshot")
        patch(Executor, "pending_info", "executor.pending_info")
        engine_cls = _engine_class(resolve_engine(None))
        patch(engine_cls, "observe", "engine.observe")
        if hasattr(engine_cls, "observe_fast"):
            patch(engine_cls, "observe_fast", "engine.observe")
        patch(executor_mod, "compute_state_hash", "state.compute_state_hash")
        patch(Program, "instantiate", "program.instantiate")
        patch(SnapshotTree, "lookup", "snapshots.lookup", lookup_hit)
        patch(SnapshotTree, "insert", "snapshots.insert", insert_accepted)
        patch(runner, "execute_cell", "campaign.execute_cell")
        for cls in _strategy_classes(Strategy):
            patch(cls, "expand", "kernel.expand")
        patch(KernelExplorer, "_explore", "kernel.run")
        patch(DPORExplorer, "_explore", "dpor.run")
        patch(minimize, "minimize_schedule", "minimize", minimized)
        patch(check_mod, "minimize_schedule", "minimize", minimized)
        patch(instrument_mod, "instrument", "shim.instrument")
        patch(check_mod, "check", "check.check")
        patch(Explorer, "run", None, ledger.add_stats)

    def uninstall(self) -> None:
        """Restore every original attribute."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

