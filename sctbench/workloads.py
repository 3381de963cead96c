"""The four benchmark workloads and their correctness checks.

Every workload is a closed loop driven from one process: the next task
starts only when the previous one has finished.  A *pass* is one run
over the workload's task list in an order permuted from the workload
seed; passes repeat until the run's time is up, and at least one pass
always completes.  Each task does the same work in every pass, so the
end-to-end figures describe one pass built from each task's *fastest*
repetition over the run (see :func:`fastest`): on a shared host other
tenants only ever add time, in bursts, and the fastest of many
repetitions is the figure that bursts do not move.  Counts are per-task
medians.

In a traced run, passes alternate untraced and traced (at least one
complete pass of each); the per-layer ledger only sees the traced
passes, and ``trace.overhead_frac`` compares the two kinds.
"""

from __future__ import annotations

import os
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import probe
from .tracing import LEDGER_MARK, Ledger, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: ``Benchmark.expect_error`` -> the ``ErrorFinding.kind`` it must give
EXPECTED_KIND = {
    "deadlock": "DeadlockError",
    "assertion": "GuestAssertionError",
    "channel": "ChannelError",
}

#: a child ``repro check`` still running after this long is killed and
#: counted as failed
CHILD_TIMEOUT_S = 60.0

#: host-speed probes per second of an untraced run (about 5% of its time)
PROBES_PER_S = 5

Metrics = Dict[str, Tuple[float, str]]
Task = Callable[[bool], "Sample"]


@dataclass(slots=True)
class Sample:
    """One executed task."""

    key: Tuple[Any, ...]      #: task identity, equal across passes
    wall: float               #: seconds the task took
    traced: bool
    ok: bool = True
    why: str = ""             #: first failed check, for the log
    data: Dict[str, Any] = field(default_factory=dict)
    #: seconds per explored schedule, for tasks that time them one by one
    splits: Tuple[float, ...] = ()
    #: which variant of the task ran (a seeded task cycles through a
    #: few seeds, one per pass); repetitions share key and variant
    variant: int = 0


def fail(sample: Sample, why: str) -> None:
    if sample.ok:
        sample.ok = False
        sample.why = why


@dataclass
class Outcome:
    """What one workload run produced."""

    samples: List[Sample]
    metrics: Metrics
    #: reference-host seconds per second of this run (1 when traced)
    host_scale: float = 1.0
    #: the probe's fastest time in this run (None when traced)
    probe_s: Optional[float] = None

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def pass_rng(seed: int, pass_no: int) -> random.Random:
    return random.Random(f"sctbench:{seed}:{pass_no}")


def drive(make_pass: Callable[[int], Sequence[Task]], seconds: float,
          alternate: bool, tracer: Optional[Tracer] = None,
          spread: Sequence[Tuple[Callable[[], None], int]] = ()
          ) -> List[Sample]:
    """Run passes of tasks until ``seconds`` have elapsed and every pass
    kind has completed at least once.  With ``alternate``, every other
    pass is a traced one, with ``tracer`` (if any) installed for it.  A
    task is called with ``traced`` and returns its :class:`Sample`.
    Each ``(fn, n)`` of ``spread`` is called ``n`` times between tasks,
    spread evenly over the run, so that what it times sees the host as
    the tasks do."""
    modes = (False, True) if alternate else (False,)
    complete = {mode: 0 for mode in modes}
    samples: List[Sample] = []
    keep = Keeper()
    start = time.perf_counter()
    deadline = start + seconds
    calls = [0] * len(spread)

    def catch_up(now: float) -> None:
        for i, (fn, n) in enumerate(spread):
            due = (n if now >= deadline
                   else min(n, 1 + int((now - start) * n / seconds)))
            while calls[i] < due:
                fn()
                calls[i] += 1

    pass_no = 0
    finished = False
    while not finished:
        traced = modes[pass_no % len(modes)]
        tasks = make_pass(pass_no)
        patch = traced and tracer is not None
        if patch:
            tracer.install()
        try:
            for task in tasks:
                now = time.perf_counter()
                if now >= deadline and all(complete.values()):
                    finished = True
                    break
                catch_up(now)
                samples.append(keep(task(traced)))
            else:
                complete[traced] += 1
        finally:
            if patch:
                tracer.uninstall()
        pass_no += 1
    catch_up(deadline)
    return samples


class Keeper:
    """Keeps what the run's samples hold from growing with the number
    of passes (which would let a faster program read as a larger one in
    ``peak_rss_mb``): equal tuples and sets in their data are shared,
    and a task's per-schedule splits are folded into one running
    minimum, which is all :func:`fastest` reads of them."""

    def __init__(self) -> None:
        self.shared: Dict[Any, Any] = {}
        #: (task, variant, traced, schedules) -> the samples holding
        #: its splits
        self.holders: Dict[Tuple[Any, ...], List[Sample]] = {}

    def __call__(self, sample: Sample) -> Sample:
        sample.data.update({
            name: self.shared.setdefault(value, value)
            for name, value in sample.data.items()
            if isinstance(value, (tuple, frozenset))})
        if sample.splits:
            holders = self.holders.setdefault(
                (sample.key, sample.variant, sample.traced,
                 len(sample.splits)), [])
            if holders:
                folded = tuple(map(min, holders[0].splits, sample.splits))
                for held in holders:
                    held.splits = folded
                sample.splits = folded
            holders.append(sample)
        return sample


def per_task(samples: Sequence[Sample],
             stat: Callable[[List[Sample]], float]) -> List[float]:
    """``stat`` of each task's repetitions, averaged over the task's
    variants that ran: one value per task of a pass."""
    tasks: Dict[Tuple[Any, ...], Dict[int, List[Sample]]] = {}
    for s in samples:
        tasks.setdefault(s.key, {}).setdefault(s.variant, []).append(s)
    return [statistics.fmean(stat(reps) for reps in variants.values())
            for variants in tasks.values()]


def fastest(reps: Sequence[Sample]) -> float:
    """A task's time at its fastest over its repetitions: the least wall
    time, or, for a task that timed its schedules one by one (as many in
    every repetition), the sum over schedules of each one's least time,
    which also escapes bursts shorter than the task."""
    first = reps[0].splits
    if first and all(len(r.splits) == len(first) for r in reps):
        return sum(map(min, zip(*(r.splits for r in reps))))
    return min(r.wall for r in reps)


def pass_wall(samples: Sequence[Sample]) -> float:
    """One pass's wall time, from each task's fastest repetition."""
    return sum(per_task(samples, fastest))


def pass_count(samples: Sequence[Sample], name: str) -> float:
    """One pass's total of the count ``name``, from per-task medians."""
    return sum(per_task(samples, lambda reps: statistics.median(
        s.data.get(name, 0) for s in reps)))


def overhead_frac(samples: Sequence[Sample]) -> float:
    """Traced over untraced pass wall time, minus 1."""
    plain = pass_wall([s for s in samples if not s.traced])
    traced = pass_wall([s for s in samples if s.traced])
    return traced / plain - 1.0


class Workload:
    """A task list plus its checks; subclasses define :meth:`tasks`."""

    name = ""

    def tasks(self, seed: int, pass_no: int) -> List[Task]:
        raise NotImplementedError

    def check_all(self, samples: Sequence[Sample]) -> None:
        """Checks across tasks, run once after the timed loop."""

    def peak_rss_mb(self, samples: Sequence[Sample]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metrics(self, samples: Sequence[Sample], scale: float) -> Metrics:
        """The end-to-end figures of one pass, times in reference-host
        seconds (``scale`` of them per second measured); setup_s and
        ok_frac are added by the caller."""
        wall = pass_wall(samples) * scale
        schedules = pass_count(samples, "schedules")
        events = pass_count(samples, "events")
        deciles = statistics.quantiles(
            [t * scale * 1e3 for t in per_task(samples, fastest)],
            n=10, method="inclusive")
        return {
            "wall_s": (wall, "s"),
            "task_p50_ms": (deciles[4], "ms"),
            "task_p90_ms": (deciles[8], "ms"),
            "schedules": (schedules, "count"),
            "schedules_per_s": (schedules / wall, "1/s"),
            "events_per_s": (events / wall, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb(samples), "MB"),
        }


# ---------------------------------------------------------------------------
# suite-exhaust: the paper's Figure 2/3 matrix through the campaign runner
# ---------------------------------------------------------------------------

class SuiteExhaust(Workload):
    """All 96 suite programs x the five explorers of the paper's
    comparison, under a fixed schedule limit, one cell at a time through
    ``run_campaign(..., jobs=1)``."""

    name = "suite-exhaust"
    EXPLORERS = ("dfs", "hbr-caching", "lazy-hbr-caching", "dpor",
                 "lazy-dpor")
    LIMIT = 200
    SMOKE_IDS = (1, 3, 10, 32, 36, 84)

    def __init__(self, smoke: bool = False) -> None:
        from repro.campaign.cells import build_cells
        from repro.explore.base import ExplorationLimits
        from repro.suite import REGISTRY

        ids = self.SMOKE_IDS if smoke else sorted(REGISTRY)
        self.registry = REGISTRY
        self.cells = build_cells(ids, self.EXPLORERS)
        self.limits = ExplorationLimits(max_schedules=self.LIMIT)
        for bench_id in ids:
            REGISTRY[bench_id].program.instantiate()

    def tasks(self, seed: int, pass_no: int) -> List[Task]:
        cells = list(self.cells)
        pass_rng(seed, pass_no).shuffle(cells)
        return [self._task(cell) for cell in cells]

    def _task(self, cell) -> Task:
        from repro.campaign.runner import run_campaign

        def task(traced: bool) -> Sample:
            t0 = time.perf_counter()
            result = run_campaign([cell], self.limits, jobs=1).results[0]
            sample = Sample((cell.bench_id, cell.explorer),
                            time.perf_counter() - t0, traced)
            self._check_cell(sample, result)
            return sample
        return task

    def _check_cell(self, sample: Sample, result) -> None:
        if not result.ok:  # crashed, or verify_inequality() failed
            first = (result.error or "?").splitlines()[0]
            fail(sample, f"cell failed: {first}")
            return
        stats = result.stats
        kinds = frozenset(e.kind for e in stats.errors)
        sample.data.update(
            schedules=stats.num_schedules, events=stats.num_events,
            exhausted=stats.exhausted, kinds=kinds,
            states=frozenset(stats.state_hashes),
        )
        expect = self.registry[sample.key[0]].expect_error
        if expect is None:
            if kinds:
                fail(sample, f"unexpected errors {sorted(kinds)}")
        elif kinds - {EXPECTED_KIND[expect]}:
            fail(sample, f"expected {EXPECTED_KIND[expect]}, "
                         f"got {sorted(kinds)}")
        elif stats.exhausted and not kinds:
            fail(sample, f"exhausted without finding "
                         f"{EXPECTED_KIND[expect]}")

    def check_all(self, samples: Sequence[Sample]) -> None:
        """Each buggy program reports its error kind (a bounded cell may
        miss it, but not every explorer may).  Where DFS exhausts a
        program, every reduced explorer must exhaust it too and reach
        exactly DFS's terminal states."""
        found = {s.key[0] for s in samples if s.ok and s.data["kinds"]}
        truth: Dict[int, frozenset] = {}
        for s in samples:
            if s.key[1] == "dfs" and s.ok and s.data["exhausted"]:
                truth.setdefault(s.key[0], s.data["states"])
        for s in samples:
            if not s.ok:
                continue
            expect = self.registry[s.key[0]].expect_error
            states = truth.get(s.key[0])
            if expect is not None and s.key[0] not in found:
                fail(s, f"no explorer found {EXPECTED_KIND[expect]}")
            elif states is None:
                continue
            elif not s.data["exhausted"]:
                fail(s, "limit hit where DFS exhausts")
            elif s.data["states"] != states:
                fail(s, "terminal states differ from DFS")


# ---------------------------------------------------------------------------
# dpor-scale: DPOR to exhaustion on scaled family instances
# ---------------------------------------------------------------------------

def dpor_instances(smoke: bool) -> List[Tuple[Any, int]]:
    """(program, terminal-state count derived by hand).

    * ``racy_counter(t, k)``: the final counter takes every value from 2
      (the lost-update floor for t >= 2, k >= 2) to t*k: t*k - 1 states.
    * ``disjoint_coarse``, ``readonly_coarse``, ``bakery``: one final
      state (per-thread slots, read-only sections, mutual exclusion).
    * ``bounded_buffer(1, 1, k, 1)``: sums and buffer are fixed, so a
      state is the pair (producer waits, consumer waits).  The producer
      waits at most once before each item after the first (0..k-1), the
      consumer at most once before each item (0..k), and every pair is
      reachable: k * (k + 1) states.
    * ``bounded_buffer(2, 1, 1, 1)``: which producer put last (2) x
      whether it waited for the slot (2) x consumer waits 0..2 (3): 12
      states.  Its sleep-set-blocked runs are why it is here.
    """
    from repro.suite.buffers import bounded_buffer
    from repro.suite.counters import (disjoint_coarse, racy_counter,
                                      readonly_coarse)
    from repro.suite.mutual_exclusion import bakery

    if smoke:
        return [
            (racy_counter(2, 2), 2 * 2 - 1),
            (disjoint_coarse(2, 2), 1),
            (readonly_coarse(2, 2), 1),
            (bakery(2), 1),
            (bounded_buffer(1, 1, 2, 1), 2 * 3),
            (bounded_buffer(2, 1, 1, 1), 12),
        ]
    # sized so that no task takes over 0.2 s: a 30-second run then
    # repeats each one dozens of times (see fastest)
    return [
        (racy_counter(2, 3), 2 * 3 - 1),
        (disjoint_coarse(3, 2), 1),
        (readonly_coarse(3, 2), 1),
        (bakery(3), 1),
        (bounded_buffer(1, 1, 4, 1), 4 * 5),
        (bounded_buffer(2, 1, 1, 1), 12),
    ]


class DporScale(Workload):
    """``dpor`` and ``lazy-dpor`` to exhaustion on scaled instances."""

    name = "dpor-scale"
    EXPLORERS = ("dpor", "lazy-dpor")

    def __init__(self, smoke: bool = False) -> None:
        from repro.explore.base import ExplorationLimits

        self.instances = dpor_instances(smoke)
        self.limits = ExplorationLimits(max_schedules=1_000_000)
        for program, _ in self.instances:
            program.instantiate()

    def tasks(self, seed: int, pass_no: int) -> List[Task]:
        order = [(program, states, name)
                 for program, states in self.instances
                 for name in self.EXPLORERS]
        pass_rng(seed, pass_no).shuffle(order)
        return [self._task(*entry) for entry in order]

    def _task(self, program, hand_states: int, explorer: str) -> Task:
        from repro.explore.controller import run_single

        def task(traced: bool) -> Sample:
            # a time stamp at every schedule boundary: these tasks run
            # for up to a fifth of a second, longer than the host's
            # quiet spells
            clock = time.perf_counter
            stamps = [clock()]
            stats = run_single(program, explorer, self.limits,
                               control_fn=lambda _: stamps.append(clock()))
            stamps.append(clock())
            sample = Sample((program.name, explorer),
                            stamps[-1] - stamps[0], traced,
                            splits=tuple(b - a for a, b
                                         in zip(stamps, stamps[1:])))
            sample.data.update(
                schedules=stats.num_schedules, events=stats.num_events,
                states=frozenset(stats.state_hashes))
            if not stats.exhausted:
                fail(sample, "not exhausted")
            elif stats.errors:
                fail(sample, f"unexpected errors "
                             f"{sorted(e.kind for e in stats.errors)}")
            elif stats.num_states != hand_states:
                fail(sample, f"{stats.num_states} terminal states, "
                             f"{hand_states} derived by hand")
            return sample
        return task

    def check_all(self, samples: Sequence[Sample]) -> None:
        """``dpor`` and ``lazy-dpor`` agree on every terminal-state set."""
        reference: Dict[str, frozenset] = {}
        for s in samples:
            if s.ok:
                reference.setdefault(s.key[0], s.data["states"])
        for s in samples:
            if s.ok and s.data["states"] != reference[s.key[0]]:
                fail(s, "dpor and lazy-dpor terminal states differ")


# ---------------------------------------------------------------------------
# bug-hunt: stop at the first bug, minimise the witness
# ---------------------------------------------------------------------------

class BugHunt(Workload):
    """The seeded-bug programs x six explorers; each task stops at the
    first bug and minimises the witness."""

    name = "bug-hunt"
    IDS = (32, 33, 36, 47, 49, 51, 74, 84, 87, 89, 91, 93)
    SMOKE_IDS = (32, 36, 47, 84)
    EXPLORERS = ("dpor", "lazy-dpor", "lazy-hbr-caching", "iterative-cb",
                 "pct", "random")
    SEEDED = ("pct", "random")
    #: seeds per seeded task, drawn from the workload seed; pass n runs
    #: seed n mod SEEDS, so each seed repeats every SEEDS passes
    SEEDS = 8
    #: backstop only: every task stops at its first bug long before
    LIMIT = 20_000

    def __init__(self, smoke: bool = False) -> None:
        from repro.explore.base import ExplorationLimits
        from repro.suite import REGISTRY

        self.registry = REGISTRY
        ids = self.SMOKE_IDS if smoke else self.IDS
        self.benches = [REGISTRY[i] for i in ids]
        self.limits = ExplorationLimits(max_schedules=self.LIMIT)
        for bench in self.benches:
            bench.program.instantiate()

    def tasks(self, seed: int, pass_no: int) -> List[Task]:
        variant = pass_no % self.SEEDS
        tasks = []
        for bench in self.benches:
            for name in self.EXPLORERS:
                if name in self.SEEDED:
                    rng = random.Random(f"sctbench:{seed}:{bench.bench_id}"
                                        f":{name}:{variant}")
                    tasks.append(self._task(bench, name, variant,
                                            rng.randrange(1 << 31)))
                else:
                    tasks.append(self._task(bench, name, 0, 0))
        pass_rng(seed, pass_no).shuffle(tasks)
        return tasks

    def _task(self, bench, explorer: str, variant: int, seed: int) -> Task:
        import repro.explore.minimize as minimize
        from repro.explore.controller import run_single

        program = bench.program
        expected = EXPECTED_KIND[bench.expect_error]

        def task(traced: bool) -> Sample:
            def stop_at_first_bug(explorer_obj) -> None:
                if explorer_obj.stats.errors:
                    explorer_obj.request_stop()

            t0 = time.perf_counter()
            stats = run_single(program, explorer, self.limits, seed=seed,
                               control_fn=stop_at_first_bug)
            witness = None
            if stats.errors:
                # looked up on the module at call time, so the tracer's
                # wrapper sees it
                witness = minimize.minimize_schedule(
                    program, stats.errors[0].schedule)
            sample = Sample((bench.bench_id, explorer),
                            time.perf_counter() - t0, traced,
                            variant=variant)
            sample.data.update(schedules=stats.num_schedules,
                               events=stats.num_events)
            if witness is None:
                fail(sample, "no bug found")
                return sample
            kind = stats.errors[0].kind
            if kind != expected:
                fail(sample, f"found {kind}, expected {expected}")
            sample.data.update(kind=kind, witness=tuple(witness.schedule))
            return sample
        return task

    def check_all(self, samples: Sequence[Sample]) -> None:
        """Every minimised witness must reproduce its bug from a cold
        replay (run here, after the timed loop, untraced)."""
        from repro.runtime.schedule import execute

        replayed: Dict[Tuple[int, Tuple[int, ...]], Optional[str]] = {}
        for s in samples:
            if "witness" not in s.data:
                continue
            key = (s.key[0], s.data["witness"])
            if key not in replayed:
                result = execute(self.registry[key[0]].program,
                                 schedule=list(key[1]))
                replayed[key] = (type(result.error).__name__
                                 if result.error is not None else None)
            if replayed[key] != s.data["kind"]:
                fail(s, f"witness replays to {replayed[key]}, "
                        f"not {s.data['kind']}")


# ---------------------------------------------------------------------------
# check-cold: `python -m repro check` in a fresh process per task
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """The environment of every child: no ``REPRO_*`` settings, the
    checkout's ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: List[str]) -> Tuple[int, float, float, str, str]:
    """Run one child to completion from the checkout root: (exit code,
    wall seconds, peak RSS in MB, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        # both streams stay far below a pipe buffer, so reading them in
        # turn cannot block the child
        out = proc.stdout.read().decode("utf-8", "replace")
        err = proc.stderr.read().decode("utf-8", "replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out, err


#: the exploration line of ``CheckResult.summary()``
_SUMMARY = re.compile(r"explorer \S+: (\d+) schedules, \d+ states, "
                      r"(\d+) events")


class CheckCold(Workload):
    """``python -m repro check TARGET --expect bug|clean``, one child
    process at a time."""

    name = "check-cold"
    TARGETS = (
        ("examples.timed_retry_demo:lease_worker", "bug"),
        ("examples.real_code_demo:pipeline", "bug"),
        ("36", "bug"),
        ("37", "clean"),
    )

    def __init__(self, smoke: bool = False) -> None:
        import importlib

        from repro.suite import REGISTRY

        self.targets = list(self.TARGETS)
        #: traced children's ledgers merge here (set for traced runs)
        self.ledger: Optional[Ledger] = None
        for target, _ in self.targets:
            module, _, attr = target.partition(":")
            if attr:
                getattr(importlib.import_module(module), attr)
            else:
                REGISTRY[int(target)].program.instantiate()

    def tasks(self, seed: int, pass_no: int) -> List[Task]:
        order = list(self.targets)
        pass_rng(seed, pass_no).shuffle(order)
        return [self._task(target, expect) for target, expect in order]

    def _task(self, target: str, expect: str) -> Task:
        def task(traced: bool) -> Sample:
            entry = ["-m", "sctbench.child"] if traced else ["-m", "repro"]
            code, wall, rss, out, err = run_child(
                [sys.executable, *entry, "check", target, "--expect",
                 expect])
            sample = Sample((target,), wall, traced, data={"rss": rss})
            match = _SUMMARY.search(out)
            if match:
                sample.data.update(schedules=int(match.group(1)),
                                   events=int(match.group(2)))
            if code != 0:
                last = err.strip().splitlines()[-1:] or [""]
                fail(sample, f"exit code {code}: {last[0]}")
            elif not match:
                fail(sample, "no exploration summary printed")
            if traced:
                self._merge_ledger(sample, err)
            return sample
        return task

    def _merge_ledger(self, sample: Sample, err: str) -> None:
        import json

        for line in reversed(err.splitlines()):
            if line.startswith(LEDGER_MARK):
                self.ledger.merge(json.loads(line[len(LEDGER_MARK):]))
                return
        fail(sample, "traced child printed no ledger")

    def peak_rss_mb(self, samples: Sequence[Sample]) -> float:
        return max(s.data["rss"] for s in samples)


WORKLOADS = {cls.name: cls for cls in (SuiteExhaust, DporScale, BugHunt,
                                       CheckCold)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, workload: Optional[Workload] = None,
                 import_s: Optional[float] = None,
                 spread: Sequence[Tuple[Callable[[], None], int]] = ()
                 ) -> Outcome:
    """Run one workload for ``seconds`` and return its samples and
    metrics (end-to-end untraced, per-layer when ``trace``).  Pass a
    prepared ``workload`` to reuse its set-up, the time this process
    took to import ``repro`` for the ledger's ``import.repro_s``, and
    more calls to spread over the run (see :func:`drive`).  An untraced
    run also times :mod:`sctbench.probe` ``PROBES_PER_S`` times a second
    and reports its times in reference-host seconds."""
    workload = workload or WORKLOADS[name](smoke=smoke)
    ledger = Ledger()
    tracer = None
    if isinstance(workload, CheckCold):
        # the layers run in the traced children, whose ledgers merge here
        workload.ledger = ledger
    elif trace:
        tracer = Tracer(ledger)
        if import_s is not None:
            ledger.import_s.append(import_s)
    probes: List[float] = []
    if not trace:
        spread = [*spread, (lambda: probes.append(probe.timed()),
                            max(1, round(seconds * PROBES_PER_S)))]
    samples = drive(lambda pass_no: workload.tasks(seed, pass_no), seconds,
                    trace, tracer, spread)
    workload.check_all(samples)
    if not trace:
        scale = probe.host_scale(probes)
        return Outcome(samples, workload.metrics(samples, scale), scale,
                       min(probes))
    ledger.self_check(name)
    tasks_per_pass = len({s.key for s in samples})
    traced_passes = sum(1 for s in samples if s.traced) / tasks_per_pass
    return Outcome(samples, ledger.metrics(overhead_frac(samples),
                                           traced_passes))
