"""Equivalence of the fast-replay executor path with the reference path.

The tentpole guarantee of the hot-path overhaul: ``fast_replay=True``
(no Event materialisation, no trace list, no ``describe_state``) must
produce *identical* fingerprints, state hashes, schedules and error
outcomes to the default executor, for every program in the suite.
These tests enforce that at both the executor level (fixed and seeded
random schedules) and the explorer level (whole explorations under
``dfs`` and ``dpor`` with small limits, compared field by field).

The fused step loop the compiled engine runs
(:mod:`repro.runtime.stepper`) is held to the same contract here on the
reference engine, so it stays covered without the C build.
"""

import pytest

from repro.errors import SchedulerError
from repro.explore import ExplorationLimits
from repro.explore.controller import run_single
from repro.runtime.executor import Executor
from repro.runtime.schedule import RandomScheduler
from repro.runtime.stepper import install_specialized_step
from repro.suite import REGISTRY, all_benchmarks

ALL_IDS = [b.bench_id for b in all_benchmarks()]

LIMITS = ExplorationLimits(max_schedules=25, max_events_per_schedule=400)


def _run_once(program, fast: bool, seed):
    """One complete run under a seeded random scheduler (or first-enabled
    for seed None), with divergence-free stepping."""
    ex = Executor(program, max_events=400, fast_replay=fast)
    chooser = RandomScheduler(seed) if seed is not None else None
    while not ex.is_done():
        enabled = ex.enabled()
        tid = chooser.choose(ex) if chooser else enabled[0]
        ex.step(tid)
    return ex.finish()


def _result_fields(r):
    return (
        r.hbr_fp,
        r.lazy_fp,
        r.state_hash,
        tuple(r.schedule),
        type(r.error).__name__ if r.error else None,
        r.truncated,
        r.num_events,
    )


@pytest.mark.parametrize("bid", ALL_IDS)
def test_executor_fast_vs_reference_schedules(bid):
    """Identical TraceResult fields on first-enabled plus seeded random
    schedules, for every suite program."""
    program = REGISTRY[bid].program
    for seed in (None, 1, 2):
        try:
            slow = _run_once(program, fast=False, seed=seed)
            fast = _run_once(program, fast=True, seed=seed)
        except SchedulerError:
            # max_events truncation raises on the over-budget step for
            # both paths identically; nothing further to compare here
            continue
        assert _result_fields(fast) == _result_fields(slow), (
            f"fast/slow divergence on bench {bid} seed {seed}"
        )
        # fast mode trades the event list and state description away
        assert fast.events == []
        assert fast.final_state == {}
        assert slow.num_events == len(slow.events)


def _stats_fields(stats):
    return (
        stats.num_schedules,
        stats.num_complete,
        stats.num_pruned,
        stats.num_hbrs,
        stats.num_lazy_hbrs,
        stats.num_states,
        stats.num_events,
        sorted((e.kind, e.message, tuple(e.schedule)) for e in stats.errors),
        stats.limit_hit,
        stats.exhausted,
    )


@pytest.mark.parametrize("bid", ALL_IDS)
def test_dfs_exploration_fast_vs_reference(bid):
    """Whole-exploration equivalence: DFS with fast executors produces
    bit-identical statistics to DFS with reference executors."""
    program = REGISTRY[bid].program
    fast = run_single(program, "dfs", LIMITS, verify=True, fast=True)
    slow = run_single(program, "dfs", LIMITS, verify=True, fast=False)
    assert _stats_fields(fast) == _stats_fields(slow)


@pytest.mark.parametrize("bid", ALL_IDS[::6])
def test_dpor_ignores_fast_flag(bid):
    """DPOR hard-requires materialised traces; ``fast=True`` must be a
    harmless no-op for it, not a corruption."""
    program = REGISTRY[bid].program
    a = run_single(program, "dpor", LIMITS, verify=True, fast=True)
    b = run_single(program, "dpor", LIMITS, verify=True, fast=False)
    assert _stats_fields(a) == _stats_fields(b)


def _install_fused_step_everywhere(monkeypatch):
    """Install the fused step loop on every fast-replay executor built
    from now on, fresh or restored from a snapshot, whatever its
    engine.  Returns the list of patched executors, so a test can check
    the loop actually ran."""
    installed = []
    init = Executor.__init__
    from_snapshot = Executor.from_snapshot.__func__

    def install(ex):
        if ex.fast_replay:
            install_specialized_step(ex)
            installed.append(ex)
        return ex

    def patched_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        install(self)

    def patched_from_snapshot(cls, *args, **kwargs):
        return install(from_snapshot(cls, *args, **kwargs))

    monkeypatch.setattr(Executor, "__init__", patched_init)
    monkeypatch.setattr(Executor, "from_snapshot",
                        classmethod(patched_from_snapshot))
    return installed


#: The explorers that build fast-replay executors (DPOR always
#: materialises events, so the fused loop never applies to it).
FAST_EXPLORERS = ("dfs", "lazy-hbr-caching")


@pytest.mark.parametrize("bid", ALL_IDS)
def test_specialized_step_vs_generic_step(bid, monkeypatch):
    """Whole explorations on the reference engine: the fused step loop
    gives the same statistics as the generic ``Executor.step``."""
    program = REGISTRY[bid].program
    generic = {
        name: run_single(program, name, LIMITS, verify=True, engine="ref")
        for name in FAST_EXPLORERS
    }
    installed = _install_fused_step_everywhere(monkeypatch)
    for name in FAST_EXPLORERS:
        fused = run_single(program, name, LIMITS, verify=True, engine="ref")
        assert installed, "fused step loop never installed"
        installed.clear()
        assert _stats_fields(fused) == _stats_fields(generic[name]), name
