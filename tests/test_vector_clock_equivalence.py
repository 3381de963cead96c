"""The in-place clock engine against a pre-refactor-style reference.

``DualClockEngine`` mutates raw list clocks in place, publishes
copy-on-write snapshots, and *replaces* access/modify table entries
when a dominance argument allows it.  The reference implementation here
reproduces the original, purely immutable algorithm — fresh tuples
everywhere, tables always updated by join — so any unsound shortcut in
the optimised engine shows up as a clock or fingerprint divergence.

Golden fingerprint values are recorded for fixed programs; they are
pure-int hashes (labels, clocks and chain seeds are all ints), hence
stable across processes, hash seeds and CPython versions >= 3.8.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Program
from repro.core.fingerprint import _SEED
from repro.runtime import executor as executor_mod
from repro.runtime.schedule import RandomScheduler, execute
from repro.suite import REGISTRY


def _join(a, b):
    if len(a) < len(b):
        a = a + (0,) * (len(b) - len(a))
    return tuple(
        max(x, b[i]) if i < len(b) else x for i, x in enumerate(a)
    )


class ReferenceDualClockEngine:
    """Immutable-tuple reimplementation of the dual clock engine.

    Same interface as :class:`repro.core.hb.DualClockEngine` (the
    subset the executor uses), same fingerprint formula, but the
    original update rules: every table publication is a join, every
    clock update builds a fresh tuple.
    """

    def __init__(self, canonical: bool = False) -> None:
        assert not canonical, "reference engine does not do canonical forms"
        # per side: [thread clock tuples], {loc: access}, {loc: modify},
        # [chain hashes], event count
        self._sides = [
            [[], {}, {}, [], 0],  # regular
            [[], {}, {}, [], 0],  # lazy
        ]
        self._pending = {}

    # -- registration ---------------------------------------------------
    def reserve(self, n: int) -> None:
        if n > 0:
            self.register_thread(n - 1)

    def register_thread(self, tid, parent_spawn_event=None) -> None:
        for clocks, _a, _m, chains, _c in self._sides:
            while len(clocks) <= tid:
                clocks.append((0,) * (len(clocks) + 1))
            while len(chains) <= tid:
                chains.append(hash((_SEED, len(chains))))
        if parent_spawn_event is not None:
            self.register_thread_clocks(
                tid, parent_spawn_event.clock, parent_spawn_event.lazy_clock
            )

    def register_thread_clocks(self, tid, spawn_clock, spawn_lazy_clock):
        self.register_thread(tid)
        for side, edge in zip(self._sides, (spawn_clock, spawn_lazy_clock)):
            side[0][tid] = _join(side[0][tid], edge)

    def add_release_edge_clocks(self, clock, lazy_clock, released_tid):
        self._pending.setdefault(released_tid, []).append((clock, lazy_clock))

    def add_release_edge(self, event, released_tid):
        self.add_release_edge_clocks(event.clock, event.lazy_clock,
                                     released_tid)

    # -- the event update ----------------------------------------------
    def observe(self, tid, kind, oid, key, released_mutex_oid=None):
        from repro.core.events import MODIFYING_KINDS, MUTEX_KINDS

        pending = self._pending.pop(tid, None)
        snaps = []
        for lazy, side in enumerate(self._sides):
            clocks, access, modify, chains, _count = side
            tc = clocks[tid]
            if pending:
                for edge in pending:
                    tc = _join(tc, edge[lazy])
            skip_edges = lazy and kind in MUTEX_KINDS
            modifying = kind in MODIFYING_KINDS
            loc = (oid, key) if oid >= 0 else None
            mutex_loc = None
            if released_mutex_oid is not None and not lazy:
                mutex_loc = (released_mutex_oid, None)
            if loc is not None and not skip_edges:
                prev = (access if modifying else modify).get(loc)
                if prev is not None:
                    tc = _join(tc, prev)
            if mutex_loc is not None:
                prev = access.get(mutex_loc)
                if prev is not None:
                    tc = _join(tc, prev)
            tc = tc[:tid] + (tc[tid] + 1,) + tc[tid + 1:]
            clocks[tid] = tc
            # original publication: always join into the table entry
            if loc is not None and not skip_edges:
                access[loc] = _join(access.get(loc, ()), tc)
                if modifying:
                    modify[loc] = _join(modify.get(loc, ()), tc)
            if mutex_loc is not None:
                access[mutex_loc] = _join(access.get(mutex_loc, ()), tc)
                modify[mutex_loc] = _join(modify.get(mutex_loc, ()), tc)
            key_n = -1 if key is None else key
            chains[tid] = hash((chains[tid], kind, oid, key_n, tc))
            side[4] += 1
            snaps.append(tc)
        return snaps[0], snaps[1]

    def on_event(self, event):
        event.clock, event.lazy_clock = self.observe(
            event.tid, event.kind, event.oid, event.key,
            event.released_mutex_oid,
        )

    # -- fingerprints ---------------------------------------------------
    def _fp(self, side):
        clocks, _a, _m, chains, count = side
        return hash((count, tuple(chains)))

    def hbr_fingerprint(self):
        return self._fp(self._sides[0])

    def lazy_fingerprint(self):
        return self._fp(self._sides[1])


def _reference_run(program, monkeypatch, schedule_seed=None):
    with monkeypatch.context() as m:
        # swap the construction funnel (the executor builds engines via
        # create_clock_engine) for the model reference engine
        m.setattr(
            executor_mod, "create_clock_engine",
            lambda name=None, canonical=False: ReferenceDualClockEngine(
                canonical=canonical
            ),
        )
        scheduler = (RandomScheduler(schedule_seed)
                     if schedule_seed is not None else None)
        return execute(program, scheduler=scheduler)


def _optimised_run(program, schedule_seed=None):
    scheduler = (RandomScheduler(schedule_seed)
                 if schedule_seed is not None else None)
    return execute(program, scheduler=scheduler)


def _compare(program, monkeypatch, seed=None):
    ref = _reference_run(program, monkeypatch, seed)
    opt = _optimised_run(program, seed)
    assert opt.schedule == ref.schedule
    assert [e.clock for e in opt.events] == [e.clock for e in ref.events]
    assert [e.lazy_clock for e in opt.events] == \
        [e.lazy_clock for e in ref.events]
    assert opt.hbr_fp == ref.hbr_fp
    assert opt.lazy_fp == ref.lazy_fp
    return opt


# -- fixed programs spanning every edge type ---------------------------

#: diverse suite programs: data races, coarse locks, condvars (release
#: edges), barriers, semaphores, rwlocks, spawn/join
SUITE_SAMPLE = (1, 4, 13, 24, 40, 66, 69, 77)


def test_suite_sample_matches_reference(monkeypatch):
    for bid in SUITE_SAMPLE:
        program = REGISTRY[bid].program
        for seed in (None, 7, 23):
            _compare(program, monkeypatch, seed)


# -- golden fingerprints (int-only hashes: stable everywhere) ----------

GOLDEN = {
    # bid: (hbr_fp, lazy_fp) under the first-enabled schedule.  Note
    # bench 4 (racy counter): no mutexes, so the two relations coincide
    # and so do their fingerprints.  Regenerated when the virtual-time
    # clock object was added to every program instance (it shifts the
    # thread-handle oids by one, an intentional layout change).
    1: (6916854769344561026, -6830497331089486971),
    4: (-2257368397602522090, -2257368397602522090),
    13: (3358040502110862692, 7745797518615796582),
    24: (2173206886104868878, 9007917938833531649),
}


def test_golden_fingerprints():
    for bid, (hbr, lazy) in GOLDEN.items():
        r = execute(REGISTRY[bid].program)
        assert (r.hbr_fp, r.lazy_fp) == (hbr, lazy), f"bench {bid}"


def test_public_chain_api_matches_engine_fingerprints():
    """A chain rebuilt through FingerprintChain's *public* update() from
    the recorded events must reproduce the engine-inlined fingerprints
    (the two must never use divergent hash formulas)."""
    from repro.core.fingerprint import FingerprintChain

    for bid in (1, 24):
        r = execute(REGISTRY[bid].program)
        chain = FingerprintChain()
        lazy_chain = FingerprintChain()
        for e in r.events:
            chain.update(e.tid, e.label(), e.clock)
            lazy_chain.update(e.tid, e.label(), e.lazy_clock)
        assert chain.prefix_fingerprint() == r.hbr_fp
        assert lazy_chain.prefix_fingerprint() == r.lazy_fp


# -- random programs ---------------------------------------------------

data_op = st.tuples(
    st.sampled_from(["read", "write", "incr"]),
    st.integers(min_value=0, max_value=1),
)
segment = st.one_of(
    data_op.map(lambda op: (None, [op])),
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.lists(data_op, min_size=1, max_size=3),
    ),
)
thread_body = st.lists(segment, min_size=1, max_size=4)
program_spec = st.lists(thread_body, min_size=2, max_size=3)


def build_program(spec):
    def build(p):
        mutexes = [p.mutex("m0"), p.mutex("m1")]
        cells = p.array("cells", [0, 0])

        def make_thread(segments, seed):
            def body(api):
                token = seed
                for lock_idx, ops in segments:
                    if lock_idx is not None:
                        yield api.lock(mutexes[lock_idx])
                    for op, var in ops:
                        if op == "read":
                            yield api.read(cells, key=var)
                        elif op == "write":
                            token += 1
                            yield api.write(cells, token, key=var)
                        else:
                            v = yield api.read(cells, key=var)
                            yield api.write(cells, v + 1, key=var)
                    if lock_idx is not None:
                        yield api.unlock(mutexes[lock_idx])
            return body

        for i, segments in enumerate(spec):
            p.thread(make_thread(segments, (i + 1) * 100))

    return Program("vc_equiv_prog", build)


@settings(
    max_examples=40,
    deadline=None,
    # the monkeypatch fixture is safe under @given here: every example
    # enters and exits its own monkeypatch.context()
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
@given(program_spec, st.integers(min_value=0, max_value=10_000))
def test_random_programs_match_reference(monkeypatch, spec, seed):
    program = build_program(spec)
    _compare(program, monkeypatch, seed)
