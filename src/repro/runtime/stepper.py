"""The specialized step loop for compiled-engine executors.

:func:`install_specialized_step` rebinds ``ex.step`` on a
``fast_replay`` executor to the fused fast-replay loop:

* the per-kind decisions the generic :meth:`Executor.step` makes with
  five separate table/identity tests per event (``IS_DATA``, core-vs-
  protocol dispatch, disturb-vs-patch, barrier/predicate counters,
  arrival sensitivity) are precompiled into **one packed flag word per
  kind** (:func:`kind_flags`, built once per process from the same
  ``KindSpec``-derived tables the generic loop reads, so a newly
  registered primitive is picked up automatically);
* the Event-materialising branch is gone entirely (``fast_replay``
  never takes it), so the loop runs straight into the engine's
  ``observe``.

Installation is one bound-method assignment (``MethodType``), cheap
enough for the snapshot-restore path — executors resumed from a prefix
snapshot often execute only a handful of divergent steps, so a
per-executor closure build would cost more than it saves.

Behaviour is identical to the generic loop by construction (the body is
the same straight-line logic minus the Event branch); the suite-wide
engine-equivalence tests hold it to byte-identical fingerprints,
schedules, state hashes and error outcomes.

The module deliberately imports nothing from :mod:`repro.runtime
.executor` at import time (the executor imports us); the one executor
internal needed (the status enum) is resolved lazily on first install.
"""

from __future__ import annotations

from bisect import insort
from types import MethodType

from ..core.events import (
    IS_ARRIVAL_SENSITIVE,
    IS_DATA,
    IS_DISTURBING,
    Op,
    OpKind,
)
from ..errors import DisabledThreadError, GuestError, SchedulerError

# Packed per-kind flag bits (kind_flags()[kind] & F_*):
F_DATA = 1        # location is (target.oid, element key)
F_NOLOC = 2       # YIELD/SPAWN/JOIN: no location at dispatch time
F_CORE = 4        # executor-core kind (not protocol-dispatched)
F_DISTURB = 8     # execution can change other threads' enabledness
F_ARRIVAL = 16    # pendingness can enable other threads
F_BARRIER = 32    # BARRIER_WAIT (cohort counter)
F_READ = 64       # READ (predicate-watch counter)
F_WRMW = 128      # WRITE/RMW (wakes await_value predicates)
F_SPAWN = 256
F_JOIN = 512
F_EXIT = 1024
F_LOCK = 2048

_FLAGS = None
_RUNNABLE = _WAITING = _FINISHED = None
_LOCK_KIND = OpKind.LOCK


def kind_flags():
    """kind -> packed flag word, derived once per process from the
    ``KindSpec``-registry tables the generic step loop indexes."""
    global _FLAGS
    if _FLAGS is None:
        core = (OpKind.SPAWN, OpKind.JOIN, OpKind.EXIT, OpKind.YIELD)
        flags = []
        for k in OpKind:
            f = 0
            if IS_DATA[k]:
                f |= F_DATA
            if k in (OpKind.YIELD, OpKind.SPAWN, OpKind.JOIN):
                f |= F_NOLOC
            if k in core:
                f |= F_CORE
            if IS_DISTURBING[k]:
                f |= F_DISTURB
            if IS_ARRIVAL_SENSITIVE[k]:
                f |= F_ARRIVAL
            if k is OpKind.BARRIER_WAIT:
                f |= F_BARRIER
            if k is OpKind.READ:
                f |= F_READ
            if k in (OpKind.WRITE, OpKind.RMW):
                f |= F_WRMW
            if k is OpKind.SPAWN:
                f |= F_SPAWN
            if k is OpKind.JOIN:
                f |= F_JOIN
            if k is OpKind.EXIT:
                f |= F_EXIT
            if k is OpKind.LOCK:
                f |= F_LOCK
            flags.append(f)
        _FLAGS = flags
    return _FLAGS


def _specialized_step(self, tid, trusted=False):
    """Fused fast-replay step (bound per executor by the installer).
    Mirrors :meth:`Executor.step` exactly, minus Event materialisation;
    returns None (fast_replay produces no events)."""
    if self.error is not None or self.truncated:
        raise SchedulerError("execution already terminated")
    threads = self.threads
    t = threads[tid]
    if t.status != _RUNNABLE or t.pending is None:
        if t.status == _WAITING and t.deadline is not None:
            # timed condvar waiter: stepping it fires its timeout
            # (delegates to the executor's shared fire path)
            return self._fire_parked_timeout(t)
        raise SchedulerError(f"thread {tid} has no pending operation")
    enabled_cache = self._enabled_cache
    if trusted:
        self._admit_barriers()
    elif enabled_cache is not None:
        if tid not in enabled_cache:
            raise DisabledThreadError(
                tid, enabled_cache, self._blocked_reason(t)
            )
    else:
        self._admit_barriers()
        if t.pending.timeout is None and not self._op_enabled(t):
            raise DisabledThreadError(
                tid, self.enabled(), self._blocked_reason(t)
            )
    if self._num_events >= self.max_events:
        self.truncated = True
        self._enabled_cache = None
        raise SchedulerError(
            f"schedule exceeded max_events={self.max_events}"
        )

    FLAGS = _FLAGS
    op = t.pending
    if op.timeout is not None and not self._op_enabled(t):
        # the base op cannot run: the timeout branch executes instead
        return self._fire_pending_timeout(t, op)
    kind = op.kind
    flags = FLAGS[kind]
    value = None
    released_mutex_oid = None
    woken = None
    spawned = None
    parked = False
    throw = None
    if flags & F_DATA:
        oid = op.target.oid
        key = op.arg
    elif flags & F_NOLOC:
        oid = -1
        key = None
    else:
        oid = op.target.oid
        key = None
    if flags & F_BARRIER:
        self._barrier_pending -= 1
    elif flags & F_READ and op.arg2 is not None:
        self._pred_watch -= 1
    if flags & F_DISTURB or (flags & F_WRMW and self._pred_watch):
        self._enabled_cache = None
        patch = False
    else:
        patch = self._enabled_cache is not None

    try:
        if not flags & F_CORE:
            value = op.target.op_apply(op, self, t)
        elif flags & F_SPAWN:
            fn, args = op.arg
            spawned = self._create_thread(fn, args, "")
            value = spawned.tid
            oid = spawned.handle.oid
            if self._record:
                self._spawn_origin[spawned.tid] = (tid, t.spawn_count)
                t.spawn_count += 1
        elif flags & F_JOIN:
            oid = threads[op.arg].handle.oid
        elif flags & F_EXIT:
            if op.arg is not None:
                t.crashed = True
                t.throw_exc = op.arg
                self.guest_failures.append(op.arg)
                value = op.arg
        # else YIELD: a pure scheduling point
    except GuestError as exc:  # pragma: no cover - defensive
        self.error = exc
        t.status = _FINISHED
        t.pending = None
        self._runnable.discard(tid)
        self._runnable_sorted = None
        self._unfinished -= 1
        self._enabled_cache = None
        raise
    if self._fx_any:
        self._fx_any = False
        released_mutex_oid, self._fx_released = self._fx_released, None
        parked, self._fx_parked = self._fx_parked, False
        throw, self._fx_throw = self._fx_throw, None
        if self._fx_woken is not None:
            woken = self._fx_woken
            self._fx_woken = None
    if t.deadline is not None:
        if parked:
            # timed condvar wait: deadline stays armed while parked
            self._timed_parked.add(tid)
        else:
            t.deadline = None  # the base operation won

    if spawned is None and not woken:
        # nobody consumes the published snapshots: the no-return
        # variant lets the compiled kernel skip materialising them
        self.engine.observe_fast(tid, kind, oid, key, released_mutex_oid)
    else:
        clock, lazy_clock = self.engine.observe(
            tid, kind, oid, key, released_mutex_oid
        )
    t.tindex += 1
    self._num_events += 1
    self.schedule.append(tid)

    if spawned is not None:
        self.engine.register_thread_clocks(spawned.tid, clock, lazy_clock)
    if woken:
        engine = self.engine
        runnable = self._runnable
        for wtid in woken:
            w = threads[wtid]
            engine.add_release_edge_clocks(clock, lazy_clock, wtid)
            w.status = _RUNNABLE
            w.resuming = True
            w.pending = Op(_LOCK_KIND, w.wait_mutex)
            if w.deadline is not None:
                # the notify beat this waiter's timeout
                self._timed_parked.discard(wtid)
                w.deadline = None
                w.parked_on = None
                w.wake_value = True
            runnable.add(wtid)
        self._runnable_sorted = None

    if parked:
        t.pending = None
    elif flags & F_EXIT:
        t.status = _FINISHED
        t.pending = None
        t.exit_recorded = True
        self._runnable.discard(tid)
        self._runnable_sorted = None
        self._unfinished -= 1
    elif t.resuming and flags & F_LOCK:
        t.resuming = False
        t.wait_mutex = None
        wake_value, t.wake_value = t.wake_value, None
        self._advance(t, wake_value)
    elif throw is not None:
        self._advance_throw(t, throw)
    else:
        self._advance(t, value)

    if patch:
        np = t.pending
        if np is not None and FLAGS[np.kind] & F_ARRIVAL:
            self._enabled_cache = None
        else:
            cache = self._enabled_cache
            now = np is not None and (
                np.timeout is not None or self._op_enabled(t)
            )
            if now != (tid in cache):
                cache = cache.copy()
                if now:
                    insort(cache, tid)
                else:
                    cache.remove(tid)
                self._enabled_cache = cache
    return None  # fast_replay materialises no events


def install_specialized_step(ex) -> None:
    """Rebind ``ex.step`` to the fused fast-replay loop.  Requires
    ``ex.fast_replay`` (no Event objects, no trace)."""
    global _RUNNABLE, _WAITING, _FINISHED
    if _RUNNABLE is None:
        from .executor import _Status  # deferred: the executor imports us

        _RUNNABLE = _Status.RUNNABLE
        _WAITING = _Status.WAITING
        _FINISHED = _Status.FINISHED
        kind_flags()
    ex.step = MethodType(_specialized_step, ex)
