"""A fixed probe of the host's speed, independent of ``repro``.

On a small shared host, other tenants slow every process down, in
phases that last minutes and reach +50%.  Taking each task's fastest
repetition removes short bursts but not a phase that covers a whole
run, so every time the benchmark reports is also scaled by how fast the
host ran this probe in the same run (see :func:`host_scale`).

The probe is a small explicit-state model checker of its own: an
exhaustive search of the interleavings of a toy three-thread program
over two shared variables, with states hashed into a set.  Its mix of
tuple building, dict and set traffic and small-object allocation is
that of the SCT code measured, so a phase slows both alike; it imports
nothing from ``repro``, so no change to the package moves it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Set, Tuple

#: the probe's fastest time on the reference host: a 2-vCPU Firecracker
#: virtual machine, CPython 3.11.7, with the host quiet.  Reported times
#: are seconds on that host.
REFERENCE_S = 0.0105

#: each thread's program: load a shared variable into its register, add
#: to the register, store it back, once for each variable
THREADS: Tuple[Tuple[Tuple[str, object], ...], ...] = tuple(
    (("load", "x"), ("add", t + 1), ("store", "x"),
     ("load", "y"), ("add", 1), ("store", "y"))
    for t in range(3))

#: reachable states of :data:`THREADS`, the probe's correctness check
STATES = 3_529

State = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[Tuple[str, int], ...]]


def explore() -> int:
    """Search every interleaving of :data:`THREADS`; return the number
    of distinct states reached."""
    start: State = ((0,) * len(THREADS), (0,) * len(THREADS),
                    (("x", 0), ("y", 0)))
    seen: Set[State] = {start}
    stack: List[State] = [start]
    while stack:
        pcs, regs, memory = stack.pop()
        for tid, ops in enumerate(THREADS):
            pc = pcs[tid]
            if pc == len(ops):
                continue
            op, arg = ops[pc]
            mem: Dict[str, int] = dict(memory)
            reg = list(regs)
            if op == "load":
                reg[tid] = mem[arg]
            elif op == "add":
                reg[tid] += arg
            else:
                mem[arg] = reg[tid]
            nxt = list(pcs)
            nxt[tid] += 1
            state = (tuple(nxt), tuple(reg), tuple(sorted(mem.items())))
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return len(seen)


def timed() -> float:
    """Seconds one :func:`explore` takes; fails if it miscounts."""
    t0 = time.perf_counter()
    states = explore()
    elapsed = time.perf_counter() - t0
    if states != STATES:
        raise AssertionError(f"probe reached {states} states, "
                             f"not {STATES}")
    return elapsed


def host_scale(times: Sequence[float]) -> float:
    """The factor that turns this run's seconds into reference-host
    seconds: the probe's fastest time on the reference host over its
    fastest time in this run (below 1 on a slower host)."""
    return REFERENCE_S / min(times)
