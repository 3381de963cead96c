"""Extension workloads beyond the 96-instance registry.

These programs serve three purposes: classic synchronisation-theory
exercises that stress corners the registry does not (multi-party
condvar protocols, generalised rendezvous), *scaled* instances used by
the stress benchmarks (where the schedule budget must be binding, as in
the paper's larger Java programs), and a seqlock — a lock-free reader
protocol whose benign races the race detector must still flag.
"""

from __future__ import annotations

from ..runtime.program import Program, ProgramBuilder


def sleeping_barber(customers: int, chairs: int = 1) -> Program:
    """The sleeping-barber problem (Dijkstra) with semaphores.

    ``customers`` arrive; at most ``chairs`` wait; excess customers are
    turned away (recorded).  The barber serves exactly the admitted
    customers and then is shut down via a poison pill.
    """

    def build(p: ProgramBuilder) -> None:
        m = p.mutex("m")
        waiting = p.var("waiting", 0)
        ready = p.semaphore("ready", 0)       # customers ready to be served
        done = p.semaphore("done", 0)         # haircut finished handshake
        served = p.var("served", 0)
        turned_away = p.var("turned_away", 0)
        admitted = p.var("admitted", 0)

        def customer(api, me):
            yield api.lock(m)
            w = yield api.read(waiting)
            if w < chairs:
                yield api.write(waiting, w + 1)
                a = yield api.read(admitted)
                yield api.write(admitted, a + 1)
                yield api.unlock(m)
                yield api.sem_release(ready)
                yield api.sem_acquire(done)
            else:
                t = yield api.read(turned_away)
                yield api.write(turned_away, t + 1)
                yield api.unlock(m)

        def barber(api):
            while True:
                yield api.sem_acquire(ready)
                yield api.lock(m)
                w = yield api.read(waiting)
                yield api.write(waiting, w - 1)
                s = yield api.read(served)
                yield api.write(served, s + 1)
                yield api.unlock(m)
                yield api.sem_release(done)
                # shut down once every customer is accounted for
                yield api.lock(m)
                s = yield api.read(served)
                t = yield api.read(turned_away)
                yield api.unlock(m)
                if s + t >= customers and s >= 1:
                    a = yield api.read(admitted)
                    if s >= a and s + t >= customers:
                        break

        for me in range(customers):
            p.thread(customer, me)
        p.thread(barber)

    return Program(
        f"sleeping_barber_c{customers}_ch{chairs}",
        build,
        description="sleeping barber with bounded waiting room",
    )


def cigarette_smokers(rounds: int = 1) -> Program:
    """The cigarette-smokers problem: an agent repeatedly offers one of
    three ingredient pairs; exactly the matching smoker may smoke.
    Modelled with one await-guarded offer slot (0 = none, 1..3 = which
    smoker's pair is on the table)."""

    def build(p: ProgramBuilder) -> None:
        table = p.var("table", 0)   # 0 empty, k = offer for smoker k
        smoked = p.array("smoked", [0, 0, 0])

        def agent(api):
            for r in range(rounds * 3):
                offer = (r % 3) + 1
                yield api.await_value(table, lambda t: t == 0)
                yield api.write(table, offer)

        def smoker(api, k):
            for _ in range(rounds):
                yield api.await_value(table, lambda t, k=k: t == k)
                s = yield api.read(smoked, key=k - 1)
                yield api.write(smoked, s + 1, key=k - 1)
                yield api.write(table, 0)

        p.thread(agent)
        for k in (1, 2, 3):
            p.thread(smoker, k)

    return Program(
        f"cigarette_smokers_r{rounds}",
        build,
        description="cigarette smokers via guarded offers",
    )


def h2o(molecules: int = 1) -> Program:
    """The H2O rendezvous: hydrogen and oxygen threads group 2H+1O.

    Uses a shared counter tuple updated by RMW plus awaits — each atom
    waits until a full molecule including itself is formable, then
    bonds; the molecule counter advances when the last atom bonds.
    """
    n_h, n_o = 2 * molecules, molecules

    def build(p: ProgramBuilder) -> None:
        # state: (h_arrived, o_arrived, bonded)
        st = p.var("st", (0, 0, 0))
        bonds = p.atomic("bonds", 0)

        def arrive(kind):
            def apply(old):
                h, o, b = old
                if kind == "h":
                    h += 1
                else:
                    o += 1
                return (h, o, b), (h, o, b)
            return apply

        def hydrogen(api):
            yield api.rmw(st, arrive("h"))
            # wait until at least one full molecule is present
            yield api.await_value(st, lambda s: s[0] >= 2 and s[1] >= 1)
            yield api.fetch_add(bonds, 1)

        def oxygen(api):
            yield api.rmw(st, arrive("o"))
            yield api.await_value(st, lambda s: s[0] >= 2 and s[1] >= 1)
            yield api.fetch_add(bonds, 1)

        for _ in range(n_h):
            p.thread(hydrogen)
        for _ in range(n_o):
            p.thread(oxygen)

    return Program(
        f"h2o_m{molecules}",
        build,
        description="H2O rendezvous (relaxed bonding order)",
    )


def seqlock(readers: int = 1, writes: int = 1) -> Program:
    """A seqlock: the writer increments a sequence counter around its
    updates; readers retry while the sequence is odd or changed.

    The reader's unsynchronised data reads race with the writer by
    design (the protocol tolerates them) — the canonical example of a
    *benign* race that HB race detection must still report.
    """

    def build(p: ProgramBuilder) -> None:
        seq = p.atomic("seq", 0)
        d1 = p.var("d1", 0)
        d2 = p.var("d2", 0)
        out = p.array("out", [0] * readers)

        def writer(api):
            for i in range(writes):
                s = yield api.load(seq)
                yield api.store(seq, s + 1)      # odd: write in progress
                yield api.write(d1, i + 1)
                yield api.write(d2, i + 1)
                yield api.store(seq, s + 2)      # even: stable

        def reader(api, me):
            while True:
                s1 = yield api.load(seq)
                if s1 % 2:
                    yield api.await_value(seq, lambda s, s1=s1: s != s1)
                    continue
                a = yield api.read(d1)
                b = yield api.read(d2)
                s2 = yield api.load(seq)
                if s1 == s2:
                    api.guest_assert(a == b, "torn seqlock read")
                    yield api.write(out, a, key=me)
                    break

        p.thread(writer)
        for me in range(readers):
            p.thread(reader, me)

    return Program(
        f"seqlock_r{readers}_w{writes}",
        build,
        description="seqlock with retrying readers",
    )


def stress_work_queue(workers: int = 2, items: int = 4) -> Program:
    """Scaled coarse-locked work queue used by the Figure 3 stress
    benchmark (budget-binding, many lazy HBRs)."""
    from .collections_prog import work_queue_shared

    return work_queue_shared(workers, items)
