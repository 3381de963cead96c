#!/usr/bin/env python3
"""Run one workload of the end-to-end SCT benchmark.

    python3 sctbench/run.py --workload suite-exhaust --seed 1 \\
        --seconds 20 --trace 0

From the root of a checkout of the repository.  With ``--trace 0`` it
prints every end-to-end metric of the workload; with ``--trace 1`` the
per-layer ledger (see ``sctbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run's provenance.  The exit code is 0 when the run completed, also
when a correctness check failed (``correct`` is then false); it is
non-zero, with no result printed, when the run could not complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: cold set-ups measured per run, spread over it; ``setup_s`` is their
#: median
SETUP_REPEATS = 11


def parse_args(argv):
    from sctbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the workload's inputs, "
                             "then exit (what setup_s times)")
    return parser.parse_args(argv)


def scrub_env() -> None:
    """No ambient ``REPRO_*`` setting (engine, op cache, ...) may change
    the program being measured, here or in any child."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def setup_timer(args, times):
    """A function that times one cold process that imports ``repro`` and
    builds the workload's inputs, appending its wall time to ``times``."""
    from sctbench.workloads import run_child

    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--setup-only"]
    if args.smoke:
        argv.append("--smoke")

    def time_setup() -> None:
        code, wall, _, _, err = run_child(argv)
        if code != 0:
            raise SystemExit(f"set-up child failed ({code}): {err.strip()}")
        times.append(wall)
    return time_setup


def source_digest() -> str:
    """sha256 over the package sources: identifies the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() or None


def provenance(args) -> dict:
    import platform

    from repro.core.engines import native_compiled, resolve_engine

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engine": resolve_engine(None),
        "engine_compiled": native_compiled(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    scrub_env()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from the root of "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - t0

    from sctbench.workloads import WORKLOADS, run_workload

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    if args.setup_only:
        return 0
    setup_times = []
    setups = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workload=workload, import_s=import_s,
        spread=[(setup_timer(args, setup_times), setups)])
    metrics = dict(outcome.metrics)
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_times)
                              * outcome.host_scale, "s")
        metrics["ok_frac"] = (1.0 - outcome.failed / outcome.attempted,
                              "frac")
    failures = [s for s in outcome.samples if not s.ok]
    for sample in failures[:20]:
        print(f"FAILED {sample.key}: {sample.why}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failed tasks",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    print("provenance " + json.dumps(
        {**provenance(args), "probe_s": outcome.probe_s,
         "host_scale": outcome.host_scale}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
