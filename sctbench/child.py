"""``python -m repro`` with the per-layer tracer installed.

The check-cold workload runs this in its traced passes, from the
checkout root, as ``python -m sctbench.child check TARGET --expect
VERDICT``.  It times ``import repro``, runs the CLI under the tracer,
and prints the ledger as the last line of standard error, after
:data:`~sctbench.tracing.LEDGER_MARK`.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the import a user pays)
    import_s = time.perf_counter() - t0
    from repro.__main__ import main as repro_main

    from .tracing import LEDGER_MARK, Tracer

    tracer = Tracer()
    tracer.ledger.import_s.append(import_s)
    tracer.install()
    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print(LEDGER_MARK + json.dumps(tracer.ledger.to_dict()),
              file=sys.stderr, flush=True)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
