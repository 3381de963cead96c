"""Run Python in a fresh interpreter on this checkout.

In-process tests share one ``sys.modules``: once any test has imported a
module, every later test sees it too.  Import boundaries and missing
imports only show in a new interpreter, so those tests run through
:func:`run_python`.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python *args`` from the checkout root with ``src`` importable
    (so ``examples.*`` targets resolve too)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
