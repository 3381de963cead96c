"""Op-cache byte-identity: ``REPRO_OPCACHE`` on vs off.

The op-stream trie (:mod:`repro.runtime.optrie`) serves memoised guest
ops during replay instead of resuming generators.  It is purely a
replay shortcut: with the cache on or off, every exploration must
produce identical schedules, fingerprint sets, state hashes and
statistics.  This is the suite the optrie module docstring promises.

``_OPCACHE_ON`` is bound at executor import, so each configuration
runs in a fresh subprocess.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.engines import native_compiled

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_RUN = r"""
import json, sys
from repro.suite import REGISTRY
from repro.explore.base import ExplorationLimits
from repro.explore.controller import make_explorer
explorer, prog_name = sys.argv[1], sys.argv[2]
program = {b.name: b for b in REGISTRY.values()}[prog_name].program
exp = make_explorer(explorer, program,
                    ExplorationLimits(max_schedules=400))
st = exp.run()
print(json.dumps({
    "schedules": st.num_schedules, "complete": st.num_complete,
    "events": st.num_events, "hbrs": st.num_hbrs,
    "lazy": st.num_lazy_hbrs, "states": st.num_states,
    "pruned": st.num_pruned, "exhausted": st.exhausted,
    "errors": sorted((e.kind, list(e.schedule)) for e in st.errors),
    "hbr_fps": sorted(st.hbr_fps),
    "state_hashes": sorted(st.state_hashes),
}, sort_keys=True))
"""


def _signature(explorer, program, opcache, engine=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_OPCACHE"] = "1" if opcache else "0"
    if engine is not None:
        env["REPRO_ENGINE"] = engine
    else:
        env.pop("REPRO_ENGINE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, explorer, program],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


CELLS = [
    ("dfs", "racy_counter_t3_k1"),
    ("dpor", "bounded_buffer_p1_c2_k2_cap2"),
    ("preempt-bounded", "pipeline_s2_k2"),
]


@pytest.mark.parametrize("explorer,program", CELLS)
def test_opcache_on_off_byte_identical(explorer, program):
    off = _signature(explorer, program, opcache=False)
    on = _signature(explorer, program, opcache=True)
    assert on == off


@pytest.mark.skipif(not native_compiled(),
                    reason="native extension not compiled")
def test_opcache_off_native_byte_identical():
    # the kill switch composes with the compiled engine: native with
    # the cache disabled still matches the pure-Python baseline
    explorer, program = CELLS[0]
    base = _signature(explorer, program, opcache=False)
    native_off = _signature(explorer, program, opcache=False,
                            engine="native")
    assert native_off == base
