"""The clock-engine backends: the reference kernel and the compiled one.

The replay hot path — :meth:`~repro.core.hb.DualClockEngine.observe`
plus the executor step loop driving it — exists in two
implementations:

* ``ref`` — the pure-Python reference (:class:`~repro.core.hb
  .DualClockEngine`): list-of-list clocks, always correct, always
  available.  The only backend that supports ``canonical=True``, and
  the one every other kernel is tested against.
* ``native`` — the compiled kernel (:mod:`repro.core.hb_native`):
  the ``observe`` dual-clock join, dominance tables and fingerprint
  chains as a C extension (``repro.core._native``), fused with the
  specialized step loop (:mod:`repro.runtime.stepper`).  Available
  only when the extension has been built for this interpreter
  (``python setup.py build_ext --inplace``; :func:`native_compiled`).

The two are byte-identical by contract: fingerprints, state hashes,
schedules and clock snapshots must match suite-wide (the equivalence
tests, the ref-vs-native hypothesis property and the ``bench --engine
both`` harness enforce it).

Selection is runtime, with this precedence:

1. an explicit name (``--engine`` on the ``bench``/``campaign``/
   ``check`` CLIs, or the ``engine=`` parameter threaded through
   :class:`~repro.runtime.executor.Executor` and the explorers);
2. the ``REPRO_ENGINE`` environment variable (``ref`` or ``native``);
3. ``auto`` — ``native`` when the compiled kernel imports, ``ref``
   otherwise.

An explicit name (CLI flag or ``REPRO_ENGINE``) always wins, so
``REPRO_ENGINE=ref`` pins the reference even where auto would pick the
compiled kernel.  An explicit ``native`` on a checkout without the
build raises ``ValueError`` rather than silently running something
else.  See DESIGN.md §11 and §13.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from .hb import DualClockEngine

#: Environment variable consulted when no explicit engine is requested.
ENGINE_ENV = "REPRO_ENGINE"

#: Name resolved when neither an explicit request nor the environment
#: names a backend.
AUTO = "auto"

#: Every backend name, reference first.
_NAMES = ("ref", "native")

_NATIVE_COMPILED: Optional[bool] = None


def native_compiled() -> bool:
    """True when the ``native`` backend's compiled C kernel imported.
    Drives the ``auto`` pick, availability and the bench provenance
    rows.  Memoised: every executor construction asks (via
    :func:`resolve_engine`), and the answer is fixed per process once
    :mod:`~repro.core.hb_native` has imported."""
    global _NATIVE_COMPILED
    if _NATIVE_COMPILED is None:
        from .hb_native import NATIVE_COMPILED

        _NATIVE_COMPILED = NATIVE_COMPILED
    return _NATIVE_COMPILED


def engine_provenance(name: str) -> dict:
    """Provenance of a resolved backend, recorded per bench case row:
    how the kernel executing the measurement was actually built."""
    import platform

    if name == "native":
        from .hb_native import provenance

        return dict(provenance())
    return {
        "compiled": False,
        "compiler": None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def backend_names() -> tuple:
    """Every backend name, reference first."""
    return _NAMES


def available_backends() -> tuple:
    """The backends this process can build: ``native`` only when the
    compiled kernel imported."""
    return _NAMES if native_compiled() else ("ref",)


#: (requested name, REPRO_ENGINE value) -> resolved backend.  Every
#: executor construction resolves; the answer only changes when the
#: environment variable does, so the pair is the full cache key.
_RESOLVE_CACHE: Dict[tuple, str] = {}


def resolve_engine(name: Optional[str] = None) -> str:
    """Resolve a requested engine name to a concrete backend.

    ``None``/``"auto"`` consults :data:`ENGINE_ENV`, then falls back
    to ``native`` when its compiled kernel imported and ``ref``
    otherwise.  An explicit unknown or unavailable name raises
    ``ValueError`` (misconfiguration should be loud, not a silent
    fallback).
    """
    env = os.environ.get(ENGINE_ENV)
    cached = _RESOLVE_CACHE.get((name, env))
    if cached is not None:
        return cached
    requested = name
    if name is None or name == "" or name == AUTO:
        name = env or AUTO
    if name == AUTO:
        resolved = "native" if native_compiled() else "ref"
    else:
        if name not in _NAMES:
            raise ValueError(
                f"unknown engine {name!r}; available: "
                f"{list(_NAMES)} (or 'auto')"
            )
        if name not in available_backends():
            raise ValueError(
                f"engine {name!r} is not available in this environment: "
                f"the compiled kernel is not built (run `python setup.py "
                f"build_ext --inplace`)"
            )
        resolved = name
    _RESOLVE_CACHE[(requested, env)] = resolved
    return resolved


def create_clock_engine(name: Optional[str] = None, canonical: bool = False):
    """Build a clock engine for the resolved backend.

    ``canonical=True`` always builds the reference engine: the exact
    :class:`~repro.core.fingerprint.CanonicalHBR` forms are theorem
    checker/test machinery, never part of the replay hot path, and only
    the reference implementation carries them.
    """
    if canonical or resolve_engine(name) == "ref":
        return DualClockEngine(canonical=canonical)
    from .hb_native import NativeClockEngine, self_test

    self_test()
    return NativeClockEngine()
