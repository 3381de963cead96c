"""Experiment harnesses regenerating the paper's figures and tables.

The re-exported names resolve on first access (PEP 562): importing one
submodule, e.g. :mod:`repro.analysis.traceviz` for ``check()``'s
timeline, does not load the campaign-backed :mod:`.runner`.
"""

#: re-exported name -> the submodule defining it
_EXPORTS = {
    "Race": "races",
    "RaceReport": "races",
    "find_races": "races",
    "race_summary": "races",
    "races_in_trace": "races",
    "sync_oids_of": "races",
    "DEFAULT_LIMIT": "runner",
    "Figure2Row": "runner",
    "Figure3Row": "runner",
    "InequalityRow": "runner",
    "figure2_rows_from_cells": "runner",
    "figure3_rows_from_cells": "runner",
    "run_figure2": "runner",
    "run_figure3": "runner",
    "run_inequality_table": "runner",
    "figure2_report": "report",
    "figure3_report": "report",
    "inequality_report": "report",
    "render_scatter": "scatter",
    "scatter_csv": "scatter",
    "ScatterPoint": "stats",
    "below_diagonal": "stats",
    "caching_gain_summary": "stats",
    "redundancy_summary": "stats",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(
        import_module(f".{submodule}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
