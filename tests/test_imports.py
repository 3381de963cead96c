"""Import boundaries and the lazily resolved public API.

A cold ``python -m repro check`` should load only what it runs: not the
shim frontend for a suite id, not the suite for a ``module:function``
target, and never the campaign layer or the analysis harnesses.  Every
test runs in a fresh interpreter, so imports made by other tests in this
process hide nothing.
"""

import json

import pytest

from fresh_process import run_python

#: appended to a snippet: print the loaded ``repro`` modules as the last
#: line of standard output
_REPORT_MODULES = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'repro' or m.startswith('repro.'))))\n"
)


def loaded_modules(code: str) -> set:
    """The ``repro`` modules loaded after running ``code``."""
    proc = run_python("-c", code + _REPORT_MODULES)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_by_cli(*argv: str) -> set:
    code = ("from repro.__main__ import main\n"
            f"assert main({list(argv)!r}) == 0\n")
    return loaded_modules(code)


def packages(modules: set) -> set:
    """Each module and every package above it."""
    out = set()
    for name in modules:
        parts = name.split(".")
        out.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return out


class TestImportBoundaries:
    def test_bare_import_skips_the_optional_layers(self):
        loaded = packages(loaded_modules("import repro"))
        assert "repro.check" in loaded
        for absent in ("repro.shim", "repro.analysis", "repro.campaign",
                       "repro.suite", "repro.perf"):
            assert absent not in loaded

    def test_check_of_a_suite_id_skips_campaign_and_shim(self):
        loaded = packages(loaded_by_cli("check", "37", "--expect", "clean"))
        assert "repro.suite" in loaded
        for absent in ("repro.campaign", "repro.analysis.runner",
                       "repro.shim"):
            assert absent not in loaded

    def test_check_of_a_function_skips_suite_and_campaign(self):
        loaded = packages(loaded_by_cli(
            "check", "examples.real_code_demo:pipeline", "--expect", "bug"))
        assert "repro.shim" in loaded
        assert "repro.suite" not in loaded
        assert "repro.campaign" not in loaded


class TestLazyNames:
    @pytest.mark.parametrize("module", ["repro", "repro.analysis"])
    def test_every_exported_name_resolves_and_is_listed(self, module):
        proc = run_python("-c", (
            f"import {module} as m\n"
            "missing = [n for n in m.__all__ if n not in dir(m)]\n"
            "assert not missing, missing\n"
            "for name in m.__all__:\n"
            "    getattr(m, name)\n"
        ))
        assert proc.returncode == 0, proc.stderr

    def test_star_import(self):
        proc = run_python("-c", (
            "from repro import *\n"
            "assert callable(check) and callable(shared)\n"
            "assert callable(program_from_function) and callable(instrument)\n"
        ))
        assert proc.returncode == 0, proc.stderr

    def test_shim_attribute_after_bare_import(self):
        proc = run_python("-c", (
            "import repro\n"
            "t = repro.shim.threading.Thread\n"
            "assert repro.shared is repro.shim.shared\n"
        ))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module", ["repro", "repro.analysis"])
    def test_unknown_name_raises_attribute_error(self, module):
        proc = run_python("-c", (
            f"import {module} as m\n"
            "try:\n"
            "    m.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    raise SystemExit('no AttributeError')\n"
        ))
        assert proc.returncode == 0, proc.stderr
