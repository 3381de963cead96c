"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from fresh_process import run_python
from repro.__main__ import build_parser, main


class TestCheck:
    def test_check_benchmark_clean(self, capsys):
        assert main(["check", "1", "--explorer", "dfs",
                     "--limit", "100"]) == 0
        out = capsys.readouterr().out
        assert "no bug found" in out

    def test_check_finds_bug_exits_1(self, capsys):
        assert main(["check", "36", "--limit", "500"]) == 1
        out = capsys.readouterr().out
        assert "BUG" in out
        assert "minimized" in out

    def test_expect_bug_makes_finding_a_pass(self, capsys):
        assert main(["check", "36", "--limit", "500",
                     "--expect", "bug"]) == 0

    def test_expect_clean_fails_on_bug(self, capsys):
        assert main(["check", "36", "--limit", "500",
                     "--expect", "clean"]) == 1
        assert "UNEXPECTED" in capsys.readouterr().err

    def test_module_function_target(self, capsys, monkeypatch):
        import pathlib
        import sys as _sys
        repo = pathlib.Path(__file__).parent.parent
        monkeypatch.syspath_prepend(str(repo))
        _sys.modules.pop("examples.real_code_demo", None)
        assert main(["check", "examples.real_code_demo:pipeline",
                     "--expect", "bug"]) == 0
        out = capsys.readouterr().out
        assert "lost update" in out

    def test_json_artifact(self, capsys, tmp_path):
        import json
        path = tmp_path / "check.json"
        assert main(["check", "36", "--limit", "500",
                     "--json", str(path), "--expect", "bug"]) == 0
        payload = json.loads(path.read_text())
        assert payload["bug_found"] is True
        assert payload["explorer"] == "dpor"

    def test_bad_target_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "no-colon-here"])
        assert exc.value.code == 2

    def test_unknown_explorer_exits_2(self, capsys):
        assert main(["check", "1", "--explorer", "nope"]) == 2

    def test_seeded_explorer_without_seeds_exits_2(self, capsys):
        assert main(["check", "37", "--explorer", "random",
                     "--seeds", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestShimEquivalence:
    def test_report_and_artifact(self, capsys, tmp_path):
        import json
        path = tmp_path / "equiv.json"
        assert main(["shim-equivalence", "--limit", "400",
                     "--explorers", "dpor", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "all_equal=True" in out
        assert "racy_counter" in out
        payload = json.loads(path.read_text())
        assert payload["kind"] == "repro-shim-equivalence"
        assert payload["all_equal"] is True


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        # header + 96 rows
        assert len(out.strip().splitlines()) == 97


class TestRun:
    def test_run_figure1(self, capsys):
        assert main(["run", "1"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "final state" in out

    def test_run_with_schedule(self, capsys):
        assert main(["run", "1", "--schedule", "1,1,1,1,1,0"]) == 0
        out = capsys.readouterr().out
        assert "schedule=[1, 1, 1, 1, 1, 0" in out

    def test_unknown_id_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "999"])
        assert exc.value.code == 2


class TestExplore:
    def test_explore_dpor(self, capsys):
        assert main(["explore", "1", "--strategy", "dpor"]) == 0
        out = capsys.readouterr().out
        assert "dpor" in out
        assert "hbrs=2" in out

    def test_explore_finds_deadlock(self, capsys):
        assert main(["explore", "36"]) == 0
        out = capsys.readouterr().out
        assert "DeadlockError" in out
        assert "schedule:" in out

    def test_unknown_strategy(self, capsys):
        assert main(["explore", "1", "--strategy", "nope"]) == 2

    def test_all_strategies_accessible(self, capsys):
        for strategy in ("dfs", "dpor", "hbr-caching", "lazy-hbr-caching",
                         "lazy-dpor"):
            assert main(["explore", "1", "--strategy", strategy,
                         "--limit", "200"]) == 0


class TestRaces:
    def test_racy_benchmark_exits_1(self, capsys):
        assert main(["races", "2"]) == 1
        out = capsys.readouterr().out
        assert "race(s)" in out
        assert "witness" in out

    def test_clean_benchmark_exits_0(self, capsys):
        assert main(["races", "5"]) == 0
        assert "race-free" in capsys.readouterr().out


class TestMatrix:
    def test_compares_explorers(self, capsys):
        assert main(["matrix", "--ids", "1", "--strategies", "dpor,dfs",
                     "--limit", "50"]) == 0
        out = capsys.readouterr().out
        assert "| figure1 | dpor |" in out and "| figure1 | dfs |" in out

    def test_bad_ids_exit_2(self, capsys):
        assert main(["matrix", "--ids", "1,x"]) == 2
        assert "error: --ids must be comma-separated integers" in \
            capsys.readouterr().err

    def test_unknown_strategy_exits_2_before_running(self, capsys):
        assert main(["matrix", "--ids", "1", "--strategies",
                     "dpor,nope"]) == 2
        captured = capsys.readouterr()
        assert "error: unknown explorer 'nope'" in captured.err
        assert captured.out == ""


class TestFigures:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        for cmd in ("list", "run", "explore", "races", "figure2",
                    "figure3", "inequality", "campaign"):
            # does not raise
            if cmd == "list":
                parser.parse_args([cmd])
            elif cmd in ("run", "explore", "races"):
                parser.parse_args([cmd, "1"])
            else:
                parser.parse_args([cmd, "--limit", "10"])

    def test_figure_commands_accept_jobs(self):
        parser = build_parser()
        for cmd in ("figure2", "figure3", "inequality"):
            args = parser.parse_args([cmd, "--jobs", "4"])
            assert args.jobs == 4

    def test_campaign_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--smoke", "--jobs", "2", "--seeds", "3",
             "--resume", "ckpt.json", "--out", "report.json"]
        )
        assert args.smoke and args.jobs == 2 and args.seeds == 3
        assert args.resume == "ckpt.json" and args.out == "report.json"

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestEngineSelection:
    """A bad engine name, from the flag or from ``REPRO_ENGINE``, is
    CLI misuse: ``error:`` and exit 2 before any work runs."""

    def test_campaign_rejects_bad_env_before_any_cell(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        out = tmp_path / "report.json"
        assert main(["campaign", "--smoke", "--ids", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown engine" in err
        assert not out.exists()

    def test_check_rejects_bad_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        assert main(["check", "1", "--limit", "10"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_engine_flag_choices_are_the_backends(self):
        for bad in ("turbo", "accel"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["check", "1", "--engine", bad])
        for name in ("ref", "native"):
            args = build_parser().parse_args(
                ["campaign", "--engine", name])
            assert args.engine == name


#: every subcommand with its smallest inputs, and its exit code
FRESH_PROCESS_CASES = [
    (["check", "1", "--explorer", "dfs", "--limit", "10"], 0),
    (["list"], 0),
    (["run", "1", "--timeline"], 0),
    (["explore", "1", "--limit", "10"], 0),
    (["races", "1", "--limit", "10"], 0),
    (["figure2", "--limit", "2", "--seconds", "0.01"], 0),
    (["figure3", "--limit", "2", "--seconds", "0.01"], 0),
    (["inequality", "--limit", "2", "--seconds", "0.01"], 0),
    (["campaign", "--ids", "1", "--explorers", "dpor", "--limit", "10",
      "--out", "{tmp}/report.json"], 0),
    (["bench", "--smoke", "--repeat", "1", "--min-time", "0.01",
      "--cases", "dfs/racy_counter", "--quiet"], 0),
    (["shim-equivalence", "--explorers", "dfs", "--limit", "10"], 0),
    (["matrix", "--ids", "1", "--strategies", "dpor", "--limit", "10"], 0),
]


@pytest.mark.parametrize("argv,code", FRESH_PROCESS_CASES,
                         ids=[argv[0] for argv, _ in FRESH_PROCESS_CASES])
def test_subcommand_in_fresh_process(argv, code, tmp_path):
    """Each handler imports what it runs: in-process tests cannot see a
    missing import that an earlier test's import has covered up."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = run_python("-m", "repro", *argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_every_subcommand_has_a_fresh_process_case():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(argv[0]
                                      for argv, _ in FRESH_PROCESS_CASES)
