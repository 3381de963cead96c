"""The benchmark's own tests, at smoke size: every workload runs once
with its correctness checks, prints exactly the metrics BENCHMARK.json
declares, and a wrong verdict shows up as a failed task."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from sctbench import tracing, workloads  # noqa: E402

WORKLOADS = ("suite-exhaust", "dpor-scale", "bug-hunt", "check-cold")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("sctbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_out_and_prints_declared_metrics(workload):
    result = result_of(run_bench(workload, 0))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_the_ledger_with_its_layers_exercised(workload):
    result = result_of(run_bench(workload, 1))
    assert result["correct"], result
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared("per_layer")
    for span, targets in tracing.SPAN_TARGETS.items():
        if workload in targets:
            assert metrics[f"{span}.calls"]["value"] > 0, span


def test_ledger_names_match_the_declaration():
    assert dict(tracing.per_layer_names()) == declared("per_layer")


def test_self_check_names_a_layer_that_recorded_nothing():
    with pytest.raises(SystemExit, match=r"executor\.step\.calls"):
        tracing.Ledger().self_check("suite-exhaust")


def test_uninstall_restores_every_wrapped_attribute():
    from repro.runtime.executor import Executor

    before = dict(Executor.__dict__)
    tracer = tracing.Tracer()
    tracer.install()
    assert Executor.__dict__["step"] is not before["step"]
    tracer.uninstall()
    assert dict(Executor.__dict__) == before


def test_fastest_takes_each_schedule_at_its_quickest():
    Sample = workloads.Sample
    reps = [Sample(("t",), 3.0, False, splits=(1.0, 2.0)),
            Sample(("t",), 3.5, False, splits=(2.5, 1.0))]
    assert workloads.fastest(reps) == 2.0
    reps[1].splits = (3.5,)  # not the same schedules: whole tasks only
    assert workloads.fastest(reps) == 3.0


def test_keeper_folds_splits_apart_for_traced_repetitions():
    Sample = workloads.Sample
    keep = workloads.Keeper()
    plain = [keep(Sample(("t",), 3.0, False, splits=(1.0, 2.0))),
             keep(Sample(("t",), 3.0, False, splits=(2.0, 1.0)))]
    traced = keep(Sample(("t",), 9.0, True, splits=(4.0, 5.0)))
    assert [s.splits for s in plain] == [(1.0, 1.0)] * 2
    assert workloads.overhead_frac(plain + [traced]) == 9.0 / 2.0 - 1.0


def test_a_pass_averages_a_task_over_its_variants():
    Sample = workloads.Sample
    samples = [Sample(("a",), 1.0, False, variant=0),
               Sample(("a",), 3.0, False, variant=1),
               Sample(("a",), 2.0, False, variant=1),
               Sample(("b",), 5.0, False)]
    assert workloads.pass_wall(samples) == (1.0 + 2.0) / 2 + 5.0


def test_setups_are_spread_over_the_run():
    stamps = []

    def task(traced):
        time.sleep(0.01)
        return workloads.Sample(("t",), 0.01, traced)

    workloads.drive(lambda pass_no: [task], 0.3, False,
                    spread=[(lambda: stamps.append(time.perf_counter()), 3)])
    assert len(stamps) == 3
    assert stamps[2] - stamps[0] >= 0.15


def test_probe_counts_its_states_and_scales_to_the_reference():
    from sctbench import probe

    assert probe.explore() == probe.STATES
    assert probe.host_scale([2 * probe.REFERENCE_S, 3.0]) == 0.5


def test_wrong_verdict_counts_as_failed(monkeypatch):
    flipped = tuple((target, "clean" if target == "36" else verdict)
                    for target, verdict in workloads.CheckCold.TARGETS)
    monkeypatch.setattr(workloads.CheckCold, "TARGETS", flipped)
    outcome = workloads.run_workload("check-cold", seed=1, seconds=0,
                                     trace=False)
    assert 0 < outcome.failed < outcome.attempted


def test_wrong_error_kind_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_KIND, "deadlock",
                        "GuestAssertionError")
    outcome = workloads.run_workload("bug-hunt", seed=1, seconds=0,
                                     trace=False, smoke=True)
    assert 0 < outcome.failed < outcome.attempted


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(BENCH, tmp_path / "sctbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("bug-hunt", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
