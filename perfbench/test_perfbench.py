"""Tests of the benchmark itself:  python3 -m pytest perfbench

Tiny workloads keep each run to seconds; they go through the same code as
the full-size runs.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))  # the program under test, as run.main does

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((run.HERE / "layer_map.json").read_text())["moves"]

TINY = {
    "figures": functools.partial(run.figures_workload, which="2", deep_rows=2),
    "mc": functools.partial(run.mc_workload, samples=2_000, trials=50),
    "points": run.points_workload,
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        workloads=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:3:2] == [m["name"], m["unit"]] for line in lines), m["name"]
    assert any(line.split()[:1] == ["failed_share"] for line in lines)
    facts = json.loads(next(line for line in lines if line.startswith("machine "))[8:])
    assert facts["src_lines"] > 0 and "numba_enabled" in facts
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0


def test_perturbed_csv_float_is_counted_as_failed(tmp_path):
    call = run.figures_workload(5, which="2", deep_rows=0).rep(0, tmp_path)[0]
    out = run.run_in_process(call.argv)
    assert out.code == 0
    path = tmp_path / "figures-0" / "fig2.csv"
    clean = path.read_text()
    lines = clean.splitlines()
    header, row = lines[0].split(","), lines[40].split(",")
    col = header.index("eps1")
    row[col] = repr(float(row[col]) * (1.0 + 1e-6))
    lines[40] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")

    verdict = run.judge(call, out)  # the check also removes the outputs
    assert verdict.wrong and verdict.failed == 1
    assert any("N_tot" in p for p in verdict.problems)

    path.parent.mkdir()
    path.write_text(clean)
    verdict = run.judge(call, out)
    assert not verdict.wrong and verdict.failed == 0


def test_nonzero_exits_are_counted_as_failed():
    call = run.points_workload(1).rep(0, Path("."))[0]
    crash = run.judge(call, run.Outcome(1.0, code=1, stderr="Error: boom\n"))
    assert crash.wrong and crash.failed == call.ops
    trace = run.judge(
        call,
        run.Outcome(1.0, code=3, stderr="Traceback (most recent call last):\nValueError: x\n"),
    )
    assert trace.wrong and trace.failed == call.ops
    assert run.judge(call, run.Outcome(1.0, code=2, stderr="infeasible: x\n")).wrong

    infeasible = run.Call(["state", "--M", "4", "--nth", "5", "--N", "10"], 1, None, True)
    out = run.run_in_process(infeasible.argv)
    assert out.code == 2
    assert run.judge(infeasible, out).failed == 0


def test_documented_numerical_failure_fails_its_op_without_a_wrong_output():
    # a known DomainError point of the chart numerics
    argv = ["state", "--M", "2", "--nth", "0.5", "--N", "3.27e5", "--objective", "privacy"]
    call = run.Call(argv, 1, None)
    out = run.run_in_process(argv)
    assert out.code == 3
    verdict = run.judge(call, out)
    assert verdict.failed == 1 and not verdict.wrong


def test_missing_wrap_target_is_absent_and_wrappers_are_removed():
    import fsgsense.cli

    original = fsgsense.cli.compute_record
    spans = {
        "cli.compute_record": ("fsgsense.cli.compute_record",),
        "gone.function": ("fsgsense.cli.no_such_function", "fsgsense.no_such_module.f"),
    }
    with tracer.Tracer(spans=spans, counters={}) as t:
        assert fsgsense.cli.compute_record is not original
        fsgsense.cli.compute_record(2, 0.0, 1.0, "precision", False)
    assert fsgsense.cli.compute_record is original
    assert t.absent == {"gone.function"}
    summary = t.summary()["cli.compute_record"]
    assert summary["calls"] == 1 and 0.0 <= summary["self_s"] <= summary["busy_s"]

    with tracer.Tracer(spans={}, counters={}) as empty:
        pass
    assert tracer.layer_metrics(empty)["kernels.family_scan.calls"] is None


def test_self_time_excludes_child_spans():
    import fsgsense.optimize

    with tracer.Tracer() as t:
        fsgsense.optimize.maximize_precision(3, 0.0, 10.0)
    summary = t.summary()
    assert summary["kernels.family_scan"]["calls"] == 1
    assert t.counts["kernels.family_scan.points"] == fsgsense.optimize.GRID_POINTS
    parent = summary["optimize.maximize_precision"]
    children = sum(
        summary[name]["busy_s"]
        for name in ("kernels.family_scan", "family.solve_s", "family.blocks_from_params",
                     "metrology.qfim_fsg", "metrology.precision")
    )
    assert parent["self_s"] == pytest.approx(parent["busy_s"] - children, abs=1e-9)


def test_layer_map_covers_every_per_layer_metric():
    names = [m["name"] for m in BENCH["per_layer"]]
    assert list(LAYER_MAP) == names
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    gated = {w["name"] for w in BENCH["workloads"]}
    assert gated == set(run.WORKLOADS) - {"points"}
    for pairs in LAYER_MAP.values():
        for metric, workload in pairs:
            assert metric in e2e and workload in run.WORKLOADS
    with tracer.Tracer(spans={}, counters={}) as t:
        pass
    produced = set(tracer.layer_metrics(t)) | {
        "import.fsgsense_cli_s", "import.scipy_s", "trace.overhead_s"
    }
    assert produced == set(names)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 21)]
    assert run.tail(values)[0] == 10.0
    assert run.tail(values[:5])[0] == 3.0


def test_points_are_seeded_and_feasible():
    a, b = run.draw_points(4, 0), run.draw_points(4, 0)
    assert a == b and a != run.draw_points(5, 0)
    for p in (p for i in range(50) for p in run.draw_points(4, i)):
        assert 2 <= p["M"] <= 128
        assert max(1.0, p["M"] * p["n_th"]) <= p["N_tot"] <= 1e6


def test_mc_band_is_wider_than_the_95_percent_interval():
    import checks

    lo, hi = checks.mc_band(1000)
    assert 0.75 < lo < 0.85 < 1.0 < 1.15 < hi < 1.3


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
