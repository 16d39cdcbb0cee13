import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import fsgsense
from fsgsense.cli import CSV_FIELDS, main


@pytest.fixture
def runner():
    return CliRunner()


def _sweep_config(tmp_path, **overrides):
    cfg = {
        "M_list": [2, 3],
        "n_th_list": [0.0],
        "N_grid": {"min": 1.0, "max": 10.0, "points": 3, "spacing": "log"},
        "objective": "both",
        "homodyne": False,
        "output": str(tmp_path / "sweep.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(fsgsense.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, fsgsense.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------------- state


def test_state_json_output(runner):
    result = runner.invoke(
        main, ["state", "--M", "2", "--nth", "0", "--N", "1", "--objective", "precision"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["feasible"] is True
    assert payload["xi"] == pytest.approx(16.0, rel=1e-8)
    assert payload["t_star"] == pytest.approx(0.0, abs=1e-8)
    assert payload["privacy"] == pytest.approx(0.8, rel=1e-8)
    assert payload["xi_hd"] is not None
    assert set(payload) == set(CSV_FIELDS)


def test_state_infeasible_exits_2(runner):
    result = runner.invoke(main, ["state", "--M", "4", "--nth", "5", "--N", "10"])
    assert result.exit_code == 2
    assert "infeasible" in result.output


# (--M, --nth, --N) triples that must fail validation, not the optimizer
BAD_STATE_ARGS = [
    ("1", "0", "1"),
    ("2", "0", "nan"),
    ("2", "0", "inf"),
    ("2", "nan", "1"),
    ("2", "-1", "1"),
]


def _assert_one_line_error(result):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines()[-1].startswith("Error: ")


def test_state_bad_arguments_exit_1(runner):
    for m, nth, n in BAD_STATE_ARGS:
        result = runner.invoke(main, ["state", "--M", m, "--nth", nth, "--N", n])
        _assert_one_line_error(result)
    result = runner.invoke(main, ["state", "--M", "2", "--nth", "0"])
    assert result.exit_code == 1


# ------------------------------------------------------------------- sweep


def test_sweep_writes_expected_csv(runner, tmp_path):
    config, cfg = _sweep_config(tmp_path)
    result = runner.invoke(main, ["sweep", "--config", str(config)])
    assert result.exit_code == 0, result.output
    with open(cfg["output"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    # 2 M values x 1 n_th x 3 N x 2 objectives
    assert len(rows) == 12
    assert list(rows[0]) == CSV_FIELDS
    assert {row["objective"] for row in rows} == {"precision", "privacy"}
    assert all(row["feasible"] == "true" for row in rows)
    first = rows[0]
    assert first["M"] == "2"
    assert float(first["xi"]) == pytest.approx(16.0, rel=1e-6)
    # no homodyne requested: columns stay empty
    assert first["theta_hd_star"] == ""


def test_sweep_is_deterministic(runner, tmp_path):
    config, cfg = _sweep_config(tmp_path)
    assert runner.invoke(main, ["sweep", "--config", str(config)]).exit_code == 0
    body1 = open(cfg["output"], "rb").read()
    assert runner.invoke(main, ["sweep", "--config", str(config)]).exit_code == 0
    assert open(cfg["output"], "rb").read() == body1


def test_sweep_marks_infeasible_rows(runner, tmp_path):
    config, cfg = _sweep_config(
        tmp_path,
        M_list=[4],
        n_th_list=[5.0],
        N_grid={"min": 10.0, "max": 30.0, "points": 2, "spacing": "linear"},
        objective="precision",
    )
    result = runner.invoke(main, ["sweep", "--config", str(config)])
    assert result.exit_code == 0
    with open(cfg["output"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["feasible"] == "false"
    assert rows[0]["xi"] == ""
    assert rows[1]["feasible"] == "true"


def test_sweep_homodyne_columns(runner, tmp_path):
    config, cfg = _sweep_config(
        tmp_path,
        M_list=[2],
        objective="privacy",
        homodyne=True,
        N_grid={"min": 10.0, "max": 10.0, "points": 1, "spacing": "linear"},
    )
    result = runner.invoke(main, ["sweep", "--config", str(config)])
    assert result.exit_code == 0, result.output
    with open(cfg["output"], newline="") as handle:
        row = next(csv.DictReader(handle))
    assert float(row["r_hd"]) == pytest.approx(0.5, abs=0.05)
    assert row["theta_hd_star"] != ""


def test_sweep_out_flag_overrides_config(runner, tmp_path):
    config, _ = _sweep_config(tmp_path, M_list=[2], objective="precision")
    target = tmp_path / "other.csv"
    result = runner.invoke(main, ["sweep", "--config", str(config), "--out", str(target)])
    assert result.exit_code == 0
    assert target.exists()


def test_sweep_config_errors_exit_1(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert runner.invoke(main, ["sweep", "--config", str(bad)]).exit_code == 1
    bad.write_bytes(b'{"\xff": 0}')  # not UTF-8
    _assert_one_line_error(runner.invoke(main, ["sweep", "--config", str(bad)]))

    config, _ = _sweep_config(tmp_path, objective="nonsense")
    assert runner.invoke(main, ["sweep", "--config", str(config)]).exit_code == 1

    config, _ = _sweep_config(tmp_path, M_list=[1])
    assert runner.invoke(main, ["sweep", "--config", str(config)]).exit_code == 1

    config, cfg = _sweep_config(tmp_path)
    del cfg["output"]
    config.write_text(json.dumps(cfg))
    assert runner.invoke(main, ["sweep", "--config", str(config)]).exit_code == 1

    assert runner.invoke(main, ["sweep", "--config", "/no/such/file.json"]).exit_code == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"N_gird": {"min": 1.0, "max": 10.0, "points": 3}},
        {"weights": "mean"},
        {"N_grid": {"min": 1.0, "max": 10.0, "points": 3, "spaceing": "log"}},
        {"N_grid": {"min": -5, "max": 5, "points": 3, "spacing": "linear"}},
        {"N_grid": {"min": -5, "spacing": "linear"}},
        {"N_grid": {"min": 1.0, "max": float("nan"), "points": 3, "spacing": "log"}},
        {"N_grid": {"min": 1.0, "max": float("inf"), "points": 3}},
        {"N_grid": {"min": 1.0, "max": 10.0, "points": "many"}},
        {"n_th_list": [float("nan")]},
        {"M_list": [2.7]},
        {"M_list": [2, True]},
        {"M_list": "23"},
        {"homodyne": "false"},
        {"homodyne": 1},
        {"N_grid": {"min": 1.0, "max": 10.0, "points": 2.5}},
        {"N_grid": {"min": "1", "max": 10.0, "points": 3}},
        {"n_th_list": ["0.5"]},
        {"output": 1},
    ],
    ids=[
        "typo-key", "weights-key", "typo-N_grid-key", "negative-N", "missing-N-keys",
        "nan-N", "inf-N", "bad-points", "nan-n_th", "float-M", "bool-M", "string-M_list",
        "string-homodyne", "int-homodyne", "float-points", "string-N", "string-n_th",
        "int-output",
    ],
)
def test_sweep_bad_config_exits_1(runner, tmp_path, overrides):
    config, _ = _sweep_config(tmp_path, **overrides)
    _assert_one_line_error(runner.invoke(main, ["sweep", "--config", str(config)]))
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_unwritable_output_exits_4(runner, tmp_path):
    config, _ = _sweep_config(
        tmp_path,
        M_list=[2],
        objective="precision",
        N_grid={"min": 1.0, "max": 1.0, "points": 1, "spacing": "linear"},
        output="/no/such/dir/out.csv",
    )
    assert runner.invoke(main, ["sweep", "--config", str(config)]).exit_code == 4


# ----------------------------------------------------------------- figures


def test_figures_invalid_selection_exits_1(runner, tmp_path):
    result = runner.invoke(main, ["figures", "--outdir", str(tmp_path), "--which", "7"])
    assert result.exit_code == 1
    result = runner.invoke(main, ["figures", "--outdir", str(tmp_path), "--which", "x"])
    assert result.exit_code == 1


def test_figures_writes_csv(runner, tmp_path, monkeypatch):
    # shrink the default grids so the test stays quick
    monkeypatch.setattr("fsgsense.cli.DEFAULT_M_LIST", [2, 3])
    monkeypatch.setattr("fsgsense.cli.DEFAULT_NTH_LIST", [0.0])
    monkeypatch.setattr(
        "fsgsense.cli.DEFAULT_N_GRID",
        {"min": 1.0, "max": 100.0, "points": 3, "spacing": "log"},
    )
    outdir = tmp_path / "figs"
    result = runner.invoke(main, ["figures", "--outdir", str(outdir), "--which", "2,4"])
    assert result.exit_code == 0, result.output
    for name in ("fig2.csv", "fig4.csv"):
        with open(outdir / name, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        assert list(rows[0]) == CSV_FIELDS
    with open(outdir / "fig4.csv", newline="") as handle:
        row = next(csv.DictReader(handle))
    assert row["objective"] == "privacy"
    assert row["xi_hd"] != ""
    assert not (outdir / "fig3.csv").exists()


# ---------------------------------------------------------------------- mc


def test_mc_json_and_determinism(runner):
    args = [
        "mc", "--M", "2", "--nth", "0", "--N", "1",
        "--samples", "400", "--trials", "30", "--seed", "9",
    ]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    payload = json.loads(first.output)
    assert payload["xi_hd"] == pytest.approx(6.125, rel=1e-6)
    assert 0.5 < payload["ratio"] < 2.0
    second = runner.invoke(main, args)
    assert json.loads(second.output) == payload


def test_mc_bad_arguments_exit_1(runner):
    result = runner.invoke(
        main, ["mc", "--M", "2", "--nth", "0", "--N", "1", "--samples", "1", "--trials", "30"]
    )
    assert result.exit_code == 1
    for m, nth, n in BAD_STATE_ARGS:
        result = runner.invoke(
            main,
            ["mc", "--M", m, "--nth", nth, "--N", n, "--samples", "10", "--trials", "10"],
        )
        _assert_one_line_error(result)


def test_mc_infeasible_exits_2(runner):
    result = runner.invoke(
        main, ["mc", "--M", "4", "--nth", "5", "--N", "10", "--samples", "100", "--trials", "10"]
    )
    assert result.exit_code == 2
