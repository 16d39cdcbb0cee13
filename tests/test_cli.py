import ast
import csv
import importlib
import inspect
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import same_fields

import fsgsense
from fsgsense import cli
from fsgsense.cli import CSV_FIELDS, compute_record, main
from fsgsense.errors import DomainError, InfeasibleError, NumericalError
from fsgsense.family import FsgBlocks


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


def _python(*args, **kwargs):
    """Run the interpreter on this checkout's fsgsense; stdout and stderr
    are captured apart, as a shell user sees them.  kwargs go to
    subprocess.run."""
    src = str(Path(fsgsense.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
        **kwargs,
    )


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


MC_SMALL = ["mc", "--M", "2", "--nth", "0", "--N", "1", "--samples", "2000", "--trials", "50"]
_RUN_CLI = "from fsgsense.cli import main; main({argv!r}, prog_name='fsgsense')"
_BLOCK_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ImportError('scipy is blocked')\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys, fsgsense.cli\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        "try:\n"
        f"    {_RUN_CLI.format(argv=MC_SMALL)}\n"
        "finally:\n"
        "    print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0] == lines[-1] == "[]"


def test_mc_runs_with_scipy_blocked():
    plain = _python("-c", _RUN_CLI.format(argv=MC_SMALL))
    blocked = _python("-c", _BLOCK_SCIPY + _RUN_CLI.format(argv=MC_SMALL))
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert _strict_json(blocked.stdout) == _strict_json(plain.stdout)


def test_no_module_imports_scipy():
    # also catches imports inside functions, on paths no test runs
    package = Path(fsgsense.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


PRODUCT_API = {
    "maximize_precision", "maximize_privacy", "optimize_batch", "OptResult",
    "FsgParams", "StructuredFim", "optimize_homodyne_angle",
    "optimize_homodyne_angles", "HomodyneOpt", "homodyne_fim", "mc_estimate",
    "McConfig", "McReport", "FsgSenseError", "DomainError", "InfeasibleError",
    "NumericalError",
}
# the dense references perfbench/checks.py imports from the top level
BENCHMARK_ORACLES = {
    "FsgBlocks", "homodyne_cov", "homodyne_cov_derivatives", "qfim_fsg_numeric",
    "scan_free_parameter",
}


def test_top_level_exports_the_product_api_and_the_benchmark_oracles():
    public = {
        name
        for name, value in vars(fsgsense).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == PRODUCT_API | BENCHMARK_ORACLES


def test_benchmark_imports_resolve():
    # perfbench imports these names; a refactor that drops one breaks the
    # benchmark run, not a test there
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    missing = []
    for name in ("checks.py", "run.py"):
        path = perfbench / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                pairs = [(node.module or "", alias.name) for alias in node.names]
            else:
                continue
            for module, attr in pairs:
                if module.split(".")[0] != "fsgsense":
                    continue
                found = importlib.import_module(module)
                if attr is not None and not hasattr(found, attr):
                    try:
                        importlib.import_module(f"{module}.{attr}")
                    except ImportError:
                        missing.append(f"{name}:{node.lineno} {module}.{attr}")
    assert missing == []
    # the bindings perfbench/tracer.py wraps
    for attr in ("compute_record", "_run_sweep", "_write_csv", "maximize_privacy",
                 "optimize_homodyne_angle", "mc_estimate"):
        assert callable(getattr(cli, attr)), attr


# ------------------------------------------------------------- exit codes


def _command(name, tmp_path):
    """argv of a quick run of one command, and the engine call it makes."""
    if name == "state":
        return ["state", "--M", "2", "--nth", "0", "--N", "1"], "compute_record"
    if name == "sweep":
        config, _ = _sweep_config(tmp_path)
        return ["sweep", "--config", str(config)], "_run_sweep"
    if name == "figures":
        return ["figures", "--outdir", str(tmp_path / "figs"), "--which", "2"], "_run_sweep"
    return MC_SMALL, "maximize_privacy"


@pytest.mark.parametrize("command", ["state", "sweep", "figures", "mc"])
@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (InfeasibleError, 2, "infeasible: "),
        (NumericalError, 3, "numerical failure: "),
        (DomainError, 3, "numerical failure: "),
        (OSError, 4, "I/O failure: "),
    ],
)
def test_exit_code_contract(runner, tmp_path, monkeypatch, command, error, code, prefix):
    argv, engine = _command(command, tmp_path)
    if error is OSError:
        # the output path fails: a file where the CSV's directory should
        # be, or a closed stdout pipe
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        if command == "sweep":
            argv += ["--out", str(blocker / "out.csv")]
        elif command == "figures":
            argv[2] = str(blocker)
        else:

            def broken_pipe(payload):
                raise BrokenPipeError(32, "Broken pipe")

            monkeypatch.setattr(cli, "_echo_json", broken_pipe)
    else:

        def fail(*args, **kwargs):
            raise error("engine failed")

        monkeypatch.setattr(cli, engine, fail)
    result = runner.invoke(main, argv)
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), result.stderr
    if error is not OSError:
        assert lines[0] == prefix + "engine failed"
    assert "Traceback" not in result.output
    assert result.stdout == ""


@pytest.mark.parametrize("nth, n_tot", [("1", "2.9999999999997"), ("0.1", "0.3")])
def test_every_command_applies_one_thermal_floor(runner, tmp_path, nth, n_tot):
    # N_tot sits below M n_th by less than a rounding margin (3 * 0.1 is
    # 0.30000000000000004): every command calls it infeasible
    point = ["--M", "3", "--nth", nth, "--N", n_tot]
    for argv in (["state", *point], ["mc", *point, "--samples", "100", "--trials", "10"]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("infeasible: ")
    n = float(n_tot)
    config, cfg = _sweep_config(
        tmp_path,
        M_list=[3],
        n_th_list=[float(nth)],
        N_grid={"min": n, "max": n, "points": 1, "spacing": "linear"},
    )
    result = runner.invoke(main, ["sweep", "--config", str(config)])
    assert result.exit_code == 0, result.output
    with open(cfg["output"], newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(float(row["N_tot"]), row["feasible"], row["xi"]) for row in rows] == [
        (n, "false", "")
    ] * 2


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


def test_state_prints_null_for_undefined_privacy(runner):
    # no squeezing, no information: P = 0/0 is undefined
    result = runner.invoke(main, ["state", "--M", "3", "--nth", "0", "--N", "0"])
    assert result.exit_code == 0
    payload = _strict_json(result.output)
    assert payload["xi"] == 0.0
    assert payload["privacy"] is None and payload["one_minus_privacy"] is None


def test_state_at_huge_thermal_occupation_is_finite():
    # F(M, n_th, N; t) = k(nu) F(M, 0, N_eff; t) with k -> 2 and N_eff = 4 here,
    # so xi = 2 * 8 N_eff (N_eff + 1) = 320
    out = _python(
        "-m", "fsgsense.cli", "state", "--M", "2", "--nth", "1e300", "--N", "1e301"
    )
    assert out.returncode == 0 and out.stderr == ""
    payload = _strict_json(out.stdout)
    assert payload["xi"] == pytest.approx(320.0, rel=1e-12)
    assert payload["privacy"] == pytest.approx(1.0 - 1.0 / 11.0, rel=1e-12)
    numbers = [v for v in payload.values() if isinstance(v, float)]
    assert len(numbers) == 17 and all(math.isfinite(v) for v in numbers)


def test_state_privacy_at_a_large_thermal_budget_exits_0(runner):
    # the block route lost isothermality here ("QFIM closed form needs an
    # isothermal state", exit 3); the chart route has nothing to lose.  The
    # optimum t = -s has P = 1, which a tolerance of 1e-12 on P would miss
    result = runner.invoke(
        main,
        ["state", "--M", "2", "--nth", "0.5", "--N", "3.27e5", "--objective", "privacy"],
    )
    assert result.exit_code == 0, result.output
    payload = _strict_json(result.output)
    assert 0.0 <= payload["one_minus_privacy"] < 1e-20


@pytest.mark.parametrize(
    "command", [["state"], ["mc", "--samples", "1000", "--trials", "50"]]
)
def test_a_billion_nodes_run_in_bounded_memory(command):
    # nothing may allocate an M-vector: one of doubles would take 7.45 GiB
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    args = [*command, "--M", "1000000000", "--nth", "0", "--N", "10"]
    out = _python("-m", "fsgsense.cli", *args, preexec_fn=limit_address_space)
    assert out.returncode == 0, out.stderr
    payload = _strict_json(out.stdout)
    assert math.isfinite(payload["xi_hd"]) and payload["xi_hd"] > 0.0
    if command == ["state"]:
        assert math.isfinite(payload["xi"]) and payload["xi"] > 0.0


def test_state_overflowing_information_exits_3_with_one_line():
    # xi ~ 8 N^2 overflows a double
    out = _python("-m", "fsgsense.cli", "state", "--M", "3", "--nth", "0", "--N", "1e300")
    assert out.returncode == 3 and out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")


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


def test_sweep_batches_equal_single_rows(monkeypatch):
    # the grid holds infeasible rows (N below M n_th), rows exactly at the
    # floor (t_max = 0, no information, empty homodyne cells) and ordinary
    # ones, under both objectives with homodyne on
    m_list, nth_list, n_list = [2, 3, 7], [0.0, 0.5, 5.0], [1.0, 10.0, 35.0, 120.0]
    objectives = ["precision", "privacy"]
    expected = [
        compute_record(m, nth, n, obj, True)
        for m in m_list for nth in nth_list for n in n_list for obj in objectives
    ]
    assert not all(rec.feasible for rec in expected)
    assert any(rec.feasible and rec.xi == 0.0 for rec in expected)
    assert any(rec.theta_hd_star is not None for rec in expected)
    for chunk in (1, 7, cli.SWEEP_CHUNK_ROWS):
        monkeypatch.setattr(cli, "SWEEP_CHUNK_ROWS", chunk)
        records = cli._run_sweep(m_list, nth_list, n_list, objectives, True)
        assert len(records) == len(expected)
        for got, want in zip(records, expected):
            assert same_fields(got, want), (chunk, want)


def test_numerical_failure_in_a_batch_exits_3(runner, tmp_path):
    # the 1e200 rows have N_eff > MAX_CHART_N, where the Fisher information
    # overflows (NumericalError), inside a batch of good rows
    config, cfg = _sweep_config(
        tmp_path,
        M_list=[2, 1000],
        N_grid={"min": 10.0, "max": 1e200, "points": 2, "spacing": "linear"},
        objective="privacy",
        homodyne=True,
    )
    results = [
        runner.invoke(main, ["sweep", "--config", str(config)]),
        runner.invoke(
            main,
            ["state", "--M", "1000", "--nth", "0", "--N", "1e200", "--objective", "privacy"],
        ),
    ]
    for result in results:
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert "Traceback" not in result.output
    assert not os.path.exists(cfg["output"])


def _state(runner, *args):
    result = runner.invoke(main, ["state", *args])
    assert result.exit_code == 0, result.output
    return _strict_json(result.output)


@pytest.mark.parametrize(
    "args, r_hd",
    [
        (["--M", "2", "--nth", "0", "--N", "177.82794100389228"], 0.5),
        # 1 / (2 k(nu)) with nu = 3
        (["--M", "2", "--nth", "1", "--N", "562.341325190349"], 1.0 / 3.6),
    ],
)
def test_homodyne_angle_near_the_half_period_end(runner, args, r_hd):
    # two fig4 rows whose optimum sat just below theta = pi, outside the
    # old angle scan's bracket; they read 0.49338 and 0.27040
    record = _state(runner, *args, "--objective", "privacy")
    assert record["r_hd"] == pytest.approx(r_hd, abs=1e-9)


@pytest.mark.parametrize("m, n_tot", [("2", "1e9"), ("1000000000", "10")])
def test_homodyne_reaches_the_qfi_at_the_t0_state(runner, m, n_tot):
    # at t = 0 homodyne detection at z = 2s attains the QFI exactly; the
    # peak is e^-2s wide in theta, and the block route lost 1e-14 at M = 1e9
    record = _state(runner, "--M", m, "--nth", "0", "--N", n_tot)
    assert 1.0 - 1e-12 <= record["r_hd"] <= 1.0 + 1e-15


def test_large_budgets_and_node_counts_run(runner):
    # the reported blocks failed FsgBlocks' vacuum check here, and at
    # M = 1e20 the block route lost every homodyne signal
    record = _state(runner, "--M", "1000", "--nth", "0", "--N", "1e8", "--objective", "privacy")
    assert 0.0 < record["r_hd"] <= 1.0
    result = runner.invoke(
        main,
        ["mc", "--M", str(10**20), "--nth", "0", "--N", "10", "--samples", "1000",
         "--trials", "200"],
    )
    assert result.exit_code == 0, result.output
    payload = _strict_json(result.output)
    assert payload["xi_hd"] == pytest.approx(844.6, rel=1e-3)
    # about five standard errors of var/CRB at 200 trials
    assert 0.5 < payload["ratio"] < 1.5


@pytest.mark.parametrize(
    "m, n_tot, message",
    [
        # the optimum's angle rounds to pi/2 and its Cramer-Rao deviation
        # is ~1e-17, far below the likelihood search's 1e-10
        ("3", "1e149", "the Cramer-Rao deviation"),
        # the rest modes' moment spreads by 1.4e-16, as much as it rounds
        (str(10**30), "10", "samples x (M - 1)"),
    ],
)
def test_mc_beyond_the_estimator_resolution_exits_3(runner, m, n_tot, message):
    result = runner.invoke(
        main, ["mc", "--M", m, "--nth", "0", "--N", n_tot, "--samples", "100",
               "--trials", "20"],
    )
    assert result.exit_code == 3
    assert result.output.startswith("numerical failure: " + message)
    assert len(result.output.strip().splitlines()) == 1


def test_homodyne_holds_over_nine_decades_of_budget():
    # 20 budgets per decade from 1e3 to 1e12; the block route raised on
    # hundreds of these rows
    n_list = [float(x) for x in np.geomspace(1e3, 1e12, 181)]
    records = cli._run_sweep([2, 3, 10, 1000], [0.0, 1.0], n_list, ["precision", "privacy"], True)
    assert len(records) == 4 * 2 * 181 * 2
    # only M = 1000 at n_th = 1 and N = 1e3 sits on its thermal floor
    flat = [rec for rec in records if rec.xi == 0.0]
    assert [(rec.M, rec.n_th, rec.N_tot) for rec in flat] == [(1000, 1.0, 1e3)] * 2
    for rec in records:
        assert rec in flat or 0.0 < rec.r_hd <= 1.0 + 1e-12, rec


def test_product_path_builds_no_covariance_blocks(monkeypatch, runner):
    def refuse(self):
        raise AssertionError("FsgBlocks built on the product path")

    monkeypatch.setattr(FsgBlocks, "__post_init__", refuse)
    records = cli._run_sweep([2, 5], [0.0, 1.0], [30.0, 300.0], ["precision", "privacy"], True)
    assert all(rec.xi_hd is not None for rec in records)
    result = runner.invoke(main, MC_SMALL)
    assert result.exit_code == 0, result.output


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
    payload = _strict_json(first.output)
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


def test_mc_estimates_stay_off_the_mirror_minimum(runner):
    # the optimized angle sits 0.0303 from pi/2, where the likelihood is
    # even; a +-0.3 bracket held the mirror image of the true minimum and
    # the run read var/CRB = 2269
    from scipy import stats

    args = [
        "mc", "--M", "5", "--nth", "1", "--N", "30",
        "--samples", "5000", "--trials", "200", "--seed", "2",
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert abs(payload["theta_hd"] - math.pi / 2) == pytest.approx(0.0303, abs=1e-4)
    dof = payload["trials"] - 1
    lo, hi = stats.chi2.ppf([1e-6, 1.0 - 1e-6], dof) / dof
    assert lo < payload["ratio"] < hi
    assert payload["ci95"][0] <= payload["crb"] <= payload["ci95"][1]


def test_mc_infeasible_exits_2(runner):
    result = runner.invoke(
        main, ["mc", "--M", "4", "--nth", "5", "--N", "10", "--samples", "100", "--trials", "10"]
    )
    assert result.exit_code == 2
