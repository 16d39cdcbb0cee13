import ast
import csv
import hashlib
import importlib
import inspect
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import same_fields

import fsgsense
from fsgsense import cli, family, optimize
from fsgsense.cli import CSV_FIELDS, compute_record, main
from fsgsense.errors import DomainError, InfeasibleError, NumericalError
from fsgsense.reference import FsgBlocks


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


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # hypothesis's failure report imports libcst, which imports
    # mypy_extensions.TypedDict; its DeprecationWarning, an error under the
    # pyproject filters, was an INTERNALERROR that ended the session and
    # hid every later result (pyproject.toml now ignores that one warning)
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n"
    )
    root = Path(__file__).resolve().parents[1]
    result = _python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(root / "pyproject.toml"),
        "--rootdir", str(root), str(probe), cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


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


def _readers(names, owner):
    """Lines of src/ modules other than owner that read any of names."""
    package = Path(fsgsense.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                read = [node.attr]
            elif isinstance(node, ast.Name):
                read = [node.id]
            elif isinstance(node, ast.ImportFrom):
                read = [alias.name for alias in node.names]
            else:
                continue
            if path.stem != owner and names & set(read):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_kernels_reads_the_z_scan_window():
    # z_search is told each row's peak centres; the scan's pad and step
    # stay in kernels
    assert _readers({"Z_PAD", "Z_STEP"}, "kernels") == []


def test_only_family_reads_the_chart_limit():
    # family.budget is the one overflow check of a row and FsgParams the one
    # of a chart; every other module goes through them
    assert _readers({"MAX_CHART_N"}, "family") == []


PRODUCT_MODULES = {
    "cli", "errors", "family", "homodyne", "kernels", "metrology", "optimize",
}


def test_product_modules_leave_the_references_out():
    # the product path is what the CLI runs; the block form and the dense
    # oracles live in reference (with symplectic beneath it), which only the
    # top level, for perfbench/checks.py, and the tests import, and the top
    # level only inside a function (its PEP 562 __getattr__), on first use
    package = Path(fsgsense.__file__).resolve().parent
    product, into_reference, eager = [], [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_functions = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import reference" names the module as an alias
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            where = f"{path.name}:{node.lineno}"
            parts = {part for name in names for part in name.split(".")}
            if path.stem in PRODUCT_MODULES and parts & {"reference", "symplectic"}:
                product.append(where)
            if path.name != "__init__.py" and "reference" in parts:
                into_reference.append(where)
            dense = parts & {"reference", "symplectic"}
            if path.name == "__init__.py" and dense and id(node) not in in_functions:
                eager.append(where)
    assert {p.stem for p in package.glob("*.py")} >= PRODUCT_MODULES
    assert product == []
    assert into_reference == []
    assert eager == []


_DENSE_PROBE = (
    "import sys, fsgsense.cli\n"
    "def dense():\n"
    "    return sorted(m for m in sys.modules if m in"
    " ('fsgsense.reference', 'fsgsense.symplectic'))\n"
    "print(dense())\n"
    "for argv in {runs!r}:\n"
    "    fsgsense.cli.main(argv, prog_name='fsgsense', standalone_mode=False)\n"
    "    print(dense())\n"
)


def test_cli_runs_leave_the_dense_references_unloaded(tmp_path):
    # import, figures and mc: no command calls an oracle, so none pays
    # for loading reference or symplectic
    runs = [["figures", "--outdir", str(tmp_path), "--which", "2,3,4"], MC_SMALL]
    out = _python("-c", _DENSE_PROBE.format(runs=runs))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert [line for line in lines if line.startswith("[")] == ["[]"] * 3


def test_top_level_references_are_the_reference_objects():
    import fsgsense.reference as reference

    for name in BENCHMARK_ORACLES:
        assert getattr(fsgsense, name) is getattr(reference, name), name
    from fsgsense import FsgBlocks as blocks
    from fsgsense.symplectic import assemble_covariance

    assert blocks is reference.FsgBlocks and callable(assemble_covariance)
    with pytest.raises(AttributeError) as info:
        fsgsense.no_such_name
    assert str(info.value) == "module 'fsgsense' has no attribute 'no_such_name'"


# the operator and the numpy names that reach BLAS or LAPACK
BLAS_ENTRY_POINTS = {"@", "linalg", "dot", "vdot", "matmul", "einsum", "tensordot", "inner"}


def test_product_modules_call_no_blas():
    # why fsgsense loads numpy with one OpenBLAS thread (__init__.py): a
    # BLAS call on the product path has to revisit that choice
    package = Path(fsgsense.__file__).resolve().parent
    found = []
    for stem in sorted(PRODUCT_MODULES):
        path = package / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                used = {"@"} if isinstance(node.op, ast.MatMult) else set()
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
                used |= set((node.module or "").split("."))
            elif isinstance(node, ast.Import):
                used = {part for alias in node.names for part in alias.name.split(".")}
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {u}" for u in used & BLAS_ENTRY_POINTS]
    assert found == []


_BLAS_PROBE = (
    "import os\n"
    "before = dict(os.environ)\n"
    "import fsgsense\n"
    "print(len(os.listdir('/proc/self/task')), os.environ == before,"
    " os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.parametrize("chosen", [None, "2"])
def test_numpy_loads_with_one_blas_thread_unless_the_caller_chose(chosen, monkeypatch):
    # an idle OpenBLAS worker per CPU spun for 0.1-0.15 s of CPU per run;
    # the caller's own OPENBLAS_NUM_THREADS and environment are kept
    if chosen is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    elif (os.cpu_count() or 1) < 2:
        pytest.skip("a second BLAS thread needs two CPUs")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", chosen)
    proc = _python("-c", _BLAS_PROBE)
    assert proc.returncode == 0, proc.stderr
    tasks = 1 if chosen is None else int(chosen)
    assert proc.stdout.split() == [str(tasks), "True", str(chosen)]


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
    # dir(), not vars(): the references are listed before their first use
    public = {
        name
        for name in dir(fsgsense)
        if not name.startswith("_") and not inspect.ismodule(getattr(fsgsense, name))
    }
    assert public == PRODUCT_API | BENCHMARK_ORACLES


# the bindings perfbench/tracer.py wraps that resolve today; one that stops
# resolving turns its layer "absent" without failing the benchmark run
TRACED_PATHS = {
    "fsgsense.cli.compute_record", "fsgsense.cli._run_sweep", "fsgsense.cli._write_csv",
    "fsgsense.cli.maximize_privacy", "fsgsense.cli.optimize_homodyne_angle",
    "fsgsense.cli.mc_estimate", "fsgsense.optimize.maximize_precision",
    "fsgsense.optimize.maximize_privacy", "fsgsense.kernels.mle_trials",
    "fsgsense.homodyne.homodyne_fim", "fsgsense.optimize.solve_s",
}


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
    path = perfbench / "tracer.py"
    spans = next(
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SPANS"
    )
    assert TRACED_PATHS <= {p for paths in spans.values() for p in paths}
    for dotted in sorted(TRACED_PATHS):
        module, _, attr = dotted.rpartition(".")
        assert callable(getattr(importlib.import_module(module), attr, None)), dotted


def test_figures_pass_the_benchmark_output_checks(runner, tmp_path, monkeypatch):
    # the benchmark's own checks: every feasible row against the dense QFIM,
    # the 4,001-point grid and the dense homodyne FIM, and the mc band
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    checks = importlib.import_module("checks")
    result = runner.invoke(main, ["figures", "--outdir", str(tmp_path), "--which", "2,3,4"])
    assert result.exit_code == 0, result.output
    for fig in (2, 3, 4):
        path = tmp_path / f"fig{fig}.csv"
        found = checks.check_figure(path, fig, random.Random(fig), checks.FIG_ROWS)
        assert (found["failed"], found["problems"]) == (0, [])
    result = runner.invoke(
        main, ["mc", "--M", "2", "--nth", "0", "--N", "1", "--samples", "50000",
               "--trials", "1000", "--seed", "7"],
    )
    assert result.exit_code == 0, result.output
    payload = _strict_json(result.output)
    assert checks.check_mc({"samples": 50000, "trials": 1000}, payload) == []


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
        (MemoryError, 3, "numerical failure: "),
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


@pytest.mark.parametrize(
    "modes, nth, n_tot, mc_exit",
    [
        # M above MAX_CHART_N by less than a float's rounding: 10**150 > 1e150
        (10**150, 0.0, 1e3, 3),
        # N_eff above MAX_CHART_N
        (1000, 0.0, 1e200, 3),
        # a representable budget whose covariance entries overflow; mc
        # reports no entries and runs
        (2, 1e200, 1.7e308, 0),
    ],
    ids=["M-10**150", "N-1e200", "entries-overflow"],
)
def test_every_command_agrees_on_the_representable_range(
    tmp_path, modes, nth, n_tot, mc_exit
):
    # subprocesses, so that a numpy RuntimeWarning would show on stderr
    point = ["--M", str(modes), "--nth", repr(nth), "--N", repr(n_tot)]
    config, cfg = _sweep_config(
        tmp_path,
        M_list=[modes],
        n_th_list=[nth],
        N_grid={"min": n_tot, "max": n_tot, "points": 1, "spacing": "linear"},
        homodyne=True,
    )
    runs = [
        ("state", 3, ["state", *point]),
        ("sweep", 3, ["sweep", "--config", str(config)]),
        ("mc", mc_exit, ["mc", *point, "--samples", "100", "--trials", "10"]),
    ]
    for name, code, argv in runs:
        out = _python("-m", "fsgsense.cli", *argv)
        assert out.returncode == code, (name, out.stderr)
        if code == 3:
            lines = out.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("numerical failure: "), name
            if mc_exit == 3:
                assert lines[0].endswith("is too large: the Fisher information overflows")
        else:
            assert out.stderr == ""
    assert not os.path.exists(cfg["output"])


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


@pytest.mark.parametrize(
    "modes, n_tot",
    [
        # xi ~ 8 N^2 overflows a double
        ("3", "1e300"),
        # M > MAX_CHART_N: M^2 overflows, so F12 would read 0
        (str(10**160), "1e6"),
        # a subnormal QFIM: the t = 0 privacy would read 0, not 0.5
        ("3", "5e-324"),
        # M > MAX_CHART_N again; F12 read a subnormal 4.0e-314 and r_hd 1 + 2.9e-11
        (str(10**154), "1e-6"),
        # a and b underflow to exactly 0 while xi_hd stays positive: xi
        # read 0 and r_hd = xi_hd / xi would divide by zero
        (str(10**30), "1e-300"),
    ],
    ids=["N-1e300", "M-1e160", "N-5e-324", "M-1e154", "M-1e30-N-1e-300"],
)
def test_state_overflowing_information_exits_3_with_one_line(modes, n_tot):
    # a subprocess, so that a numpy RuntimeWarning would show on stderr
    out = _python("-m", "fsgsense.cli", "state", "--M", modes, "--nth", "0", "--N", n_tot)
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
    # beyond the float range: the optimizer would raise OverflowError
    (str(10**400), "0", "10"),
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


def test_csv_schema_is_frozen():
    # the README's column list, in order
    assert CSV_FIELDS == [
        "M", "n_th", "N_tot", "objective", "t_star", "s_star", "eps1", "eps2",
        "gam1", "gam2", "F11", "F12", "xi", "xi_ratio_to_opt", "privacy",
        "one_minus_privacy", "theta_hd_star", "xi_hd", "r_hd", "feasible",
    ]
    # below the floor a record is the defaults: infeasible, every value None
    record = compute_record(4, 5.0, 10.0, "privacy", True)
    assert record == cli.SweepRecord(4, 5.0, 10.0, "privacy")
    assert record.feasible is False
    assert all(getattr(record, name) is None for name in CSV_FIELDS[4:-1])


def _csv_writer_bytes(path, records):
    """The CSV as csv.writer writes it, each cell by the rule the CLI has
    always used: None and NaN empty, bools lower case, floats to 17
    significant digits, anything else str()."""

    def cell(value):
        if value is None or (isinstance(value, float) and value != value):
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value, ".17g") if isinstance(value, float) else str(value)

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow([cell(getattr(rec, name)) for name in CSV_FIELDS])
    return Path(path).read_bytes()


def test_csv_writer_matches_csv_module(tmp_path):
    # feasible and infeasible rows, rows holding None or NaN, signed zeros
    # and numpy floats: the bytes are csv.writer's in every case
    computed = [
        compute_record(4, 5.0, 10.0, "privacy", True),  # infeasible
        compute_record(2, 0.0, 0.0, "precision", True),  # xi = 0, no homodyne cells
        compute_record(3, 0.5, 1.5, "privacy", True),  # the floor: privacy NaN
        compute_record(3, 1.0, 50.0, "privacy", False),
        compute_record(10**20, 0.0, 1e3, "precision", True),
        compute_record(2**53 + 1, 0.0, 1e3, "privacy", True),
        compute_record(5, 0.0, 1e149, "privacy", True),
    ]
    assert [rec.feasible for rec in computed] == [False] + [True] * 6
    assert computed[1].xi == 0.0 and computed[1].theta_hd_star is None
    assert math.isnan(computed[2].privacy)
    feasible, homodyne = computed[3], computed[6]
    edited = [
        feasible._replace(t_star=-0.0, gam2=-0.0),
        homodyne._replace(s_star=-0.0, r_hd=np.float64(-0.0)),
        homodyne._replace(
            n_th=np.float64(1.0), eps1=np.float64(1 / 3), F12=np.float64(-1e-300),
            xi=np.float64(math.inf), xi_hd=np.float64(2.5),
        ),
        feasible._replace(theta_hd_star=0.5, xi_hd=2.0, r_hd=math.nan),
        feasible._replace(theta_hd_star=0.5),
        feasible._replace(xi_hd=math.nan),
        feasible._replace(F11=None),
        computed[0]._replace(t_star=1.5),
    ]
    records = computed + edited
    want = _csv_writer_bytes(tmp_path / "want.csv", records)
    cli._write_csv(str(tmp_path / "got.csv"), iter(records))
    got = (tmp_path / "got.csv").read_bytes()
    assert got == want
    lines = got.split(b"\r\n")  # a CRLF ends every line, the last too
    assert len(lines) == len(records) + 2 and lines[-1] == b""
    assert b"\n" not in b"".join(lines) and b"\r" not in b"".join(lines)
    cli._write_csv(str(tmp_path / "empty.csv"), [])
    assert (tmp_path / "empty.csv").read_bytes() == _csv_writer_bytes(tmp_path / "e.csv", [])


def test_homodyne_sweep_csv_is_pinned(runner, tmp_path):
    # infeasible rows, rows at the floor (N_tot = M n_th: no homodyne cells,
    # privacy NaN) and homodyne optima, as the csv-module writer wrote them;
    # re-pinned when the optima became slope roots (M = 2 privacy at t = -s)
    config, cfg = _sweep_config(
        tmp_path, M_list=[2, 4], n_th_list=[0.0, 2.5], homodyne=True,
        N_grid={"min": 0.0, "max": 30, "points": 7, "spacing": "linear"},
    )
    assert runner.invoke(main, ["sweep", "--config", str(config)]).exit_code == 0
    body = Path(cfg["output"]).read_bytes()
    assert hashlib.sha256(body).hexdigest() == (
        "6dd6d866a3876e4fcd341c6c9823d9c81e899e7d3b8a7c0ac41bd5fe425a761b"
    )


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
        {"M_list": [10**400]},
        {"homodyne": "false"},
        {"homodyne": 1},
        {"N_grid": {"min": 1.0, "max": 10.0, "points": 2.5}},
        {"N_grid": {"min": "1", "max": 10.0, "points": 3}},
        {"n_th_list": ["0.5"]},
        {"output": 1},
        {"N_grid": {"min": 1.0, "max": 10.0, "points": 10**400}},
        {"N_grid": {"min": 1.0, "max": 10.0, "points": 2**63}},
        {"N_grid": {"min": 1.0, "max": 10.0, "points": 2**53 + 1}},
        {"N_grid": [1, 10, 3]},
        {"N_grid": {"min": 1.0, "max": 10**400, "points": 3}},
        {"N_grid": {"min": 1.0, "max": 10.0, "points": 3, "spacing": "cubic"}},
        {"M_list": []},
        {"n_th_list": []},
        {"n_th_list": [10**400]},
    ],
    ids=[
        "typo-key", "weights-key", "typo-N_grid-key", "negative-N", "missing-N-keys",
        "nan-N", "inf-N", "bad-points", "nan-n_th", "float-M", "bool-M", "string-M_list",
        "huge-M", "string-homodyne", "int-homodyne", "float-points", "string-N",
        "string-n_th", "int-output", "huge-points", "points-past-maxsize",
        "points-past-2**53", "list-N_grid", "huge-N", "unknown-spacing", "empty-M_list",
        "empty-n_th_list", "huge-n_th",
    ],
)
def test_sweep_bad_config_exits_1(runner, tmp_path, overrides):
    config, _ = _sweep_config(tmp_path, **overrides)
    _assert_one_line_error(runner.invoke(main, ["sweep", "--config", str(config)]))
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_batches_equal_single_rows():
    # the grid holds infeasible rows (N below M n_th), rows exactly at the
    # floor (t_max = 0, no information, empty homodyne cells), ordinary
    # ones and 1e149 rows, whose z scans of about 1,400 steps the shorter
    # rows ride along, under both objectives with homodyne on
    m_list, nth_list = [2, 3, 7], [0.0, 0.5, 5.0]
    n_list = [1.0, 10.0, 35.0, 120.0, 1e149]
    objectives = ["precision", "privacy"]
    expected = [
        compute_record(m, nth, n, obj, True)
        for m in m_list for nth in nth_list for n in n_list for obj in objectives
    ]
    assert not all(rec.feasible for rec in expected)
    assert any(rec.feasible and rec.xi == 0.0 for rec in expected)
    assert any(rec.theta_hd_star is not None for rec in expected)
    records = cli._run_sweep(m_list, nth_list, n_list, objectives, True)
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert same_fields(got, want), want


def test_figure_sweep_is_one_batch_per_objective(monkeypatch):
    calls = []

    def spy(name):
        inner = getattr(cli, name)

        def counted(rows, *args):
            calls.append((name, len(rows)))
            return inner(rows, *args)

        monkeypatch.setattr(cli, name, counted)

    spy("optimize_batch")
    spy("optimize_homodyne_angles")
    n_list = cli._n_grid(cli.DEFAULT_N_GRID)
    records = cli._run_sweep(
        cli.DEFAULT_M_LIST, cli.DEFAULT_NTH_LIST, n_list, ["precision", "privacy"], True
    )
    assert len(records) == 2 * 375
    names = [name for name, _ in calls]
    assert names == ["optimize_batch", "optimize_homodyne_angles"] * 2
    feasible = sum(rec.feasible for rec in records) // 2
    assert [rows for name, rows in calls if name == "optimize_batch"] == [feasible] * 2


def test_figures_compute_each_budget_at_most_once_per_point(runner, tmp_path, monkeypatch):
    # family.below_floor decides each row's feasibility, and optimize_batch
    # takes each feasible row's budget; no row's budget is computed twice
    calls = []

    def counted(*row):
        calls.append(row)
        return family.budget(*row)

    monkeypatch.setattr(optimize, "budget", counted)
    monkeypatch.setattr(cli, "budget", counted)
    result = runner.invoke(main, ["figures", "--outdir", str(tmp_path), "--which", "2,3,4"])
    assert result.exit_code == 0, result.output
    grid = len(cli.DEFAULT_M_LIST) * len(cli.DEFAULT_NTH_LIST) * cli.DEFAULT_N_GRID["points"]
    assert 0 < len(calls) <= 3 * grid == 1125


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
    # at M >> N_eff the privacy optimum is t* ~ -3.7e-20, the t = 0 state
    # to rounding, where homodyne reaches xi = 8N(N+1); a search stopped at
    # an absolute width of 1e-10 reported t* = -4.6e-11 and xi_hd = 844.6
    assert payload["xi_hd"] == pytest.approx(880.0, rel=1e-12)
    # about five standard errors of var/CRB at 200 trials
    assert 0.5 < payload["ratio"] < 1.5


MC_EXIT_3 = [
    # the rest modes' moment spreads by 1.4e-16, as much as it rounds
    (str(10**30), "10", "100", "samples x (M - 1)"),
    # the estimates spread by 1.6e-11 in z, less than the width to which
    # each trial's maximum is found: every trial would return the same point
    ("2", "1", str(10**22), "the Cramer-Rao deviation in z"),
    # 1 / (samples xi_hd) ~ 1e-313 is below the smallest normal float
    ("3", "1e149", str(10**14), "the Cramer-Rao variance"),
    # too little information for the likelihood to peak inside z* +- 2:
    # a state that barely moves with the phase, and two samples a trial
    ("3", "0.001", "1000", "likelihood maximum on the z scan's edge"),
    ("2", "1", "2", "likelihood maximum on the z scan's edge"),
]


@pytest.mark.parametrize(
    "m, n_tot, samples, message",
    MC_EXIT_3,
    ids=[f"{m}-{n_tot}-{message}" for m, n_tot, _, message in MC_EXIT_3],
)
def test_mc_beyond_the_estimator_resolution_exits_3(runner, m, n_tot, samples, message):
    result = runner.invoke(
        main, ["mc", "--M", m, "--nth", "0", "--N", n_tot, "--samples", samples,
               "--trials", "20"],
    )
    assert result.exit_code == 3
    assert result.output.startswith("numerical failure: " + message)
    assert len(result.output.strip().splitlines()) == 1


def test_mc_runs_where_the_angle_rounds_to_half_pi(runner):
    # theta* = arctan e^{z*} rounds to pi/2 and the Cramer-Rao deviation is
    # ~1e-151; the likelihood is searched in z*, which stays exact
    result = runner.invoke(
        main, ["mc", "--M", "3", "--nth", "0", "--N", "1e149", "--samples", "100",
               "--trials", "20"],
    )
    assert result.exit_code == 0, result.output
    payload = _strict_json(result.output)
    assert payload["theta_hd"] == math.pi / 2
    assert payload["crb"] == pytest.approx(1.25e-301, rel=1e-6)


# var/CRB band that an efficient estimator leaves with probability ~6e-7:
# the +-5 sigma normal quantiles of chi2(trials - 1) / (trials - 1), as in
# the benchmark's output check
def _mc_band(trials):
    from scipy import stats

    dof = trials - 1
    tail = stats.norm.sf(5.0)
    return stats.chi2.ppf(tail, dof) / dof, stats.chi2.ppf(1.0 - tail, dof) / dof


MC_BUDGETS = [
    (m, n_th, 10.0**k)
    for m in (2, 3, 10, 1000)
    for n_th in (0.0, 1.0)
    for k in range(1, 13)
    if 10.0**k > m * n_th  # above the thermal floor, where xi_hd > 0
] + [(3, 0.0, 1e149), (2, 1.0, 1e149)]


def test_mc_stays_in_band_at_every_budget(runner):
    # one budget per decade up to 1e12 and two at 1e149; the likelihood
    # search in theta exited 3 on these from N = 3e5 (M = 3) on
    lo, hi = _mc_band(200)
    failures = []
    for m, n_th, n_tot in MC_BUDGETS:
        result = runner.invoke(
            main,
            ["mc", "--M", str(m), "--nth", repr(n_th), "--N", repr(n_tot),
             "--samples", "1000", "--trials", "200", "--seed", "1"],
        )
        if result.exit_code != 0:
            failures.append((m, n_th, n_tot, result.output))
        elif not lo <= _strict_json(result.output)["ratio"] <= hi:
            failures.append((m, n_th, n_tot, result.output))
    assert failures == []


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
    result = runner.invoke(
        main,
        ["mc", "--M", "2", "--nth", "0", "--N", "1", "--samples", str(10**400),
         "--trials", "30"],
    )
    _assert_one_line_error(result)
    # numpy would raise ValueError or MemoryError on arrays of these lengths
    for trials in (10**400, 2**63, 2**53 + 1):
        result = runner.invoke(
            main,
            ["mc", "--M", "2", "--nth", "0", "--N", "1", "--samples", "10",
             "--trials", str(trials)],
        )
        _assert_one_line_error(result)
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
