"""fsgsense benchmark: CLI wall time per workload, and a per-module traced run.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench      # the benchmark's own tests

Workloads (closed loop, one client, one invocation at a time; the
program's own thread pool is left as it is):
  figures  `fsgsense figures --which 2,3,4` on the default grid, 1125 rows
  mc       `fsgsense mc` on the criterion-9 state, 5e4 samples x 1e3 trials
  points   seeded `fsgsense state` queries in batches of three

BENCHMARK.json lists figures and mc only.  points is run by hand: about one
in twenty of its queries is a documented numerical failure of the program
(exit 3, a privacy point at high N), so its failed-op count changes from
seed to seed, and its per-invocation times, most of them interpreter
start-up, spread too widely between runs on a small shared host to gate on.

--trace 0 runs the real CLI in child processes, repeats the workload's unit
of work until --seconds of measured time are used, and prints the
end-to-end metrics of BENCHMARK.json (medians over units).

--trace 1 runs a fixed amount of the same work in-process through
fsgsense.cli.main, once plain and once with tracer.py's wrappers
installed, and prints the per-layer metrics with the end-to-end metric and
workload each should move (layer_map.json); trace.overhead_s is the traced
minus the plain wall time.

Every output is checked (checks.py).  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The program is run from ./src of the checkout this
file sits in; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout: BENCHMARK.json, src/
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"  # scratch outputs, removed after each run

# What the `fsgsense` console script runs.
CLI_ENTRY = (
    "import sys; from fsgsense.cli import main; sys.argv[0] = 'fsgsense'; "
    "sys.exit(main())"
)
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10

EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


# ----------------------------------------------------------------- workloads


@dataclass
class Call:
    """One CLI invocation and how to judge its output."""

    argv: list[str]
    ops: int
    # stdout of a zero exit -> (failed ops, problems, extra facts to print)
    check: Callable[[str], tuple[int, list[str], dict]]
    infeasible: bool = False  # exit 2 is the correct answer


@dataclass
class Workload:
    name: str
    # unit index, scratch dir -> the calls of one unit of work
    rep: Callable[[int, Path], list[Call]]
    op: str


def figures_workload(seed: int, which: str = "2,3,4", deep_rows: int = 12) -> Workload:
    """`fsgsense figures` on the paper's default grid; deterministic."""
    figs = [int(f) for f in which.split(",")]

    def rep(index: int, scratch: Path) -> list[Call]:
        import checks

        outdir = scratch / f"figures-{index}"

        def check(stdout):
            rng = random.Random(seed * 7919 + index)
            failed, problems, digests = 0, [], {}
            for fig in figs:
                res = checks.check_figure(outdir / f"fig{fig}.csv", fig, rng, deep_rows)
                failed += res["failed"]
                problems += res["problems"]
                digests[f"fig{fig}.csv"] = res["sha256"]
            shutil.rmtree(outdir, ignore_errors=True)
            return failed, problems, {"sha256": digests}

        argv = ["figures", "--outdir", str(outdir), "--which", which]
        return [Call(argv, checks.FIG_ROWS * len(figs), check)]

    return Workload("figures", rep, "CSV row")


def mc_workload(seed: int, samples: int = 50_000, trials: int = 1_000) -> Workload:
    """`fsgsense mc` on the criterion-9 state, with samples >> trials."""

    def rep(index: int, scratch: Path) -> list[Call]:
        import checks

        params = {"samples": samples, "trials": trials}
        argv = [
            "mc", "--M", "2", "--nth", "0", "--N", "1",
            "--samples", str(samples), "--trials", str(trials),
            "--seed", str(random.Random(f"mc-{seed}-{index}").getrandbits(32)),
        ]

        def check(stdout):
            problems = checks.check_mc(params, json.loads(stdout))
            return (trials if problems else 0), problems, {}

        return [Call(argv, trials, check)]

    return Workload("mc", rep, "MC trial")


POINT_OBJECTIVES = ("precision", "privacy")
POINT_NTH = (0.0, 0.5, 2.0)
POINT_N_MAX = 1e6
# log2 M strata: each batch holds one point of [2, 8), [8, 32) and [32, 128]
POINT_STRATA = ((1.0, 3.0), (3.0, 5.0), (5.0, 7.0))


def draw_points(seed: int, batch: int) -> list[dict]:
    """One batch of `state` points, log-uniform in M and N, stratified in M."""
    rng = random.Random(f"points-{seed}-{batch}")
    out = []
    for lo, hi in POINT_STRATA:
        m = min(128, max(2, round(2.0 ** rng.uniform(lo, hi))))
        nth = rng.choice(POINT_NTH)
        n_lo = max(1.0, m * nth)
        n_tot = n_lo * (POINT_N_MAX / n_lo) ** rng.random()
        out.append(
            {"M": m, "n_th": nth, "N_tot": n_tot, "objective": rng.choice(POINT_OBJECTIVES)}
        )
    return out


def points_workload(seed: int) -> Workload:
    """A seeded list of `fsgsense state` invocations, run one at a time."""

    def rep(index: int, scratch: Path) -> list[Call]:
        import checks

        calls = []
        for params in draw_points(seed, index):
            argv = [
                "state", "--M", str(params["M"]), "--nth", repr(params["n_th"]),
                "--N", repr(params["N_tot"]), "--objective", params["objective"],
            ]

            def check(stdout, params=params):
                problems = checks.check_state(params, json.loads(stdout))
                return (1 if problems else 0), problems, {}

            infeasible = params["N_tot"] < params["M"] * params["n_th"]
            calls.append(Call(argv, 1, check, infeasible))
        return calls

    return Workload("points", rep, "invocation")


WORKLOADS = {"figures": figures_workload, "mc": mc_workload, "points": points_workload}
# Units of work in one traced run, fixed so that counts repeat exactly.
TRACE_REPS = {"figures": 1, "mc": 1, "points": 4}


# ----------------------------------------------------------------- running


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    code: int = 0
    stdout: str = ""
    stderr: str = ""


@dataclass
class Verdict:
    """Judgement of one call: failed ops, and whether an output was wrong."""

    failed: int = 0
    wrong: bool = False
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def judge(call: Call, out: Outcome) -> Verdict:
    """Exit code and output checks.

    A traceback, an undocumented exit code or a failed output check makes
    the output wrong.  Exit 3 with its one-line message is the documented
    numerical failure: the call's ops fail, but no output is wrong.  Exit 2
    is the correct answer exactly when the input is infeasible.
    """
    if "Traceback (most recent call last)" in out.stderr:
        return Verdict(call.ops, True, [f"traceback: {out.stderr.strip().splitlines()[-1]}"])
    if call.infeasible or out.code == EXIT_INFEASIBLE:
        ok = call.infeasible and out.code == EXIT_INFEASIBLE
        return Verdict(0 if ok else call.ops, not ok,
                       [] if ok else [f"exit {out.code} on {call.argv[1:]}"])
    if out.code == EXIT_NUMERICAL and out.stderr.startswith("numerical failure:"):
        return Verdict(call.ops, False, [f"exit 3 on {call.argv}: {out.stderr.strip()}"])
    if out.code != 0:
        return Verdict(call.ops, True, [f"exit {out.code} on {call.argv}: {out.stderr.strip()}"])
    try:
        failed, problems, extra = call.check(out.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(call.ops, True, [f"unreadable output of {call.argv}: {exc!r}"])
    return Verdict(failed, bool(problems), problems, extra)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], deadline: float, scratch: Path) -> Outcome:
    """Run `python3 <args>` to completion; rusage comes from wait4."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
            code=proc.returncode,
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
        )


def run_in_process(argv: list[str]) -> Outcome:
    """fsgsense.cli.main through click with standalone_mode=False."""
    import click

    from fsgsense.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    code = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(argv, prog_name="fsgsense", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # a crash is a result to report, not to propagate
            traceback.print_exc()
            code = 1
    return Outcome(time.perf_counter() - start, code=code,
                   stdout=stdout.getvalue(), stderr=stderr.getvalue())


def fingerprint() -> dict:
    """Machine facts and the identity of the measured source."""
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy

    from fsgsense import kernels

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(getattr(kernels, "NUMBA_ENABLED", False)),
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with >= TAIL_BEYOND samples beyond it.

    With TAIL_BEYOND or fewer samples no percentile qualifies; the median
    is repeated then, and the note says so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), f"n={n}: no percentile has {TAIL_BEYOND} beyond; median"
    k = n - TAIL_BEYOND
    return ordered[k - 1], f"p{100.0 * k / n:.0f} of n={n}"


def importtime() -> dict[str, float]:
    """Cumulative import times from `python -X importtime -c 'import fsgsense.cli'`.

    import.scipy_s sums the outermost scipy imports (those not nested in
    another scipy module), which is where scipy.stats lands.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fsgsense.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    rows = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), int(m.group(2)) * 1e-6, m.group(4)))
    cli_s = next((t for _, t, name in rows if name == "fsgsense.cli"), None)
    scipy_s = 0.0
    for i, (depth, cumulative, name) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        # children are printed before their parent, one level deeper
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[2].split(".")[0] != "scipy":
            scipy_s += cumulative
    return {"import.fsgsense_cli_s": cli_s, "import.scipy_s": scipy_s}


# ----------------------------------------------------------------- modes


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, call: Call, verdict: Verdict):
        self.attempted += call.ops
        self.failed += verdict.failed
        self.wrong |= verdict.wrong
        self.problems += verdict.problems
        self.extra.update(verdict.extra)


def end_to_end(workload: Workload, seconds: float, started: float, scratch: Path):
    deadline = started + TIME_LIMIT_S

    def setup_sample() -> float:
        return run_child(["-c", "import fsgsense.cli"], deadline, scratch).wall_s

    # Import time swings by tens of percent within seconds on a shared host,
    # so its samples are spread over the run instead of taken in one burst.
    setup = [setup_sample(), setup_sample()]
    tally = Tally()
    reps, invocations = [], []
    measured = 0.0
    index = 0
    while True:
        calls = workload.rep(index, scratch)
        wall = cpu = 0.0
        for call in calls:
            out = run_child(["-c", CLI_ENTRY, *call.argv], deadline, scratch)
            invocations.append(out)
            wall += out.wall_s
            cpu += out.cpu_s
            tally.add(call, judge(call, out))
        reps.append((wall, cpu, sum(c.ops for c in calls)))
        measured += wall
        index += 1
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        # start another unit only if it should end inside the window
        if measured + wall > seconds or time.perf_counter() + 2 * wall > deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    walls = [o.wall_s for o in invocations]
    tail_s, tail_note = tail(walls)
    metrics = {
        "wall_s": statistics.median(r[0] for r in reps),
        "cpu_s": statistics.median(r[1] for r in reps),
        "ops_per_s": statistics.median(r[2] / r[0] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(o.rss_mb for o in invocations),
        "invocation_p50_s": statistics.median(walls),
        "invocation_tail_s": tail_s,
    }
    notes = {
        "units": len(reps),
        "unit_wall_s": [round(r[0], 4) for r in reps],
        "setup_samples_s": [round(v, 4) for v in setup],
        "invocations": len(invocations),
        "invocation_tail_s": tail_note,
    }
    return metrics, tally, notes


def traced(workload: Workload, scratch: Path):
    import tracer

    imports = importtime()
    calls = [c for i in range(TRACE_REPS[workload.name]) for c in workload.rep(i, scratch)]
    plain = [run_in_process(call.argv) for call in calls]
    tally = Tally()
    for call, out in zip(calls, plain):
        tally.add(call, judge(call, out))
    with tracer.Tracer() as t:
        outs = [run_in_process(call.argv) for call in calls]
    for call, out in zip(calls, outs):  # checks run outside the trace
        tally.add(call, judge(call, out))
    plain_s = sum(o.wall_s for o in plain)
    traced_s = sum(o.wall_s for o in outs)
    metrics = {**imports, **tracer.layer_metrics(t), "trace.overhead_s": traced_s - plain_s}
    notes = {"spans": len(t.spans), "untraced_s": plain_s, "traced_s": traced_s,
             "absent": sorted(t.absent)}
    return metrics, tally, notes


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "fsgsense" / "cli.py").is_file():
        print(f"perfbench: no fsgsense source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fsgsense

    if Path(fsgsense.__file__).resolve().parent != SRC / "fsgsense":
        print(f"perfbench: imported fsgsense from {fsgsense.__file__}", file=sys.stderr)
        return 2
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    moves = json.loads((HERE / "layer_map.json").read_text())["moves"] if args.trace else {}
    workload = workloads[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            measured, tally, notes = traced(workload, Path(tmp))
        else:
            measured, tally, notes = end_to_end(workload, args.seconds, started, Path(tmp))

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"(op = {workload.op})")
    print("machine " + json.dumps(fingerprint()))
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        shown = "absent" if value is None else f"{value:.6g}"
        pairs = ", ".join(f"{e}@{w}" for e, w in moves.get(m["name"], []))
        print(f"  {m['name']:<44} {shown:>14} {m['unit']:<6} {pairs}".rstrip())
        metrics[m["name"]] = {"value": 0 if value is None else value, "unit": m["unit"]}
    print(f"  {'failed_share':<44} {tally.failed / tally.attempted:>14.6g} ratio  "
          f"({tally.failed}/{tally.attempted})")
    print("notes " + json.dumps({**notes, **tally.extra}))
    for problem in tally.problems[:20]:
        print(f"  failed: {problem}")
    verdict = "FAILED, an output is wrong" if tally.wrong else "ok, no output is wrong"
    print(f"check {verdict}; {tally.failed} of {tally.attempted} ops failed")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
