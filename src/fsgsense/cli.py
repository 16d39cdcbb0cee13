"""Command-line interface: single-state reports, parameter sweeps,
figure-reproduction CSVs, and Monte-Carlo Cramér-Rao checks.

Exit codes: 0 ok, 1 config/validation error, 2 infeasible photon budget,
3 numerical failure or out of memory, 4 I/O failure.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from typing import NamedTuple

import click
import numpy as np

from .errors import FsgSenseError, InfeasibleError, NumericalError
from .family import below_floor, budget, chart_blocks
from .homodyne import (
    HomodyneOpt,
    McConfig,
    mc_estimate,
    optimize_homodyne_angle,
    optimize_homodyne_angles,
)
from .optimize import OptResult, maximize_privacy, optimize_batch

# spec'd exit-code contract: config errors exit 1
click.UsageError.exit_code = 1

DEFAULT_M_LIST = [2, 3, 4, 5, 6]
DEFAULT_NTH_LIST = [0.0, 1.0, 5.0]
DEFAULT_N_GRID = {"min": 1.0, "max": 1000.0, "points": 25, "spacing": "log"}
CONFIG_KEYS = {"M_list", "n_th_list", "N_grid", "objective", "homodyne", "output"}
N_GRID_KEYS = {"min", "max", "points", "spacing"}
# longest array a count (--trials, N_grid.points) may ask for: numpy sizes
# arrays through floats, and below 2**53 one too big raises MemoryError
MAX_ARRAY_LEN = 2**53


class SweepRecord(NamedTuple):
    """One row of a figure-reproduction sweep; schema is frozen.  A row below
    the thermal floor is the defaults: infeasible, every value None."""

    M: int
    n_th: float
    N_tot: float
    objective: str
    t_star: float | None = None
    s_star: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    gam1: float | None = None
    gam2: float | None = None
    F11: float | None = None
    F12: float | None = None
    xi: float | None = None
    xi_ratio_to_opt: float | None = None
    privacy: float | None = None
    one_minus_privacy: float | None = None
    theta_hd_star: float | None = None
    xi_hd: float | None = None
    r_hd: float | None = None
    feasible: bool = False


CSV_FIELDS = list(SweepRecord._fields)


def _record(
    M: int,
    n_th: float,
    N_tot: float,
    objective: str,
    result: OptResult,
    hd: HomodyneOpt | None,
    entries: np.ndarray,
) -> SweepRecord:
    """Flatten a feasible row's optimum, homodyne optimum (None: empty cells) and entries."""
    params, fim = result.params, result.fim
    eps1, eps2, gam1, gam2 = entries
    return SweepRecord(
        M=M,
        n_th=n_th,
        N_tot=N_tot,
        objective=objective,
        t_star=params.t,
        s_star=params.s,
        eps1=eps1,
        eps2=eps2,
        gam1=gam1,
        gam2=gam2,
        F11=fim.f11,
        F12=fim.f12,
        xi=result.xi,
        xi_ratio_to_opt=result.ratio_to_best_xi,
        privacy=result.privacy,
        one_minus_privacy=result.one_minus_privacy,
        theta_hd_star=None if hd is None else hd.theta_star,
        xi_hd=None if hd is None else hd.xi_hd,
        r_hd=None if hd is None else hd.xi_hd / result.xi,
        feasible=True,
    )


def _compute_records(points, objective: str, homodyne: bool) -> list[SweepRecord]:
    """Records of (M, n_th, N_tot) points under one objective, in order.

    The feasible points are optimized as one batch; so are the optima's
    angles with homodyne (else empty cells) and their covariance entries,
    which raise NumericalError if one overflows.
    """
    feasible = [not below_floor(*point) for point in points]
    rows = [point for point, ok in zip(points, feasible) if ok]
    optima = optimize_batch(rows, objective)
    params = [r.params for r in optima]
    angles = optimize_homodyne_angles(params) if homodyne else [None] * len(rows)
    # M apart (int64, or object above 2**63), so that M - 1 is exact, as in
    # one row's chart; nu, s and t as floats
    m = np.array([p.M for p in params])
    nu, s, t = np.array([(p.nu, p.s, p.t) for p in params]).reshape(-1, 3).T
    with np.errstate(over="ignore"):
        entries = np.array(chart_blocks(m, nu, s, t), dtype=float).T
    bad = ~np.isfinite(entries).all(axis=1)
    if bad.any():
        M, nth, N = rows[np.argmax(bad)]
        raise NumericalError(f"covariance entries of M={M}, N_tot={N}, n_th={nth} overflow")
    records = (
        _record(*row, objective, result, hd, row_entries)
        for row, result, hd, row_entries in zip(rows, optima, angles, entries)
    )
    return [
        next(records) if ok else SweepRecord(*point, objective)
        for point, ok in zip(points, feasible)
    ]


def compute_record(
    M: int, n_th: float, N_tot: float, objective: str, homodyne: bool
) -> SweepRecord:
    """Optimize one configuration and flatten the result into a record."""
    return _compute_records([(M, n_th, N_tot)], objective, homodyne)[0]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:  # NaN
            return ""
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, records) -> None:
    """Write the header and one line per record, as csv.writer's default
    dialect would: CRLF after every line, and no cell needs quotes."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(CSV_FIELDS) + "\r\n")
        handle.writelines(",".join(map(_fmt, r)) + "\r\n" for r in records)


@contextlib.contextmanager
def _exit_codes():
    """Turn a failure into its exit code and one stderr line: 2 for an
    infeasible budget, 3 for any other package error or no memory, 4 for I/O."""
    try:
        yield
    except InfeasibleError as exc:
        click.echo(f"infeasible: {exc}", err=True)
        sys.exit(2)
    except (FsgSenseError, MemoryError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)
    except OSError as exc:
        click.echo(f"I/O failure: {exc}", err=True)
        sys.exit(4)


def _echo_json(payload: dict) -> None:
    """Print payload as strict JSON: NaN (undefined) as null, like the CSV's
    empty cell; any other non-finite value raises NumericalError."""
    clean = {k: None if isinstance(v, float) and v != v else v for k, v in payload.items()}
    try:
        text = json.dumps(clean, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    click.echo(text)


def _finite_nonnegative(*values: float) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)


def _counts(*values: int) -> bool:
    """Counts (M, samples) the numeric code takes: 2 <= n <= the largest float."""
    return all(2 <= v <= sys.float_info.max for v in values)


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _check_keys(where: str, spec, allowed: set[str]) -> None:
    if not isinstance(spec, dict):
        raise click.ClickException(f"{where} must be a JSON object")
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise click.ClickException(
            f"unknown {where} keys {unknown}; allowed: {sorted(allowed)}"
        )


def _n_grid(spec: dict) -> list[float]:
    _check_keys("N_grid", spec, N_GRID_KEYS)
    lo, hi, points = (spec.get(key) for key in ("min", "max", "points"))
    if not (_is_number(lo) and _is_number(hi) and _is_int(points)):
        raise click.ClickException(
            f"invalid N grid: {spec} (min and max must be numbers, points an integer)"
        )
    try:
        lo, hi = float(lo), float(hi)
    except OverflowError as exc:
        raise click.ClickException(f"invalid N grid: {spec} ({exc})") from exc
    spacing = spec.get("spacing", "linear")
    log_from_zero = lo == 0.0 and spacing == "log"
    bad_points = not 1 <= points <= MAX_ARRAY_LEN
    if bad_points or not _finite_nonnegative(lo, hi) or hi < lo or log_from_zero:
        raise click.ClickException(f"invalid N grid: {spec}")
    if spacing == "log":
        return [float(x) for x in np.geomspace(lo, hi, points)]
    if spacing == "linear":
        return [float(x) for x in np.linspace(lo, hi, points)]
    raise click.ClickException(f"N_grid.spacing must be 'linear' or 'log': {spacing!r}")


def _run_sweep(m_list, nth_list, n_list, objectives, homodyne) -> list[SweepRecord]:
    """Records in (M, n_th, N_tot, objective) order; each objective's points
    are computed as one batch."""
    points = [(m, nth, n) for m in m_list for nth in nth_list for n in n_list]
    columns = [_compute_records(points, obj, homodyne) for obj in objectives]
    # the objective varies fastest along the rows
    return [record for row in zip(*columns) for record in row]


@click.group()
def main():
    """Gaussian-network sensing: precision, privacy and homodyne tools."""


@main.command()
@click.option("--M", "modes", type=int, required=True, help="Number of nodes (>= 2).")
@click.option("--nth", type=float, required=True, help="Thermal occupation n_th.")
@click.option("--N", "n_tot", type=float, required=True, help="Total photon budget.")
@click.option(
    "--objective",
    type=click.Choice(["precision", "privacy"]),
    default="precision",
    show_default=True,
)
def state(modes, nth, n_tot, objective):
    """Optimize a single configuration and report it as JSON."""
    if not _counts(modes) or not _finite_nonnegative(nth, n_tot):
        raise click.UsageError("need 2 <= --M <= 1.8e308, finite --nth >= 0 and --N >= 0")
    with _exit_codes():
        budget(modes, nth, n_tot)
        record = compute_record(modes, nth, n_tot, objective, homodyne=True)
        _echo_json(record._asdict())


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None, help="Override output path.")
def sweep(config_path, out):
    """Run the sweep described by a JSON config file and write a CSV."""
    try:
        with open(config_path) as handle:
            cfg = json.load(handle)
    except (OSError, ValueError) as exc:  # bad JSON, bad UTF-8, huge int literals
        raise click.ClickException(f"cannot read config: {exc}") from exc

    _check_keys("config", cfg, CONFIG_KEYS)
    m_list = cfg.get("M_list", DEFAULT_M_LIST)
    nth_list = cfg.get("n_th_list", DEFAULT_NTH_LIST)
    objective = cfg.get("objective", "both")
    homodyne = cfg.get("homodyne", False)
    out_path = out or cfg.get("output")
    if objective not in ("precision", "privacy", "both"):
        raise click.ClickException(f"invalid objective {objective!r}")
    if not isinstance(homodyne, bool):
        raise click.ClickException(f"homodyne must be true or false, got {homodyne!r}")
    if not isinstance(m_list, list) or not all(_is_int(m) for m in m_list):
        raise click.ClickException(f"M_list must list integers, got {m_list!r}")
    if not isinstance(nth_list, list) or not all(_is_number(x) for x in nth_list):
        raise click.ClickException(f"n_th_list must list numbers, got {nth_list!r}")
    if not m_list or not nth_list:
        raise click.ClickException("M_list and n_th_list must be non-empty")
    try:
        nth_list = [float(x) for x in nth_list]
    except OverflowError as exc:
        raise click.ClickException(f"n_th_list out of range: {exc}") from exc
    if not _counts(*m_list) or not _finite_nonnegative(*nth_list):
        raise click.ClickException("need 2 <= M <= 1.8e308 and finite n_th >= 0")
    if not isinstance(out_path, str):
        raise click.ClickException(
            f"need an output path (config 'output' or --out), got {out_path!r}"
        )
    objectives = ["precision", "privacy"] if objective == "both" else [objective]

    with _exit_codes():
        n_list = _n_grid(cfg.get("N_grid", DEFAULT_N_GRID))
        records = _run_sweep(m_list, nth_list, n_list, objectives, homodyne)
        _write_csv(out_path, records)
    click.echo(f"wrote {len(records)} rows to {out_path}")


@main.command()
@click.option("--outdir", type=click.Path(), required=True)
@click.option(
    "--which",
    default="2,3,4",
    show_default=True,
    help="Comma-separated subset of figures 2,3,4.",
)
def figures(outdir, which):
    """Emit the default figure-reproduction sweeps as fig<N>.csv files."""
    try:
        wanted = sorted({int(tok) for tok in which.split(",") if tok.strip()})
    except ValueError:
        raise click.UsageError(f"--which must list figure numbers, got {which!r}")
    if not wanted or any(w not in (2, 3, 4) for w in wanted):
        raise click.UsageError("--which entries must be among 2, 3, 4")

    n_list = _n_grid(DEFAULT_N_GRID)
    plans = {
        2: ("precision", False),
        3: ("privacy", False),
        4: ("privacy", True),
    }
    with _exit_codes():
        os.makedirs(outdir, exist_ok=True)
        for fig in wanted:
            objective, homodyne = plans[fig]
            records = _run_sweep(
                DEFAULT_M_LIST, DEFAULT_NTH_LIST, n_list, [objective], homodyne
            )
            path = os.path.join(outdir, f"fig{fig}.csv")
            _write_csv(path, records)
            click.echo(f"wrote {path}")


@main.command()
@click.option("--M", "modes", type=int, required=True)
@click.option("--nth", type=float, required=True)
@click.option("--N", "n_tot", type=float, required=True)
@click.option("--samples", type=int, required=True, help="Homodyne shots per trial.")
@click.option("--trials", type=int, required=True, help="Independent estimates, ~1 KB each.")
@click.option("--seed", type=int, default=0, show_default=True)
def mc(modes, nth, n_tot, samples, trials, seed):
    """Monte-Carlo Cramér-Rao check on the privacy-optimized state."""
    if not _counts(samples) or not 2 <= trials <= MAX_ARRAY_LEN:
        raise click.UsageError("need 2 <= --samples <= 1.8e308 and 2 <= --trials <= 2**53")
    if not _counts(modes) or not _finite_nonnegative(nth, n_tot) or not 0 <= seed < 2**64:
        raise click.UsageError("invalid --M/--nth/--N/--seed")
    with _exit_codes():
        result = maximize_privacy(modes, nth, n_tot)
        hd = optimize_homodyne_angle(result.params)
        report = mc_estimate(
            result.params,
            hd.z_star,
            McConfig(n_samples=samples, trials=trials, seed=seed),
        )
        _echo_json(
            {
                "M": modes,
                "n_th": nth,
                "N_tot": n_tot,
                "theta_hd": hd.theta_star,
                "xi_hd": report.xi_hd,
                "empirical_var": report.empirical_var,
                "crb": report.crb,
                "ratio": report.ratio,
                "ci95": list(report.ci95),
                "samples": samples,
                "trials": trials,
                "seed": seed,
            }
        )


if __name__ == "__main__":
    main()
