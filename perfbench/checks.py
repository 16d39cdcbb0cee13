"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.  The oracles are the dense references already in fsgsense (the
numeric QFIM, the dense homodyne Fisher matrix built here from
homodyne_cov and homodyne_cov_derivatives, and the brute-force
scan_free_parameter grid).  fsgsense must be importable before this module
is imported.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random

import numpy as np
from scipy import stats

from fsgsense import (
    FsgBlocks,
    homodyne_cov,
    homodyne_cov_derivatives,
    qfim_fsg_numeric,
    scan_free_parameter,
)
from fsgsense.errors import FsgSenseError
from fsgsense.symplectic import assemble_covariance

REL_TOL = 1e-9
QFIM_TOL = 1e-6  # the dense oracle's accuracy, as in the acceptance tests
GRID_POINTS = 4001  # brute force on a grid unlike the optimizer's 2001 points
HD_ORACLE_MAX_M = 8
# The mixed-state QFIM kernel is full rank but reaches a condition number of
# ~1e12 at N = 1e3, beyond the oracle's default cutoff of 1e-10; pure states
# need the cutoff because their kernel is singular.
QFIM_RCOND_MIXED = 1e-14

# The figures command's fixed grid: 5 M x 3 n_th x 25 log-spaced N per figure.
FIG_M = (2, 3, 4, 5, 6)
FIG_NTH = (0.0, 1.0, 5.0)
FIG_N = tuple(float(x) for x in np.geomspace(1.0, 1000.0, 25))
FIG_PLANS = {2: ("precision", False), 3: ("privacy", False), 4: ("privacy", True)}
FIG_ROWS = len(FIG_M) * len(FIG_NTH) * len(FIG_N)


def _close(x, y, rel=REL_TOL):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _undefined(x):
    return x is None or (isinstance(x, float) and math.isnan(x))


def record_problems(rec: dict, objective: str, homodyne: bool) -> list[str]:
    """Invariants every record of `state`, `sweep` or `figures` must satisfy."""
    M, nth, N = rec["M"], rec["n_th"], rec["N_tot"]
    where = f"M={M} n_th={nth} N={N!r} {objective}"
    out = []
    if rec["objective"] != objective:
        out.append(f"{where}: objective column is {rec['objective']!r}")
    if rec["feasible"] != (N >= M * nth):
        out.append(f"{where}: feasible={rec['feasible']} but floor is {M * nth}")
    if not rec["feasible"]:
        filled = [k for k in ("xi", "t_star", "privacy", "eps1") if rec[k] is not None]
        if filled:
            out.append(f"{where}: infeasible row has values in {filled}")
        return out
    xi, p, ratio = rec["xi"], rec["privacy"], rec["xi_ratio_to_opt"]
    if not (0.0 <= xi <= 8.0 * N * (N + 1.0) * (1.0 + REL_TOL)):
        out.append(f"{where}: xi={xi} outside [0, 8N(N+1)]")
    if _undefined(p):
        if rec["F11"] != 0.0 or rec["F12"] != 0.0:
            out.append(f"{where}: privacy undefined with a non-zero QFIM")
    elif not (-REL_TOL <= p <= 1.0 + REL_TOL):
        out.append(f"{where}: privacy={p} outside [0, 1]")
    elif not _close(rec["one_minus_privacy"], 1.0 - p):
        out.append(f"{where}: one_minus_privacy != 1 - privacy")
    if not ratio <= 1.0 + REL_TOL:
        out.append(f"{where}: xi_ratio_to_opt={ratio} > 1")
    photons = M * (rec["eps1"] + rec["eps2"] - 2.0) / 4.0
    if not _close(photons, N):
        out.append(f"{where}: M(eps1+eps2-2)/4={photons!r} != N_tot")
    if homodyne and xi > 0.0:
        r_hd, xi_hd = rec["r_hd"], rec["xi_hd"]
        if r_hd is None or xi_hd is None:
            out.append(f"{where}: homodyne columns missing")
        elif not r_hd <= 1.0 + REL_TOL or not _close(r_hd * xi, xi_hd):
            out.append(f"{where}: r_hd={r_hd} inconsistent (xi_hd={xi_hd})")
    elif not homodyne and rec["r_hd"] is not None:
        out.append(f"{where}: homodyne columns filled without homodyne")
    return out


def _blocks(rec) -> FsgBlocks:
    return FsgBlocks(rec["M"], rec["eps1"], rec["eps2"], rec["gam1"], rec["gam2"])


def dense_homodyne_xi(blocks: FsgBlocks, theta: float) -> float:
    """1^T F 1 of the dense homodyne Fisher matrix Tr[G^-1 dG_j G^-1 dG_k]/2."""
    gamma = homodyne_cov(blocks, theta)
    prods = [np.linalg.solve(gamma, d) for d in homodyne_cov_derivatives(blocks, theta)]
    return float(sum(0.5 * np.sum(pj * pk.T) for pj in prods for pk in prods))


def homodyne_oracle_problems(rec: dict) -> list[str]:
    if rec["xi_hd"] is None or rec["M"] > HD_ORACLE_MAX_M:
        return []
    dense = dense_homodyne_xi(_blocks(rec), rec["theta_hd_star"])
    if not _close(dense, rec["xi_hd"], 1e-8):
        return [f"M={rec['M']} N={rec['N_tot']!r}: xi_hd={rec['xi_hd']} vs dense {dense}"]
    return []


def oracle_problems(check, rec: dict, *args) -> list[str]:
    """Run an oracle check; an oracle that rejects the record is a problem too."""
    try:
        return check(rec, *args)
    except (FsgSenseError, np.linalg.LinAlgError) as exc:
        return [f"M={rec['M']} N={rec['N_tot']!r}: oracle rejects the record ({exc})"]


def deep_problems(rec: dict, objective: str) -> list[str]:
    """Re-check one feasible record against the dense QFIM and a fresh grid."""
    M, nth, N = rec["M"], rec["n_th"], rec["N_tot"]
    where = f"M={M} n_th={nth} N={N!r} {objective}"
    out = []
    rcond = 1e-10 if nth == 0.0 else QFIM_RCOND_MIXED
    dense = qfim_fsg_numeric(assemble_covariance(_blocks(rec)), rcond=rcond)
    scale = max(1.0, float(np.max(np.abs(dense))))
    off = dense[~np.eye(M, dtype=bool)]
    err = max(
        float(np.max(np.abs(np.diag(dense) - rec["F11"]))),
        float(np.max(np.abs(off - rec["F12"]))),
    )
    if err > QFIM_TOL * scale:
        out.append(f"{where}: F11/F12 off the dense QFIM by {err / scale:.2e}")
    grid = scan_free_parameter(M, nth, N, GRID_POINTS)
    if objective == "precision":
        best, got = max(p.xi for p in grid), rec["xi"]
    else:
        values = [p.privacy for p in grid if not math.isnan(p.privacy)]
        best, got = (max(values), rec["privacy"]) if values else (None, None)
    if best is not None and best > got + REL_TOL * max(1.0, abs(got)):
        out.append(f"{where}: grid reaches {best!r} > optimum {got!r}")
    return out + homodyne_oracle_problems(rec)


def _parse_cell(name, text):
    if name == "objective":
        return text
    if name == "feasible":
        return text == "true"
    if name == "M":
        return int(text)
    return float(text) if text != "" else None


def read_figure(path) -> tuple[list[dict], str]:
    """Parsed rows of one figure CSV and the SHA-256 of its bytes."""
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    with open(path, newline="") as handle:
        rows = [
            {k: _parse_cell(k, v) for k, v in row.items()}
            for row in csv.DictReader(handle)
        ]
    return rows, digest


def check_figure(path, fig: int, rng: random.Random, deep_rows: int) -> dict:
    """Check one fig<N>.csv; returns failed rows, problems and its SHA-256."""
    objective, homodyne = FIG_PLANS[fig]
    try:
        rows, digest = read_figure(path)
    except (OSError, ValueError, KeyError) as exc:
        return {"failed": FIG_ROWS, "problems": [f"fig{fig}: {exc}"], "sha256": None}
    problems: list[str] = []
    failed = 0
    if len(rows) != FIG_ROWS:
        problems.append(f"fig{fig}: {len(rows)} rows, expected {FIG_ROWS}")
        failed += abs(FIG_ROWS - len(rows))
    grid = {(m, nth, n) for m in FIG_M for nth in FIG_NTH for n in FIG_N}
    seen = set()
    bad_rows = set()
    for i, rec in enumerate(rows):
        try:
            found = record_problems(rec, objective, homodyne)
        except (KeyError, TypeError) as exc:
            found = [f"fig{fig} row {i}: malformed ({exc})"]
        key = (rec.get("M"), rec.get("n_th"), rec.get("N_tot"))
        if key not in grid or key in seen:
            found.append(f"fig{fig} row {i}: grid point {key} unexpected or repeated")
        seen.add(key)
        if found:
            bad_rows.add(i)
            problems.extend(found)
    feasible = [i for i, r in enumerate(rows) if r.get("feasible") and i not in bad_rows]
    for i in rng.sample(feasible, min(deep_rows, len(feasible))):
        found = oracle_problems(deep_problems, rows[i], objective)
        if found:
            bad_rows.add(i)
            problems.extend(found)
    return {"failed": failed + len(bad_rows), "problems": problems, "sha256": digest}


def check_state(params: dict, rec: dict) -> list[str]:
    """`fsgsense state` JSON record for one point."""
    out = []
    for key in ("M", "n_th", "N_tot"):
        if rec.get(key) != params[key]:
            out.append(f"state echoes {key}={rec.get(key)!r}, asked {params[key]!r}")
    if out:
        return out
    out = record_problems(rec, params["objective"], homodyne=True)
    return out or oracle_problems(homodyne_oracle_problems, rec)


def mc_band(trials: int, sigmas: float = 5.0) -> tuple[float, float]:
    """var/CRB band that a correct run leaves with probability ~6e-7.

    (trials-1) var / sigma^2 is chi-square with trials-1 degrees of freedom
    when the estimator is efficient; the band is its +-`sigmas` normal
    quantiles, far wider than the 95% interval the test suite uses.
    """
    dof = trials - 1
    tail = stats.norm.sf(sigmas)
    return (
        float(stats.chi2.ppf(tail, dof) / dof),
        float(stats.chi2.ppf(1.0 - tail, dof) / dof),
    )


def check_mc(params: dict, payload: dict) -> list[str]:
    """`fsgsense mc` JSON payload: var/CRB in band, CRB consistent with xi_hd."""
    out = []
    lo, hi = mc_band(params["trials"])
    ratio = payload["ratio"]
    if not lo <= ratio <= hi:
        out.append(f"mc: var/CRB={ratio} outside the 5-sigma band [{lo:.3f}, {hi:.3f}]")
    crb = 1.0 / (params["samples"] * payload["xi_hd"])
    if not _close(payload["crb"], crb):
        out.append(f"mc: crb={payload['crb']} but 1/(n xi_hd)={crb}")
    if not _close(payload["empirical_var"] / payload["crb"], ratio):
        out.append("mc: ratio != empirical_var / crb")
    return out
