"""The benchmark's workloads: CLI inputs and per-invocation output checks.

Each workload is a fixed list of CLI invocations (one round); every
invocation gets the benchmark seed through ``--seed``.  The checks test
properties the physics guarantees, never pinned values, so a change that
moves the thermal numbers on purpose still passes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

M_VALUES = "0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5"
THERMAL_POINTS = 1500
THERMAL_ROWS = THERMAL_POINTS * len(M_VALUES.split(","))
ORACLE_MAX_R = 1.2
ORACLE_MAX_DEVIATION = 1e-6
MAX_COVARIANCE_Z = 4.0

CONFIG = f"""\
[sweep-env-coupling]
r = 2.0
lambda_tau_grid = logspace(1e-6, 1e-2, {THERMAL_POINTS})
m_values = {M_VALUES}

[sweep-env-squeezing]
lambda_tau = 1e-3
r_grid = linspace(0.25, 3.0, {THERMAL_POINTS})
m_values = {M_VALUES}

[sweep-modccr]
epsilon_values = 0.005, 0.01, 0.05, 0.1
r_grid = linspace(0.05, 3.0, 120)
cutoff = 64

[phase-mc]
samples = 1000000
cutoff = 16
"""


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _columns(path, *names):
    """The named columns of a holosim CSV's data rows."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    idx = [header.index(n) for n in names]
    return [[row[i] for i in idx] for row in rows]


def _check_ratios(rows, columns):
    for row in rows:
        for col in columns:
            value = float(row[col])
            _require(math.isfinite(value) and value >= 0.0,
                     f"ratio {value!r} is not finite and >= 0")


def check_coupling(path, rc):
    _require(rc == 0, f"exit code {rc}")
    rows = [[float(v) for v in row] for row in
            _columns(path, "lambda_tau", "M", "ratio_full", "ratio_approx")]
    _require(len(rows) == THERMAL_ROWS, f"{len(rows)} rows")
    _check_ratios(rows, (2, 3))
    by_m, by_lt = {}, {}
    for lt, m, full, _ in rows:
        by_m.setdefault(m, []).append((lt, full))
        by_lt.setdefault(lt, []).append((m, full))
    for series in list(by_m.values()) + list(by_lt.values()):
        series.sort()
        for (x0, y0), (x1, y1) in zip(series, series[1:]):
            _require(y1 >= y0, f"ratio_full decreases from {y0!r} to {y1!r}")


def check_squeezing(path, rc):
    _require(rc == 0, f"exit code {rc}")
    rows = _columns(path, "ratio_full", "ratio_approx", "monotone_decreasing")
    _require(len(rows) == THERMAL_ROWS, f"{len(rows)} rows")
    _check_ratios(rows, (0, 1))
    _require(all(row[2] == "1" for row in rows), "monotone_decreasing flag is 0")


def check_modccr(path, rc):
    _require(rc == 0, f"exit code {rc}")
    rows = _columns(path, "r", "relative_deviation", "backend_fock")
    _require(len(rows) == 480, f"{len(rows)} rows")
    oracle = 0
    for r, dev, backend in rows:
        if float(r) > ORACLE_MAX_R:
            _require(backend == "none", f"r={r} carries backend {backend}")
        if backend != "none":
            oracle += 1
            _require(float(dev) <= ORACLE_MAX_DEVIATION,
                     f"oracle deviation {dev} at r={r}")
    _require(oracle == 188, f"{oracle} oracle rows")


def check_phase_mc(path, rc):
    _require(rc == 0, f"exit code {rc}")
    rows = _columns(path, "covariance_recovered", "covariance_injected",
                    "covariance_se")
    _require(len(rows) == 1, f"{len(rows)} rows")
    recovered, injected, se = (float(v) for v in rows[0])
    z = abs(recovered - injected) / se
    _require(z <= MAX_COVARIANCE_Z, f"covariance z-score {z:.3g}")


def check_validate(path, rc):
    _require(rc == 0, f"exit code {rc}")
    with open(path, encoding="utf-8") as fh:
        checks = [line for line in fh if line.startswith("check=")]
    _require(checks, "no check lines")
    failed = [line.split()[0] for line in checks if " status=PASS " not in line]
    _require(not failed, f"failed {failed}")


@dataclass(frozen=True)
class Invocation:
    mode: str
    out: str
    check: object


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple


WORKLOADS = {w.name: w for w in (
    Workload("thermal-map", (
        Invocation("sweep-env-coupling", "coupling.csv", check_coupling),
        Invocation("sweep-env-squeezing", "squeezing.csv", check_squeezing))),
    Workload("modccr-oracle", (
        Invocation("sweep-modccr", "modccr.csv", check_modccr),)),
    Workload("phase-mc", (
        Invocation("phase-mc", "mc.csv", check_phase_mc),)),
    Workload("validate", (
        Invocation("validate", "validate.txt", check_validate),)),
)}


def normalized_output(path):
    """Output text without the timestamp line, for determinism checks."""
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("# generated_at=")]
