"""Experiment runner.

One executable with a subcommand per run mode: coupling and squeezing
sweeps of the thermal-degradation ratio, the deformed-commutator sweep
with its oracle column, a self-validation suite, and the phase-noise
Monte-Carlo pipeline.  Runs are configured by a line-oriented typed
key-value file with one section per mode, overridable by command-line
flags; results are emitted as CSV tables with a metadata header plus a
gnuplot script per sweep.  The CSV is produced in blocks of ``CSV_BLOCK``
rows, each distinct numeric value formatted once per block; an ``--out``
file is written block by block, stdout in one write.  Identical
configuration and seed produce byte-identical CSV output (excluding the
timestamp header line), through either route.
"""

from __future__ import annotations

import datetime
import math
import os
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import __version__, estimator, gaussian
from .errors import ConfigError, HolosimError, ParameterOutOfRange
from .estimator import (
    DEFAULT_ORACLE_CUTOFF,
    DEFAULT_RECEIPT_CUTOFF,
    MIN_SAMPLES,
    PhaseNoiseModel,
    check_denominator,
    classical_uncertainty,
    correlation_estimate,
    mixed_derivative,
    modccr_oracle_column,
    uncertainty_env_approx,
    uncertainty_env_full,
    uncertainty_modccr_analytic,
)
from .fock import (
    CoherentInput,
    FockCutoff,
    MultiModeFockState,
    SqueezeParams,
    build_twb,
    expectation,
    number_difference_moment,
)
from .gaussian import (
    as_ladder_sequence,
    evolve,
    fokker_planck_coefficients,
    from_squeezing,
    glauber_moment,
    isserlis_moment,
)
from .modccr import (
    deformed_commutator_check,
    deformed_variance_coefficient,
    perturbation_generator_action,
)

_GRID_RE = re.compile(r"^(linspace|logspace)\(\s*([^,]+)\s*,\s*([^,]+)\s*,\s*([^)]+)\)$")


# Bounds checked while parsing, before anything is allocated: a span's point
# count, each Fock mode's cutoff (phase-mc's receipt holds (cutoff+1)**3-sized
# arrays), and phase-mc's sample count (its chunk seeds are listed before any
# draw, and below MIN_SAMPLES the Monte Carlo would reject it only after the
# receipt).
MAX_GRID_POINTS = 100_000
MAX_CUTOFF = {"sweep-modccr": 400, "phase-mc": 40}
MAX_SAMPLES = 100_000_000
# phase-mc's Monte Carlo sums squared quartic moments over its draws.  The
# largest moment is a thermal mode's <n^4> = 24 sinh(r)^8 ~ 0.094 e^{8r},
# where an output sees half the twin beam (the ports' |mu|^8 <= 1e24 is far
# smaller), and MAX_SAMPLES of its squares stay below float64's 1.8e308 up
# to r = 43.5.
MAX_MC_SQUEEZE_R = 43.0


class Grid(tuple):
    """Swept-parameter grid of floats, from a span or an explicit list."""


def _span_grid(scale: str, start: float, stop: float, points: int) -> Grid:
    if points < 2:
        raise ConfigError(f"grid needs at least 2 points, got {points}")
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"grid allows at most {MAX_GRID_POINTS} points, got {points}")
    if not stop > start:
        raise ConfigError(f"grid needs stop > start, got [{start}, {stop}]")
    if scale == "logspace":
        if start <= 0.0:
            raise ConfigError("logspace grids need start > 0")
        vals = np.geomspace(start, stop, points)
    else:
        vals = np.linspace(start, stop, points)
    return Grid(float(v) for v in vals)


# Each mode's keys and defaults; a key's default type fixes how it parses.
_DEFAULTS = {
    "sweep-env-coupling": dict(
        r=2.0, m_values=(0.0, 0.5, 1.0, 2.0),
        lambda_tau_grid=_span_grid("logspace", 1e-6, 1e-2, 25)),
    "sweep-env-squeezing": dict(
        lambda_tau=1e-3, m_values=(0.0, 0.5, 1.0, 2.0),
        r_grid=_span_grid("linspace", 0.25, 3.0, 56)),
    "sweep-modccr": dict(
        epsilon_values=(0.01, 0.05, 0.1), cutoff=DEFAULT_ORACLE_CUTOFF,
        r_grid=_span_grid("linspace", 0.25, 3.0, 56)),
    "validate": dict(fault="none"),
    "phase-mc": dict(
        r=0.6, mu=0.8, sigma1=1e-2, sigma2=1e-2, rho=0.5,
        samples=100000, cutoff=DEFAULT_RECEIPT_CUTOFF),
}
_COMMON = dict(seed=1234, out="")
MODES = tuple(_DEFAULTS)

_KINDS = {int: "int", float: "float", tuple: "float_list", str: "str", Grid: "grid"}


def _mode_defaults(mode: str) -> dict:
    """The mode's keys, then seed and out, in the order errors list them."""
    return {**_DEFAULTS[mode], **_COMMON}


def _parse_value(default, raw: str, line_no: int):
    """Parse ``raw`` as the kind of ``default``."""
    kind = _KINDS[type(default)]

    def fail(message):
        raise ConfigError(f"line {line_no}: {message}")

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            fail(f"value {text.strip()!r} is not finite")
        return value

    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return finite(raw)
        if kind == "str":
            return raw
        match = _GRID_RE.match(raw) if kind == "grid" else None
        if match:
            scale, a, b, n = match.groups()
            return _span_grid(scale, finite(a), finite(b), int(n))
        values = tuple(finite(p) for p in raw.split(","))
        if kind == "float_list":
            return values
        if len(values) < 2:
            fail(f"grid needs at least 2 points, got {raw!r}")
        return Grid(values)
    except ConfigError as exc:
        fail(str(exc).split(": ", 1)[-1])
    except ValueError:
        fail(f"cannot parse {raw!r} as {kind}")


def parse_config_file(path: str, mode: str) -> dict:
    """Parse the [mode] section of a typed key-value config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    # A leading byte-order mark is dropped, as the utf-8-sig codec would,
    # without that codec's import.
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]
    defaults = _mode_defaults(mode)
    section = None
    found = {}
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
            if section not in MODES:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in text:
            raise ConfigError(f"line {line_no}: expected key = value, got {text!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any [section]")
        if section != mode:
            continue
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in defaults:
            raise ConfigError(
                f"line {line_no}: unknown key {key!r} for [{mode}] "
                f"(expected one of {', '.join(defaults)})")
        found[key] = _parse_value(defaults[key], raw, line_no)
    return found


def resolve_config(mode: str, file_values: dict, overrides: dict) -> SimpleNamespace:
    """The run's parameters: defaults, then the file, then set overrides."""
    values = {**_mode_defaults(mode), **file_values,
              **{key: val for key, val in overrides.items() if val is not None}}
    if values["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {values['seed']}")
    if "cutoff" in values and values["cutoff"] > MAX_CUTOFF[mode]:
        raise ConfigError(f"cutoff must be <= {MAX_CUTOFF[mode]} for [{mode}], "
                          f"got {values['cutoff']}")
    if values.get("samples", MIN_SAMPLES) < MIN_SAMPLES:
        raise ConfigError(f"samples must be >= {MIN_SAMPLES}, got {values['samples']}")
    if values.get("samples", 0) > MAX_SAMPLES:
        raise ConfigError(f"samples must be <= {MAX_SAMPLES}, got {values['samples']}")
    if mode.startswith("sweep-") and values["out"].endswith(".gnuplot"):
        raise ConfigError(f"out {values['out']!r} would be overwritten by its own gnuplot script")
    return SimpleNamespace(mode=mode, **values)


# ---------------------------------------------------------------------------
# Result container and CSV emission.
# ---------------------------------------------------------------------------

# Rows per CSV block: numeric cells are formatted once per distinct value
# within a block, and no column's strings are held all at once.
CSV_BLOCK = 1000


@dataclass
class SweepResult:
    """Named columns plus full metadata echo; renders to CSV and a gnuplot script."""

    metadata: dict
    columns: dict  # name -> sequence or numpy array, one entry per row
    gnuplot: str = None

    def csv_blocks(self):
        """The CSV text: the header, then blocks of up to ``CSV_BLOCK`` rows."""
        head = [f"# {key}={value}" for key, value in self.metadata.items()]
        head.append(",".join(self.columns))
        yield "\n".join(head) + "\n"
        columns = list(self.columns.values())
        for start in range(0, len(columns[0]), CSV_BLOCK):
            cells = (_cells(c[start:start + CSV_BLOCK]) for c in columns)
            yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _cells(values) -> list:
    """str of each value; a numpy array's distinct values are formatted once.

    Values are keyed by their bits, which keeps -0.0 apart from 0.0 and NaN
    payloads apart.  tolist() gives Python numbers, whose str is their
    shortest repr; a numpy scalar's repr reads "np.float64(...)".
    """
    if not isinstance(values, np.ndarray):
        return list(map(str, values))
    _, first, inverse = np.unique(values.view(f"u{values.itemsize}"),
                                  return_index=True, return_inverse=True)
    text = np.array(list(map(str, values[first].tolist())), dtype=object)
    return text[inverse].tolist()


def _metadata(config: SimpleNamespace, backend_note: str) -> dict:
    """Header of a run: every parameter but ``out``, keys sorted."""
    meta = {"tool": "holosim", "version": __version__, "mode": config.mode,
            "generated_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")}
    for key, val in sorted(vars(config).items()):
        if isinstance(val, Grid):
            val = "grid[" + ";".join(map(repr, val)) + "]"
        elif isinstance(val, tuple):
            val = ";".join(map(repr, val))
        if key != "out":
            meta[key] = str(val)
    meta["backend"] = backend_note
    return meta


# ---------------------------------------------------------------------------
# Sweep runners.
# ---------------------------------------------------------------------------

# The backends of a thermal sweep's two ratio columns.
_THERMAL_BACKENDS = ("gaussian_full", "gaussian_approx")


def _thermal_sweep(grid, m_values, r, lambda_tau) -> tuple:
    """(grid, M, full ratio, approx ratio, backend, backend) columns of a
    thermal sweep.

    The swept argument is passed as ``grid[:, None]``, so rows run over the
    grid, then M, and each ratio is one call over all rows.
    """
    m = np.array(m_values)
    full = uncertainty_env_full(r, m, lambda_tau).ravel()
    approx = uncertainty_env_approx(r, m, lambda_tau).ravel()
    return (np.repeat(grid, m.size), np.tile(m, grid.size), full, approx,
            *([backend] * full.size for backend in _THERMAL_BACKENDS))


def run_sweep_env_coupling(config: SimpleNamespace) -> SweepResult:
    grid = np.array(config.lambda_tau_grid)
    lt, m, full, approx, *backends = _thermal_sweep(grid, config.m_values, config.r,
                                                    grid[:, None])
    quotient = np.divide(full, approx, where=approx > 0.0,
                         out=np.full_like(full, math.nan))
    names = ("lambda_tau", "M", "ratio_full", "ratio_approx",
             "full_over_approx", "backend_full", "backend_approx")
    columns = dict(zip(names, (lt, m, full, approx, quotient, *backends)))
    gnuplot = _series_plot_script(csv_basename(config), names,
                                  config.m_values, logx=True)
    return SweepResult(_metadata(config, "+".join(_THERMAL_BACKENDS)), columns, gnuplot)


def run_sweep_env_squeezing(config: SimpleNamespace) -> SweepResult:
    grid = np.array(config.r_grid)
    r, m, full, approx, *backends = _thermal_sweep(grid, config.m_values, grid[:, None],
                                                   config.lambda_tau)
    flags = _monotone_decreasing(r, config.m_values, full)
    names = ("r", "M", "ratio_full", "ratio_approx",
             "monotone_decreasing", "backend_full", "backend_approx")
    columns = dict(zip(names, (r, m, full, approx, flags, *backends)))
    gnuplot = _series_plot_script(csv_basename(config), names,
                                  config.m_values, logx=False)
    return SweepResult(_metadata(config, "+".join(_THERMAL_BACKENDS)), columns, gnuplot)


def _monotone_decreasing(r: np.ndarray, m_values: tuple,
                         ratio: np.ndarray) -> np.ndarray:
    """Monotone-decrease diagnostic along the r grid (asserted for r >= 0.5).

    A row's flag is 0 when r >= 0.5 and its ratio is not below that of the
    previous row with an equal M.  Rows run over r, then M, so that row
    lies 1 to len(m_values) rows back, at the same offset in every block.
    """
    k = len(m_values)
    back = [next(d for d in range(1, k + 1) if m_values[(b - d) % k] == m)
            for b, m in enumerate(m_values)]
    previous = np.arange(ratio.size) - np.tile(back, ratio.size // k)
    rises = ~(ratio < ratio[np.maximum(previous, 0)])
    return np.where((r >= 0.5) & (previous >= 0) & rises, 0, 1)


def run_sweep_modccr(config: SimpleNamespace) -> SweepResult:
    grid, epsilon = np.array(config.r_grid), np.array(config.epsilon_values)
    analytic = uncertainty_modccr_analytic(grid[:, None], epsilon).ravel()
    fock = modccr_oracle_column(grid, epsilon, FockCutoff(config.cutoff)).ravel()
    deviation = np.divide(np.abs(fock - analytic), analytic, where=analytic > 0.0,
                          out=np.full_like(fock, math.nan))
    backends = [("fock_oracle", "none")[gap] for gap in np.isnan(fock).tolist()]
    names = ("r", "epsilon", "ratio_analytic", "ratio_fock",
             "relative_deviation", "backend_analytic", "backend_fock")
    columns = dict(zip(names, (np.repeat(grid, epsilon.size), np.tile(epsilon, grid.size),
                               analytic, fock, deviation, ["analytic_modccr"] * fock.size,
                               backends)))
    gnuplot = _series_plot_script(csv_basename(config), names,
                                  config.epsilon_values, logx=False)
    return SweepResult(_metadata(config, "analytic_modccr+fock_oracle"), columns, gnuplot)


def run_phase_mc(config: SimpleNamespace) -> SweepResult:
    squeeze, coherent = SqueezeParams(config.r), CoherentInput(config.mu)
    if squeeze.r > MAX_MC_SQUEEZE_R:
        raise ParameterOutOfRange(
            f"phase-mc needs r <= {MAX_MC_SQUEEZE_R}, got {squeeze.r!r}")
    noise = PhaseNoiseModel(config.sigma1, config.sigma2, config.rho)
    powers = (2, 4)
    table = estimator.phase_table(squeeze, coherent, powers)
    # A denominator within the floor or the table's rounding exits before any draw.
    denom = check_denominator(mixed_derivative(table[0]), estimator.rounding_level(table[0]))
    tail, direct = estimator.fock_receipt(squeeze, coherent, FockCutoff(config.cutoff),
                                          config.sigma1, config.sigma2, powers)
    residuals = ([math.nan] * len(powers) if direct is None else
                 estimator.table_residuals(table, config.sigma1, config.sigma2, direct))
    quad, quartic = estimator.paired_phase_average(noise, table, config.samples,
                                                   config.seed)
    covariance = correlation_estimate(quad.mean_par, quad.mean_perp, denom)
    covariance_se = quad.se_diff / abs(denom)
    injected = config.rho * config.sigma1 * config.sigma2
    variance_par = max(quartic.mean_par - quad.mean_par ** 2, 0.0)
    delta_e = math.sqrt(2.0 * variance_par) / abs(denom)
    delta_e_cl = classical_uncertainty(config.mu)
    names = ("samples", "e_par", "se_par", "e_perp", "se_perp",
             "denominator", "covariance_recovered", "covariance_se",
             "covariance_injected", "delta_e", "delta_e_cl", "ratio")
    row = (config.samples, quad.mean_par, quad.se_par, quad.mean_perp,
           quad.se_perp, denom, covariance, covariance_se, injected,
           delta_e, delta_e_cl, delta_e / delta_e_cl)
    meta = _metadata(config, "gaussian" if direct is None else "gaussian+fock_oracle")
    meta["discarded_tail"] = tail
    meta["table_residual_p2"], meta["table_residual_p4"] = residuals
    meta["e_par_exact"] = quad.exact_par
    meta["e_perp_exact"] = quad.exact_perp
    # The small-noise linearization's relative bias on covariance_recovered,
    # read off the exact averages; it grows as kappa_phase (ROADMAP item 7).
    # Dividing in turn keeps denom * injected from underflowing to 0.
    meta["kappa_phase"] = config.sigma1 * config.sigma2 * math.exp(2.0 * squeeze.r)
    bias, noise = math.nan, math.nan
    if injected:
        bias = (quad.exact_par - quad.exact_perp) / denom / injected - 1.0
        noise = covariance_se / abs(injected)
    meta["linearization_bias"] = bias
    if abs(bias) > noise:
        print(f"warning: linearization_bias {bias!r} exceeds covariance_se/"
              f"|covariance_injected| {noise!r}: covariance_recovered is biased "
              "beyond its noise", file=sys.stderr)
    level = quad.rounding_level
    meta["z_par"] = _z_score(quad.mean_par, quad.exact_par, quad.se_par, level)
    meta["z_perp"] = _z_score(quad.mean_perp, quad.exact_perp, quad.se_perp, level)
    return SweepResult(meta, {name: [value] for name, value in zip(names, row)})


def _z_score(estimate: float, exact: float, se: float, rounding_level: float) -> float:
    """(estimate - exact) / se; NaN where se is 0, or where the two agree
    to the table's rounding, which a z-score would only amplify."""
    gap = estimate - exact
    return gap / se if se > 0.0 and abs(gap) > rounding_level else math.nan


# ---------------------------------------------------------------------------
# Validation suite.
# ---------------------------------------------------------------------------

# The products that check 2 compares across routes, as powers (n1, m1, n2, m2):
# the quadrature correlator's four terms, then the normally ordered terms
# (a1')^k1 a1^k1 (a2')^k2 a2^k2, 0 < k1 + k2 <= 4, of (N1 - N2)^2 and ^4.
CROSS_CHECK_POWERS = ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1),
                      *((k1, k1, k2, k2) for k1 in range(5) for k2 in range(5 - k1)
                        if k1 + k2))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"check={self.name} status={status} observed={self.observed!r} "
                f"tolerance={self.tolerance!r}")


def _check(name, observed, tolerance) -> CheckResult:
    return CheckResult(name, bool(observed <= tolerance),
                       float(observed), float(tolerance))


def run_validate(config: SimpleNamespace) -> tuple:
    """Run the cross-module consistency suite; returns (exit_code, checks).

    The optional fault injection (``fault = relaxation_sign_flip``) flips
    the sign of the width-relaxation exponent inside the checks that
    exercise the evolution law, serving as a negative control: it must
    flip at least one check to FAIL.
    """
    checks = []
    faulty = config.fault == "relaxation_sign_flip"
    if config.fault not in ("", "none", "relaxation_sign_flip"):
        raise ConfigError(f"unknown fault {config.fault!r}")

    def evolve_fn(state, m_thermal, lambda_t):
        if not faulty:
            return evolve(state, m_thermal, lambda_t)
        # Negative control: relax the widths with the wrong exponent sign.
        decay = math.exp(-lambda_t)
        asym = gaussian.asymptotic_width(m_thermal) * (1.0 - decay)
        return gaussian.TwoModeGaussianState(
            asym + state.sigma_plus / decay, asym + state.sigma_minus / decay)

    # Checks 1, 2, 4 and 8 share one twin beam at a fixed cutoff.
    cut = FockCutoff(60)
    twb = build_twb(SqueezeParams(0.8), cut)

    # 1. Guards phase-mc's receipt input, build_twb's twin beam: <n> against sinh(r)^2.
    mean_n = expectation(twb, ((0, True), (0, False))).real
    checks.append(_check("twb_mean_occupation",
                         abs(mean_n - math.sinh(0.8) ** 2), 1e-9))

    # 2. Guards the Wick recursion of phase-mc's table against Fock expectations at t=0.
    state0 = from_squeezing(SqueezeParams(0.8))
    dev = 0.0
    for powers in CROSS_CHECK_POWERS:
        ops = as_ladder_sequence(powers)
        oracle, analytic = expectation(twb, ops), isserlis_moment(state0, ops)
        dev = max(dev, abs(oracle - analytic) / max(1.0, abs(analytic)))
    checks.append(_check("oracle_vs_isserlis_t0", dev, 1e-8))

    # 3. Guards the same recursion on an evolved, mixed state against quadrature.
    m_th = 0.5
    evolved = evolve_fn(state0, m_th, 0.1)
    dev = 0.0
    for powers in ((1, 1, 0, 0), (0, 1, 0, 1), (1, 1, 1, 1), (2, 2, 0, 0)):
        quad_val = glauber_moment(evolved, powers)
        wick_val = isserlis_moment(evolved, as_ladder_sequence(powers))
        dev = max(dev, abs(quad_val - wick_val) / max(1.0, abs(wick_val)))
    checks.append(_check("glauber_vs_isserlis", dev, 1e-8))

    # 4. Guards sweep-modccr's oracle premise (N1 - N2)|TWB> = 0 against exact zeros.
    dev = max(abs(number_difference_moment(twb, p)) for p in (1, 2, 3, 4))
    checks.append(_check("twb_null_difference_moments", dev, 1e-10))

    # 5. Guards only the width map: its composition law.
    one = evolve_fn(evolve_fn(state0, m_th, 0.3), m_th, 1.1)
    two = evolve_fn(state0, m_th, 1.4)
    dev = max(abs(one.sigma_plus - two.sigma_plus),
              abs(one.sigma_minus - two.sigma_minus))
    checks.append(_check("evolution_semigroup", dev, 1e-12))

    # 6. Guards only the width map: its t=0 rate against drift and diffusion (lambda*t units).
    drift, diffusion = fokker_planck_coefficients(m_th)
    dt = 1e-6
    stepped = evolve_fn(state0, m_th, dt)
    dev = 0.0
    for before, after in ((state0.sigma_plus, stepped.sigma_plus),
                          (state0.sigma_minus, stepped.sigma_minus)):
        observed_rate = (after - before) / dt
        predicted = -2.0 * drift * before + diffusion / 2.0
        dev = max(dev, abs(observed_rate - predicted) / abs(predicted))
    checks.append(_check("width_relaxation_rate", dev, 1e-5))

    # 7. Guards the deformed algebra both sweep-modccr columns assume: the mode map's
    # commutators on the guarded subspace against (eps, eps, 1 + eps).
    checks.append(_check("deformed_commutators",
                         deformed_commutator_check(0.1, FockCutoff(20)), 1e-10))

    # 8. Guards sweep-modccr's oracle numerator, r^2 |D0^2 s|^2 off the seed's 3x3 corner,
    # against <D0^4> on B|TWB>, B acting by ladder stencils: neither route propagates.
    response = perturbation_generator_action(0.8)(twb.amplitudes)
    moment = number_difference_moment(MultiModeFockState(2, cut, response), 4)
    dev = abs(moment - deformed_variance_coefficient(0.8, cut)) / max(1.0, moment)
    checks.append(_check("variance_coefficient_vs_pair_response", dev, 1e-8))

    # 9. Guards only the width map: monotone relaxation toward the thermal asymptote.
    target = gaussian.asymptotic_width(m_th)
    times = np.linspace(0.0, 3.0, 13)
    gaps_p, gaps_m = [], []
    for t in times:
        ev = evolve_fn(state0, m_th, float(t))
        gaps_p.append(abs(ev.sigma_plus - target))
        gaps_m.append(abs(ev.sigma_minus - target))
    monotone = (all(b <= a + 1e-12 for a, b in zip(gaps_p, gaps_p[1:]))
                and all(b <= a + 1e-12 for a, b in zip(gaps_m, gaps_m[1:])))
    checks.append(_check("width_relaxation_monotone", 0.0 if monotone else 1.0,
                         0.0))

    # 10. Guards only the width map: ratio_full, built on it, against ratio_approx.
    full = uncertainty_env_full(2.0, 0.5, 1e-4)
    approx = uncertainty_env_approx(2.0, 0.5, 1e-4)
    checks.append(_check("env_full_vs_approx",
                         abs(full / approx - 1.0), 0.02))

    exit_code = 0 if all(c.passed for c in checks) else 1
    return exit_code, checks


# ---------------------------------------------------------------------------
# gnuplot script emission.
# ---------------------------------------------------------------------------

def csv_basename(config: SimpleNamespace) -> str:
    return os.path.basename(config.out) if config.out else "output.csv"


def _series_plot_script(csv_name, columns, series_values, logx):
    """Plot columns[2] against columns[0], one line per value of columns[1].

    The y axis is logarithmic unless ``logx`` makes the x axis so.
    """
    xlabel, series_name, ylabel = columns[:3]
    lines = [
        f"# gnuplot script for {csv_name}",
        'set datafile separator ","',
        'set datafile missing "nan"',
        "set key autotitle columnhead",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        "set key left top",
    ]
    lines.append("set logscale x" if logx else "set logscale y")
    plots = []
    for value in series_values:
        cond = f"($2=={value!r} ? $3 : 1/0)"
        plots.append(f'"{csv_name}" using 1:{cond} with lines '
                     f'title "{series_name}={value!r}"')
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

_RUNNERS = {
    "sweep-env-coupling": run_sweep_env_coupling,
    "sweep-env-squeezing": run_sweep_env_squeezing,
    "sweep-modccr": run_sweep_modccr,
    "phase-mc": run_phase_mc,
}


def _write(path: str, chunks) -> None:
    """Write one output file from an iterable of strings; an unwritable path
    is bad input (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise HolosimError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _emit(result: SweepResult, config: SimpleNamespace) -> None:
    if config.out:
        _write(config.out, result.csv_blocks())
        if result.gnuplot:
            _write(os.path.splitext(config.out)[0] + ".gnuplot", (result.gnuplot,))
    else:
        # One write of the whole text: when a reader closes the pipe early
        # (``| head``) the run still exits 0, where block-by-block writes
        # raise BrokenPipeError.
        sys.stdout.write("".join(result.csv_blocks()))


# Every mode's flags: how each value converts, and its help line.  A mode
# takes --cutoff only where it has a cutoff key.
_FLAGS = {
    "--config": (str, "typed key-value config file"),
    "--out": (str, "output CSV (or report) path"),
    "--seed": (int, "override random seed"),
    "--cutoff": (int, "override occupation cutoff"),
}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # a value, though it starts with "-"


def _names(mode) -> tuple:
    """The flags before the mode (help only), or after it."""
    return _HELP + tuple(f for f in _FLAGS
                         if mode and (f != "--cutoff" or "cutoff" in _DEFAULTS[mode]))


def _usage(mode) -> str:
    head = f"holosim {mode} [-h]" if mode else "holosim [-h] {" + ",".join(MODES) + "} ..."
    return "usage: " + head + "".join(f" [{f} {f[2:].upper()}]" for f in _names(mode)[2:])


def _help(mode) -> str:
    flags = "".join(f"  {f:<8} {f[2:].upper():<7} {_FLAGS[f][1]}\n" for f in _names(mode)[2:])
    return f"{_usage(mode)}\n\n" + (flags or f"modes: {', '.join(MODES)}\n")


def _usage_error(mode, message: str):
    """A usage error: the usage, then ``prog: error: message``; exit 2."""
    prog = f"holosim {mode}" if mode else "holosim"
    sys.stderr.write(f"{_usage(mode)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _read(arg: str, mode) -> tuple:
    """None where ``arg`` is a value, else (flag, inline value), the flag None
    where ``arg`` names none of ``_names(mode)``.  A flag is named in full,
    as ``--flag=value`` or by a unique ``--`` prefix; ``-hx`` gives -h "x"."""
    names = _names(mode)
    if not arg.startswith("-") or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    inline = value if eq else None
    if name in names:
        return name, inline
    if arg.startswith("--"):
        hits = [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            _usage_error(mode, f"ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return hits[0], inline
    elif arg[:2] in names:
        return arg[:2], arg[2:]
    return None if _NEGATIVE_NUMBER.fullmatch(arg) or " " in arg else (None, None)


def _reads(args: list, mode) -> list:
    """``_read`` of each string; "--" and every string after it are values."""
    end = args.index("--") if "--" in args else len(args)
    return [_read(arg, mode) for arg in args[:end]] + [None] * (len(args) - end)


def parse_args(argv=None) -> tuple:
    """(mode, flags) from the command line ``MODE [--flag VALUE]...``, each
    flag given mapped, without its dashes, to its last value.  ``-h`` prints
    a usage and exits 0; a usage error exits 2, with the messages of the
    standard library's parser, whose import and locale set-up this saves."""
    args = sys.argv[1:] if argv is None else list(argv)
    mode, flags, extras = None, {}, []
    reads = _reads(args, None)
    i = 0
    while i < len(args):
        arg, read = args[i], reads[i]
        i += 1
        if read is None and mode is None:
            if arg not in MODES:
                _usage_error(None, f"argument mode: invalid choice: {arg!r} "
                                   f"(choose from {', '.join(map(repr, MODES))})")
            mode = arg
            reads[i:] = _reads(args[i:], mode)
        elif read is None or read[0] is None:
            extras.append(arg)
        elif read[0] in _HELP:
            if read[1] is not None:
                _usage_error(mode, "argument -h/--help: ignored explicit argument "
                                   f"{read[1]!r}")
            sys.stdout.write(_help(mode))
            raise SystemExit(0)
        else:
            flag, value = read
            if value is None:
                if i == len(args) or reads[i] is not None or args[i] == "--":
                    _usage_error(mode, f"argument {flag}: expected one argument")
                value, i = args[i], i + 1
            try:
                flags[flag[2:]] = _FLAGS[flag][0](value)
            except ValueError:
                _usage_error(mode, f"argument {flag}: invalid int value: {value!r}")
    if mode is None:
        _usage_error(None, "the following arguments are required: mode")
    if extras:
        _usage_error(None, f"unrecognized arguments: {' '.join(extras)}")
    return mode, flags


def main(argv=None) -> int:
    mode, flags = parse_args(argv)
    try:
        path = flags.pop("config", None)
        file_values = parse_config_file(path, mode) if path else {}
        config = resolve_config(mode, file_values, flags)
        if config.mode == "validate":
            if config.out:
                _write(config.out, ())  # fail on an unwritable path before the checks
            exit_code, checks = run_validate(config)
            lines = [c.line() for c in checks]
            passed = sum(c.passed for c in checks)
            lines.append(f"validate: {passed}/{len(checks)} checks passed")
            report = "\n".join(lines) + "\n"
            if config.out:
                _write(config.out, (report,))
            sys.stdout.write(report)
            return exit_code
        result = _RUNNERS[config.mode](config)
        _emit(result, config)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HolosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
