"""Property tests over random inputs; skipped when hypothesis is missing."""

import contextlib
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from holosim import (  # noqa: E402
    CoherentInput,
    FockCutoff,
    HolosimError,
    SqueezeParams,
    phase_table,
    uncertainty_env_approx,
    uncertainty_env_full,
)
from holosim import cli, modccr  # noqa: E402
from holosim._propagators import apply_exponential  # noqa: E402
from holosim.errors import ConfigError  # noqa: E402
from holosim.estimator import MIN_SAMPLES, fock_receipt  # noqa: E402
from holosim.fock import _apply_ladder, build_twb, expectation  # noqa: E402
from holosim.gaussian import (  # noqa: E402
    as_ladder_sequence,
    evolve,
    from_squeezing,
    glauber_moment,
    isserlis_moment,
)
from holosim.modccr import (  # noqa: E402
    MAX_EPSILON,
    auxiliary_mode_map,
    deformed_commutator_check,
)
from test_estimator import (  # noqa: E402
    cross_difference,
    gaussian_moments,
    mixed_derivative,
    tabulate,
)

PHASE = st.floats(-math.pi, math.pi)
ANGLE = st.floats(-20.0, 20.0)


# The largest deviation of the occupation-basis route from the Gaussian one,
# relative to max(1, sum |R|), per cutoff: 5x the worst seen over 40 random
# draws and at the corners r = 0.5, |mu| = 1.4 (9.8e-7 and 1.3e-11).
FOCK_BOUND = {16: 5e-6, 24: 7e-11}


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 0.5), amplitude=st.floats(0.0, 1.4), angle=PHASE,
       phi1=PHASE, phi2=PHASE)
def test_phase_table_is_exact_off_grid(r, amplitude, angle, phi1, phi2):
    # A complex mu: with a real one, dropping the conjugate from the
    # daggered ports' means would go unseen.
    mu = amplitude * complex(math.cos(angle), math.sin(angle))
    table = phase_table(SqueezeParams(r), CoherentInput(mu), (2, 4))
    exact = gaussian_moments(r, mu, phi1, phi2, (2, 4))
    tabulated = tabulate(table, np.array([phi1]), np.array([phi2]))
    # Each basis function is bounded by 1, so sum |R| bounds the moment.
    scales = [np.abs(coeffs).sum() for coeffs in table]
    for approx, value, scale in zip(tabulated, exact, scales):
        assert abs(approx[0] - value) <= 1e-12 * scale
    # The Fock route truncates, and its deviation shrinks with the cutoff;
    # at cutoff 16 it drops at most 1.1e-8 of the input in this box.
    deviation = {}
    for n_max, bound in FOCK_BOUND.items():
        _, fock = fock_receipt(SqueezeParams(r), CoherentInput(mu), FockCutoff(n_max),
                               phi1, phi2, (2, 4))
        deviation[n_max] = max(abs(f - value) / max(1.0, scale)
                               for f, value, scale in zip(fock, exact, scales))
        assert deviation[n_max] <= bound
    assert deviation[24] <= max(deviation[16], 1e-12)
    # The mixed derivative is -Re(mu^2) sinh(2r)/2, and the Fock route's
    # cross difference approaches it.
    denom = mixed_derivative(table)
    closed = -(mu * mu).real * math.sinh(2.0 * r) / 2.0
    assert denom == pytest.approx(closed, rel=1e-12, abs=1e-12 * scales[0])
    assert cross_difference(SqueezeParams(r), CoherentInput(mu)) == pytest.approx(
        denom, abs=FOCK_BOUND[16] * max(1.0, scales[0]))


# Every normally ordered product of degree <= 8, as powers (n1, m1, n2, m2):
# 495 of them, each drawn with a permutation of its ladder sequence.
PRODUCTS = st.sampled_from(
    [p for p in itertools.product(range(9), repeat=4) if sum(p) <= 8]).flatmap(
    lambda p: st.tuples(st.just(p), st.permutations(as_ladder_sequence(p))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 1.0), product=PRODUCTS,
       m_thermal=st.floats(0.0, 2.0), lambda_t=st.floats(0.0, 1.0))
def test_moment_routes_agree(r, product, m_thermal, lambda_t):
    # The pair factorization against two routes that share none of its
    # kernel: the occupation-basis oracle, on the product in normal order
    # and in the drawn order, and phase-space quadrature, in normal order.
    powers, shuffled = product
    ops = as_ladder_sequence(powers)

    def deviation(state, other, sequence=ops):
        wick = isserlis_moment(state, sequence)
        return abs(other - wick) / max(1.0, abs(wick))

    state = from_squeezing(SqueezeParams(r))
    twb = build_twb(SqueezeParams(r), FockCutoff(64))
    assert deviation(state, expectation(twb, ops)) <= 1e-9
    assert deviation(state, expectation(twb, shuffled), shuffled) <= 1e-9
    assert deviation(state, glauber_moment(state, powers)) <= 1e-12
    evolved = evolve(state, m_thermal, lambda_t)
    assert deviation(evolved, glauber_moment(evolved, powers)) <= 1e-12


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["squeeze", "beam_splitter"]), dim=st.integers(1, 24),
       theta=ANGLE, seed=st.integers(0, 2**32 - 1))
def test_chain_exponentials_preserve_the_norm(kind, dim, theta, seed):
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal((dim * dim, 2)) @ np.array([1.0, 1j])
    out = apply_exponential(kind, dim, theta, vec)
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(vec), rel=1e-12)


def _dense_exponential(kind, dim, theta):
    """exp(theta * G) from numpy's eigh of iG, with G built by the ladder stencil."""
    basis = np.eye(dim * dim).reshape(dim, dim, dim * dim)

    def pair(first, second, dagger_first, dagger_second):
        # The product (mode ``first``)(mode ``second``), applied right to left.
        inner = _apply_ladder(basis, second, dagger_second)
        return _apply_ladder(inner, first, dagger_first)

    if kind == "squeeze":  # G = A1'A2' - A1 A2
        gen = pair(0, 1, True, True) - pair(0, 1, False, False)
    else:  # K = (a'b - b'a)/2
        gen = 0.5 * (pair(0, 1, True, False) - pair(1, 0, True, False))
    gen = gen.reshape(dim * dim, dim * dim)
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["squeeze", "beam_splitter"]), dim=st.integers(1, 24),
       theta=ANGLE, seed=st.integers(0, 2**32 - 1))
def test_chain_exponentials_act_only_on_occupied_chains(kind, dim, theta, seed):
    rng = np.random.default_rng(seed)
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    label = n1 - n2 if kind == "squeeze" else n1 + n2
    # Per batch column, x lives on a random subset of the chains and y on a
    # random subset of the others, so the columns' supports differ.
    chains = np.unique(label)
    on_x = np.stack([np.isin(label, chains[rng.random(chains.size) < 0.5])
                     for _ in range(3)], axis=1)
    on_y = ~on_x & np.isin(label, chains[rng.random(chains.size) < 0.5])[:, None]

    def draw(mask):
        return mask * (rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape))

    x, y = draw(on_x), draw(on_y)
    out = apply_exponential(kind, dim, theta, x)
    # The shape contract: (dim, dim, batch) and one (dim, dim) column give
    # the flat result reshaped, bit for bit.
    square = apply_exponential(kind, dim, theta, x.reshape(dim, dim, -1))
    assert square.shape == (dim, dim, 3)
    assert np.array_equal(square, out.reshape(dim, dim, -1))
    flat_column = apply_exponential(kind, dim, theta, x[:, 1])
    column = apply_exponential(kind, dim, theta, x[:, 1].reshape(dim, dim))
    assert np.array_equal(column, flat_column.reshape(dim, dim))
    assert np.all(out[~on_x] == 0)
    assert np.array_equal(out[on_x], apply_exponential(kind, dim, theta, x + y)[on_x])
    reference = _dense_exponential(kind, dim, theta) @ x
    assert np.max(np.abs(out - reference), initial=0.0) <= 1e-12 * max(1.0, np.linalg.norm(x))


def _dense_commutator_deviation(mode_map, epsilon, n_max):
    """The deformed-commutator deviation from (d^2, d^2) kron operators.

    Builds a1 and a2 from the map's rows over (A1, A2, A1', A2'), multiplies
    the four commutators out and compares them with (eps, eps, 1+eps) on
    the block with both occupations <= n_max - 2.
    """
    d = n_max + 1
    a, eye = _apply_ladder(np.eye(d), 0, False), np.eye(d)
    basis = [np.kron(a, eye), np.kron(eye, a), np.kron(a.T, eye), np.kron(eye, a.T)]
    a1, a2 = (sum(c * op for c, op in zip(row, basis)) for row in mode_map)
    guard = np.arange(d) <= n_max - 2
    keep = np.ix_(np.kron(guard, guard), np.kron(guard, guard))

    def dev(mat, expected):
        return np.max(np.abs((mat - expected * np.eye(d * d))[keep]))

    return max(dev(a1 @ a2 - a2 @ a1, epsilon), dev(a1 @ a2.T - a2.T @ a1, epsilon),
               dev(a1 @ a1.T - a1.T @ a1, 1.0 + epsilon),
               dev(a2 @ a2.T - a2.T @ a2, 1.0 + epsilon))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(epsilon=st.floats(-MAX_EPSILON, MAX_EPSILON), n_max=st.integers(4, 12))
def test_factored_commutator_check_matches_the_dense_algebra(epsilon, n_max):
    factored = deformed_commutator_check(epsilon, FockCutoff(n_max))
    dense = _dense_commutator_deviation(auxiliary_mode_map(epsilon), epsilon, n_max)
    assert abs(factored - dense) <= 1e-13
    assert factored <= 1e-13


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(magnitude=st.floats(2e-3, MAX_EPSILON), sign=st.sampled_from([-1.0, 1.0]),
       n_max=st.integers(4, 12), entry=st.integers(0, 5))
def test_factored_commutator_check_sees_a_flipped_coefficient(magnitude, sign, n_max,
                                                               entry):
    # Flipping the sign of any of the map's six nonzero coefficients moves a
    # commutator by |eps|, so both routes must read it.
    epsilon = sign * magnitude
    perturbed = auxiliary_mode_map(epsilon)
    perturbed[tuple(np.argwhere(perturbed)[entry])] *= -1.0
    with mock.patch.object(modccr, "auxiliary_mode_map", lambda eps: perturbed):
        factored = deformed_commutator_check(epsilon, FockCutoff(n_max))
    dense = _dense_commutator_deviation(perturbed, epsilon, n_max)
    assert abs(factored - dense) <= 1e-13
    assert factored > 1e-3 and dense > 1e-3


# A sweep body of valid values, with at most one special value put in: 0,
# a negative, r above 350, or lambda*tau large enough that the quadrature
# correlator falls below its floor (40) or decays to 0 (800).
VALID = st.floats(1e-3, 3.0)
SPECIAL = st.sampled_from([0.0, -1.0, 1e-9, 40.0, 350.0, 351.0, 400.0, 800.0])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(mode=st.sampled_from(["sweep-env-coupling", "sweep-env-squeezing"]),
       fixed=VALID, grid=st.lists(VALID, min_size=2, max_size=4),
       m_values=st.lists(VALID, min_size=1, max_size=3),
       special=st.none() | SPECIAL, slot=st.integers(0, 2))
@example(mode="sweep-env-coupling", fixed=2.0, grid=[0.0, 40.0], m_values=[0.0],
         special=None, slot=0)
@example(mode="sweep-env-squeezing", fixed=1e-3, grid=[0.5, 400.0], m_values=[0.5],
         special=None, slot=0)
def test_thermal_sweeps_exit_0_or_2(tmp_path_factory, mode, fixed, grid, m_values,
                                    special, slot):
    if special is not None:
        if slot == 0:
            fixed = special
        else:
            (grid, m_values)[slot - 1].insert(1, special)
    coupling = mode == "sweep-env-coupling"
    keys = ("r", "lambda_tau_grid") if coupling else ("lambda_tau", "r_grid")
    path = tmp_path_factory.mktemp("sweep") / "run.cfg"
    path.write_text(f"[{mode}]\n{keys[0]} = {fixed!r}\n"
                    f"{keys[1]} = {', '.join(map(repr, grid))}\n"
                    f"m_values = {', '.join(map(repr, m_values))}\n", encoding="utf-8")
    out = path.with_suffix(".csv")
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([mode, "--config", str(path), "--out", str(out)])
    # The run succeeds exactly when every row does on its own.
    points = [(fixed, m, x) if coupling else (x, m, fixed)
              for x in grid for m in m_values]
    try:
        rows = [(uncertainty_env_full(*p), uncertainty_env_approx(*p))
                for p in points]
    except HolosimError:
        assert code == 2
        return
    assert code == 0
    lines = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")][1:]
    assert [(float(line[2]), float(line[3])) for line in lines] == rows


# Config bodies: a section for the mode run and one for another mode, each
# of random lines of that mode's keys and values, junk values included, and
# at most one junk line anywhere.  A span's point count stays small or is
# past the bound, which parsing rejects before it allocates the grid.
BIG = st.sampled_from([str(cli.MAX_GRID_POINTS + 1), "401", "1000000000000000"])
NUMBER = (st.integers(-5, 99).map(str) | st.floats(-1e3, 1e3).map(repr)
          | st.sampled_from(["nan", "inf", "-inf", "1e400"]) | BIG)
NUMBERS = st.lists(NUMBER | st.sampled_from(["", "x"]), min_size=1,
                   max_size=4).map(", ".join)
SPAN = st.builds("{}({}, {}, {})".format,
                 st.sampled_from(["linspace", "logspace", "geomspace"]), NUMBER,
                 NUMBER, st.integers(-2, 40).map(str) | st.sampled_from(["2.5", "1e3"])
                 | BIG)
VALUE = (NUMBER | NUMBERS | SPAN | st.text(max_size=12)
         | st.sampled_from(["none", "relaxation_sign_flip"]))
JUNK_LINE = st.sampled_from(["no equals sign", "[no-such-mode]", "bogus = 1",
                             "r = 1"])


@st.composite
def config_bodies(draw):
    def section(mode):
        line = st.builds("{} = {}".format,
                         st.sampled_from(list(cli._mode_defaults(mode))), VALUE)
        return [f"[{mode}]",
                *draw(st.lists(line | st.sampled_from(["# note", ""]), max_size=4))]

    mode, other = draw(st.sampled_from(cli.MODES)), draw(st.sampled_from(cli.MODES))
    lines = [*section(mode), *section(other)]
    junk = draw(st.none() | JUNK_LINE)
    if junk is not None:
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return mode, "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=config_bodies())
@example(case=("sweep-modccr", "[sweep-modccr]\nr_grid = linspace(0.5, 1, 3)\n"
               "epsilon_values = 0.1, 0.2\ncutoff = 40\nseed = 3\nout = x.csv\n"
               "[validate]\nfault = x\n"))
@example(case=("phase-mc", "[sweep-env-coupling]\nr = x\n[phase-mc]\nr = 1\n"))
@example(case=("validate", "[validate]\nseed = -1\n"))
@example(case=("sweep-env-squeezing",
               "[sweep-env-squeezing]\nr_grid = linspace(0, 1, 1000000000000000)\n"))
@example(case=("phase-mc", "[phase-mc]\ncutoff = 41\n"))
@example(case=("phase-mc", "[phase-mc]\nsamples = 1000000000000000\n"))
def test_config_parse_raises_only_config_error(tmp_path_factory, case):
    mode, body = case
    path = tmp_path_factory.getbasetemp() / "parse.cfg"
    path.write_text(body, encoding="utf-8")
    try:
        config = cli.resolve_config(mode, cli.parse_config_file(str(path), mode), {})
    except ConfigError:
        return
    defaults = cli._mode_defaults(mode)
    assert vars(config).keys() == {"mode", *defaults}
    # Every value has its default's kind: int, float, str, float list or grid.
    for key, default in defaults.items():
        value = getattr(config, key)
        assert type(value) is type(default)
        if isinstance(value, tuple):
            assert len(value) >= (2 if isinstance(value, cli.Grid) else 1)
            assert len(value) <= cli.MAX_GRID_POINTS
            assert all(type(v) is float and math.isfinite(v) for v in value)
        elif isinstance(value, float):
            assert math.isfinite(value)
    assert config.seed >= 0
    assert getattr(config, "cutoff", 0) <= cli.MAX_CUTOFF.get(mode, 0)
    assert MIN_SAMPLES <= getattr(config, "samples", MIN_SAMPLES) <= cli.MAX_SAMPLES


# Bounded runs of the modes that reach the occupation basis: grids of at
# most 3 points, cutoffs of at most 12 (or the mode's default) and at most
# 2,000 samples, with values that are junk, out of range or fine; r = 60
# lies inside SqueezeParams' range but past what phase-mc's sums hold.
RUN_NUMBER = (st.floats(-1.0, 3.0)
              | st.sampled_from([0.0, 1e-9, 0.25, 1.3, 60.0, 400.0, math.nan, math.inf]))
RUN_LIST = st.lists(RUN_NUMBER, min_size=1, max_size=3).map(
    lambda values: ", ".join(map(repr, values)))
RUN_KEYS = {
    "sweep-modccr": dict(r_grid=RUN_LIST, epsilon_values=RUN_LIST,
                         cutoff=st.integers(-1, 12)),
    "phase-mc": dict(r=RUN_NUMBER, mu=RUN_NUMBER, sigma1=RUN_NUMBER, sigma2=RUN_NUMBER,
                     rho=RUN_NUMBER, samples=st.integers(900, 2000),
                     cutoff=st.integers(-1, 12)),
    "validate": dict(fault=st.sampled_from(["none", "relaxation_sign_flip", "bogus"])),
}


@st.composite
def bounded_runs(draw):
    mode = draw(st.sampled_from(sorted(RUN_KEYS)))
    lines = [f"{key} = {draw(value)}" for key, value in RUN_KEYS[mode].items()
             if draw(st.booleans())]
    return mode, "\n".join([f"[{mode}]", *lines]) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=bounded_runs())
@example(case=("sweep-modccr", "[sweep-modccr]\nr_grid = 0.5, 1.3\n"
               "epsilon_values = 0.05, 0.25\ncutoff = 12\n"))
@example(case=("phase-mc", "[phase-mc]\nr = 0.3\nmu = 0.5\nsamples = 1000\ncutoff = 8\n"))
@example(case=("phase-mc", "[phase-mc]\nr = 60.0\nsamples = 1000\n"))
@example(case=("validate", "[validate]\nfault = relaxation_sign_flip\n"))
def test_bounded_runs_exit_0_or_2(tmp_path_factory, case):
    # A run ends with exit 0, or 2 for bad input, never with a traceback;
    # validate's negative control exits 1, or 2 if its input is bad.
    mode, body = case
    path = tmp_path_factory.getbasetemp() / "run.cfg"
    path.write_text(body, encoding="utf-8")
    out = path.with_suffix(".csv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([mode, "--config", str(path), "--out", str(out)])
    assert code in ((1, 2) if "relaxation_sign_flip" in body else (0, 2))


# A quiet NaN with a nonzero payload: its bits differ from math.nan's.
NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
FLOAT_CELLS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
                     5e-324, -2.5e-310]))
CELLS = {"float64": FLOAT_CELLS,
         "int64": st.integers(-2 ** 63, 2 ** 63 - 1),
         "list": st.one_of(FLOAT_CELLS, st.sampled_from(["gaussian_full", "none"])),
         "tuple": st.one_of(FLOAT_CELLS, st.integers())}
BLOCK = cli.CSV_BLOCK


@st.composite
def csv_columns(draw):
    # Each column draws its cells from a small pool, so values repeat
    # within a block as the sweeps' columns do.
    rows = draw(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4))
    columns = {}
    for i, kind in enumerate(kinds):
        pool = draw(st.lists(CELLS[kind], min_size=1, max_size=12))
        picks = rng.integers(len(pool), size=rows).tolist()
        if kind in ("float64", "int64"):
            columns[f"c{i}"] = np.array(pool, dtype=kind)[picks]
        else:
            cells = [pool[k] for k in picks]
            columns[f"c{i}"] = cells if kind == "list" else tuple(cells)
    return columns


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(columns=csv_columns())
@example(columns={"x": np.resize([-0.0, 0.0, 1.5, -0.0], BLOCK + 1)})
@example(columns={"x": np.array([math.nan, NAN_PAYLOAD, -math.nan] * 3),
                  "n": np.arange(9), "b": ["none"] * 9})
def test_csv_blocks_match_per_cell_formatting(columns):
    # The reference formats each cell on its own; the blocks format each
    # distinct bit pattern once per block, which must not change a byte.
    plain = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    expected = "".join(
        ["# tool=holosim\n", ",".join(columns) + "\n"]
        + [",".join(map(str, row)) + "\n" for row in zip(*plain)])
    blocks = list(cli.SweepResult({"tool": "holosim"}, columns).csv_blocks())
    assert len(blocks) == 1 + math.ceil(len(plain[0]) / BLOCK)
    # Line by line: a diff of the whole texts would take pytest minutes.
    got, want = "".join(blocks).split("\n"), expected.split("\n")
    assert len(got) == len(want)
    wrong = [(i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not wrong, wrong[:3]
