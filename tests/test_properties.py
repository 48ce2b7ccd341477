"""Property tests over random inputs; skipped when hypothesis is missing."""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from holosim import (  # noqa: E402
    CoherentInput,
    FockCutoff,
    HolosimError,
    SqueezeParams,
    four_mode_input,
    uncertainty_env_approx,
    uncertainty_env_full,
)
from holosim import cli  # noqa: E402
from holosim._propagators import apply_exponential, beam_splitter_blocks  # noqa: E402
from holosim.errors import ConfigError  # noqa: E402
from holosim.estimator import _output_moments, _phase_table  # noqa: E402
from holosim.fock import _apply_ladder, build_twb, expectation  # noqa: E402
from holosim.gaussian import (  # noqa: E402
    WignerMonomial,
    as_ladder_sequence,
    evolve,
    from_squeezing,
    glauber_moment,
    isserlis_moment,
)
from test_estimator import cross_difference, mixed_derivative, tabulate  # noqa: E402

PHASE = st.floats(-math.pi, math.pi)
ANGLE = st.floats(-20.0, 20.0)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 0.5), mu=st.floats(0.0, 1.4), phi1=PHASE, phi2=PHASE)
def test_phase_table_is_exact_off_grid(r, mu, phi1, phi2):
    # Cutoff 8 holds r <= 0.5 (tail below 1e-6) and |mu|^2 <= 2.
    state = four_mode_input(SqueezeParams(r), CoherentInput(mu), FockCutoff(8))
    table = _phase_table(state, (2, 4))
    direct = _output_moments(state, phi1, phi2, (2, 4))
    tabulated = tabulate(table, np.array([phi1]), np.array([phi2]))
    for coeffs, exact, approx in zip(table, direct, tabulated):
        # Each basis function is bounded by 1, so sum |R| bounds the moment.
        scale = np.abs(coeffs).sum()
        assert abs(approx[0] - exact) <= 1e-12 * scale
    assert mixed_derivative(state) == pytest.approx(
        cross_difference(state), rel=1e-8, abs=1e-12 * np.abs(table[0]).sum())


# Every ordered monomial of degree <= 8: 495 of them.
MONOMIALS = [WignerMonomial(*p) for p in itertools.product(range(9), repeat=4)
             if sum(p) <= 8]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 1.0), mono=st.sampled_from(MONOMIALS),
       m_thermal=st.floats(0.0, 2.0), lambda_t=st.floats(0.0, 1.0))
def test_moment_routes_agree(r, mono, m_thermal, lambda_t):
    # The pair factorization against two routes that share none of its
    # kernel: the occupation-basis oracle and phase-space quadrature.
    def deviation(state, other):
        wick = isserlis_moment(state, mono)
        return abs(other - wick) / max(1.0, abs(wick))

    state = from_squeezing(SqueezeParams(r))
    oracle = expectation(build_twb(SqueezeParams(r), FockCutoff(64)),
                         as_ladder_sequence(mono))
    assert deviation(state, oracle) <= 1e-9
    assert deviation(state, glauber_moment(state, mono)) <= 1e-12
    evolved = evolve(state, m_thermal, lambda_t)
    assert deviation(evolved, glauber_moment(evolved, mono)) <= 1e-12


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


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 24), theta=ANGLE)
def test_complete_chain_blocks_are_unitary(dim, theta):
    blocks = beam_splitter_blocks(dim, theta)
    products = blocks @ blocks.conj().transpose(0, 2, 1)
    assert np.max(np.abs(products - np.eye(dim))) <= 1e-12


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
        rows = [(uncertainty_env_full(*p).ratio, uncertainty_env_approx(*p).ratio)
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
    assert getattr(config, "samples", 0) <= cli.MAX_SAMPLES
