"""Command-line interface: configs, sweeps, reports, and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import holosim
from holosim import _propagators, cli, estimator, fock, modccr
from holosim.errors import ConfigError
from holosim.modccr import _sum_ladder
from test_estimator import dropped_weight_reference
from test_modccr import _seed_builder


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# generated_at="))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = cli.main(["validate", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.count("status=PASS") == 10
    assert "status=FAIL" not in stdout
    assert "validate: 10/10 checks passed" in stdout
    assert out.read_text(encoding="utf-8") == stdout


def test_validate_fault_injection_is_detected(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        [validate]
        fault = relaxation_sign_flip
        """)
    code = cli.main(["validate", "--config", cfg])
    stdout = capsys.readouterr().out
    assert code == 1
    assert "status=FAIL" in stdout
    assert "check=evolution_semigroup status=FAIL" in stdout


def _generator_without_x_squared(r):
    """B = r((X'^2)/2 - 1), without its -X^2/2 term."""
    def act(psi):
        return r * (0.5 * _sum_ladder(_sum_ladder(psi, True), True) - psi)
    return act


def _coefficient_times(factor):
    """The eps^2 coefficient with its r^2 prefactor scaled by factor(r)."""
    def coefficient(r, cutoff):
        return factor(r) * modccr.deformed_variance_coefficient(r, cutoff)
    return coefficient


@pytest.mark.parametrize("module,name,replacement", [
    (modccr, "_correction_seed", _seed_builder(1.0, -1.0)),
    # X'X and X^2 annihilate the vacuum, so both seeds read -|0>.
    (modccr, "_correction_seed", _seed_builder(0.0, -1.0)),
    (cli, "perturbation_generator_action", _generator_without_x_squared),
    (cli, "deformed_variance_coefficient", _coefficient_times(lambda r: 1.0 / r)),
    # The correction's prefactor r^2 instead of r.
    (cli, "deformed_variance_coefficient", _coefficient_times(lambda r: r * r)),
], ids=["half-to-one", "annihilating-seed", "no-x-squared", "r-prefactor",
        "r-squared-prefactor"])
def test_validate_check_8_catches_a_faulty_correction(monkeypatch, capsys, module, name,
                                                      replacement):
    # Faults in the oracle's eps^2 coefficient or in B.  No other check reads
    # either, so the rest still pass.  A fault in the seed's q = 0 part moves
    # no shipped number; the Duhamel comparison in test_modccr catches it.
    monkeypatch.setattr(module, name, replacement)
    assert cli.main(["validate"]) == 1
    stdout = capsys.readouterr().out
    assert "check=variance_coefficient_vs_pair_response status=FAIL" in stdout
    assert stdout.count("status=PASS") == 9


def test_validate_runs_no_chain_eigensolve(monkeypatch):
    # Check 8 reads the oracle's coefficient off the seed and applies B by
    # ladder stencils, so validate builds no chain spectrum; its one
    # eigensolve is the 5-node Gauss rule's, built afresh here.
    builders = (_propagators._squeeze_chain, _propagators._squeeze_spectrum,
                _propagators._beam_splitter_chain)
    for cached in (*builders, _propagators.gauss_rule):
        cached.cache_clear()
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    assert cli.main(["validate"]) == 0
    assert sum(builder.cache_info().misses for builder in builders) == 0
    assert sizes == [5]


def test_validate_unknown_fault(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        [validate]
        fault = bogus_fault
        """)
    code = cli.main(["validate", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error:" in err
    assert "unknown fault" in err


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_env_coupling_sweep_csv_and_plot_script(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        # small smoke grid
        [sweep-env-coupling]
        r = 1.0
        m_values = 0.0, 1.0
        lambda_tau_grid = logspace(1e-5, 1e-3, 4)
        """)
    out = tmp_path / "coupling.csv"
    code = cli.main(["sweep-env-coupling", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert "np." not in text
    assert "# tool=holosim" in text
    assert "# version=0.1.0" in text
    assert "# mode=sweep-env-coupling" in text
    assert "# seed=1234" in text
    assert "# backend=gaussian_full+gaussian_approx" in text
    lines = data_lines(text)
    assert lines[0] == ("lambda_tau,M,ratio_full,ratio_approx,"
                        "full_over_approx,backend_full,backend_approx")
    rows = [line.split(",") for line in lines[1:] if line]
    assert len(rows) == 8
    for row in rows:
        assert row[5] == "gaussian_full" and row[6] == "gaussian_approx"
        assert 0.9 < float(row[4]) < 1.1
    script = (tmp_path / "coupling.gnuplot").read_text(encoding="utf-8")
    assert 'set datafile separator ","' in script
    assert "coupling.csv" in script
    assert "set logscale x" in script


def test_sweep_output_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, """\
        [sweep-env-coupling]
        m_values = 0.5
        lambda_tau_grid = logspace(1e-5, 1e-3, 3)
        """)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep-env-coupling", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["sweep-env-coupling", "--config", cfg, "--out", str(out2)]) == 0
    first = strip_timestamp(out1.read_text(encoding="utf-8"))
    second = strip_timestamp(out2.read_text(encoding="utf-8"))
    assert first == second


def test_modccr_sweep_marks_unsupported_oracle_points(tmp_path):
    def sweep(r_grid, epsilon_values, cutoff):
        cfg = write_config(tmp_path, f"""\
            [sweep-modccr]
            r_grid = {r_grid}
            epsilon_values = {epsilon_values}
            cutoff = {cutoff}
            """)
        out = tmp_path / "modccr.csv"
        assert cli.main(["sweep-modccr", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "np." not in text
        lines = data_lines(text)
        assert lines[0] == ("r,epsilon,ratio_analytic,ratio_fock,"
                           "relative_deviation,backend_analytic,backend_fock")
        return {(float(c[0]), float(c[1])): c
                for c in (line.split(",") for line in lines[1:] if line)}

    def assert_unsupported(row):
        assert row[3] == "nan" and row[4] == "nan"
        assert row[6] == "none"

    rows = sweep("0.4, 1.4", "0.05, 0.25", 48)
    assert len(rows) == 4
    supported = rows[(0.4, 0.05)]
    assert supported[6] == "fock_oracle"
    assert float(supported[4]) < 1e-6
    for key in ((0.4, 0.25), (1.4, 0.05), (1.4, 0.25)):
        assert_unsupported(rows[key])
    # The cutoff decides support: the twin-beam tail at r = 1.15 exceeds
    # 1e-10 at cutoff 48, while cutoff 96 holds r = 1.21.
    assert_unsupported(sweep("0.4, 1.15", "0.05", 48)[(1.15, 0.05)])
    held = sweep("0.4, 1.21", "0.05", 96)[(1.21, 0.05)]
    assert held[6] == "fock_oracle"
    assert float(held[4]) < 1e-6
    # At epsilon = 0 both ratios vanish, so the relative deviation is undefined.
    rows = sweep("0.4, 0.8", "0, 0.05", 48)
    for r in (0.4, 0.8):
        assert rows[(r, 0.0)][6] == "fock_oracle" and rows[(r, 0.0)][4] == "nan"
    # At r = 1e-10 the analytic ratio is a finite 4|eps|, but the oracle's
    # quadrature correlator 2e-10 lies below its 1e-8 floor.
    tiny = sweep("1e-10, 0.5", "0.1", 48)[(1e-10, 0.1)]
    assert float(tiny[2]) == pytest.approx(0.4, rel=1e-12, abs=0)
    assert_unsupported(tiny)


def test_squeezing_sweep_monotone_diagnostic(tmp_path):
    cfg = write_config(tmp_path, """\
        [sweep-env-squeezing]
        m_values = 0.0, 1.0
        r_grid = linspace(0.5, 1.5, 5)
        """)
    out = tmp_path / "squeezing.csv"
    assert cli.main(["sweep-env-squeezing", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "np." not in text
    lines = data_lines(text)
    assert lines[0] == ("r,M,ratio_full,ratio_approx,"
                       "monotone_decreasing,backend_full,backend_approx")
    rows = [line.split(",") for line in lines[1:] if line]
    assert len(rows) == 10
    assert all(row[4] == "1" for row in rows)


@pytest.mark.parametrize("r_grid,m_values", [
    ("1.0, 0.6, 2.0, 0.4, 0.7, 1.5", "0.0, 1.0"),
    ("0.5, 1.0, 0.8", "0.5, 0.5"),
    ("0.9, 0.6, 1.2", "0.0, 0.5, 0.0"),
], ids=["unsorted-grid", "repeated-m", "repeated-m-apart"])
def test_squeezing_monotone_flags_follow_the_row_rule(tmp_path, r_grid, m_values):
    cfg = write_config(tmp_path, f"""\
        [sweep-env-squeezing]
        m_values = {m_values}
        r_grid = {r_grid}
        """)
    out = tmp_path / "squeezing.csv"
    assert cli.main(["sweep-env-squeezing", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in data_lines(out.read_text(encoding="utf-8"))[1:]]
    previous, expected = {}, []
    for r, m, full in ((float(row[0]), float(row[1]), float(row[2])) for row in rows):
        drop = r >= 0.5 and m in previous and not full < previous[m]
        expected.append(0 if drop else 1)
        previous[m] = full
    flags = [int(row[4]) for row in rows]
    assert flags == expected
    assert set(flags) == {0, 1}


def test_phase_mc_single_row(tmp_path):
    cfg = write_config(tmp_path, """\
        [phase-mc]
        r = 0.3
        mu = 0.5
        samples = 2000
        cutoff = 8
        """)
    out = tmp_path / "mc.csv"
    assert cli.main(["phase-mc", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "np." not in text
    lines = data_lines(text)
    header = lines[0].split(",")
    assert header == ["samples", "e_par", "se_par", "e_perp", "se_perp",
                      "denominator", "covariance_recovered", "covariance_se",
                      "covariance_injected", "delta_e", "delta_e_cl", "ratio"]
    rows = [line for line in lines[1:] if line]
    assert len(rows) == 1
    values = rows[0].split(",")
    assert values[0] == "2000"
    named = dict(zip(header, values))
    assert float(named["covariance_injected"]) == 5e-05
    recovered = float(named["covariance_recovered"])
    band = 6.0 * float(named["covariance_se"])
    assert abs(recovered - 5e-05) <= band
    assert float(named["ratio"]) == pytest.approx(
        float(named["delta_e"]) / float(named["delta_e_cl"]), rel=1e-12)
    assert not (tmp_path / "mc.gnuplot").exists()
    receipts = dict(line[2:].split("=", 1) for line in text.splitlines()
                    if line.startswith(("# table_residual_p", "# discarded_tail=")))
    assert sorted(receipts) == ["discarded_tail", "table_residual_p2",
                                "table_residual_p4"]
    assert all(math.isfinite(float(v)) for v in receipts.values())
    assert 0.0 < float(receipts["discarded_tail"]) < 1e-6


def test_phase_mc_closed_form_receipts(tmp_path):
    cfg = write_config(tmp_path, """\
        [phase-mc]
        r = 0.3
        mu = 0.5
        samples = 2000
        cutoff = 8
        """)
    out = tmp_path / "mc.csv"
    assert cli.main(["phase-mc", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    receipts = dict(line[2:].split("=", 1) for line in text.splitlines()
                    if line.startswith(("# e_p", "# z_p")))
    assert sorted(receipts) == ["e_par_exact", "e_perp_exact", "z_par", "z_perp"]
    header, row = data_lines(text)[:2]
    named = dict(zip(header.split(","), row.split(",")))
    for config in ("par", "perp"):
        z = (float(named[f"e_{config}"]) - float(receipts[f"e_{config}_exact"])
             ) / float(named[f"se_{config}"])
        assert float(receipts[f"z_{config}"]) == pytest.approx(z, rel=1e-9)
        assert abs(z) <= 4.0


def test_phase_mc_receipts_are_nan_without_noise(tmp_path):
    # At zero noise the direct moment and |mean - exact| are rounding around
    # 0, which a relative residual or a z-score would blow up to ~1e15.
    cfg = write_config(tmp_path, """\
        [phase-mc]
        r = 0.3
        mu = 0.5
        samples = 2000
        cutoff = 8
        sigma1 = 0
        sigma2 = 0
        """)
    out = tmp_path / "mc.csv"
    assert cli.main(["phase-mc", "--config", cfg, "--out", str(out)]) == 0
    receipts = dict(line[2:].split("=", 1)
                    for line in out.read_text(encoding="utf-8").splitlines()
                    if line.startswith(("# table_residual_p", "# z_p")))
    assert receipts == {"table_residual_p2": "nan", "table_residual_p4": "nan",
                        "z_par": "nan", "z_perp": "nan"}


def _linearization_run(tmp_path, capsys, body):
    """phase-mc's header receipts, its data row and its stderr."""
    out = tmp_path / "mc.csv"
    assert cli.main(["phase-mc", "--config", write_config(tmp_path, body),
                     "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    meta = dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))
    header, row = data_lines(text)[:2]
    row = dict(zip(header.split(","), map(float, row.split(","))))
    return meta, row, capsys.readouterr().err


@pytest.mark.parametrize("body,warns", [
    ("[phase-mc]\n", False),
    ("[phase-mc]\nr = 4\nsigma1 = 0.05\nsigma2 = 0.05\nsamples = 20000\n", True),
    ("[phase-mc]\nsigma1 = 0\nsigma2 = 0\n", False),
    ("[phase-mc]\nrho = 0\nsamples = 2000\n", False),
], ids=["defaults", "r-4-sigma-0.05", "no-noise", "no-correlation"])
def test_phase_mc_reports_its_linearization_bias(tmp_path, capsys, body, warns):
    meta, row, err = _linearization_run(tmp_path, capsys, body)
    r, s1, s2 = (float(meta[key]) for key in ("r", "sigma1", "sigma2"))
    assert float(meta["kappa_phase"]) == pytest.approx(s1 * s2 * math.exp(2 * r), rel=1e-14)
    bias = float(meta["linearization_bias"])
    injected = row["covariance_injected"]
    if injected == 0.0:
        assert math.isnan(bias)
    else:
        gap = float(meta["e_par_exact"]) - float(meta["e_perp_exact"])
        assert bias == pytest.approx(gap / (row["denominator"] * injected) - 1.0,
                                     rel=1e-12, abs=1e-12)
    if not warns:
        assert err == ""
        return
    noise = row["covariance_se"] / abs(injected)
    assert abs(bias) > noise
    named = re.fullmatch(r"warning: linearization_bias (\S+) exceeds covariance_se/"
                         r"\|covariance_injected\| (\S+): .*\n", err)
    assert named and float(named[1]) == bias
    assert float(named[2]) == pytest.approx(noise, rel=1e-15)


def test_phase_mc_linearization_bias_at_r_10(tmp_path, capsys):
    # The small-noise estimate reads 0.244 against the injected 5e-5 here.
    meta, row, err = _linearization_run(tmp_path, capsys, "[phase-mc]\nr = 10\n")
    assert float(meta["linearization_bias"]) == pytest.approx(4.74e3, rel=1e-3)
    assert row["covariance_se"] / row["covariance_injected"] == pytest.approx(97.9, rel=1e-3)
    assert row["covariance_recovered"] == pytest.approx(0.244, rel=1e-2)
    assert err.startswith("warning: ")


def test_phase_mc_receipt_is_nan_where_its_cutoff_cannot_hold_the_input(tmp_path):
    # At r = 0.9 the receipt would drop 2.9e-5 of its input at cutoff 16,
    # above its 1e-6; the table needs no cutoff, so the run goes on without
    # the occupation-basis receipt.
    cfg = write_config(tmp_path, """\
        [phase-mc]
        r = 0.9
        samples = 2000
        """)
    out = tmp_path / "mc.csv"
    assert cli.main(["phase-mc", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    meta = dict(line[2:].split("=", 1) for line in text.splitlines()
                if line.startswith("# "))
    assert meta["backend"] == "gaussian"
    assert float(meta["discarded_tail"]) == pytest.approx(2.867105668291187e-05, rel=1e-12)
    assert float(meta["discarded_tail"]) == pytest.approx(
        dropped_weight_reference(0.9, 0.8, 16), rel=1e-12)
    assert (meta["table_residual_p2"], meta["table_residual_p4"]) == ("nan", "nan")
    header, row = data_lines(text)[:2]
    named = dict(zip(header.split(","), row.split(",")))
    closed = -(0.8 ** 2) * math.sinh(1.8) / 2.0
    assert float(named["denominator"]) == pytest.approx(closed, rel=1e-12, abs=0)
    # A cutoff that holds the input brings the receipt back.
    assert cli.main(["phase-mc", "--config", cfg, "--out", str(out),
                     "--cutoff", "24"]) == 0
    text = out.read_text(encoding="utf-8")
    assert "# backend=gaussian+fock_oracle" in text
    assert "# table_residual_p2=nan" not in text


def test_phase_mc_receipt_is_nan_where_the_coherent_port_exceeds_its_cutoff(tmp_path):
    # At |mu|^2 = 9 a port's Poisson weight above 16 is 1.1%, and the receipt
    # would drop 3.4e-2 of its input at cutoff 16 but 8.1e-11 at cutoff 36;
    # the table needs no cutoff, so only the receipt differs between the two.
    cfg = write_config(tmp_path, """\
        [phase-mc]
        r = 0.6
        mu = 3
        samples = 5000
        """)
    texts = {}
    for cutoff in ("16", "36"):
        out = tmp_path / f"mc{cutoff}.csv"
        assert cli.main(["phase-mc", "--config", cfg, "--out", str(out),
                         "--cutoff", cutoff]) == 0
        texts[cutoff] = out.read_text(encoding="utf-8")
    meta = dict(line[2:].split("=", 1) for line in texts["16"].splitlines()
                if line.startswith("# "))
    assert meta["backend"] == "gaussian"
    assert float(meta["discarded_tail"]) == pytest.approx(0.03387331035224255, rel=1e-12)
    assert float(meta["discarded_tail"]) == pytest.approx(
        dropped_weight_reference(0.6, 3.0, 16), rel=1e-12)
    assert (meta["table_residual_p2"], meta["table_residual_p4"]) == ("nan", "nan")
    assert "# backend=gaussian+fock_oracle" in texts["36"]
    assert data_lines(texts["16"]) == data_lines(texts["36"])


SEVERAL_BLOCKS = """\
    [sweep-env-coupling]
    lambda_tau_grid = logspace(1e-6, 1e-2, 1000)
    """


def test_stdout_survives_a_reader_that_closes_early(tmp_path):
    # 4,000 rows, about 0.5 MB: far more than a pipe buffers.
    cfg = write_config(tmp_path, SEVERAL_BLOCKS)
    src = os.path.dirname(os.path.dirname(holosim.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "holosim.cli", "sweep-env-coupling", "--config", cfg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    head = proc.stdout.read(100)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert head.startswith(b"# tool=holosim")
    assert "Traceback" not in stderr


def test_out_file_and_stdout_agree(tmp_path, capsys):
    cfg = write_config(tmp_path, SEVERAL_BLOCKS)
    out = tmp_path / "coupling.csv"
    assert cli.main(["sweep-env-coupling", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["sweep-env-coupling", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    written = out.read_text(encoding="utf-8")
    rows = len(data_lines(written)) - 1  # below the column names
    assert rows == 4000 > 3 * cli.CSV_BLOCK
    assert stdout.endswith("\n") and written.endswith("\n")
    assert strip_timestamp(stdout) == strip_timestamp(written)
    # An unwritable path exits 2 and leaves no file, partial or whole.
    for bad in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main(["sweep-env-coupling", "--config", cfg, "--out", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
    assert not os.path.exists(f"{tmp_path}.gnuplot")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "coupling.csv", "coupling.gnuplot", "run.cfg"]


def test_stdout_mode_and_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        [sweep-env-coupling]
        m_values = 0.0
        lambda_tau_grid = 1e-4, 1e-3
        """)
    code = cli.main(["sweep-env-coupling", "--config", cfg, "--seed", "777"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "# seed=777" in stdout
    assert "lambda_tau,M,ratio_full" in stdout
    assert len(data_lines(stdout)) == 3  # header + 2 rows


def header_lines(text):
    return [line for line in text.splitlines()
            if line.startswith("# ") and not line.startswith("# generated_at=")]


def test_metadata_echo_is_pinned(tmp_path):
    # A grid echoes as grid[a;b], a list as a;b, a scalar as str(v); keys
    # are sorted after tool, version and mode, and out is never echoed.
    cfg = write_config(tmp_path, """\
        [sweep-modccr]
        r_grid = linspace(0.4, 0.8, 3)
        epsilon_values = 0.05, 0.1
        cutoff = 32

        [phase-mc]
        r = 0.3
        mu = 0.5
        samples = 2000
        cutoff = 8
        """)
    out = tmp_path / "modccr.csv"
    assert cli.main(["sweep-modccr", "--config", cfg, "--out", str(out)]) == 0
    assert header_lines(out.read_text(encoding="utf-8")) == [
        "# tool=holosim", "# version=0.1.0", "# mode=sweep-modccr",
        "# cutoff=32", "# epsilon_values=0.05;0.1",
        "# r_grid=grid[0.4;0.6000000000000001;0.8]", "# seed=1234",
        "# backend=analytic_modccr+fock_oracle"]
    out = tmp_path / "mc.csv"
    assert cli.main(["phase-mc", "--config", cfg, "--out", str(out),
                     "--seed", "7"]) == 0
    header = header_lines(out.read_text(encoding="utf-8"))
    assert header[:12] == [
        "# tool=holosim", "# version=0.1.0", "# mode=phase-mc", "# cutoff=8",
        "# mu=0.5", "# r=0.3", "# rho=0.5", "# samples=2000", "# seed=7",
        "# sigma1=0.01", "# sigma2=0.01", "# backend=gaussian+fock_oracle"]
    # The receipts after the echo are computed values, checked elsewhere.
    assert [line[2:].split("=")[0] for line in header[12:]] == [
        "discarded_tail", "table_residual_p2", "table_residual_p4",
        "e_par_exact", "e_perp_exact", "kappa_phase", "linearization_bias",
        "z_par", "z_perp"]


# ---------------------------------------------------------------------------
# config errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("body,fragment", [
    ("[sweep-env-coupling]\nbogus_key = 1\n",
     "line 2: unknown key 'bogus_key' for [sweep-env-coupling]"),
    ("[no-such-mode]\nr = 1\n", "line 1: unknown section [no-such-mode]"),
    ("r = 1\n", "line 1: key outside any [section]"),
    ("[sweep-env-coupling]\nr = abc\n", "line 2: cannot parse 'abc' as float"),
    ("[sweep-env-coupling]\nlambda_tau_grid = linspace(1e-5, 1e-3, 1)\n",
     "line 2: grid needs at least 2 points"),
    ("[sweep-env-coupling]\nlambda_tau_grid = logspace(0, 1e-3, 4)\n",
     "line 2: logspace grids need start > 0"),
    ("[sweep-env-coupling]\nlambda_tau_grid = linspace(1e-3, 1e-3, 4)\n",
     "line 2: grid needs stop > start, got [0.001, 0.001]"),
    ("[sweep-env-coupling]\nlambda_tau_grid = linspace(1e-6, 1e-3, 1000000000000000)\n",
     "line 2: grid allows at most 100000 points, got 1000000000000000"),
    ("[sweep-env-coupling]\nr = nan\n", "line 2: value 'nan' is not finite"),
    ("[sweep-env-coupling]\nm_values = 0.0, inf\n",
     "line 2: value 'inf' is not finite"),
    ("[sweep-env-coupling]\nlambda_tau_grid = 1e-4, nan\n",
     "line 2: value 'nan' is not finite"),
    ("[sweep-env-coupling]\nlambda_tau_grid = linspace(1e-5, inf, 3)\n",
     "line 2: value 'inf' is not finite"),
    ("[sweep-env-coupling]\nseed = -1\n", "seed must be non-negative, got -1"),
    ("[sweep-env-coupling]\nmu = 1\n",
     "line 2: unknown key 'mu' for [sweep-env-coupling]"),
    ("[sweep-env-coupling]\ncutoff = 3\n",
     "line 2: unknown key 'cutoff' for [sweep-env-coupling]"),
    # validate's checks fix their own cutoffs.
    ("[validate]\ncutoff = 60\n",
     "line 2: unknown key 'cutoff' for [validate] (expected one of fault, seed, out)"),
])
def test_config_errors(tmp_path, capsys, body, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(body, encoding="utf-8")
    # Each case runs the mode its first section names, else sweep-env-coupling.
    mode = next((m for m in cli.MODES if body.startswith(f"[{m}]")), "sweep-env-coupling")
    code = cli.main([mode, "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert fragment in err


def test_phase_mc_has_no_step_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "[phase-mc]\nh = 1e-3\n")
    assert cli.main(["phase-mc", "--config", cfg]) == 2
    assert "line 2: unknown key 'h' for [phase-mc]" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["sweep-env-coupling", "sweep-env-squeezing", "validate"])
def test_cutoff_flag_only_for_modes_that_read_it(mode, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([mode, "--cutoff", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cutoff 3" in capsys.readouterr().err


MODE_CHOICES = ("'sweep-env-coupling', 'sweep-env-squeezing', 'sweep-modccr', "
                "'validate', 'phase-mc'")


# Each usage error's message, as argparse (one subparser per mode) wrote it.
@pytest.mark.parametrize("argv,message", [
    ([], "holosim: error: the following arguments are required: mode"),
    (["bogus"], f"holosim: error: argument mode: invalid choice: 'bogus' "
                f"(choose from {MODE_CHOICES})"),
    (["validate", "--seed", "x"],
     "holosim validate: error: argument --seed: invalid int value: 'x'"),
    (["validate", "--seed=x"],
     "holosim validate: error: argument --seed: invalid int value: 'x'"),
    (["sweep-modccr", "--cutoff", "1.5"],
     "holosim sweep-modccr: error: argument --cutoff: invalid int value: '1.5'"),
    (["validate", "--seed", "-1.5"],
     "holosim validate: error: argument --seed: invalid int value: '-1.5'"),
    (["validate", "--config"],
     "holosim validate: error: argument --config: expected one argument"),
    (["validate", "--out", "-x"],
     "holosim validate: error: argument --out: expected one argument"),
    (["validate", "--seed", "-x"],
     "holosim validate: error: argument --seed: expected one argument"),
    (["validate", "--seed", "-1e3"],
     "holosim validate: error: argument --seed: expected one argument"),
    (["sweep-modccr", "--c", "3"],
     "holosim sweep-modccr: error: ambiguous option: --c could match --config, --cutoff"),
    (["sweep-modccr", "--c=3"],
     "holosim sweep-modccr: error: ambiguous option: --c=3 could match --config, --cutoff"),
    (["sweep-modccr", "--seed", "x", "--c", "3"],
     "holosim sweep-modccr: error: ambiguous option: --c could match --config, --cutoff"),
    (["sweep-env-coupling", "--cutoff", "3"],
     "holosim: error: unrecognized arguments: --cutoff 3"),
    (["sweep-env-coupling", "--cutoff=3"],
     "holosim: error: unrecognized arguments: --cutoff=3"),
    (["validate", "extra"], "holosim: error: unrecognized arguments: extra"),
    (["validate", "extra", "--bogus", "x", "--seed", "2"],
     "holosim: error: unrecognized arguments: extra --bogus x"),
    (["--bogus", "validate"], "holosim: error: unrecognized arguments: --bogus"),
    (["validate", "-hx"],
     "holosim validate: error: argument -h/--help: ignored explicit argument 'x'"),
    (["validate", "--seed", "x", "-h"],
     "holosim validate: error: argument --seed: invalid int value: 'x'"),
    (["-h"], None), (["--help"], None), (["--he"], None), (["-h", "bogus"], None),
    (["validate", "-h"], None), (["sweep-modccr", "--bogus", "--help"], None),
    (["phase-mc", "-h", "--seed", "x"], None), (["sweep-env-coupling", "-h"], None),
])
def test_command_line_contract(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    if message is not None:
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: holosim") and err.splitlines()[-1] == message
        return
    assert (exc.value.code, err) == (0, "")
    mode = next((arg for arg in argv if arg in cli.MODES), None)
    usage = " ".join(out[:out.index("\n\n")].split())
    if mode is None:
        assert usage == "usage: holosim [-h] {" + ",".join(cli.MODES) + "} ..."
        assert out.endswith(f"\nmodes: {', '.join(cli.MODES)}\n")
    else:
        flags = ["--config CONFIG", "--out OUT", "--seed SEED", "--cutoff CUTOFF"]
        flags = flags[:3 + ("cutoff" in cli._DEFAULTS[mode])]
        assert usage == f"usage: holosim {mode} [-h] " + " ".join(f"[{f}]" for f in flags)
        assert [" ".join(line.split()[:2]) for line in out.splitlines()[2:]] == flags


@pytest.mark.parametrize("argv,flags", [
    (["phase-mc", "--seed", "-3"], {"seed": -3}),
    (["phase-mc", "--seed=-3"], {"seed": -3}),
    (["validate", "--out", "-3"], {"out": "-3"}),
    (["validate", "--out="], {"out": ""}),
    (["sweep-modccr", "--se", "3", "--o", "f", "--con", "c", "--cu", "9"],
     {"seed": 3, "out": "f", "config": "c", "cutoff": 9}),
    (["sweep-env-coupling", "--c", "c"], {"config": "c"}),
    (["sweep-modccr", "--seed", "1", "--seed", "3", "--cutoff=5"], {"seed": 3, "cutoff": 5}),
])
def test_command_line_values(argv, flags):
    assert cli.parse_args(argv) == (argv[0], flags)


def test_negative_seed_reaches_the_config_check(capsys):
    assert cli.main(["phase-mc", "--seed", "-3"]) == 2
    assert capsys.readouterr().err == "config error: seed must be non-negative, got -3\n"


@pytest.mark.parametrize("flags", [["--seed=3"], ["--se", "3"], ["--seed", "1", "--seed", "3"]],
                         ids=["inline", "prefix", "repeat"])
def test_flag_forms_write_the_same_csv(tmp_path, flags):
    outputs = []
    for i, form in enumerate((["--seed", "3"], flags)):
        out = tmp_path / f"run{i}.csv"
        assert cli.main(["sweep-env-coupling", *form, "--out", str(out)]) == 0
        outputs.append(strip_timestamp(out.read_text(encoding="utf-8")))
    assert "# seed=3" in outputs[0]
    assert outputs[1] == outputs[0]


def test_config_with_a_byte_order_mark_parses(tmp_path):
    # Some editors save UTF-8 with a leading BOM; it is not part of line 1.
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf[phase-mc]\nsamples = 2000\n")
    assert cli.parse_config_file(str(path), "phase-mc") == {"samples": 2000}


@pytest.mark.parametrize("body,fragment", [
    (b"\xef\xbb\xbf\xef\xbb\xbf[phase-mc]\n",
     "line 1: expected key = value, got '\\ufeff[phase-mc]'"),
    (b"[phase-mc]\n\xef\xbb\xbfsamples = 2000\n", "line 2: unknown key '\\ufeffsamples'"),
    (b"\xef\xbb\xbf[phase-mc]\nsamples = 2000\xef\xbb\xbf\n",
     "line 2: cannot parse '2000\\ufeff' as int"),
], ids=["second", "line-2", "line-end"])
def test_config_keeps_a_byte_order_mark_past_the_first(tmp_path, body, fragment):
    # Only one leading mark is dropped; any other stays in its line.
    path = tmp_path / "bom.cfg"
    path.write_bytes(body)
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        cli.parse_config_file(str(path), "phase-mc")


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["validate", "--config", str(tmp_path / "absent.cfg")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read config file" in err


def test_validate_checks_out_path_before_running(tmp_path, monkeypatch, capsys):
    def reached(config):
        raise AssertionError("the checks ran before the --out path was tried")

    monkeypatch.setattr(cli, "run_validate", reached)
    out = tmp_path / "missing" / "v.txt"
    assert cli.main(["validate", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["sweep-env-coupling", "sweep-env-squeezing",
                                  "sweep-modccr"])
def test_sweep_rejects_an_out_path_that_its_gnuplot_script_would_overwrite(
        tmp_path, monkeypatch, capsys, mode):
    def reached(config):
        raise AssertionError("the sweep ran before its --out path was checked")

    monkeypatch.setitem(cli._RUNNERS, mode, reached)
    out = tmp_path / "a.gnuplot"
    assert cli.main([mode, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "a.gnuplot" in err
    assert not out.exists()


def test_phase_mc_rejects_a_degenerate_denominator_before_any_draw(
        tmp_path, monkeypatch, capsys):
    def drawn(*args):
        raise AssertionError("the Monte Carlo drew samples")

    monkeypatch.setattr(estimator, "_chunk_partials", drawn)
    cfg = write_config(tmp_path, """\
        [phase-mc]
        r = 0
        samples = 10000000
        """)
    assert cli.main(["phase-mc", "--config", cfg]) == 2
    # The table reads the denominator -mu^2 sinh(2r)/2 as 0 to rounding.
    assert re.fullmatch(r"error: mixed-derivative denominator -?\d\.\d{3}e[-+]\d+ "
                        r"below floor 1e-08\n", capsys.readouterr().err)


@pytest.mark.parametrize("mode", ["sweep-env-coupling", "sweep-env-squeezing",
                                  "sweep-modccr", "validate"])
def test_mode_at_its_defaults_leaves_numpy_ma_unloaded(tmp_path, mode):
    # numpy.ma costs about 15 ms to import, more than the whole oracle
    # column; a flagless np.unique or a numpy string array loads it.
    src = os.path.dirname(os.path.dirname(holosim.__file__))
    probe = textwrap.dedent("""\
        import sys
        from holosim import cli
        before = "numpy.ma" in sys.modules
        code = cli.main([sys.argv[1], "--out", sys.argv[2]])
        print(before, code, "numpy.ma" in sys.modules)
        """)
    done = subprocess.run([sys.executable, "-c", probe, mode, str(tmp_path / "out.txt")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    before, code, after = done.stdout.split()[-3:]
    if before == "True":
        pytest.skip("import holosim.cli alone loads numpy.ma here")
    assert (code, after) == ("0", "False")


def test_import_loads_neither_scipy_nor_thread_pools():
    src = os.path.dirname(os.path.dirname(holosim.__file__))
    probe = ("import sys, holosim.cli; print([m for m in "
             "('scipy', 'concurrent.futures') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


SMALL_RUNS = """\
    [sweep-env-coupling]
    m_values = 0, 1
    lambda_tau_grid = logspace(1e-5, 1e-3, 3)
    [sweep-env-squeezing]
    m_values = 0, 1
    r_grid = linspace(0.5, 1.5, 3)
    [sweep-modccr]
    r_grid = 0.3, 0.6
    epsilon_values = 0.01, 0.05
    [phase-mc]
    samples = 5000
    """


def test_no_mode_imports_numpy_polynomial(tmp_path):
    # The quadrature rule is built in-house (_propagators.gauss_rule), so
    # no mode pays for numpy.polynomial's import; tests keep it as a reference.
    src = os.path.dirname(os.path.dirname(holosim.__file__))
    probe = textwrap.dedent("""\
        import sys
        from holosim import cli
        config, out_dir = sys.argv[1:3]
        seen = []
        for mode in sys.argv[3:]:
            code = cli.main([mode, "--config", config, "--out", f"{out_dir}/{mode}.out"])
            seen.append(f"{mode} {code} {'numpy.polynomial' in sys.modules}")
        print(seen)
        """)
    modes = ["sweep-env-coupling", "sweep-env-squeezing", "sweep-modccr", "phase-mc",
             "validate"]
    done = subprocess.run(
        [sys.executable, "-c", probe, write_config(tmp_path, SMALL_RUNS), str(tmp_path),
         *modes], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == repr([f"{m} 0 False" for m in modes])


START_UP_MODULES = ("argparse", "gettext", "locale", "encodings.utf_8_sig")


@pytest.mark.parametrize("mode", cli.MODES)
def test_mode_loads_no_parser_locale_or_bom_codec(tmp_path, mode):
    # argparse (with gettext) costs about 3 ms to import and its first
    # message another 2 ms for locale; the utf-8-sig codec about 0.7 ms.
    # Only a module that the interpreter and numpy already load is excused.
    # The config starts with a byte-order mark, so its removal is covered.
    src = os.path.dirname(os.path.dirname(holosim.__file__))
    probe = textwrap.dedent("""\
        import sys
        import numpy
        names = sys.argv[4:]
        before = [m for m in names if m in sys.modules]
        from holosim import cli
        code = cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
        print(code)
        print(*before)
        print(*[m for m in names if m in sys.modules and m not in before])
        """)
    cfg = tmp_path / "small.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + textwrap.dedent(SMALL_RUNS).encode())
    done = subprocess.run(
        [sys.executable, "-c", probe, mode, str(cfg), str(tmp_path / "out.txt"),
         *START_UP_MODULES], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    code, before, loaded = done.stdout.splitlines()[-3:]
    assert code == "0"
    if len(before.split()) == len(START_UP_MODULES):
        pytest.skip("numpy's import alone loads all of them here")
    assert loaded == ""


# sweep-modccr at its defaults and on the benchmark's grid.
MODCCR_GRIDS = pytest.mark.parametrize("config", [
    "",
    """\
    [sweep-modccr]
    epsilon_values = 0.005, 0.01, 0.05, 0.1
    r_grid = linspace(0.05, 3.0, 120)
    cutoff = 64
    """,
], ids=["defaults", "bench-grid"])


@MODCCR_GRIDS
def test_sweep_modccr_builds_no_chain(tmp_path, monkeypatch, config):
    # The oracle reads its eps^2 coefficient off the correction's seed, so
    # the sweep neither propagates a squeeze chain nor runs an eigensolve.
    builders = (_propagators._squeeze_chain, _propagators._squeeze_spectrum,
                _propagators._beam_splitter_chain)
    for cached in builders:
        cached.cache_clear()
    columns = []  # the oracle's evaluations; it caches nothing
    monkeypatch.setattr(cli, "modccr_oracle_column",
                        lambda *args: columns.append(args) or estimator.modccr_oracle_column(*args))
    args = ["--config", write_config(tmp_path, config)] if config else []
    assert cli.main(["sweep-modccr", *args, "--out", str(tmp_path / "modccr.csv")]) == 0
    assert len(columns) > 0
    assert sum(builder.cache_info().misses for builder in builders) == 0


@MODCCR_GRIDS
def test_sweep_modccr_builds_no_dense_twin_beam(tmp_path, monkeypatch, config):
    # The oracle reads the twin beam's pair amplitudes, so it neither builds
    # the dense (d, d) state nor evaluates a ladder monomial on one.
    def dense(*args, **kwargs):
        raise AssertionError("the sweep reached the dense twin-beam route")

    for module in (fock, estimator, modccr, cli):
        for name in ("build_twb", "expectation"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, dense)
    args = ["--config", write_config(tmp_path, config)] if config else []
    assert cli.main(["sweep-modccr", *args, "--out", str(tmp_path / "modccr.csv")]) == 0


def test_sweep_modccr_at_the_cutoff_bound_stays_below_one_dense_twin_beam(tmp_path):
    # One dense twin beam at cutoff 400 is 401**2 complex amplitudes.
    dense_bytes = 401 ** 2 * 16
    tracemalloc.start()
    try:
        assert cli.main(["sweep-modccr", "--cutoff", str(cli.MAX_CUTOFF["sweep-modccr"]),
                         "--out", str(tmp_path / "modccr.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


@pytest.mark.parametrize("mode", ["sweep-env-coupling", "sweep-env-squeezing",
                                  "sweep-modccr", "phase-mc", "validate"])
def test_every_mode_runs_under_the_benchmark_tracer(tmp_path, mode):
    # The tracer's probes read arguments by name and position (a state's
    # amplitudes, a cutoff's n_max), so a signature they no longer fit
    # kills the traced benchmark run while untraced runs still pass.
    src = os.path.dirname(os.path.dirname(holosim.__file__))
    child = os.path.join(os.path.dirname(src), "bench", "child.py")
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, child, "--report", str(report), "--trace", "--", mode,
         "--config", write_config(tmp_path, SMALL_RUNS), "--seed", "3",
         "--out", str(tmp_path / "out.txt")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert {"compute_s", "trace"} <= set(json.loads(report.read_text(encoding="utf-8")))


@pytest.mark.parametrize("mode,config,flags,named", [
    ("phase-mc", None, ["--seed", "-1"], None),
    ("sweep-env-squeezing", "[sweep-env-squeezing]\nr_grid = 0.5, 400\n", [],
     None),
    ("sweep-env-coupling", None, ["--out", "missing/dir/x.csv"],
     "missing/dir/x.csv"),
    ("validate", None, ["--out", "missing/dir/v.txt"], "missing/dir/v.txt"),
    ("validate", b"[validate]\nfault = \xff\n", [], "run.cfg"),
    ("phase-mc", None, ["--cutoff", "1000000"], "cutoff must be <= 40"),
    ("phase-mc", "[phase-mc]\nsamples = 1000000000000000\n", [],
     "samples must be <= 100000000"),
    # Rejected while parsing, before the cutoff-40 receipt is built.
    ("phase-mc", "[phase-mc]\nsamples = 10\ncutoff = 40\n", [],
     "config error: samples must be >= 1000, got 10"),
    ("sweep-modccr", "[sweep-modccr]\nr_grid = 0, 0.5\n", [], "vanishes at r = 0"),
    # Cutoff 1 holds the twin beam at these r but not the seed's |2,0> and
    # |0,2>, which the oracle's coefficient reads, so no column may be written.
    ("sweep-modccr", "[sweep-modccr]\nr_grid = 0.001, 0.002\nepsilon_values = 0.05\ncutoff = 1\n",
     [], "error: the eps^2 coefficient needs n_max >= 2, got 1"),
    # The phase table needs no cutoff, so the amplitude's own bound guards it.
    ("phase-mc", "[phase-mc]\nmu = 1001\n", [], "|mu| must be <= 1000"),
    ("phase-mc", "[phase-mc]\nmu = 1e300\n", [], "|mu| must be <= 1000"),
    # 2M + 1 overflows, and the approx ratio reads 0 * inf = nan.
    ("sweep-env-squeezing", "[sweep-env-squeezing]\nlambda_tau = 0\nm_values = 1e308\n",
     [], "ratio must be >= 0, got nan"),
    # From 1e154 on, (k sigma)^2 and sigma * z overflow float64.
    *(("phase-mc", f"[phase-mc]\nsigma1 = {width}\nsigma2 = {width}\n", [],
       "noise widths must be finite and at most 1e+150") for width in ("1e154", "1e200", "1e308")),
    # Past r = 43.5 the Monte Carlo's sums of squared moments overflow float64.
    *(("phase-mc", f"[phase-mc]\nr = {r}\n", [], "phase-mc needs r <= 43.0")
      for r in ("100", "200", "349")),
    # At mu = 0.8 the table's mixed derivative, -mu^2 sinh(2r)/2, sinks below
    # the table's rounding level 1e-12 sum |R| near r = 14; at r = 43 its sign is wrong.
    *(("phase-mc", f"[phase-mc]\nr = {r}\n", [], "(the table's rounding level)")
      for r in ("16", "43")),
], ids=["negative-seed", "overflowing-squeeze", "sweep-out-missing-dir",
        "validate-out-missing-dir", "config-not-utf8", "oversized-cutoff",
        "oversized-samples", "undersized-samples", "modccr-r-zero", "modccr-cutoff-1",
        "oversized-mu", "overflowing-mu", "nan-ratio", "noise-width-1e154", "noise-width-1e200",
        "noise-width-1e308", "phase-mc-r-100", "phase-mc-r-200", "phase-mc-r-349",
        "phase-mc-r-16-denominator-in-rounding", "phase-mc-r-43-denominator-in-rounding"])
def test_bad_input_exits_2_without_traceback(tmp_path, mode, config, flags,
                                             named):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_bytes(config if isinstance(config, bytes) else config.encode())
        flags = flags + ["--config", str(path)]
    src = os.path.dirname(os.path.dirname(holosim.__file__))
    done = subprocess.run([sys.executable, "-m", "holosim.cli", mode, *flags],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    if named is not None:
        assert named in done.stderr
