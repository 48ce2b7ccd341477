"""Command-line interface: configs, sweeps, reports, and exit codes."""

import math
import os
import subprocess
import sys
import textwrap

import pytest

import holosim
from holosim import cli


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
        lines = data_lines(out.read_text(encoding="utf-8"))
        assert lines[0] == ("r,epsilon,ratio_analytic,ratio_fock,"
                           "relative_deviation,backend_analytic,backend_fock")
        return {(float(c[0]), float(c[1])): c
                for c in (line.split(",") for line in lines[1:] if line)}

    def assert_unsupported(row):
        assert row[3] == "nan" and row[4] == "nan"
        assert row[6] == "none"

    rows = sweep("0.4, 1.4", "0.05, 0.15", 48)
    assert len(rows) == 4
    supported = rows[(0.4, 0.05)]
    assert supported[6] == "fock_oracle"
    assert float(supported[4]) < 1e-6
    for key in ((0.4, 0.15), (1.4, 0.05), (1.4, 0.15)):
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


def test_squeezing_sweep_monotone_diagnostic(tmp_path):
    cfg = write_config(tmp_path, """\
        [sweep-env-squeezing]
        m_values = 0.0, 1.0
        r_grid = linspace(0.5, 1.5, 5)
        """)
    out = tmp_path / "squeezing.csv"
    assert cli.main(["sweep-env-squeezing", "--config", cfg, "--out", str(out)]) == 0
    lines = data_lines(out.read_text(encoding="utf-8"))
    assert lines[0] == ("r,M,ratio_full,ratio_approx,"
                       "monotone_decreasing,backend_full,backend_approx")
    rows = [line.split(",") for line in lines[1:] if line]
    assert len(rows) == 10
    assert all(row[4] == "1" for row in rows)


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
    assert "np.float64" not in text
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
])
def test_config_errors(tmp_path, capsys, body, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(body, encoding="utf-8")
    code = cli.main(["sweep-env-coupling", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")
    assert fragment in err


def test_phase_mc_has_no_step_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "[phase-mc]\nh = 1e-3\n")
    assert cli.main(["phase-mc", "--config", cfg]) == 2
    assert "line 2: unknown key 'h' for [phase-mc]" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["sweep-env-coupling", "sweep-env-squeezing"])
def test_cutoff_flag_only_for_modes_that_read_it(mode, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([mode, "--cutoff", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cutoff 3" in capsys.readouterr().err


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


def test_import_loads_neither_scipy_nor_thread_pools():
    src = os.path.dirname(os.path.dirname(holosim.__file__))
    probe = ("import sys, holosim.cli; print([m for m in "
             "('scipy', 'concurrent.futures') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("mode,config,flags,named", [
    ("phase-mc", None, ["--seed", "-1"], None),
    ("sweep-env-squeezing", "[sweep-env-squeezing]\nr_grid = 0.5, 400\n", [],
     None),
    ("sweep-env-coupling", None, ["--out", "missing/dir/x.csv"],
     "missing/dir/x.csv"),
    ("validate", None, ["--out", "missing/dir/v.txt"], "missing/dir/v.txt"),
    ("validate", b"[validate]\nfault = \xff\n", [], "run.cfg"),
], ids=["negative-seed", "overflowing-squeeze", "sweep-out-missing-dir",
        "validate-out-missing-dir", "config-not-utf8"])
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
    assert "Traceback" not in done.stderr
    if named is not None:
        assert named in done.stderr
