import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcm1d
from bcm1d import FourierCoeffs, ReconResult, cli
from bcm1d.cli import (
    RunConfig,
    emit_results,
    experiment_setup,
    main,
    parse_config_file,
    piecewise_perturbation,
    smooth_perturbation,
)


class TestPresets:
    def test_smooth_perturbation_values(self):
        xs = np.array([0.0, 1.0])
        # at x=0: 1+1+1+0+4 = 7; at x=1: -1+1-1+0+4 = 3
        assert np.allclose(smooth_perturbation(xs), [7.0, 3.0])

    def test_piecewise_levels(self):
        xs = np.array([-0.75, -0.5, 0.0, 1.0 / 3.0, 0.5])
        assert np.allclose(piecewise_perturbation(xs), [2.0, 2.0, 1.5, 1.0, 1.0])

    def test_experiment_setup(self, coarse_grid):
        med1, truth1, mode1, _ = experiment_setup(1, coarse_grid, 4)
        assert mode1 == "linearized"
        assert np.array_equal(truth1, med1.sigma_dot)

        med2, truth2, mode2, _ = experiment_setup(2, coarse_grid, 4)
        assert mode2 == "linearized"
        assert not np.array_equal(truth2, med2.sigma_dot)  # projection vs raw

        med3, truth3, mode3, eps3 = experiment_setup(3, coarse_grid, 4)
        assert mode3 == "nonlinear_difference" and eps3 == 1e-3
        assert np.allclose(med3.sigma_ddot,
                           200.0 * np.sin(20 * np.pi * coarse_grid.xs))

    def test_invalid_experiment(self, coarse_grid):
        with pytest.raises(ValueError):
            experiment_setup(4, coarse_grid, 4)


class TestConfigFile:
    def test_parse_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference experiment\n"
            "experiment = 2\n"
            "noise = 0.01   # one percent\n"
            "seed = 7\n"
            "N = 5\n"
            "dx = 0.01\n"
            "dt = 0.001\n"
            "T = 4.0\n"
            "out = results\n"
        )
        updates = parse_config_file(cfg)
        assert updates == {
            "experiment_id": 2, "noise": 0.01, "seed": 7, "N": 5,
            "dx": 0.01, "dt": 0.001, "T": 4.0, "out_dir": "results",
        }

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(cfg)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(cfg)

    def test_unconvertible_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("noise = 0\nN = 1e3\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(cfg)
        assert str(exc.value).startswith(f"{cfg}:2: N: invalid literal")


_XS = np.linspace(-1, 1, 11)


def _fake_result(xs=_XS, N=2):
    nx = len(xs)
    coeffs = FourierCoeffs(N=N, a0=8.0 + 0.25j,
                           a=np.array([1.0, 0.5j]), b=np.array([0.25, 0.0]))
    return ReconResult(coeffs=coeffs, sigma_recon=np.zeros(nx, dtype=complex),
                       truth=np.cos(np.pi * xs), rel_l2=0.01, linf=0.02)


class TestEmission:
    def test_headers_and_zero_rows(self, tmp_path):
        rec, coeff, summary = emit_results(_fake_result(), _XS, tmp_path,
                                           {"seed": 0})
        rec_lines = Path(rec).read_text().splitlines()
        assert rec_lines[0] == "x,sigma_true,sigma_recon_re,sigma_recon_im"
        assert all(line.split(",")[2] == "0" for line in rec_lines[1:])
        coeff_lines = Path(coeff).read_text().splitlines()
        assert coeff_lines[0] == "k,a_re,a_im,b_re,b_im"
        k0 = coeff_lines[1].split(",")
        assert k0[0] == "0" and float(k0[1]) == 8.0 and float(k0[2]) == 0.25
        assert k0[3] == "0" and k0[4] == "0"
        assert len(coeff_lines) == 1 + 1 + 2  # header, k=0, k=1..2

    def test_reemission_byte_identical(self, tmp_path):
        result = _fake_result()
        first = [Path(p).read_bytes()
                 for p in emit_results(result, _XS, tmp_path, {"seed": 1})]
        second = [Path(p).read_bytes()
                  for p in emit_results(result, _XS, tmp_path, {"seed": 1})]
        assert first == second

    def test_summary_contents(self, tmp_path):
        _, _, summary = emit_results(_fake_result(), _XS, tmp_path,
                                     {"seed": 3, "noise": 0.05})
        data = json.loads(Path(summary).read_text())
        assert data["rel_l2"] == 0.01 and data["linf"] == 0.02
        assert data["seed"] == 3 and data["noise"] == 0.05


class TestMain:
    def test_tiny_experiment_run(self, tmp_path):
        code = main([
            "experiment", "--id", "1", "--noise", "0", "--seed", "0",
            "--N", "1", "--dx", "0.02", "--dt", "0.002", "--T", "3",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["experiment"] == 1
        assert summary["grid"]["dx"] == 0.02
        assert (tmp_path / "reconstruction.csv").exists()
        assert (tmp_path / "coefficients.csv").exists()

    def test_reconstruct_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "experiment = 1\nnoise = 0\nseed = 0\nN = 1\n"
            "dx = 0.02\ndt = 0.002\nT = 3.0\n"
        )
        out = tmp_path / "out"
        code = main(["reconstruct", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("flag,value", [
        ("T", "2.0"), ("dx", "inf"), ("dx", "nan"), ("dt", "nan"), ("T", "inf"),
    ])
    def test_invalid_grid_override(self, flag, value, tmp_path, capsys):
        code = main([
            "experiment", "--id", "1", f"--{flag}", value, "--out", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")

    def test_non_finite_grid_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dx = inf\n")
        code = main(["reconstruct", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "error: dx must be finite" in capsys.readouterr().err

    def test_non_finite_noise_rejected(self, tmp_path, capsys):
        code = main([
            "experiment", "--id", "1", "--noise", "nan", "--dx", "0.04",
            "--dt", "0.004", "--N", "3", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "error: noise_eps must be finite" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main([
            "experiment", "--id", "1", "--noise", "0.01", "--seed", "-1",
            "--dx", "0.04", "--dt", "0.004", "--N", "3", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_noise_rejected(self, tmp_path, capsys):
        # noise at 1e306 times the trace RMS overflows the identity values
        out = tmp_path / "out"
        code = main([
            "experiment", "--id", "1", "--N", "2", "--noise", "1e306",
            "--dx", "0.02", "--dt", "0.002", "--T", "3", "--out", str(out),
        ])
        assert code == 2
        assert "error: mode k = 1 has a non-finite identity value" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_two_node_grid_rejected(self, tmp_path, capsys):
        # dx = b - a leaves two nodes, too few for the one-sided edge terms
        code = main([
            "experiment", "--id", "1", "--dx", "2", "--dt", "1", "--T", "3",
            "--N", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: grid too coarse: 2 nodes, fewer than 3\n"
        assert not (tmp_path / "out").exists()

    def test_N_above_grid_resolution_rejected(self, tmp_path, capsys,
                                              monkeypatch):
        def unreachable(*args):
            raise AssertionError("a mode was measured")

        monkeypatch.setattr(cli, "reconstruct", unreachable)
        out = tmp_path / "out"
        code = main(["experiment", "--id", "1", "--N", "250", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: N = 250 exceeds") and "N <= 249" in err
        assert not out.exists()

    def test_out_of_memory_reported(self, tmp_path, capsys, monkeypatch):
        def oversized(*args):
            raise MemoryError("Unable to allocate 14.9 GiB for an array")

        monkeypatch.setattr(cli, "reconstruct", oversized)
        out = tmp_path / "out"
        code = main(["experiment", "--id", "1", "--dx", "0.02", "--dt", "0.002",
                     "--T", "3", "--N", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 14.9 GiB for an array\n"
        assert not out.exists()

    def test_invalid_id_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--id", "9", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_check_kind_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["check", "nonsense"])

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["reconstruct", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class _ClosedPipe:
    """Stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fh.fileno()


def test_closed_stdout_pipe_exits_cleanly(tmp_path, monkeypatch):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh))
        assert main(["check", "control"]) == 1


def test_cli_import_loads_no_scipy_or_sympy():
    # both are test-only dependencies; start-up must not pay for them
    code = ("import sys, bcm1d.cli; "
            "print(sorted(m for m in ('scipy', 'sympy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(bcm1d.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_run_config_grid_roundtrip():
    config = RunConfig(dx=1.0 / 50, dt=1.0 / 500, T=3.0)
    grid = config.grid()
    assert grid.nx == 101 and grid.nt == 3001


@pytest.mark.parametrize("kind", ["control", "identity", "convergence"])
def test_check_commands_pass(kind, capsys):
    code = main(["check", kind])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_check_control_keeps_err_init_rows(capsys):
    # criterion 7's initial-state row: its name, tolerance and exact zero
    assert main(["check", "control"]) == 0
    rows = capsys.readouterr().out.splitlines()
    for name in ("sin", "cos"):
        label = f"control fidelity err_init ({name}, k=1)"
        (row,) = [r for r in rows if r.startswith(label)]
        assert row[len(label):].split() == ["measured=0", "tol=1e-10", "PASS"]
