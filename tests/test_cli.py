import json
import os
import resource
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import bcm1d
from bcm1d import FourierCoeffs, GridSpec, ReconSettings, cli, solver
from bcm1d.cli import (
    PIECEWISE,
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
        # dx = 1/12: both breaks are nodes, whose cells average two levels
        xs = np.linspace(-1.0, 1.0, 25)
        got = piecewise_perturbation(xs)
        assert np.allclose(got[[6, 16]], [1.75, 1.25], rtol=1e-14, atol=0)
        levels = np.repeat([2.0, 1.5, 1.0], [6, 9, 8])
        assert np.array_equal(np.delete(got, [6, 16]), levels)

    def test_piecewise_moments_match_the_pieces(self):
        # the 21 trapezoid moments (a0, a_k, b_k for k <= 10) of the medium
        # on the paper grid's nodes against the pieces' exact ones
        grid = RunConfig().grid()
        xs, (u, v, level) = grid.xs, np.array(PIECEWISE).T
        w = np.pi * np.arange(1, 11)[:, None]
        sampled = piecewise_perturbation(xs)
        got = np.concatenate((
            [np.trapezoid(sampled, dx=grid.dx)],
            np.trapezoid(sampled * np.cos(w * xs), dx=grid.dx, axis=1),
            np.trapezoid(sampled * np.sin(w * xs), dx=grid.dx, axis=1)))
        want = np.concatenate((
            [level @ (v - u)],
            (np.sin(w * v) - np.sin(w * u)) / w @ level,
            (np.cos(w * u) - np.cos(w * v)) / w @ level))
        assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)

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

    def test_repeated_key(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("N = 3\n# the second wins nothing\nN = 4\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(cfg)
        assert str(exc.value) == f"{cfg}:3: N: repeated (first set on line 1)"
        assert main(["reconstruct", "--config", str(cfg)]) == 2
        assert "repeated" in capsys.readouterr().err

    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "latin.cfg"
        cfg.write_bytes(b"\xff\xfe\n")
        assert main(["reconstruct", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_experiment_id_refused_with_its_line(self, tmp_path, capsys,
                                                 monkeypatch):
        cfg = tmp_path / "four.cfg"
        cfg.write_text("N = 4\nexperiment = 4\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(cfg)
        assert str(exc.value) == (f"{cfg}:2: experiment: experiment id must "
                                  "be 1, 2 or 3, got 4")
        # refused while the file is read, before any run is set up

        def no_run(config):
            raise AssertionError("run started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        assert main(["reconstruct", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("key", ["out", "N"])
    def test_empty_value_refused_with_its_line(self, key, tmp_path, capsys,
                                               monkeypatch):
        # `out =` once wrote the run's files into the working directory
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"experiment = 1\n{key} =  # nothing\n")
        monkeypatch.chdir(tmp_path)
        assert main(["reconstruct", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: {key}: empty value\n")
        assert os.listdir(tmp_path) == ["empty.cfg"]


_XS = np.linspace(-1, 1, 11)


def _emit(out_dir, summary):
    """Emit two modes' coefficients, a zero reconstruction and a cosine
    truth on the nodes ``_XS``."""
    coeffs = FourierCoeffs(N=2, a0=8.0 + 0.25j,
                           a=np.array([1.0, 0.5j]), b=np.array([0.25, 0.0]))
    return emit_results(coeffs, np.zeros(len(_XS), dtype=complex),
                        np.cos(np.pi * _XS), _XS, out_dir, summary)


class TestEmission:
    def test_headers_and_zero_rows(self, tmp_path):
        rec, coeff, summary = _emit(tmp_path, {"seed": 0})
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
        first = [Path(p).read_bytes() for p in _emit(tmp_path, {"seed": 1})]
        second = [Path(p).read_bytes() for p in _emit(tmp_path, {"seed": 1})]
        assert first == second

    def test_summary_contents(self, tmp_path):
        summary = {"rel_l2": 0.01, "linf": 0.02, "seed": 3, "noise": 0.05}
        path = _emit(tmp_path, summary)[2]
        assert json.loads(Path(path).read_text()) == summary

    def test_summary_rejects_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit(tmp_path, {"runtime_seconds": np.inf})


class TestMallocThresholds:
    def test_main_fixes_both_thresholds_before_dispatch(self, monkeypatch):
        events = []

        def mallopt(param, value):
            events.append((param, value))
            return 1

        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(cli, "_dispatch",
                            lambda args: events.append("dispatch") or 0)
        assert main(["check", "control"]) == 0
        # M_MMAP_THRESHOLD = -3 at 32 MiB, M_TRIM_THRESHOLD = -1 at 64 MiB
        assert sorted(events[:2]) == [(-3, 32 << 20), (-1, 64 << 20)]
        assert events[2:] == ["dispatch"]

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        cli._fix_malloc_thresholds()

    def test_no_libc_is_a_no_op(self, monkeypatch):
        def missing(name):
            raise OSError("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", missing)
        cli._fix_malloc_thresholds()


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

    def test_summary_records_the_support_grid(self, tmp_path):
        # the paper grid, T = 5, measures on 15007 of its 25001 steps
        assert main(["experiment", "--id", "1", "--N", "1",
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["grid"]["T"] == 5.0
        assert summary["support_grid"]["T"] == pytest.approx(3.0012, abs=1e-12)
        assert summary["support_grid"]["nt"] == 15007

    @pytest.mark.parametrize("dt", ["5e-324", "2e-308"])
    def test_step_count_beyond_a_float_rejected(self, dt, tmp_path, capsys):
        # T/dt overflows to inf: a one-line message, not a traceback
        code = main(["experiment", "--id", "1", "--dt", dt,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: T/dt = inf is not an integer\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["experiment", "reconstruct"])
    def test_empty_out_refused(self, command, tmp_path, capsys, monkeypatch):
        # an empty --out once wrote the run's files into the working
        # directory
        cfg = tmp_path / "run.cfg"
        cfg.write_text("experiment = 1\nN = 2\ndx = 0.02\ndt = 0.002\n")
        argv = {"experiment": ["experiment", "--id", "1", "--N", "2",
                               "--dx", "0.02", "--dt", "0.002"],
                "reconstruct": ["reconstruct", "--config", str(cfg)]}
        monkeypatch.chdir(tmp_path)
        assert main(argv[command] + ["--out", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("exp_id,tol", [(1, 1e-3), (2, 1e-2)])
    def test_coarse_unit_cfl_run_is_accurate(self, exp_id, tol, tmp_path):
        # 100 cells at dt = dx: the controls' flank bump must have no layer
        # thinner than the grid resolves
        code = main([
            "experiment", "--id", str(exp_id), "--T", "5", "--N", "5",
            "--dx", "0.02", "--dt", "0.02", "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rel_l2"] <= tol

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

    def test_overflowing_noise_rejected(self, tmp_path, capsys):
        # noise at 1e307 times the trace RMS overflows the identity values
        out = tmp_path / "out"
        code = main([
            "experiment", "--id", "1", "--N", "2", "--noise", "1e307",
            "--dx", "0.02", "--dt", "0.002", "--T", "3", "--out", str(out),
        ])
        assert code == 2
        assert "error: mode k = 1 has a non-finite identity value" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_overflowing_error_metrics_rejected(self, tmp_path, capsys,
                                                recwarn):
        # finite identity values whose reconstruction error squares to inf
        out = tmp_path / "out"
        code = main([
            "experiment", "--id", "1", "--dx", "0.04", "--dt", "0.004",
            "--T", "3", "--N", "3", "--noise", "1e200", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the reconstruction error is not finite "
                              "(rel_l2 = inf, linf = ")
        assert err.endswith("its data are too large or not finite\n")
        assert not out.exists()
        assert not recwarn.list

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

    def test_N_on_a_grid_too_coarse_for_any_mode(self, tmp_path, capsys):
        # dx = 1 leaves 3 nodes: (nx - 2) // 2 = 0, so no N is allowed
        out = tmp_path / "out"
        code = main(["experiment", "--id", "1", "--dx", "1", "--N", "1",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: N = 1 exceeds the grid's resolution: the "
                       "grid's 3 nodes are too few for any mode (N >= 1 "
                       "needs nx >= 4)\n")
        assert not out.exists()

    def test_N_checked_before_projection_truth(self, tmp_path, capsys,
                                               monkeypatch):
        # experiment 2's truth sums N terms, so a huge N must fail first
        def unreachable(*args):
            raise AssertionError("the N-term truth was built")

        monkeypatch.setattr(cli, "projection_truth", unreachable)
        out = tmp_path / "out"
        code = main(["experiment", "--id", "2", "--N", "100000",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: N = 100000 exceeds") and "N <= 249" in err
        assert not out.exists()

    @pytest.mark.parametrize("N, dt, code, err", [
        ("4", "0.002", 0, ""),
        ("8", "0.002", 0,
         "warning: N = 8 is near the grid's resolution: mode N's phase error "
         "phi'_N = 0.196 exceeds 0.12, so the top modes lose accuracy\n"),
        ("12", "0.002", 2,
         "error: N = 12 is under-resolved on this grid: mode N's phase error "
         "phi'_N = 0.662 exceeds 0.36; lower N or refine dx and dt\n"),
        # at dt = dx the scheme has no phase error
        ("12", "0.02", 0, ""),
    ], ids=["N4", "N8-warned", "N12-refused", "N12-unit-cfl"])
    def test_under_resolved_N(self, tmp_path, capsys, N, dt, code, err):
        # phi'_N reads 0.0246, 0.196 and 0.662 at dt = dx / 10: rel_l2
        # 0.08%, 1.94% and 24.5%
        out = tmp_path / "out"
        assert main(["experiment", "--id", "1", "--N", N, "--dx", "0.02",
                     "--dt", dt, "--T", "3", "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert out.exists() == (code == 0)

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

    def test_oversized_grid_refused_before_allocating(self, tmp_path, capsys,
                                                      monkeypatch):
        # T = 3 leaves no quiet steps, so the support grid adds three at
        # each end and the run allocates nt = 6e10 + 7: terabytes of traces,
        # more than any host has; a run that got past the check would stop
        # at the stand-in below
        def unguarded(*args):
            raise AssertionError("the oversized run was not refused")

        monkeypatch.setattr(cli, "reconstruct", unguarded)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["experiment", "--id", "1", "--N", "3", "--dx", "0.1",
                         "--dt", "1e-10", "--T", "3", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert err.startswith("error: the run needs about ")
        assert "(nt = 60000000007, nx = 21)" in err and "available" in err
        assert not out.exists()

    @pytest.mark.parametrize("dt, need, nt, dx, nx", [
        pytest.param("1e-300", "5.32e+297", "6.00e+300", "0.004", "501",
                     id="1e-300-5.32e+297-6.00e+300"),
        # nt beyond the largest float
        pytest.param("2e-308", "2.66e+305", "3.00e+308", "0.004", "501",
                     id="2e-308-2.66e+305-3.00e+308"),
        # and a tiny dx
        pytest.param("1e-301", "5.46e+298", "6.00e+301", "1e-300",
                     "2.00e+300", id="tiny-dx")])
    def test_memory_message_of_a_tiny_step_is_short(self, tmp_path, capsys,
                                                     monkeypatch, dt, need,
                                                     nt, dx, nx):
        # figures above 1e15 are printed to three digits, not to 300
        monkeypatch.setattr(cli, "_available_bytes", lambda: 8 << 30)
        code = main(["experiment", "--id", "1", "--dx", dx, "--dt", dt,
                     "--T", "3", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: the run needs about {need} MiB (nt = {nt}, "
                       f"nx = {nx}) but only 8192 MiB are available to the "
                       "process\n")
        assert len(err) < 130

    def test_a_long_T_runs_on_the_support_grid(self, tmp_path):
        # T = 1e9 and T = 1e17, where T / dt passes 2^54, measure on the
        # support grid of T = 3.3
        for T in ("1e9", "1e17", "3.3"):
            assert main(["experiment", "--id", "1", "--N", "3", "--dx", "0.1",
                         "--dt", "0.1", "--T", T,
                         "--out", str(tmp_path / T)]) == 0
        want = (tmp_path / "3.3" / "coefficients.csv").read_bytes()
        for T in ("1e9", "1e17"):
            assert (tmp_path / T / "coefficients.csv").read_bytes() == want

    @pytest.mark.parametrize("spare", [-1, 0, None])
    def test_memory_check_compares_with_the_room_left(self, tmp_path, capsys,
                                                      monkeypatch, spare):
        argv = ["experiment", "--id", "1", "--N", "1", "--dx", "0.02",
                "--dt", "0.002", "--T", "3", "--out", str(tmp_path)]
        need = ReconSettings(grid=GridSpec(-1.0, 1.0, 0.02, 0.002, 3.0),
                             N=1).peak_bytes()
        room = None if spare is None else need + spare
        monkeypatch.setattr(cli, "_available_bytes", lambda: room)
        assert main(argv) == (2 if spare == -1 else 0)
        if spare == -1:
            assert f"{need / 2**20:.0f} MiB" in capsys.readouterr().err

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


class TestAvailableBytes:
    @pytest.fixture
    def host(self, tmp_path, monkeypatch):
        """Stand-ins for the host's meminfo and a version 2 cgroup's limit,
        behind a missing version 1 file; the address space is unlimited."""
        meminfo, limit = tmp_path / "meminfo", tmp_path / "memory.max"
        meminfo.write_text("MemTotal:  8000 kB\nMemFree:  1000 kB\n"
                           "MemAvailable:  5000 kB\n")
        limit.write_text("max\n")
        monkeypatch.setattr(cli, "_MEMINFO", str(meminfo))
        monkeypatch.setattr(cli, "_CGROUP_LIMITS",
                            (str(tmp_path / "missing"), str(limit)))
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (resource.RLIM_INFINITY,) * 2)
        return meminfo, limit

    def test_available_memory_counts_the_page_cache(self, host):
        # MemAvailable, not MemFree: page cache the kernel can reclaim
        assert cli._available_bytes() == 5000 * 1024

    def test_cgroup_limit_is_the_smallest(self, host):
        host[1].write_text("1000000\n")
        assert cli._available_bytes() == 1000000

    def test_cgroup_usage_is_not_subtracted(self, host, tmp_path, monkeypatch):
        # a cgroup doing I/O sits near its limit in reclaimable page cache:
        # a small run still fits
        host[0].write_text("MemAvailable:  8388608 kB\n")
        host[1].write_text(f"{1 << 30}\n")
        (tmp_path / "memory.current").write_text(f"{(1 << 30) - 4096}\n")
        assert cli._available_bytes() == 1 << 30
        assert main(["experiment", "--id", "1", "--N", "1", "--dx", "0.02",
                     "--dt", "0.002", "--T", "3",
                     "--out", str(tmp_path / "out")]) == 0

    def test_without_meminfo_the_physical_memory(self, host):
        host[0].unlink()
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        assert cli._available_bytes() == total

    def test_address_space_limit_counts_what_is_mapped(self, host,
                                                       monkeypatch):
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (1 << 20, resource.RLIM_INFINITY))
        # the interpreter alone maps more than 1 MiB
        assert cli._available_bytes() < 0


# the estimate next to the peak it estimates, in a child process: the peak
# RSS when the run is checked, the estimate, and the peak RSS after.
# VmHWM, the peak of this process image: ru_maxrss also keeps the RSS of
# the process that forked it, a test runner larger than the run
_PEAK_CODE = """
import sys
from bcm1d import cli

def peak_rss():
    with open("/proc/self/status") as fh:
        return 1024 * next(int(line.split()[1]) for line in fh
                           if line.startswith("VmHWM:"))

estimates, check = [], cli._check_memory

def record(settings):
    estimates.append((peak_rss(), settings.peak_bytes()))
    check(settings)

cli._check_memory = record
assert cli.main(sys.argv[1:]) == 0
print(*estimates[0], peak_rss())
"""


@pytest.mark.parametrize("flags", [["--id", "1"],
                                   ["--id", "3", "--dt", "0.004"],
                                   ["--id", "1", "--dt", "0.0001"]],
                         ids=["exp1", "exp3_cfl1", "exp1_4x_nt"])
def test_memory_estimate_is_within_30_percent_of_the_peak(flags, tmp_path):
    argv = ["experiment", *flags, "--out", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(bcm1d.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _PEAK_CODE, *argv], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=300)
    before, estimate, peak = map(int, out.stdout.split()[-3:])
    assert 0.7 <= (before + estimate) / peak <= 1.3
    # and what the run adds, the part the estimate models
    assert 0.7 <= estimate / (peak - before) <= 1.3


def test_experiment_builds_no_injection_signals(tmp_path, monkeypatch):
    # only the stepper builds injection signals, and an experiment runs it
    # once: on the unit samples that give its transfer map's kernel; every
    # trace is then measured by convolution
    injection, calls = solver._injection, []

    def spy(taps, g):
        # the stepper overwrites the data with the signals
        calls.append(g.copy())
        return injection(taps, g)

    monkeypatch.setattr(solver, "_injection", spy)
    assert main(["experiment", "--id", "1", "--out", str(tmp_path)]) == 0
    # one call per sample end
    g = np.array(calls)
    samples = np.zeros((2, 2, g.shape[-1]))
    samples[..., solver._REACH] = np.eye(2)
    assert np.array_equal(g / g.max(), samples)


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


def test_check_identity_fails_on_one_measured_sample_off(monkeypatch,
                                                         capsys):
    # the row compares the experiments' measurement map with the stepper:
    # one of its samples off by 1e-6 relative must fail the 1e-9 tolerance
    measurement = cli.ReconSettings.measurement

    def off_by_one_sample(settings, medium):
        measure = measurement(settings, medium)

        def measure_off(fs):
            traces = measure(fs)
            a = traces[0].values[0]
            a[np.argmax(np.abs(a))] *= 1.0 + 1e-6
            return traces
        return measure_off

    monkeypatch.setattr(cli.ReconSettings, "measurement", off_by_one_sample)
    assert main(["check", "identity"]) == 1
    label = "linearized map: transfer vs stepper (rel)"
    (row,) = [r for r in capsys.readouterr().out.splitlines()
              if r.startswith(label)]
    measured, tol, verdict = row[len(label):].split()
    # relative to the largest sample of either end
    assert 1e-7 < float(measured.split("=")[1]) <= 1e-6
    assert (tol, verdict) == ("tol=1e-09", "FAIL")


def test_check_identity_memory_peak(capsys):
    # the paper-grid pulses are real and stored real: the check peaks at
    # about 4.8 MiB of traced memory, against 6.3 MiB while every trace
    # carried an imaginary half of zeros
    table = cli._CheckTable()
    tracemalloc.start()
    try:
        cli._check_identity(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.exit_code() == 0
    assert peak <= 5.5 * 2**20


def test_check_control_keeps_err_init_rows(capsys):
    # criterion 7's initial-state row: its name, tolerance and exact zero
    assert main(["check", "control"]) == 0
    rows = capsys.readouterr().out.splitlines()
    for name in ("sin", "cos"):
        label = f"control fidelity err_init ({name}, k=1)"
        (row,) = [r for r in rows if r.startswith(label)]
        assert row[len(label):].split() == ["measured=0", "tol=1e-10", "PASS"]
