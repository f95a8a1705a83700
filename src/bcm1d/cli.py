"""Command-line front end: experiment presets, checks, CSV/JSON emission.

Three experiment presets reproduce the reference study on [-1, 1] with the
default grid dx = 1/250, dt = 1/2500, T = 5 and truncation N = 10:

  1. smooth perturbation cos(pi x) + cos(2 pi x) + cos(3 pi x)
     + sin(4 pi x) + 4, linearized data;
  2. piecewise perturbation (levels 2, 3/2, 1), compared against its
     N-term projection;
  3. the smooth perturbation measured through nonlinear differences at
     eps = 1e-3 with a second-order term 200 sin(20 pi x).

`bcm check` runs the self-verification suites (control fidelity, identity
residuals, refinement studies) and exits nonzero if any tolerance fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import verify_control
from .core import BoundaryTrace, GridSpec, MediumSpec
from .identity import nonlinear_identity_residual
from .recon import (
    LINEARIZED,
    NONLINEAR_DIFFERENCE,
    ReconResult,
    ReconSettings,
    fourier_targets,
    projection_truth,
    reconstruct,
)
from .solver import (linearized_nd_map_many, solve_many,
                     transfer_linearized_nd_map)

PAPER = dict(a=-1.0, b=1.0, dx=1.0 / 250, dt=1.0 / 2500, T=5.0, N=10)


@dataclass
class RunConfig:
    experiment_id: int = 1
    noise: float = 0.0
    seed: int = 0
    N: int = PAPER["N"]
    dx: float = PAPER["dx"]
    dt: float = PAPER["dt"]
    T: float = PAPER["T"]
    out_dir: str = "."

    def grid(self) -> GridSpec:
        return GridSpec(PAPER["a"], PAPER["b"], self.dx, self.dt, self.T)


# ---------------------------------------------------------------------------
# experiment presets


def smooth_perturbation(xs: np.ndarray) -> np.ndarray:
    return (np.cos(np.pi * xs) + np.cos(2 * np.pi * xs)
            + np.cos(3 * np.pi * xs) + np.sin(4 * np.pi * xs) + 4.0)


def piecewise_perturbation(xs: np.ndarray) -> np.ndarray:
    return np.where(xs <= -0.5, 2.0, np.where(xs < 1.0 / 3.0, 1.5, 1.0))


def experiment_setup(exp_id: int, grid: GridSpec, N: int):
    """Medium, comparison truth and data-mode settings for one preset."""
    xs = grid.xs
    if exp_id == 1:
        sig = smooth_perturbation(xs)
        return MediumSpec(0.0, sig), sig, LINEARIZED, 0.0
    if exp_id == 2:
        sig = piecewise_perturbation(xs)
        return MediumSpec(0.0, sig), projection_truth(N, grid), LINEARIZED, 0.0
    if exp_id == 3:
        sig = smooth_perturbation(xs)
        sig2 = 200.0 * np.sin(20 * np.pi * xs)
        return MediumSpec(0.0, sig, sig2), sig, NONLINEAR_DIFFERENCE, 1e-3
    raise ValueError(f"experiment id must be 1, 2 or 3, got {exp_id}")


# ---------------------------------------------------------------------------
# result emission


def emit_results(result: ReconResult, xs: np.ndarray, out_dir,
                 summary_extra: dict | None = None):
    """Write reconstruction.csv, coefficients.csv and summary.json.

    ``xs`` are the spatial nodes the result is sampled on.  Formatting is
    deterministic, so re-emitting the same result (with the same extra
    summary fields) reproduces the files byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write_csv(path, header, columns):
        np.savetxt(path, np.column_stack(columns), fmt="%.12g", delimiter=",",
                   header=header, comments="")

    rec_path = out / "reconstruction.csv"
    sigma = result.sigma_recon
    write_csv(rec_path, "x,sigma_true,sigma_recon_re,sigma_recon_im",
              (xs, result.truth, sigma.real, sigma.imag))

    coeff_path = out / "coefficients.csv"
    coeffs = result.coeffs
    a = np.concatenate(([coeffs.a0], coeffs.a))
    b = np.concatenate(([0.0], coeffs.b))
    write_csv(coeff_path, "k,a_re,a_im,b_re,b_im",
              (np.arange(coeffs.N + 1), a.real, a.imag, b.real, b.imag))

    summary = {"rel_l2": result.rel_l2, "linf": result.linf}
    if summary_extra:
        summary.update(summary_extra)
    summary_path = out / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rec_path, coeff_path, summary_path


# ---------------------------------------------------------------------------
# commands


def run_experiment(config: RunConfig) -> int:
    try:
        grid = config.grid()
        medium, truth, mode, eps_lin = experiment_setup(
            config.experiment_id, grid, config.N
        )
        settings = ReconSettings(
            grid=grid, N=config.N, noise_eps=config.noise, seed=config.seed,
            data_mode=mode,
            eps_linearization=eps_lin,
        )
        t0 = time.perf_counter()
        result = reconstruct(settings, medium, truth)
        runtime = time.perf_counter() - t0
    # ConfigurationError is a ValueError; an oversized grid raises MemoryError
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    extra = {
        "experiment": config.experiment_id,
        "noise": config.noise,
        "seed": config.seed,
        "N": config.N,
        "data_mode": mode,
        "eps_linearization": eps_lin,
        "runtime_seconds": round(runtime, 3),
        "grid": {"a": PAPER["a"], "b": PAPER["b"], "dx": config.dx,
                 "dt": config.dt, "T": config.T},
    }
    try:
        paths = emit_results(result, grid.xs, config.out_dir, extra)
    except OSError as exc:
        print(f"error writing results: {exc}", file=sys.stderr)
        return 1
    print(f"experiment {config.experiment_id}: rel_l2 = {result.rel_l2:.4%}, "
          f"linf = {result.linf:.4g}, runtime = {runtime:.1f}s")
    for p in paths:
        print(f"  wrote {p}")
    return 0


def smooth_pulse_trace(grid: GridSpec, t0: float, width: float, omega: float,
                       weight_a: float, weight_b: float):
    """Gaussian-windowed tone burst (trace, analytic derivative trace).

    Vanishes to machine precision near t = 0 for t0 >= 6 * width, so it is
    an admissible Neumann datum for zero initial conditions.
    """
    def val(t):
        return np.exp(-((t - t0) / width) ** 2) * np.sin(omega * t)

    def dval(t):
        env = np.exp(-((t - t0) / width) ** 2)
        return env * (omega * np.cos(omega * t)
                      - 2.0 * (t - t0) / width**2 * np.sin(omega * t))

    f = BoundaryTrace.from_functions(grid, lambda t: weight_a * val(t),
                                     lambda t: weight_b * val(t))
    f_t = BoundaryTrace.from_functions(grid, lambda t: weight_a * dval(t),
                                       lambda t: weight_b * dval(t))
    return f, f_t


class _CheckTable:
    def __init__(self):
        self.failed = False

    def row(self, name, measured, tol, ok=None):
        if ok is None:
            ok = measured <= tol
        if not ok:
            self.failed = True
        print(f"{name:<44s} measured={measured:<12.4g} tol={tol:<10.4g} "
              f"{'PASS' if ok else 'FAIL'}")

    def exit_code(self) -> int:
        return 1 if self.failed else 0


def _check_control(table: _CheckTable) -> None:
    # unit-CFL time step: exact 1D propagation isolates the controls from
    # the instrument's dispersion (see README, notes on numerics)
    grid = GridSpec(PAPER["a"], PAPER["b"], PAPER["dx"], PAPER["dx"], PAPER["T"])
    pT_f, pT_h, lam = fourier_targets(1, grid)
    reps = verify_control([(pT_f, lam), (pT_h, lam)], grid)
    for name, rep in zip(("sin", "cos"), reps):
        table.row(f"control fidelity err_p ({name}, k=1)", rep.err_p, 1e-2)
        table.row(f"control fidelity err_init ({name}, k=1)", rep.err_init, 1e-10)


def _identity_pulses(grid: GridSpec):
    f = smooth_pulse_trace(grid, 1.2, 0.25, 6.0, 1.0, 0.3)
    h = smooth_pulse_trace(grid, 1.7, 0.30, 4.0, 0.5, 1.0)
    return f, h


def _check_identity(table: _CheckTable) -> None:
    grid = GridSpec(PAPER["a"], PAPER["b"], PAPER["dx"], PAPER["dt"], PAPER["T"])
    f, h = _identity_pulses(grid)
    rep = nonlinear_identity_residual(f, h, 0.3, grid)
    table.row("nonlinear identity rel residual (sigma=0.3)",
              rep.rel_residual, 1e-2)
    # the experiments' transfer map against the stepper, its reference, on
    # the unit-CFL grid of the control check, where the stepper is cheap
    grid = GridSpec(PAPER["a"], PAPER["b"], PAPER["dx"], PAPER["dx"], PAPER["T"])
    medium = MediumSpec(0.0, smooth_perturbation(grid.xs))
    f = _identity_pulses(grid)[0][0]
    (got,) = transfer_linearized_nd_map(grid, medium)([f])
    (want,) = linearized_nd_map_many(grid, medium, [f])
    diff, ref = (np.stack((tr.values_a, tr.values_b)) for tr in (got - want, want))
    table.row("linearized map: transfer vs stepper (rel)",
              np.max(np.abs(diff)) / np.max(np.abs(ref)), 1e-9)


def _mms_error(grid: GridSpec) -> float:
    """Manufactured solution u = t^2 cos(pi x): zero data, known source."""
    xs = grid.xs
    sigma = 0.3 * (1.0 + xs**2)
    cos_px = np.cos(np.pi * xs)

    def source(n):
        t = n * grid.dt
        return (2.0 + 2.0 * t * sigma + np.pi**2 * t**2) * cos_px

    (out,) = solve_many(grid, sigma, [BoundaryTrace.zeros(grid)], source=source)
    exact = grid.T**2 * cos_px
    return float(np.linalg.norm(out.uT_snapshot - exact)
                 / np.linalg.norm(exact))


def _check_convergence(table: _CheckTable) -> None:
    grids = [GridSpec(-1.0, 1.0, 1.0 / 25 / 2**i, 1.0 / 250 / 2**i, 3.0)
             for i in range(3)]
    with warnings.catch_warnings():
        # the manufactured source is nonzero at t = 0
        warnings.filterwarnings("ignore", "source nonzero at t = 0",
                                UserWarning)
        errs = [_mms_error(g) for g in grids]
    for i in range(2):
        factor = errs[i] / errs[i + 1]
        table.row(f"solver order: MMS factor level {i}->{i + 1}",
                  factor, 4.6, ok=3.4 <= factor <= 4.6)

    diffs = []
    for g in (GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 3.0),
              GridSpec(-1.0, 1.0, 1.0 / 100, 1.0 / 1000, 3.0)):
        f, h = _identity_pulses(g)
        rep = nonlinear_identity_residual(f, h, 0.3, g)
        diffs.append(abs(rep.lhs - rep.rhs))
    factor = diffs[0] / diffs[1]
    table.row("identity residual refinement factor", factor, 4.6,
              ok=3.4 <= factor <= 4.6)


_CHECKS = {
    "identity": _check_identity,
    "control": _check_control,
    "convergence": _check_convergence,
}


def run_check(kind: str) -> int:
    table = _CheckTable()
    _CHECKS[kind](table)
    return table.exit_code()


# ---------------------------------------------------------------------------
# configuration parsing

# RunConfig fields that are both `experiment` flags and config-file keys;
# each takes its type and default from its field
_RUN_OPTIONS = ("noise", "seed", "N", "dx", "dt", "T")
_OPTION_TYPES = typing.get_type_hints(RunConfig)

_CONFIG_KEYS = {
    "experiment": ("experiment_id", int),
    **{name: (name, _OPTION_TYPES[name]) for name in _RUN_OPTIONS},
    "out": ("out_dir", str),
}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines with ``#`` comments."""
    updates = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        attr, conv = _CONFIG_KEYS[key]
        try:
            updates[attr] = conv(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return updates


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcm",
        description="Boundary-control reconstruction of a 1D damping perturbation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a preset experiment")
    exp.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    for name in _RUN_OPTIONS:
        exp.add_argument(f"--{name}", type=_OPTION_TYPES[name],
                         default=getattr(RunConfig, name))
    exp.add_argument("--out", required=True)

    rec = sub.add_parser("reconstruct", help="run from a config file")
    rec.add_argument("--config", required=True)
    rec.add_argument("--out", default=None)

    chk = sub.add_parser("check", help="run a verification suite")
    chk.add_argument("kind", choices=_CHECKS)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # the reader closed the pipe (`bcm check control | head -1`); point
        # stdout at devnull so the flush at exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _dispatch(args) -> int:
    if args.command == "experiment":
        config = RunConfig(
            experiment_id=args.id, out_dir=args.out,
            **{name: getattr(args, name) for name in _RUN_OPTIONS},
        )
        return run_experiment(config)
    if args.command == "reconstruct":
        try:
            updates = parse_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        config = RunConfig()
        for attr, value in updates.items():
            setattr(config, attr, value)
        if args.out is not None:
            config.out_dir = args.out
        return run_experiment(config)
    return run_check(args.kind)


if __name__ == "__main__":
    sys.exit(main())
