"""Command-line front end: experiment presets, checks, CSV/JSON emission.

Three experiment presets reproduce the reference study on [-1, 1] with the
default grid dx = 1/250, dt = 1/2500, T = 5 and truncation N = 10:

  1. smooth perturbation cos(pi x) + cos(2 pi x) + cos(3 pi x)
     + sin(4 pi x) + 4, linearized data;
  2. piecewise-constant perturbation (``PIECEWISE``), averaged over the
     cells that hold its breaks, compared against its N-term projection;
  3. the smooth perturbation measured through nonlinear differences at
     eps = 1e-3 with a second-order term 200 sin(20 pi x).

`bcm check` runs the self-verification suites (control fidelity, identity
residuals, refinement studies) and exits nonzero if any tolerance fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .control import build_control, support_grid, verify_control
from .core import (BoundaryTrace, FourierCoeffs, GridSpec, MediumSpec,
                   UnsupportedRegimeError)
from .identity import nonlinear_identity_residual
from .recon import (
    LINEARIZED,
    NONLINEAR_DIFFERENCE,
    ReconSettings,
    error_metrics,
    fourier_targets,
    mode_wavenumber,
    reconstruct,
    synthesize,
)
from .solver import linearized_nd_map_many, snapshots_many

PAPER = dict(a=-1.0, b=1.0, dx=1.0 / 250, dt=1.0 / 2500, T=5.0, N=10)

# experiment 2's medium on [-1, 1]: (start, end, level) of each piece
PIECEWISE = ((-1.0, -0.5, 2.0), (-0.5, 1.0 / 3.0, 1.5), (1.0 / 3.0, 1.0, 1.0))


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
    """Experiment 2's medium on a grid's nodes ``xs``: a node whose cell
    [x - dx/2, x + dx/2] holds a break takes the pieces' exact average over
    the cell, every other node its piece's level."""
    u, v, level = np.array(PIECEWISE).T
    dx, breaks = xs[1] - xs[0], u[1:]
    lo, hi = xs[:, None] - dx / 2.0, xs[:, None] + dx / 2.0
    cut = np.any((lo < breaks) & (breaks < hi), axis=1)
    average = (np.clip(np.minimum(hi, v) - np.maximum(lo, u), 0.0, None)
               @ level / dx)
    return np.where(cut, average, level[np.searchsorted(breaks, xs)])


def projection_truth(N: int, grid: GridSpec) -> np.ndarray:
    """The N-term series of experiment 2's medium on the nodes of ``grid``,
    from the pieces' exact moments: only this truncation is recoverable
    with an N-mode basis, so errors are reported against it."""
    if not (np.isclose(grid.a, -1.0) and np.isclose(grid.b, 1.0)):
        raise UnsupportedRegimeError(
            "the piecewise reference perturbation lives on [-1, 1]")
    u, v, level = np.array(PIECEWISE).T
    w = 2.0 * mode_wavenumber(np.arange(1, N + 1), grid)[:, None]
    a = (np.sin(w * v) - np.sin(w * u)) / w @ level
    b = (np.cos(w * u) - np.cos(w * v)) / w @ level
    return synthesize(FourierCoeffs(N, level @ (v - u), a, b), grid).real


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


def _experiment_id(value: str) -> int:
    exp_id = int(value)
    if exp_id not in (1, 2, 3):
        raise ValueError(f"experiment id must be 1, 2 or 3, got {exp_id}")
    return exp_id


# ---------------------------------------------------------------------------
# result emission


def emit_results(coeffs: FourierCoeffs, sigma: np.ndarray, truth: np.ndarray,
                 xs: np.ndarray, out_dir, summary: dict):
    """Write reconstruction.csv, coefficients.csv and summary.json.

    ``sigma`` and ``truth`` are the reconstruction and the truth sampled on
    the spatial nodes ``xs``.  Formatting is deterministic, so re-emitting
    the same data reproduces the files byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write_csv(path, header, columns):
        np.savetxt(path, np.column_stack(columns), fmt="%.12g", delimiter=",",
                   header=header, comments="")

    rec_path = out / "reconstruction.csv"
    write_csv(rec_path, "x,sigma_true,sigma_recon_re,sigma_recon_im",
              (xs, truth, sigma.real, sigma.imag))

    coeff_path = out / "coefficients.csv"
    a = np.concatenate(([coeffs.a0], coeffs.a))
    b = np.concatenate(([0.0], coeffs.b))
    write_csv(coeff_path, "k,a_re,a_im,b_re,b_im",
              (np.arange(coeffs.N + 1), a.real, a.imag, b.real, b.imag))

    summary_path = out / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return rec_path, coeff_path, summary_path


# ---------------------------------------------------------------------------
# commands


# the host's memory, then a cgroup's memory limit: version 2, then 1
_MEMINFO = "/proc/meminfo"
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max",
                  "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _available_bytes() -> int | None:
    """The most memory this process can take, None when nothing is known:
    the smallest of the host's available memory, its cgroup's memory limit
    and the room left under its address-space limit.  The host's is
    MemAvailable, which counts the page cache the kernel can reclaim, or
    where that is not reported the physical memory; the cgroup's usage is
    not subtracted, since it also counts reclaimable page cache.  The
    values are read, never set."""
    room = []
    try:
        with open(_MEMINFO) as fh:
            room.extend(1024 * int(line.split()[1]) for line in fh
                        if line.startswith("MemAvailable:"))
    except (OSError, ValueError, IndexError):
        pass
    if not room:
        try:
            room.append(os.sysconf("SC_PHYS_PAGES")
                        * os.sysconf("SC_PAGE_SIZE"))
        except (AttributeError, ValueError, OSError):  # not on every platform
            pass
    for limit_file in _CGROUP_LIMITS:
        try:
            limit = Path(limit_file).read_text().strip()
        except OSError:
            continue
        if limit.isdigit():
            room.append(int(limit))
        break
    try:
        import resource  # imported here: start-up does not pay for it
    except ImportError:  # not on every platform
        return min(room, default=None)
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        try:  # the address space already taken, where Linux reports it
            pages = int(Path("/proc/self/statm").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            pages = 0
        room.append(soft - pages * resource.getpagesize())
    return min(room, default=None)


def _check_memory(settings: ReconSettings) -> None:
    """Refuse a run whose estimated peak exceeds the memory the process can
    take, before it allocates anything of the grid's size."""
    need, room = settings.peak_bytes(), _available_bytes()
    if room is not None and need > room:
        grid = support_grid(settings.grid)
        raise MemoryError(
            f"the run needs about {_readable(need / 2**20)} MiB (nt = "
            f"{_readable(grid.nt)}, nx = {_readable(grid.nx)}) but only "
            f"{max(room, 0) / 2**20:.0f} MiB are available to the process")


def _readable(x) -> str:
    """``x`` to the unit, or to three digits above 1e15."""
    from decimal import Decimal  # an int may be too large for a float
    return f"{Decimal(x):.3g}" if x > 1e15 else f"{x:.0f}"


# mode N's phase error phi'_N above which a run is warned of, and above
# which it is refused (README, "Under-resolved N")
_PHASE_WARN = 0.12
_PHASE_REFUSE = 0.36


def _phase_error(grid: GridSpec, N: int) -> float:
    """phi'_N = 2((b - a) + 1) |kappa_N - omega(kappa_N)|: the phase by which
    the scheme's wave of mode N's wavenumber kappa_N = N pi / (b - a) falls
    behind the exact one over twice the controls' duration (b - a) + 1, with
    omega from the scheme's dispersion relation
    sin(omega dt / 2) = (dt / dx) sin(kappa dx / 2)."""
    kappa = mode_wavenumber(N, grid)
    omega = 2.0 / grid.dt * np.arcsin(
        grid.dt / grid.dx * np.sin(kappa * grid.dx / 2.0))
    return float(2.0 * (grid.b - grid.a + 1.0) * abs(kappa - omega))


def run_experiment(config: RunConfig) -> int:
    try:
        if not config.out_dir:
            raise ValueError("the output directory (--out) is empty")
        grid = config.grid()
        # checks N before experiment 2 sums its N-term truth
        settings = ReconSettings(grid=grid, N=config.N,
                                 noise_eps=config.noise, seed=config.seed)
        _check_memory(settings)
        phase = _phase_error(grid, config.N)
        if phase > _PHASE_REFUSE:
            raise ValueError(
                f"N = {config.N} is under-resolved on this grid: mode N's "
                f"phase error phi'_N = {phase:.3g} exceeds {_PHASE_REFUSE}; "
                "lower N or refine dx and dt")
        if phase > _PHASE_WARN:
            print(f"warning: N = {config.N} is near the grid's resolution: "
                  f"mode N's phase error phi'_N = {phase:.3g} exceeds "
                  f"{_PHASE_WARN}, so the top modes lose accuracy",
                  file=sys.stderr)
        medium, truth, mode, eps_lin = experiment_setup(
            config.experiment_id, grid, config.N
        )
        settings = replace(settings, data_mode=mode,
                           eps_linearization=eps_lin)
        t0 = time.perf_counter()
        coeffs = reconstruct(settings, medium)
        sigma = synthesize(coeffs, grid)
        rel_l2, linf = error_metrics(sigma, truth, grid)
        runtime = time.perf_counter() - t0
        if not np.isfinite([rel_l2, linf]).all():
            raise ValueError(
                f"the reconstruction error is not finite (rel_l2 = {rel_l2}, "
                f"linf = {linf}); its data are too large or not finite")
    # ConfigurationError is a ValueError; a run too large for the memory
    # left, or a failed allocation, raises MemoryError
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the grid the run measured on, next to the requested one
    measured = support_grid(grid)
    summary = {
        "rel_l2": rel_l2,
        "linf": linf,
        "experiment": config.experiment_id,
        "noise": config.noise,
        "seed": config.seed,
        "N": config.N,
        "data_mode": mode,
        "eps_linearization": eps_lin,
        "runtime_seconds": round(runtime, 3),
        "grid": {"a": PAPER["a"], "b": PAPER["b"], "dx": config.dx,
                 "dt": config.dt, "T": config.T},
        "support_grid": {"T": measured.T, "nt": measured.nt},
    }
    try:
        paths = emit_results(coeffs, sigma, truth, grid.xs, config.out_dir,
                             summary)
    except OSError as exc:
        print(f"error writing results: {exc}", file=sys.stderr)
        return 1
    print(f"experiment {config.experiment_id}: rel_l2 = {rel_l2:.4%}, "
          f"linf = {linf:.4g}, runtime = {runtime:.1f}s")
    for p in paths:
        print(f"  wrote {p}")
    return 0


def smooth_pulse_trace(grid: GridSpec, t0: float, width: float, omega: float,
                       weight_a: float, weight_b: float):
    """Gaussian-windowed tone burst (trace, analytic derivative trace).

    Its envelope bounds either end at t = 0: |trace(0)| <= |weight| *
    exp(-(t0 / width)^2), below the stepper's 1e-9 tolerance for
    t0 >= 4.6 * width, so it is then an admissible Neumann datum for zero
    initial conditions.
    """
    ts = grid.ts
    env, sin = np.exp(-((ts - t0) / width) ** 2), np.sin(omega * ts)
    val = env * sin
    dval = env * (omega * np.cos(omega * ts)
                  - 2.0 * (ts - t0) / width**2 * sin)
    return tuple(BoundaryTrace(np.outer((weight_a, weight_b), v), grid.dt)
                 for v in (val, dval))


# each check suite yields its rows (name, measured, low, tol) as it measures
# them; a row passes when low <= measured <= tol, so NaN fails every row
def _check_control():
    # unit-CFL time step: exact 1D propagation isolates the controls from
    # the instrument's dispersion (see README, notes on numerics)
    grid = GridSpec(PAPER["a"], PAPER["b"], PAPER["dx"], PAPER["dx"], PAPER["T"])
    pT_f, pT_h, lam = fourier_targets(1, grid)
    reps = verify_control([(pT_f, lam), (pT_h, lam)], grid)
    for name, rep in zip(("sin", "cos"), reps):
        yield f"control fidelity err_p ({name}, k=1)", rep.err_p, -np.inf, 1e-2
        yield (f"control fidelity err_init ({name}, k=1)", rep.err_init,
               -np.inf, 1e-10)


def _identity_pulses(grid: GridSpec):
    f = smooth_pulse_trace(grid, 1.2, 0.25, 6.0, 1.0, 0.3)
    h = smooth_pulse_trace(grid, 1.7, 0.30, 4.0, 0.5, 1.0)
    return f, h


def _check_identity():
    grid = GridSpec(PAPER["a"], PAPER["b"], PAPER["dx"], PAPER["dt"], PAPER["T"])
    f, h = _identity_pulses(grid)
    rep = nonlinear_identity_residual(f, h, 0.3, grid)
    yield ("nonlinear identity rel residual (sigma=0.3)", rep.rel_residual,
           -np.inf, 1e-2)
    # the map the experiments measure with against the stepper, its
    # reference, on the support grid of the control check's unit-CFL grid,
    # where the stepper is cheap, driven by mode 1's sine control
    grid = support_grid(
        GridSpec(PAPER["a"], PAPER["b"], PAPER["dx"], PAPER["dx"], PAPER["T"]))
    medium = MediumSpec(0.0, smooth_perturbation(grid.xs))
    pT_f, _, lam = fourier_targets(1, grid)
    f_t = build_control(pT_f, lam, grid).f_t
    measure = ReconSettings(grid).measurement(medium)
    (got,) = measure([f_t])
    (want,) = linearized_nd_map_many(grid, medium, [f_t])
    yield ("linearized map: transfer vs stepper (rel)",
           np.max(np.abs(got.values - want.values))
           / np.max(np.abs(want.values)), -np.inf, 1e-9)


def _mms_error(grid: GridSpec) -> float:
    """Manufactured solution u = t^2 cos(pi x): zero data, known source."""
    xs = grid.xs
    sigma = 0.3 * (1.0 + xs**2)
    cos_px = np.cos(np.pi * xs)
    # S = (2 + 2 t sigma + pi^2 t^2) cos(pi x) at t_n, n = 0 .. T/dt - 1,
    # built in place in the expression's order: one array of the source's size
    t = np.arange(grid.half_index)[:, None] * grid.dt
    source = np.multiply(2.0 * t, sigma)
    np.add(2.0, source, out=source)
    source += np.pi**2 * t**2
    source *= cos_px
    u, _ = snapshots_many(grid, sigma, [BoundaryTrace.zeros(grid)],
                          source=source)
    exact = grid.T**2 * cos_px
    return float(np.linalg.norm(u[0] - exact)
                 / np.linalg.norm(exact))


def _check_convergence():
    grids = [GridSpec(-1.0, 1.0, 1.0 / 25 / 2**i, 1.0 / 250 / 2**i, 3.0)
             for i in range(3)]
    errs = [_mms_error(g) for g in grids]
    for i in range(2):
        yield (f"solver order: MMS factor level {i}->{i + 1}",
               errs[i] / errs[i + 1], 3.4, 4.6)

    diffs = []
    for g in (GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 3.0),
              GridSpec(-1.0, 1.0, 1.0 / 100, 1.0 / 1000, 3.0)):
        f, h = _identity_pulses(g)
        rep = nonlinear_identity_residual(f, h, 0.3, g)
        diffs.append(abs(rep.lhs - rep.rhs))
    yield "identity residual refinement factor", diffs[0] / diffs[1], 3.4, 4.6


_CHECKS = {
    "identity": _check_identity,
    "control": _check_control,
    "convergence": _check_convergence,
}


def run_check(kind: str) -> int:
    """Print each row of suite ``kind`` as it is measured; 1 if any fails."""
    failed = False
    for name, measured, low, tol in _CHECKS[kind]():
        ok = low <= measured <= tol
        failed |= not ok
        print(f"{name:<44s} measured={measured:<12.4g} tol={tol:<10.4g} "
              f"{'PASS' if ok else 'FAIL'}")
    return int(failed)


# ---------------------------------------------------------------------------
# configuration parsing

# RunConfig fields that are both `experiment` flags and config-file keys;
# each takes its type and default from its field
_RUN_OPTIONS = ("noise", "seed", "N", "dx", "dt", "T")
_OPTION_TYPES = typing.get_type_hints(RunConfig)

_CONFIG_KEYS = {
    "experiment": ("experiment_id", _experiment_id),
    **{name: (name, _OPTION_TYPES[name]) for name in _RUN_OPTIONS},
    "out": ("out_dir", str),
}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines with ``#`` comments, each key at most once,
    in UTF-8 with or without a byte-order mark."""
    updates, lines = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: {key}: repeated (first set "
                             f"on line {lines[key]})")
        lines[key] = lineno
        attr, conv = _CONFIG_KEYS[key]
        try:
            if not value:
                raise ValueError("empty value")
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


def _fix_malloc_thresholds() -> None:
    """Fix glibc's allocator thresholds, so that a freed array of a few MB
    stays in the heap for the next one, not unmapped and faulted in anew.

    glibc otherwise raises its mmap threshold to the size of the last block
    it unmapped, so blocks of a size just freed alternate between the heap
    and fresh mappings.  Fixed values override the ``MALLOC_*_`` variables.
    Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, 32 MiB
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, 64 MiB


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _fix_malloc_thresholds()
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
        if args.out is not None:
            updates["out_dir"] = args.out
        return run_experiment(RunConfig(**updates))
    return run_check(args.kind)


if __name__ == "__main__":
    sys.exit(main())
