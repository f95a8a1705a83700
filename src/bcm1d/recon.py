"""Per-mode boundary-control reconstruction of the damping perturbation.

For each mode index k the pipeline builds the sine/cosine control pair whose
background snapshots are sin(kappa x) and cos(kappa x) with kappa = k pi / L
(L the domain length) and free parameter lam = i kappa, measures the
linearized responses of the derivative controls, and evaluates the boundary
identity for the pairs (f, h), (f, f) and (h, h).  Products of the two
snapshots collapse, via the double-angle relations, to the cosine and sine
moments of the perturbation at spatial frequency 2 kappa:

    a_k = S_hh - S_ff   (cosine moment),
    b_k = 2 S_fh        (sine moment),
    a_0 = S_hh + S_ff at k = 1   (total integral).

The synthesized perturbation is the truncated series with these moments.
Measurements may come from the linearized solver or, to exercise the full
nonlinear route, from the difference quotients of nonlinear measurements at
perturbed and background damping, which approximate the linearized ones.

Gaussian measurement noise is relative: each measured trace receives i.i.d.
zero-mean samples with standard deviation eps_noise times the trace's RMS
(real and imaginary parts independently, each with 1/sqrt(2) of the
variance).  :func:`reconstruct` measures on the controls' support grid
(:func:`~bcm1d.control.support_grid`), whose steps are the ones the
controls drive, so one eps_noise gives one noise-to-signal ratio at every
T.  Noise streams are derived per (mode, trace role), so results are
reproducible and independent of evaluation order.

Each mode's data are one :class:`ModeData`: the free parameter and one
:class:`~bcm1d.identity.ControlData` record per control (f the sine, h the
cosine control), each carrying its control, the control's analytic time
derivative and measured responses, taken by :meth:`ReconSettings.measurement`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .control import build_control, support_grid
from .core import (
    BoundaryTrace,
    ConfigurationError,
    FourierCoeffs,
    GridSpec,
    MediumSpec,
    UnsupportedRegimeError,
    _check_integer,
    _check_real,
    _check_samples,
)
from .extension import AnalyticProfile, cosine_profile, sine_profile
from .identity import ControlData, linearized_rhs
from .solver import transfer_difference_nd_map, transfer_linearized_nd_map

_REL_L2_FLOOR = 1e-12

# the memory a reconstruction adds, fitted to within 18% of the growth of
# the peak RSS in 24 runs of `bcm experiment` (support grids of 1507 to
# 60007 steps, nx 101 and 501, each experiment, with and without noise,
# each with and without cached bytecode): bytes per step of the support
# grid and per node, a fixed part, and numpy.random
_BYTES_PER_STEP = 930
_BYTES_PER_NODE = 700
_FIXED_BYTES = 1 << 18
_NUMPY_RANDOM_BYTES = 6 << 20

LINEARIZED = "linearized"
NONLINEAR_DIFFERENCE = "nonlinear_difference"


@dataclass(frozen=True)
class ReconSettings:
    """Reconstruction configuration (defaults follow the reference setup)."""

    grid: GridSpec
    N: int = 10
    noise_eps: float = 0.0
    seed: int = 0
    data_mode: str = LINEARIZED
    eps_linearization: float = 1e-3

    def __post_init__(self) -> None:
        _check_integer("N", self.N, 1)
        # mode N's frequency 2 N pi / (b - a) must stay below the nodes'
        # Nyquist limit pi / dx = (nx - 1) pi / (b - a)
        n_max = (self.grid.nx - 2) // 2
        if self.N > n_max:
            raise ValueError(f"N = {self.N} exceeds the grid's resolution: " + (
                f"this grid allows N <= {n_max}" if n_max else
                f"the grid's {self.grid.nx} nodes are too few for any mode "
                "(N >= 1 needs nx >= 4)"))
        _check_integer("seed", self.seed, 0)
        _check_real("noise_eps", self.noise_eps, 0)
        if self.data_mode not in (LINEARIZED, NONLINEAR_DIFFERENCE):
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        # only nonlinear-difference data divide by it
        _check_real("eps_linearization", self.eps_linearization,
                    0 if self.data_mode == NONLINEAR_DIFFERENCE else None,
                    strict=True)

    def measurement(self, medium: MediumSpec) -> Callable:
        """The map from driven traces to measured traces in ``medium``: the
        linearized ND map, or its difference quotient (nonlinear data at
        damping sigma0 + eps sigma_dot (+ eps^2 sigma_ddot) minus those at
        sigma0, over eps).  The map's kernel is built here, once."""
        if self.data_mode == LINEARIZED:
            return transfer_linearized_nd_map(self.grid, medium)
        return transfer_difference_nd_map(self.grid, medium,
                                          self.eps_linearization)

    def peak_bytes(self) -> int:
        """An estimate of the memory :func:`reconstruct` adds to the process
        at its peak, computed without allocating: bytes per step of the
        support grid (the measurement map's kernel, FFT buffers and plans,
        a mode's controls, their extension and its measured traces), per
        node, a fixed part, and for noise numpy.random, which numpy loads
        on first use.  The coefficients are measured peaks of ``bcm
        experiment``, not derived from the arrays' layouts."""
        grid = support_grid(self.grid)
        return (_BYTES_PER_STEP * grid.nt + _BYTES_PER_NODE * grid.nx
                + _FIXED_BYTES + (self.noise_eps > 0) * _NUMPY_RANDOM_BYTES)


class ModeData(NamedTuple):
    """Free parameter and the sine (f) and cosine (h) control data of a mode."""

    lam: complex
    f: ControlData
    h: ControlData


def mode_wavenumber(k: int, grid: GridSpec) -> float:
    return k * np.pi / (grid.b - grid.a)


def fourier_targets(k: int, grid: GridSpec
                    ) -> tuple[AnalyticProfile, AnalyticProfile, complex]:
    """Sine/cosine velocity targets and free parameter for mode ``k``:
    ``(pT_f, pT_h, lam)``."""
    _check_integer("mode index", k, 1)
    with np.errstate(over="ignore"):
        kappa = mode_wavenumber(k, grid)
    if not np.isfinite(kappa):
        raise ConfigurationError("mode index must be small enough for a "
                                 f"finite wavenumber, got {k:.3g}")
    return sine_profile(kappa), cosine_profile(kappa), 1j * kappa


def add_noise(
    trace: BoundaryTrace, eps: float, rng: np.random.Generator
) -> BoundaryTrace:
    """Relative Gaussian noise: per-sample std is eps * RMS(trace).

    The RMS is taken over both endpoint series jointly; every sample is
    perturbed, real and imaginary parts independently with std
    eps * RMS / sqrt(2).  A zero trace (RMS = 0) and eps = 0 are returned
    unchanged.  Noise too large for floats gives infinite samples, which
    :func:`reconstruct_from_data` rejects, naming the mode.
    """
    _check_real("eps", eps, 0)
    n = len(trace)
    rms = np.sqrt(sum(np.sum(np.abs(v) ** 2) for v in trace.values) / (2 * n))
    if eps == 0.0 or rms == 0.0:
        return trace
    with np.errstate(over="ignore", invalid="ignore"):
        std = eps * rms / np.sqrt(2.0)
        # (end, real then imaginary part, sample): a then b
        z = rng.standard_normal((2, 2, n))
        noise = std * (z[:, 0] + 1j * z[:, 1])
        return BoundaryTrace(trace.values + noise, trace.dt)


def apply_measurement_noise(
    data: ModeData, k: int, eps: float, seed: int
) -> ModeData:
    """Noisy copy of ``data``; each measured trace gets its (k, label) stream
    (see :func:`add_noise`)."""
    if eps == 0.0:
        return data

    def noisy(trace, label):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(k, label))
        return add_noise(trace, eps, np.random.default_rng(ss))

    # substream labels of (meas_t, meas_tt): 0, 1 for f; 2, 3 for h
    f, h = data.f, data.h
    return data._replace(
        f=replace(f, meas_t=noisy(f.meas_t, 0), meas_tt=noisy(f.meas_tt, 1)),
        h=replace(h, meas_t=noisy(h.meas_t, 2), meas_tt=noisy(h.meas_tt, 3)))


def acquire_clean_pair_data(k: int, grid: GridSpec, measure: Callable) -> ModeData:
    """Controls and measurements for mode ``k``, no noise: ``measure`` (see
    :meth:`ReconSettings.measurement`) takes the first and second analytic
    time derivatives of the sine and cosine controls."""
    pT_f, pT_h, lam = fourier_targets(k, grid)
    bf = build_control(pT_f, lam, grid)
    bh = build_control(pT_h, lam, grid)
    f_t, f_tt, h_t, h_tt = measure([bf.f_t, bf.f_tt, bh.f_t, bh.f_tt])
    return ModeData(lam, ControlData(bf.f, bf.f_t, f_t, f_tt),
                    ControlData(bh.f, bh.f_t, h_t, h_tt))


def synthesize(coeffs: FourierCoeffs, grid: GridSpec) -> np.ndarray:
    """Sample the truncated series on the spatial grid.

    sigma(x) = a0/L + (2/L) sum_k [ a_k cos(2 kappa_k x) + b_k sin(2 kappa_k x) ]
    with L = b - a; on a length-2 domain this is the familiar
    a0/2 + sum a_k cos(k pi x) + b_k sin(k pi x).
    """
    xs = grid.xs
    L = grid.b - grid.a
    # an overflowing node is refused by name below
    with np.errstate(over="ignore", invalid="ignore"):
        result = np.full(grid.nx, coeffs.a0 / L, dtype=complex)
        for k in range(1, coeffs.N + 1):
            w = 2.0 * mode_wavenumber(k, grid)
            result += (2.0 / L) * (coeffs.a[k - 1] * np.cos(w * xs)
                                   + coeffs.b[k - 1] * np.sin(w * xs))
    return _check_samples("synthesized sigma", result, dtype=complex)


def error_metrics(sigma: np.ndarray, truth: np.ndarray, grid: GridSpec
                  ) -> tuple[float, float]:
    """(rel_l2, linf) of the real part of ``sigma`` against ``truth``, both
    checked as finite samples on the nodes of ``grid`` and ``truth`` as
    real: inf where the squares overflow, for the caller to judge."""
    sigma = _check_samples("sigma", sigma, grid.nx, complex)
    truth = _check_samples("truth", truth, grid.nx)
    diff = sigma.real - truth
    with np.errstate(over="ignore"):
        num = np.sqrt(np.trapezoid(diff**2, dx=grid.dx))
        den = np.sqrt(np.trapezoid(truth**2, dx=grid.dx))
        rel_l2 = float(num / max(den, _REL_L2_FLOOR))
    return rel_l2, float(np.max(np.abs(diff)))


def reconstruct_from_data(
    mode_data: Iterable[ModeData], settings: ReconSettings
) -> FourierCoeffs:
    """Identity values of the pairs (f, f), (h, h), (f, h) for the data of
    modes 1 .. N, taken one mode at a time, mapped to moments by the
    double-angle relations a = S_hh - S_ff, b = 2 S_fh, a0 = (S_hh + S_ff)[0].

    Raises ``ConfigurationError`` naming the mode whose identity values are
    not finite, so that overflowing data never become NaN results.
    """
    grid = settings.grid

    def values(k: int, data: ModeData) -> tuple[complex, complex, complex]:
        lam, f, h = data
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            S = (linearized_rhs(f, f, lam, grid),
                 linearized_rhs(h, h, lam, grid),
                 linearized_rhs(f, h, lam, grid))
        if not np.all(np.isfinite(S)):
            raise ConfigurationError(
                f"mode k = {k} has a non-finite identity value (S_ff, S_hh, "
                f"S_fh = {S[0]}, {S[1]}, {S[2]}); its data are too large or "
                "not finite"
            )
        return S

    # map, not a comprehension, whose loop variable would keep each mode's
    # data alive while ``mode_data`` produces the next one
    S = np.array(list(map(values, itertools.count(1), mode_data)),
                 dtype=complex).reshape(-1, 3)
    if len(S) != settings.N:
        raise ValueError(f"need {settings.N} identity values per pair kind")
    S_ff, S_hh, S_fh = S.T
    return FourierCoeffs(settings.N, complex(S_hh[0] + S_ff[0]), S_hh - S_ff,
                         2.0 * S_fh)


def reconstruct(settings: ReconSettings, medium: MediumSpec) -> FourierCoeffs:
    """Full pipeline: controls -> data -> identity values -> moments.

    Deterministic for a fixed seed.  The medium must be the free background
    (sigma0 = 0), the regime with exact closed-form controls.  The controls
    are measured on their support grid, which replaces ``settings.grid``.
    Each mode's data are dropped as soon as its identity values are taken,
    before the next mode is acquired.  :func:`synthesize` samples the
    series and :func:`error_metrics` scores it.
    """
    if medium.sigma0 != 0.0:
        raise UnsupportedRegimeError(
            f"reconstruction requires sigma0 = 0; got sigma0 = {medium.sigma0}"
        )
    settings = replace(settings, grid=support_grid(settings.grid))
    grid, measure = settings.grid, settings.measurement(medium)
    modes = (
        apply_measurement_noise(acquire_clean_pair_data(k, grid, measure),
                                k, settings.noise_eps, settings.seed)
        for k in range(1, settings.N + 1)
    )
    return reconstruct_from_data(modes, settings)
