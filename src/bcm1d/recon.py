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
variance).  Noise streams are derived per (mode, trace role), so results
are reproducible and independent of evaluation order.

Each mode's data are one :class:`ModeData`: the free parameter and one
:class:`~bcm1d.identity.ControlData` record per control (f the sine, h the
cosine control), each carrying its control, the control's analytic time
derivative and measured responses, taken by :meth:`ReconSettings.measurement`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .control import build_control
from .core import (
    BoundaryTrace,
    ConfigurationError,
    FourierCoeffs,
    GridSpec,
    MediumSpec,
    UnsupportedRegimeError,
)
from .extension import AnalyticProfile, cosine_profile, sine_profile
from .identity import ControlData, linearized_rhs
from .solver import (_check_cfl, transfer_difference_nd_map,
                     transfer_linearized_nd_map)

_REL_L2_FLOOR = 1e-12

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
        if not isinstance(self.N, (int, np.integer)):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        # the solver's checks first: a grid too coarse to run has no modes
        _check_cfl(self.grid)
        # mode N's frequency 2 N pi / (b - a) must stay below the nodes'
        # Nyquist limit pi / dx = (nx - 1) pi / (b - a)
        n_max = (self.grid.nx - 2) // 2
        if self.N > n_max:
            raise ValueError(f"N = {self.N} exceeds the grid's resolution: "
                             f"this grid allows N <= {n_max}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("noise_eps", "eps_linearization"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.noise_eps < 0:
            raise ValueError(f"noise_eps must be >= 0, got {self.noise_eps}")
        if self.data_mode not in (LINEARIZED, NONLINEAR_DIFFERENCE):
            raise ValueError(f"unknown data_mode {self.data_mode!r}")
        if self.data_mode == NONLINEAR_DIFFERENCE and self.eps_linearization <= 0:
            raise ValueError("eps_linearization must be positive for "
                             "nonlinear-difference data")

    def measurement(self, medium: MediumSpec) -> Callable:
        """The map from driven traces to measured traces in ``medium``: the
        linearized ND map, or its difference quotient (nonlinear data at
        damping sigma0 + eps sigma_dot (+ eps^2 sigma_ddot) minus those at
        sigma0, over eps).  The map's kernel is built here, once."""
        if self.data_mode == LINEARIZED:
            return transfer_linearized_nd_map(self.grid, medium)
        return transfer_difference_nd_map(self.grid, medium,
                                          self.eps_linearization)


@dataclass(frozen=True)
class ReconResult:
    coeffs: FourierCoeffs
    sigma_recon: np.ndarray  # complex samples on the spatial nodes
    truth: np.ndarray        # real samples the error metrics refer to
    rel_l2: float
    linf: float


class TargetSet(NamedTuple):
    pT_f: AnalyticProfile
    pT_h: AnalyticProfile
    lam: complex


class ModeData(NamedTuple):
    """Free parameter and the sine (f) and cosine (h) control data of a mode."""

    lam: complex
    f: ControlData
    h: ControlData


def mode_wavenumber(k: int, grid: GridSpec) -> float:
    return k * np.pi / (grid.b - grid.a)


def fourier_targets(k: int, grid: GridSpec) -> TargetSet:
    """Sine/cosine velocity targets and free parameter for mode ``k``."""
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    kappa = mode_wavenumber(k, grid)
    return TargetSet(sine_profile(kappa), cosine_profile(kappa), 1j * kappa)


def add_noise(
    trace: BoundaryTrace, eps: float, rng: np.random.Generator
) -> BoundaryTrace:
    """Relative Gaussian noise: per-sample std is eps * RMS(trace).

    The RMS is taken over both endpoint series jointly; real and imaginary
    parts are perturbed independently with std eps * RMS / sqrt(2).  A zero
    trace (RMS = 0) and eps = 0 are returned unchanged.
    """
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    n = len(trace)
    rms = np.sqrt(
        (np.sum(np.abs(trace.values_a) ** 2) + np.sum(np.abs(trace.values_b) ** 2))
        / (2 * n)
    )
    if eps == 0.0 or rms == 0.0:
        return trace
    std = eps * rms / np.sqrt(2.0)
    noise_a = std * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    noise_b = std * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return BoundaryTrace(trace.values_a + noise_a, trace.values_b + noise_b,
                         trace.dt)


def apply_measurement_noise(
    data: ModeData, k: int, eps: float, seed: int
) -> ModeData:
    """Noisy copy of ``data``; each measured trace gets its (k, label) stream."""
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


def assemble_coefficients(
    S_ff: Sequence[complex],
    S_hh: Sequence[complex],
    S_fh: Sequence[complex],
    N: int,
) -> FourierCoeffs:
    """Turn per-mode identity values into cosine/sine moments.

    ``S_ff[k-1]``, ``S_hh[k-1]``, ``S_fh[k-1]`` are the identity values of
    the pairs (f_k, f_k), (h_k, h_k), (f_k, h_k).
    """
    if not (len(S_ff) == len(S_hh) == len(S_fh) == N):
        raise ValueError(f"need {N} identity values per pair kind")
    S_ff = np.asarray(S_ff, dtype=complex)
    S_hh = np.asarray(S_hh, dtype=complex)
    S_fh = np.asarray(S_fh, dtype=complex)
    return FourierCoeffs(
        N=N,
        a0=complex(S_hh[0] + S_ff[0]),
        a=S_hh - S_ff,
        b=2.0 * S_fh,
    )


def synthesize(coeffs: FourierCoeffs, grid: GridSpec) -> np.ndarray:
    """Sample the truncated series on the spatial grid.

    sigma(x) = a0/L + (2/L) sum_k [ a_k cos(2 kappa_k x) + b_k sin(2 kappa_k x) ]
    with L = b - a; on a length-2 domain this is the familiar
    a0/2 + sum a_k cos(k pi x) + b_k sin(k pi x).
    """
    xs = grid.xs
    L = grid.b - grid.a
    result = np.full(grid.nx, coeffs.a0 / L, dtype=complex)
    for k in range(1, coeffs.N + 1):
        w = 2.0 * mode_wavenumber(k, grid)
        result += (2.0 / L) * (coeffs.a[k - 1] * np.cos(w * xs)
                               + coeffs.b[k - 1] * np.sin(w * xs))
    return result


def projection_truth(N: int, grid: GridSpec) -> np.ndarray:
    """Truncated series of the reference piecewise perturbation on [-1, 1].

    The piecewise levels 2, 3/2, 1 with breakpoints -1/2 and 1/3 have the
    closed-form cosine/sine moments

        c_k = [sin(k pi/3) - sin(k pi/2)] / (2 k pi),
        d_k = -[cos(k pi/3) + cos(k pi/2) - 2 cos(k pi)] / (2 k pi),

    around the mean 35/24.  Only the N-term truncation is recoverable with
    an N-mode basis, so errors are reported against it.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not (np.isclose(grid.a, -1.0) and np.isclose(grid.b, 1.0)):
        raise UnsupportedRegimeError(
            "the piecewise reference perturbation lives on [-1, 1]"
        )
    xs = grid.xs
    out = np.full(grid.nx, 35.0 / 24.0)
    for k in range(1, N + 1):
        c_k = (np.sin(k * np.pi / 3) - np.sin(k * np.pi / 2)) / (2 * k * np.pi)
        d_k = -(np.cos(k * np.pi / 3) + np.cos(k * np.pi / 2)
                - 2 * np.cos(k * np.pi)) / (2 * k * np.pi)
        out += c_k * np.cos(k * np.pi * xs) + d_k * np.sin(k * np.pi * xs)
    return out


def _error_metrics(sigma_recon, truth, grid):
    diff = sigma_recon.real - truth
    num = np.sqrt(np.trapezoid(diff**2, dx=grid.dx))
    den = np.sqrt(np.trapezoid(truth**2, dx=grid.dx))
    rel_l2 = float(num / max(den, _REL_L2_FLOOR))
    return rel_l2, float(np.max(np.abs(diff)))


def reconstruct_from_data(
    mode_data: Iterable[ModeData], settings: ReconSettings, truth: np.ndarray
) -> ReconResult:
    """Identity evaluation, coefficient assembly and synthesis for the data
    of modes 1 .. N, taken one mode at a time.

    Raises ``ConfigurationError`` naming the mode whose identity values are
    not finite, so that overflowing data never become NaN results.  A
    ``truth`` off the spatial grid is rejected before any mode is taken.
    """
    grid = settings.grid
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (grid.nx,):
        raise ValueError(f"truth must have shape ({grid.nx},) to match the "
                         f"grid, got {truth.shape}")

    def values(k: int, data: ModeData) -> tuple[complex, complex, complex]:
        lam, f, h = data
        S = (linearized_rhs(f, f, lam, grid), linearized_rhs(h, h, lam, grid),
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
    coeffs = assemble_coefficients(*S.T, settings.N)
    sigma_recon = synthesize(coeffs, grid)
    rel_l2, linf = _error_metrics(sigma_recon, truth, grid)
    return ReconResult(coeffs=coeffs, sigma_recon=sigma_recon, truth=truth,
                       rel_l2=rel_l2, linf=linf)


def reconstruct(
    settings: ReconSettings, medium: MediumSpec, truth: np.ndarray
) -> ReconResult:
    """Full pipeline: controls -> data -> identity values -> series.

    Deterministic for a fixed seed.  The medium must be the free background
    (sigma0 = 0), the regime with exact closed-form controls.
    Each mode's data are dropped as soon as its identity values are taken,
    before the next mode is acquired.
    """
    if medium.sigma0 != 0.0:
        raise UnsupportedRegimeError(
            f"reconstruction requires sigma0 = 0; got sigma0 = {medium.sigma0}"
        )
    measure = settings.measurement(medium)
    modes = (
        apply_measurement_noise(
            acquire_clean_pair_data(k, settings.grid, measure),
            k, settings.noise_eps, settings.seed)
        for k in range(1, settings.N + 1)
    )
    return reconstruct_from_data(modes, settings, truth)
