"""Shared numeric types and trace algebra for the 1D damped-wave pipeline.

The measurement geometry is the space-time cylinder (0, 2T) x (a, b): waves
are driven and recorded at the two endpoints over a time window of length 2T,
and interior states are probed at the half time T.  Everything downstream
(controls, solvers, identities, reconstruction) shares the uniform grid
described by :class:`GridSpec` and exchanges endpoint time series as
:class:`BoundaryTrace` values.

Sample j of a trace is time j*dt, and 2T/dt is an integer, so time
reversal about T is index reversal: the sample at 2T - t is sample
2T/dt - j, read from the same array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class GridMismatchError(ValueError):
    """Two objects that must share a discretization do not."""


class ConfigurationError(ValueError):
    """A grid/medium combination violates a scheme requirement (e.g. CFL)."""


class UnsupportedRegimeError(ValueError):
    """An operation was requested outside the background regime it supports."""


def _check_finite(spec, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(spec, name)
        if not np.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def _is_close_to_integer(x: float, tol: float = 1e-9) -> bool:
    return abs(x - round(x)) <= tol * max(1.0, abs(x))


@dataclass(frozen=True)
class GridSpec:
    """Uniform space/time discretization of (0, 2T) x (a, b).

    Parameters
    ----------
    a, b : float
        Spatial interval endpoints, b > a.
    dx : float
        Spatial node spacing; (b - a)/dx must be an integer.
    dt : float
        Time step; T/dt must be an integer so that t = T and the
        reflection t -> 2T - t land exactly on grid nodes.
    T : float
        Half measurement time.  T >= (b - a) + 1 is required so that the
        time-reversal control construction cancels exactly at t = 0.
    """

    a: float
    b: float
    dx: float
    dt: float
    T: float

    def __post_init__(self) -> None:
        _check_finite(self, ("a", "b", "dx", "dt", "T"))
        if not self.b > self.a:
            raise ConfigurationError(f"need b > a, got a={self.a}, b={self.b}")
        if self.dx <= 0 or self.dt <= 0 or self.T <= 0:
            raise ConfigurationError("dx, dt and T must be positive")
        if not _is_close_to_integer((self.b - self.a) / self.dx):
            raise ConfigurationError(
                f"(b - a)/dx = {(self.b - self.a) / self.dx} is not an integer"
            )
        if not _is_close_to_integer(self.T / self.dt):
            raise ConfigurationError(f"T/dt = {self.T / self.dt} is not an integer")
        if self.T < (self.b - self.a) + 1.0 - 1e-12:
            raise ConfigurationError(
                f"T = {self.T} < (b - a) + 1 = {(self.b - self.a) + 1}; "
                "the control construction needs the longer window"
            )

    @property
    def nx(self) -> int:
        return round((self.b - self.a) / self.dx) + 1

    @property
    def nt(self) -> int:
        return 2 * round(self.T / self.dt) + 1

    @property
    def half_index(self) -> int:
        """Index of the sample at t = T."""
        return round(self.T / self.dt)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.nx)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * self.T, self.nt)


@dataclass(frozen=True)
class MediumSpec:
    """Background medium plus damping perturbation samples on the grid.

    ``sigma0`` is the constant background damping.  ``sigma_dot`` holds
    the first-order damping perturbation sampled on the spatial nodes;
    ``sigma_ddot`` optionally carries a second-order term used when data are
    produced by nonlinear differences.
    """

    sigma0: float
    sigma_dot: np.ndarray
    sigma_ddot: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_finite(self, ("sigma0",))
        if self.sigma0 < 0:
            raise ConfigurationError(f"sigma0 must be non-negative, got {self.sigma0}")
        for name in ("sigma_dot", "sigma_ddot"):
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.asarray(value, dtype=float)
            if arr.ndim != 1:
                raise ConfigurationError(
                    f"{name} must be 1-D node samples, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"{name} has non-finite samples")
            if name == "sigma_ddot" and arr.shape != self.sigma_dot.shape:
                raise ConfigurationError(f"sigma_ddot has {arr.size} samples "
                                         f"but sigma_dot has {self.sigma_dot.size}")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class BoundaryTrace:
    """Complex time series at the two endpoints, sampled at t = 0, dt, ..., 2T.

    Sample j of either sequence corresponds to time j*dt.  Traces are value
    objects: arithmetic returns new traces and never mutates.
    """

    values_a: np.ndarray
    values_b: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        va = np.asarray(self.values_a, dtype=complex)
        vb = np.asarray(self.values_b, dtype=complex)
        if va.ndim != 1 or vb.ndim != 1 or va.shape != vb.shape:
            raise GridMismatchError(
                f"endpoint series must be 1-d with equal length, "
                f"got {va.shape} and {vb.shape}"
            )
        object.__setattr__(self, "values_a", va)
        object.__setattr__(self, "values_b", vb)

    def __len__(self) -> int:
        return self.values_a.shape[0]

    @classmethod
    def zeros(cls, grid: GridSpec) -> "BoundaryTrace":
        z = np.zeros(grid.nt, dtype=complex)
        return cls(z, z.copy(), grid.dt)

    @classmethod
    def from_functions(
        cls,
        grid: GridSpec,
        fa: Callable[[np.ndarray], np.ndarray],
        fb: Callable[[np.ndarray], np.ndarray],
    ) -> "BoundaryTrace":
        ts = grid.ts
        return cls(np.asarray(fa(ts), dtype=complex),
                   np.asarray(fb(ts), dtype=complex), grid.dt)

    def _check_compatible(self, other: "BoundaryTrace") -> None:
        if len(self) != len(other) or self.dt != other.dt:
            raise GridMismatchError(
                f"traces on different grids: ({len(self)}, dt={self.dt}) vs "
                f"({len(other)}, dt={other.dt})"
            )

    def __add__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        self._check_compatible(other)
        return BoundaryTrace(self.values_a + other.values_a,
                             self.values_b + other.values_b, self.dt)

    def __sub__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        self._check_compatible(other)
        return BoundaryTrace(self.values_a - other.values_a,
                             self.values_b - other.values_b, self.dt)

    def __mul__(self, c: complex) -> "BoundaryTrace":
        return BoundaryTrace(c * self.values_a, c * self.values_b, self.dt)

    __rmul__ = __mul__


@dataclass(frozen=True)
class FourierCoeffs:
    """Recovered cosine/sine coefficients up to truncation N.

    ``a[k-1]`` multiplies the k-th cosine mode and ``b[k-1]`` the k-th sine
    mode of the synthesized perturbation; ``a0`` is twice its mean value.
    For real perturbations and noiseless data the imaginary parts are small
    (a tested property, not an assumption).
    """

    N: int
    a0: complex
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.shape != (self.N,) or b.shape != (self.N,):
            raise ValueError(f"coefficient arrays must have shape ({self.N},)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def discrete_sobolev_norm(g: BoundaryTrace, s: int) -> float:
    """Discrete H^s norm of a trace over (0, T) x {a, b} for s in {0, 1, 2}.

    A trace holds 2T/dt + 1 samples, so the window ends at its middle
    sample; a trace of even length has no middle and is rejected.  Time
    derivatives of the restricted series are taken with second-order
    centered differences (one-sided at the ends); each derivative's squared
    L2 norm is accumulated by composite trapezoid.
    """
    if s not in (0, 1, 2):
        raise ValueError(f"s must be in {{0, 1, 2}}, got {s}")
    if len(g) % 2 == 0:
        raise GridMismatchError(f"a trace has 2T/dt + 1 samples, got {len(g)}")
    j = len(g) // 2
    if j + 1 < 3:
        raise ValueError("too few samples for second-order differences")
    total = 0.0
    for series in (g.values_a[: j + 1], g.values_b[: j + 1]):
        deriv = series
        for _ in range(s + 1):
            total += float(np.trapezoid(np.abs(deriv) ** 2, dx=g.dt))
            deriv = np.gradient(deriv, g.dt, edge_order=2)
    return float(np.sqrt(total))
