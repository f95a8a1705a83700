"""Shared numeric types for the 1D damped-wave pipeline.

The measurement geometry is the space-time cylinder (0, 2T) x (a, b): waves
are driven and recorded at the two endpoints over a time window of length 2T,
and interior states are probed at the half time T.  Everything downstream
(controls, solvers, identities, reconstruction) shares the uniform grid
described by :class:`GridSpec` and exchanges endpoint time series as
``BoundaryTrace(values, dt)``: one (2, samples) array, end a in row 0 and
end b in row 1, so that each row of a (traces, 2, samples) block is a
trace, with no copy.  A trace keeps its data's dtype: real samples stay
real, with no imaginary half of zeros, and complex ones complex.

Sample j of a trace is time j*dt, and 2T/dt is an integer, so time
reversal about T is index reversal: the sample at 2T - t is sample
2T/dt - j, read from the same array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridMismatchError(ValueError):
    """Two objects that must share a discretization do not."""


class ConfigurationError(ValueError):
    """A grid/medium combination violates a scheme requirement (e.g. CFL)."""


class UnsupportedRegimeError(ValueError):
    """An operation was requested outside the background regime it supports."""


def _check_real(name: str, value) -> None:
    # numpy runs a bool as 0 or 1 and fails late on a str, a complex
    # number, an array or an int past the float range
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} must be finite, got an int past "
                                 "the float range") from None


def _check_finite(spec, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(spec, name)
        _check_real(name, value)
        if not np.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def _check_integer(name: str, value) -> None:
    # a bool is an int: N = True would run as N = 1
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_close_to_integer(x: float, tol: float = 1e-9) -> bool:
    # round() cannot take inf, which a ratio of tiny steps overflows to
    return bool(np.isfinite(x)) and abs(x - round(x)) <= tol * max(1.0, abs(x))


@dataclass(frozen=True)
class GridSpec:
    """Uniform space/time discretization of (0, 2T) x (a, b).

    Parameters
    ----------
    a, b : float
        Spatial interval endpoints, b > a.
    dx : float
        Spatial node spacing; (b - a)/dx must be an integer, at least 2.
    dt : float
        Time step, at most dx (CFL); T/dt must be an integer, at least 3,
        so that t = T and the reflection t -> 2T - t land on grid nodes.
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
        if self.dt / self.dx > 1.0 + 1e-12:
            raise ConfigurationError(
                f"CFL violated: dt / dx = {self.dt / self.dx:.4f} > 1")
        if self.half_index < 3:
            raise ConfigurationError("grid too coarse: fewer than 3 steps to t = T")
        if self.nx < 3:
            raise ConfigurationError(f"grid too coarse: {self.nx} nodes, fewer than 3")

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
        if np.iscomplexobj(self.sigma0):
            raise ConfigurationError("sigma0 is complex; the damping is real")
        _check_finite(self, ("sigma0",))
        if self.sigma0 < 0:
            raise ConfigurationError(f"sigma0 must be non-negative, got {self.sigma0}")
        for name in ("sigma_dot", "sigma_ddot"):
            value = getattr(self, name)
            if value is None:
                continue
            if np.iscomplexobj(value):
                raise ConfigurationError(
                    f"{name} is complex; the damping is real")
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
    """Time series at the two endpoints, sampled at t = 0, dt, ..., 2T.

    ``values`` is (2, samples), end a then end b; sample j is time j*dt.
    It is float64 for real data (ints, bools and float32 become floats;
    float64 is kept, not copied), complex128 otherwise.  A trace is a
    record: its consumers compute on ``values``.
    """

    values: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.dtype.kind not in "biufc":
            raise ConfigurationError(
                f"values has dtype {v.dtype}; a trace holds numbers")
        v = v.astype(complex if v.dtype.kind == "c" else float, copy=False)
        if v.ndim != 2 or v.shape[0] != 2:
            raise GridMismatchError(
                f"values must have shape (2, samples), got {v.shape}")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, grid: GridSpec) -> "BoundaryTrace":
        return cls(np.zeros((2, grid.nt)), grid.dt)


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
        _check_integer("N", self.N)
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        # numpy broadcasts an array, fails late on a str and runs a bool as 1
        if isinstance(self.a0, bool) or not isinstance(
                self.a0, (int, float, complex, np.number)):
            raise ValueError("a0 must be a real or complex number, got "
                             f"{type(self.a0).__name__}")
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.shape != (self.N,) or b.shape != (self.N,):
            raise ValueError(f"coefficient arrays must have shape ({self.N},)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

