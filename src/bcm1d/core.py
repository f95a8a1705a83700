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


class ConfigurationError(ValueError):
    """An input that breaks a rule of its kind or of the scheme (e.g. CFL).

    A refused number, array or trace reads ``<field> must be <rule>, got
    <value>``.
    """


class GridMismatchError(ConfigurationError):
    """Two objects that must share a discretization do not."""


class UnsupportedRegimeError(ValueError):
    """An operation was requested outside the background regime it supports."""


def _check_number(name: str, value, types: tuple, kind: str) -> complex:
    # numpy runs a bool as 0 or 1 and fails late on a str, an array or an
    # int past the float range
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigurationError(f"{name} must be {kind}, got {value!r}")
    try:
        z = complex(value)
    except OverflowError:
        raise ConfigurationError(f"{name} must be finite, got an int past "
                                 "the float range") from None
    if not np.isfinite(z):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    return z


def _check_real(name: str, value, low: float | None = None,
                strict: bool = False) -> None:
    """Refuse a ``value`` that is not a finite real number or, given
    ``low``, lies below it (or at it, if ``strict``)."""
    x = _check_number(name, value, (int, float, np.integer, np.floating),
                      "a real number").real
    if low is not None and (x <= low if strict else x < low):
        raise ConfigurationError(
            f"{name} must be {'>' if strict else '>='} {low}, got {value}")


def _check_integer(name: str, value, low: int) -> None:
    """Refuse a ``value`` that is not an integer, lies past the float range
    or is below ``low``.  A bool is an int: N = True would run as N = 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    _check_real(name, value, low)


def _check_complex(name: str, value) -> None:
    """Refuse a ``value`` that is not a finite real or complex number."""
    _check_number(name, value, (int, float, complex, np.number),
                  "a real or complex number")


def _check_samples(name: str, value, n: int | None = None,
                   dtype: type = float) -> np.ndarray:
    """``value`` as a 1-D array of ``dtype``, of ``n`` entries if given.
    Complex samples, where ``dtype`` is float, another shape and a
    non-finite entry are refused."""
    if dtype is float and np.iscomplexobj(value):
        raise ConfigurationError(f"{name} must be real, got complex samples")
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be 1-D, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise ConfigurationError(f"{name} must have {n} entries, got {arr.size}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        i = bad[0]
        raise ConfigurationError(f"{name}[{i}] must be finite, got {arr[i]}")
    return arr


def _check_trace(name: str, trace: BoundaryTrace, grid: GridSpec) -> None:
    """Refuse a trace that is not sampled at the time steps of ``grid``."""
    if (len(trace), trace.dt) != (grid.nt, grid.dt):
        raise GridMismatchError(
            f"{name} must have {grid.nt} samples at dt = {grid.dt}, got "
            f"{len(trace)} at dt = {trace.dt}")


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
        _check_real("a", self.a)
        _check_real("b", self.b)
        for name in ("dx", "dt", "T"):
            _check_real(name, getattr(self, name), 0, strict=True)
        if not self.b > self.a:
            raise ConfigurationError(f"need b > a, got a={self.a}, b={self.b}")
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
        _check_real("sigma0", self.sigma0, 0)
        object.__setattr__(self, "sigma_dot",
                           _check_samples("sigma_dot", self.sigma_dot))
        if self.sigma_ddot is not None:
            object.__setattr__(self, "sigma_ddot", _check_samples(
                "sigma_ddot", self.sigma_ddot, self.sigma_dot.size))


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
    mode of the synthesized perturbation; ``a0`` is its integral over
    [a, b], L = b - a times its mean (twice the mean on [-1, 1]).
    For real perturbations and noiseless data the imaginary parts are small
    (a tested property, not an assumption).
    """

    N: int
    a0: complex
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        _check_integer("N", self.N, 1)
        _check_complex("a0", self.a0)
        for name in ("a", "b"):
            object.__setattr__(self, name, _check_samples(
                name, getattr(self, name), self.N, complex))
