"""The time loop against the scheme written out step by step.

The reference below advances one complex field with the per-step arithmetic
of the solver module's docstring: ghost nodes carrying the cubic u_xxx
correction, the 3-point Laplacian and the implicit-symmetric damping, with
no precomputed coefficients.  The solver's loop reorders that arithmetic
(increments, folded coefficients, injection signals, real rows), so the two
agree to rounding, not bit for bit.
"""

import numpy as np
import pytest

from bcm1d import BoundaryTrace, MediumSpec, linearized_nd_map_many, solve_many
from bcm1d.cli import smooth_pulse_trace

from conftest import smooth_sigma_dot

_TOL = 1e-10


def _edge_slopes(arr, dx):
    return ((-3.0 * arr[0] + 4.0 * arr[1] - arr[2]) / (2.0 * dx),
            (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * dx))


def _step(u, u_prev, sigma, dt, dx, flux_a, flux_b, uxxx_a, uxxx_b, s):
    """u^{n+1} from u^n, u^{n-1}, the Neumann data and u_xxx at the ends."""
    ghost_a = u[1] + 2.0 * dx * flux_a - dx**3 / 3.0 * uxxx_a
    ghost_b = u[-2] + 2.0 * dx * flux_b + dx**3 / 3.0 * uxxx_b
    padded = np.concatenate(([ghost_a], u, [ghost_b]))
    lap = (padded[2:] - 2.0 * u + padded[:-2]) / dx**2
    rhs = (2.0 * u - u_prev) / dt**2 + sigma * u_prev / (2.0 * dt) + lap + s
    return rhs / (1.0 / dt**2 + sigma / (2.0 * dt))


def _derivs(g, dt):
    g_t = np.gradient(g, dt)
    return g_t, np.gradient(g_t, dt)


def reference_solve(grid, sigma, f, source=None):
    """Endpoint trace (nt, 2) and u(T) of one field, scheme as documented."""
    dt, dx = grid.dt, grid.dx
    ga_t, ga_tt = _derivs(f.values_a, dt)
    gb_t, gb_tt = _derivs(f.values_b, dt)
    sx_a, sx_b = _edge_slopes(sigma, dx)
    u_prev = np.zeros(grid.nx, dtype=complex)
    u = np.zeros_like(u_prev)
    if source is not None:
        u = u + dt**2 / 2.0 * source(0)
    trace = np.zeros((grid.nt, 2), dtype=complex)
    trace[1] = u[[0, -1]]
    u_mid = None
    for n in range(1, grid.nt - 1):
        s = np.zeros(grid.nx) if source is None else source(n)
        s_xa, s_xb = _edge_slopes(s, dx)
        u_t = (u - u_prev) / dt
        uxxx_a = (-ga_tt[n] + sx_a * u_t[0] - sigma[0] * ga_t[n] - s_xa)
        uxxx_b = (gb_tt[n] + sx_b * u_t[-1] + sigma[-1] * gb_t[n] - s_xb)
        u_prev, u = u, _step(u, u_prev, sigma, dt, dx, f.values_a[n],
                             f.values_b[n], uxxx_a, uxxx_b, s)
        trace[n + 1] = u[[0, -1]]
        if n + 1 == grid.half_index:
            u_mid = u
    return trace, u_mid


def reference_linearized(grid, medium, f):
    """Derivative (nt, 2) of the trace of :func:`reference_solve` along
    sigma_dot at sigma0.

    Taken by a complex step h in the damping, sigma0 + i h sigma_dot, on the
    real and the imaginary data parts as two real data: the imaginary part
    of each trace over h is that part's derivative, to a relative O(h^2).
    """
    h = 1e-30
    sigma = medium.sigma0 + 1j * h * medium.sigma_dot
    part_re, part_im = (
        reference_solve(grid, sigma,
                        BoundaryTrace(part(f.values_a), part(f.values_b), f.dt)
                        )[0].imag / h
        for part in (np.real, np.imag))
    return part_re + 1j * part_im


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _as_array(trace: BoundaryTrace):
    return np.stack((trace.values_a, trace.values_b), axis=1)


@pytest.fixture(scope="module")
def complex_trace(coarse_grid):
    f, _ = smooth_pulse_trace(coarse_grid, 1.2, 0.2, 5.0, 1.0, 0.3)
    h, _ = smooth_pulse_trace(coarse_grid, 1.6, 0.25, 3.0, -0.4, 1.0)
    return f + (0.5 - 1j) * h


def _varying_sigma(grid):
    return 0.1 + 0.3 * smooth_sigma_dot(grid.xs) + 0.2 * grid.xs


def test_nonlinear_map_matches_reference(coarse_grid, complex_trace):
    sigma = _varying_sigma(coarse_grid)
    (out,) = solve_many(coarse_grid, sigma, [complex_trace])
    trace, u_mid = reference_solve(coarse_grid, sigma, complex_trace)
    assert _rel(_as_array(out.dirichlet), trace) <= _TOL
    assert _rel(out.uT_snapshot, u_mid) <= _TOL


def test_source_path_matches_reference(coarse_grid, complex_trace):
    grid = coarse_grid
    sigma = _varying_sigma(grid)
    shape = (1.0 - 0.5j) * np.cos(np.pi * grid.xs) + 0.3j * grid.xs**2

    def source(n):
        t = n * grid.dt
        return (1.0 + t) * t**2 * np.exp(-t) * shape

    (out,) = solve_many(grid, sigma, [complex_trace], source=source)
    trace, u_mid = reference_solve(grid, sigma, complex_trace, source)
    assert _rel(_as_array(out.dirichlet), trace) <= _TOL
    assert _rel(out.uT_snapshot, u_mid) <= _TOL


def test_linearized_map_matches_reference(coarse_grid, complex_trace):
    xs = coarse_grid.xs
    medium = MediumSpec(0.15, smooth_sigma_dot(xs) + 2.0 * xs)
    (out,) = linearized_nd_map_many(coarse_grid, medium, [complex_trace])
    trace = reference_linearized(coarse_grid, medium, complex_trace)
    assert _rel(_as_array(out), trace) <= _TOL
