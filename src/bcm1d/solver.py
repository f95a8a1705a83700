"""Second-order finite-difference solver for the 1D damped wave equation.

Advances  rho0 u_tt + sigma u_t - u_xx = S  on (0, 2T) x (a, b) with Neumann
endpoint data and zero initial data, using the explicit central scheme

    rho0 (u^{n+1} - 2u^n + u^{n-1})/dt^2
        + sigma (u^{n+1} - u^{n-1})/(2 dt)  =  D2 u^n + S^n,

where D2 is the 3-point Laplacian.  The damping term is implicit-symmetric,
which keeps the scheme second order and non-amplifying in sigma at the cost
of a scalar coefficient per node.  Neumann data g enter through ghost nodes:
with outward normal -d/dx at x = a and +d/dx at x = b,

    u_{-1} = u_1 + 2 dx g_a(t_n) - (dx^3/3) u_xxx(a, t_n),
    u_{nx} = u_{nx-2} + 2 dx g_b(t_n) + (dx^3/3) u_xxx(b, t_n).

The cubic term removes the mirror ghost's O(dx) truncation of the boundary
Laplacian, which otherwise radiates a first-order error into the domain
whenever the flux is nonzero.  u_xxx at an endpoint follows from the
equation and the time-differentiated boundary condition,

    u_xxx = -+ rho0 d2g/dt2 + sigma_x u_t -+ sigma dg/dt - S_x
            (upper signs at a, lower at b),

with dg/dt, d2g/dt2 taken by centered differences of the supplied data and
S_x, sigma_x by one-sided differences; every ingredient multiplies dx^3, so
those low-order estimates cost no accuracy.

Initial layers are u^0 = u^1 = 0, valid because all admitted data and
sources vanish near t = 0 (the solver warns otherwise).  When a source is
supplied, the first layer gets the Taylor term dt^2 S(0) / (2 rho0): with
zero initial data, rho0 u_tt(0) = S(0), and omitting the term leaves an
O(dt) velocity defect whose mean grows linearly under Neumann conditions.

Both Neumann-to-Dirichlet maps are provided: the nonlinear map restricts the
solution to the endpoints, and the linearized map advances the background
field and its perturbation in one coupled pass, feeding the source
-sigma_dot * du0/dt (leapfrog centered difference, using the already-updated
layer) into the perturbation update.  The coupled discrete pass is the exact
parameter derivative of the discrete nonlinear solve.

Several independent solves driven by different traces over the same medium
may be batched into one time loop; columns of the batch never interact.

Each time loop reads six input channels per step: g, dg/dt and d2g/dt2 at
both endpoints, at steps 1 .. nt-2.  For a time-independent medium and zero
initial data the loop is a linear time-invariant map from those channels to
the two endpoint traces, so it is fixed by its responses to a unit impulse
in each channel.  The transfer backend (``transfer_nd_map_many``,
``transfer_linearized_nd_map_many``) drives the same loop once per medium
with the six impulses, memoizes the response spectra for the two most
recent media, and measures each trace by FFT convolution of its channels,
derived exactly as the stepper derives them.  Kernels are kept per channel,
not per endpoint, because an endpoint impulse passed through the centered
differences is amplified by about dx/(3 dt^2) in the d2g/dt2 edge term and
cancels on the way out, costing about three digits; per-channel kernels agree
with the stepper to about 1e-10 relative.  The stepper stays the reference:
the backend is tested against it, and it alone serves sources, monitors and
snapshots at T.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    BoundaryTrace,
    ConfigurationError,
    GridSpec,
    MediumSpec,
)

_INITIAL_DATA_TOL = 1e-9
_N_CHANNELS = 6  # g, dg/dt and d2g/dt2 at each endpoint


@dataclass(frozen=True)
class SolveOutput:
    """Endpoint trace plus interior snapshots at the half time T."""

    dirichlet: BoundaryTrace
    pT_snapshot: np.ndarray  # sqrt(rho0) * u_t(T, .) on the spatial nodes
    qT_snapshot: np.ndarray  # u_x(T, .) on the spatial nodes
    uT_snapshot: np.ndarray  # u(T, .), kept for verification work


class LinearizedOutput(NamedTuple):
    trace: BoundaryTrace
    background: SolveOutput


def _as_sigma_array(sigma, nx: int) -> np.ndarray:
    arr = np.asarray(sigma, dtype=float)
    if arr.ndim == 0:
        return np.full(nx, float(arr))
    if arr.shape != (nx,):
        raise ConfigurationError(
            f"sigma has {arr.shape[0]} samples but the grid has {nx} nodes"
        )
    return arr


def _check_cfl(grid: GridSpec, rho0: float) -> None:
    if rho0 <= 0:
        raise ConfigurationError(f"rho0 must be positive, got {rho0}")
    c = grid.cfl_number(rho0)
    if c > 1.0 + 1e-12:
        raise ConfigurationError(
            f"CFL violated: dt * rho0^(-1/2) / dx = {c:.4f} > 1"
        )
    if grid.half_index < 3:
        raise ConfigurationError("grid too coarse: fewer than 3 steps to t = T")


def _check_initial_data(neumanns: Sequence[BoundaryTrace], source) -> None:
    for g in neumanns:
        scale = max(np.max(np.abs(g.values_a)), np.max(np.abs(g.values_b)), 1.0)
        if max(abs(g.values_a[0]), abs(g.values_b[0])) > _INITIAL_DATA_TOL * scale:
            warnings.warn(
                "Neumann data nonzero at t = 0; zero initial layers are "
                "inconsistent with it",
                stacklevel=3,
            )
            break
    if source is not None:
        s0 = np.asarray(source(0))
        if np.max(np.abs(s0)) > _INITIAL_DATA_TOL:
            warnings.warn(
                "source nonzero at t = 0; zero initial layers introduce a "
                "one-step O(dt^2) error",
                stacklevel=3,
            )


def _check_trace(grid: GridSpec, j: int, g: BoundaryTrace) -> None:
    if len(g) != grid.nt or g.dt != grid.dt:
        raise ConfigurationError(
            f"Neumann trace {j} has {len(g)} samples (dt={g.dt}); "
            f"the grid needs {grid.nt} (dt={grid.dt})"
        )


def _check_sigma_dot(grid: GridSpec, medium: MediumSpec) -> None:
    if medium.sigma_dot.shape != (grid.nx,):
        raise ConfigurationError(
            f"sigma_dot has {medium.sigma_dot.shape[0]} samples but the grid "
            f"has {grid.nx} nodes"
        )


def _stack_neumann(grid: GridSpec, neumanns: Sequence[BoundaryTrace]):
    ga = np.empty((grid.nt, len(neumanns)), dtype=complex)
    gb = np.empty_like(ga)
    for j, g in enumerate(neumanns):
        _check_trace(grid, j, g)
        ga[:, j] = g.values_a
        gb[:, j] = g.values_b
    return ga, gb


def _laplacian(u, ga_n, gb_n, dx, out):
    idx2 = 1.0 / dx**2
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * idx2
    out[0] = (2.0 * u[1] - 2.0 * u[0] + 2.0 * dx * ga_n) * idx2
    out[-1] = (2.0 * u[-2] - 2.0 * u[-1] + 2.0 * dx * gb_n) * idx2
    return out


def _edge_slope(arr, dx):
    """Second-order one-sided d/dx of a node array at both endpoints."""
    left = (-3.0 * arr[0] + 4.0 * arr[1] - arr[2]) / (2.0 * dx)
    right = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * dx)
    return left, right


def _trace_time_derivatives(ga, gb, dt):
    ga_t = np.gradient(ga, dt, axis=0)
    gb_t = np.gradient(gb, dt, axis=0)
    ga_tt = np.gradient(ga_t, dt, axis=0)
    gb_tt = np.gradient(gb_t, dt, axis=0)
    return ga_t, gb_t, ga_tt, gb_tt


def _snapshots(grid, rho0, u_mid, u_minus, u_plus, ga_T, gb_T):
    pT = np.sqrt(rho0) * (u_plus - u_minus) / (2.0 * grid.dt)
    qT = np.empty_like(u_mid)
    qT[1:-1] = (u_mid[2:] - u_mid[:-2]) / (2.0 * grid.dx)
    qT[0] = -ga_T  # ghost-consistent: the outward normal at a is -d/dx
    qT[-1] = gb_T
    return pT, qT


def _plain_loop(grid, rho0, sigma, channels, source=None, monitor=None):
    """Time loop of the nonlinear map: one field per column of the channels.

    ``channels`` is (g_a, g_b, dg_a/dt, dg_b/dt, d2g_a/dt2, d2g_b/dt2), each
    of shape (nt, m); the loop reads steps 1 .. nt-2 only.  Returns the
    endpoint traces, each (nt, m), and the levels (u^{T-dt}, u^T, u^{T+dt}).
    """
    ga, gb, ga_t, gb_t, ga_tt, gb_tt = channels
    sig = sigma[:, None]
    m = ga.shape[1]
    nt, nhalf, dt, dx = grid.nt, grid.half_index, grid.dt, grid.dx
    u_prev = np.zeros((grid.nx, m), dtype=ga.dtype)
    u_curr = np.zeros_like(u_prev)
    lap = np.empty_like(u_prev)
    denom = rho0 / dt**2 + sig / (2.0 * dt)
    c_curr = 2.0 * rho0 / dt**2
    c_prev = rho0 / dt**2 - sig / (2.0 * dt)
    sx_a, sx_b = _edge_slope(sigma, dx)

    dir_a = np.zeros((nt, m), dtype=ga.dtype)
    dir_b = np.zeros((nt, m), dtype=ga.dtype)
    if source is not None:
        # Taylor first step: with zero initial data, rho0 u_tt(0) = S(0);
        # sources with S(0) != 0 would otherwise leave an O(dt) velocity
        # defect whose mean grows linearly under Neumann conditions
        u_curr += (dt**2 / (2.0 * rho0)) * np.asarray(source(0), dtype=complex)[:, None]
        dir_a[1] = u_curr[0]
        dir_b[1] = u_curr[-1]
    u_minus = u_mid = u_plus = None
    if monitor is not None:
        monitor(0, u_prev)
        monitor(1, u_curr)
    for n in range(1, nt - 1):
        _laplacian(u_curr, ga[n], gb[n], grid.dx, lap)
        uxxx_a = (-rho0 * ga_tt[n] - sig[0] * ga_t[n]
                  + sx_a * (u_curr[0] - u_prev[0]) / dt)
        uxxx_b = (rho0 * gb_tt[n] + sig[-1] * gb_t[n]
                  + sx_b * (u_curr[-1] - u_prev[-1]) / dt)
        rhs = c_curr * u_curr - c_prev * u_prev
        if source is not None:
            s_n = np.asarray(source(n), dtype=complex)
            s_xa, s_xb = _edge_slope(s_n, dx)
            uxxx_a = uxxx_a - s_xa
            uxxx_b = uxxx_b - s_xb
            rhs += s_n[:, None]
        lap[0] -= (dx / 3.0) * uxxx_a
        lap[-1] += (dx / 3.0) * uxxx_b
        rhs += lap
        u_next = rhs / denom
        dir_a[n + 1] = u_next[0]
        dir_b[n + 1] = u_next[-1]
        if n + 1 == nhalf - 1:
            u_minus = u_next.copy()
        elif n + 1 == nhalf:
            u_mid = u_next.copy()
        elif n + 1 == nhalf + 1:
            u_plus = u_next.copy()
        if monitor is not None:
            monitor(n + 1, u_next)
        u_prev, u_curr = u_curr, u_next
    return dir_a, dir_b, (u_minus, u_mid, u_plus)


def _coupled_loop(grid, rho0, sigma0, sigma_dot, channels):
    """Time loop of the linearized map: background and perturbation together.

    ``channels`` is as for :func:`_plain_loop`.  Returns the background's
    endpoint traces, its levels (u0^{T-dt}, u0^T, u0^{T+dt}) and the
    perturbation's endpoint traces.
    """
    ga, gb, ga_t, gb_t, ga_tt, gb_tt = channels
    sd = sigma_dot[:, None]
    m = ga.shape[1]
    nt, nhalf, dt, dx = grid.nt, grid.half_index, grid.dt, grid.dx
    u0_prev = np.zeros((grid.nx, m), dtype=ga.dtype)
    u0_curr = np.zeros_like(u0_prev)
    ud_prev = np.zeros_like(u0_prev)
    ud_curr = np.zeros_like(u0_prev)
    lap0 = np.empty_like(u0_prev)
    lapd = np.empty_like(u0_prev)
    denom = rho0 / dt**2 + sigma0 / (2.0 * dt)
    c_curr = 2.0 * rho0 / dt**2
    c_prev = rho0 / dt**2 - sigma0 / (2.0 * dt)
    sdx_a, sdx_b = _edge_slope(sigma_dot, dx)

    dir0_a = np.zeros((nt, m), dtype=ga.dtype)
    dir0_b = np.zeros((nt, m), dtype=ga.dtype)
    dird_a = np.zeros((nt, m), dtype=ga.dtype)
    dird_b = np.zeros((nt, m), dtype=ga.dtype)
    u0_minus = u0_mid = u0_plus = None
    for n in range(1, nt - 1):
        _laplacian(u0_curr, ga[n], gb[n], grid.dx, lap0)
        # constant background damping: sigma_x = 0 in the edge correction
        lap0[0] -= (dx / 3.0) * (-rho0 * ga_tt[n] - sigma0 * ga_t[n])
        lap0[-1] += (dx / 3.0) * (rho0 * gb_tt[n] + sigma0 * gb_t[n])
        u0_next = (c_curr * u0_curr - c_prev * u0_prev + lap0) / denom
        dudt = (u0_next - u0_prev) / (2.0 * dt)
        src = -sd * dudt
        _laplacian(ud_curr, 0.0, 0.0, grid.dx, lapd)
        # perturbation field: zero data, so its u_xxx at the edges is -S_x,
        # expanded by the product rule with du0/dx = -+ g at the endpoints
        lapd[0] -= (dx / 3.0) * (sdx_a * dudt[0] - sd[0] * ga_t[n])
        lapd[-1] += (dx / 3.0) * (sdx_b * dudt[-1] + sd[-1] * gb_t[n])
        ud_next = (c_curr * ud_curr - c_prev * ud_prev + lapd + src) / denom
        dir0_a[n + 1] = u0_next[0]
        dir0_b[n + 1] = u0_next[-1]
        dird_a[n + 1] = ud_next[0]
        dird_b[n + 1] = ud_next[-1]
        if n + 1 == nhalf - 1:
            u0_minus = u0_next.copy()
        elif n + 1 == nhalf:
            u0_mid = u0_next.copy()
        elif n + 1 == nhalf + 1:
            u0_plus = u0_next.copy()
        u0_prev, u0_curr = u0_curr, u0_next
        ud_prev, ud_curr = ud_curr, ud_next
    return dir0_a, dir0_b, (u0_minus, u0_mid, u0_plus), dird_a, dird_b


def solve_many(
    grid: GridSpec,
    rho0: float,
    sigma,
    neumanns: Sequence[BoundaryTrace],
    source: Callable[[int], np.ndarray] | None = None,
    monitor: Callable[[int, np.ndarray], None] | None = None,
) -> list[SolveOutput]:
    """Advance one field per Neumann trace through a single time loop.

    ``source``, if given, maps a time index n to the S(t_n, .) samples and is
    applied to every column.  ``monitor`` receives (n, u^n) for each level.
    """
    _check_cfl(grid, rho0)
    sig = _as_sigma_array(sigma, grid.nx)
    _check_initial_data(neumanns, source)
    ga, gb = _stack_neumann(grid, neumanns)
    channels = (ga, gb, *_trace_time_derivatives(ga, gb, grid.dt))
    dir_a, dir_b, (u_minus, u_mid, u_plus) = _plain_loop(
        grid, rho0, sig, channels, source, monitor
    )
    nhalf = grid.half_index
    pT, qT = _snapshots(grid, rho0, u_mid, u_minus, u_plus, ga[nhalf], gb[nhalf])
    return [
        SolveOutput(
            dirichlet=BoundaryTrace(dir_a[:, j], dir_b[:, j], grid.dt),
            pT_snapshot=pT[:, j],
            qT_snapshot=qT[:, j],
            uT_snapshot=u_mid[:, j],
        )
        for j in range(len(neumanns))
    ]


def solve(
    grid: GridSpec,
    rho0: float,
    sigma,
    neumann: BoundaryTrace,
    source: Callable[[int], np.ndarray] | None = None,
    monitor: Callable[[int, np.ndarray], None] | None = None,
) -> SolveOutput:
    """Single-trace forward solve; see :func:`solve_many`."""
    return solve_many(grid, rho0, sigma, [neumann], source, monitor)[0]


def nd_map(grid: GridSpec, rho0: float, sigma, f: BoundaryTrace) -> BoundaryTrace:
    """Neumann-to-Dirichlet map for the full damping ``sigma``."""
    return solve(grid, rho0, sigma, f).dirichlet


def nd_map_many(
    grid: GridSpec, rho0: float, sigma, fs: Sequence[BoundaryTrace]
) -> list[BoundaryTrace]:
    return [out.dirichlet for out in solve_many(grid, rho0, sigma, fs)]


def linearized_nd_map_many(
    grid: GridSpec, medium: MediumSpec, fs: Sequence[BoundaryTrace]
) -> list[LinearizedOutput]:
    """Linearized ND map for several Neumann traces in one coupled pass.

    For each trace the background field (constant-damping equation, data f)
    and the perturbation field (source -sigma_dot * d/dt background, zero
    data) advance together; the perturbation's endpoint restriction is the
    linearized measurement.
    """
    _check_cfl(grid, medium.rho0)
    _check_sigma_dot(grid, medium)
    _check_initial_data(fs, None)
    ga, gb = _stack_neumann(grid, fs)
    channels = (ga, gb, *_trace_time_derivatives(ga, gb, grid.dt))
    dir0_a, dir0_b, (u0_minus, u0_mid, u0_plus), dird_a, dird_b = _coupled_loop(
        grid, medium.rho0, medium.sigma0, medium.sigma_dot, channels
    )
    nhalf, dt = grid.half_index, grid.dt
    pT, qT = _snapshots(grid, medium.rho0, u0_mid, u0_minus, u0_plus,
                        ga[nhalf], gb[nhalf])
    return [
        LinearizedOutput(
            trace=BoundaryTrace(dird_a[:, j], dird_b[:, j], dt),
            background=SolveOutput(
                dirichlet=BoundaryTrace(dir0_a[:, j], dir0_b[:, j], dt),
                pT_snapshot=pT[:, j],
                qT_snapshot=qT[:, j],
                uT_snapshot=u0_mid[:, j],
            ),
        )
        for j in range(len(fs))
    ]


def linearized_nd_map(
    grid: GridSpec, medium: MediumSpec, f: BoundaryTrace
) -> LinearizedOutput:
    """Linearized ND map for a single trace; see :func:`linearized_nd_map_many`."""
    return linearized_nd_map_many(grid, medium, [f])[0]


# ---------------------------------------------------------------------------
# transfer-kernel backend


def _fft_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n; numpy's FFT is fastest on such lengths."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=2)
def _kernel_spectra(grid: GridSpec, rho0: float, sigma0: float,
                    damping: bytes, linearized: bool):
    """FFT length and spectra of the endpoint responses to channel impulses.

    ``damping`` holds the bytes of a node array: the perturbation sigma_dot
    of the linearized map about ``sigma0``, or the node damping
    sigma0 + damping of the nonlinear map.  Column c of each spectrum
    (a side, then b side) is the response to a unit impulse at step 1 in
    channel c, shifted so that row k holds the output k steps later.
    """
    sigma = np.frombuffer(damping)
    impulses = np.zeros((_N_CHANNELS, grid.nt, _N_CHANNELS))
    impulses[range(_N_CHANNELS), 1, range(_N_CHANNELS)] = 1.0
    if linearized:
        *_, resp_a, resp_b = _coupled_loop(grid, rho0, sigma0, sigma,
                                           tuple(impulses))
    else:
        resp_a, resp_b, _ = _plain_loop(grid, rho0, sigma0 + sigma,
                                        tuple(impulses))
    # no wrap-around: inputs and responses both span fewer than nt - 1 steps
    n_fft = _fft_length(2 * grid.nt - 3)
    spectra = tuple(np.fft.rfft(r[1:], n_fft, axis=0) for r in (resp_a, resp_b))
    for s in spectra:
        s.flags.writeable = False
    return n_fft, spectra


def _convolve(grid: GridSpec, kernel, f: BoundaryTrace) -> BoundaryTrace:
    """Endpoint response to ``f``: the channels convolved with the kernel."""
    n_fft, (h_a, h_b) = kernel
    x = np.stack((f.values_a, f.values_b,
                  *_trace_time_derivatives(f.values_a, f.values_b, grid.dt)),
                 axis=1)
    x[[0, -1]] = 0.0  # samples the time loops never read
    xr = np.fft.rfft(x.real, n_fft, axis=0)
    xi = np.fft.rfft(x.imag, n_fft, axis=0)

    def response(h):
        re = np.fft.irfft(np.sum(xr * h, axis=1), n_fft)[: grid.nt]
        im = np.fft.irfft(np.sum(xi * h, axis=1), n_fft)[: grid.nt]
        return re + 1j * im

    return BoundaryTrace(response(h_a), response(h_b), grid.dt)


def transfer_nd_map_many(
    grid: GridSpec, rho0: float, sigma, fs: Sequence[BoundaryTrace]
) -> list[BoundaryTrace]:
    """:func:`nd_map_many` by convolution with the medium's transfer kernel.

    Agrees with the stepper to about 1e-10 relative.  The kernel costs one
    time loop per medium and is memoized for the two most recent media.
    """
    _check_cfl(grid, rho0)
    sig = _as_sigma_array(sigma, grid.nx)
    _check_initial_data(fs, None)
    for j, f in enumerate(fs):
        _check_trace(grid, j, f)
    kernel = _kernel_spectra(grid, rho0, 0.0, sig.tobytes(), False)
    return [_convolve(grid, kernel, f) for f in fs]


def transfer_linearized_nd_map_many(
    grid: GridSpec, medium: MediumSpec, fs: Sequence[BoundaryTrace]
) -> list[BoundaryTrace]:
    """Linearized measurements of :func:`linearized_nd_map_many` by convolution.

    Returns the perturbation traces only; see :func:`transfer_nd_map_many`.
    """
    _check_cfl(grid, medium.rho0)
    _check_sigma_dot(grid, medium)
    _check_initial_data(fs, None)
    for j, f in enumerate(fs):
        _check_trace(grid, j, f)
    kernel = _kernel_spectra(grid, medium.rho0, medium.sigma0,
                             medium.sigma_dot.tobytes(), True)
    return [_convolve(grid, kernel, f) for f in fs]
