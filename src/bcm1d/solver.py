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

with dg/dt, d2g/dt2 taken by centered differences of the supplied data,
u_t = (u^n - u^{n-1})/dt, and S_x, sigma_x by one-sided differences; every
ingredient multiplies dx^3, so those low-order estimates cost no accuracy.

Initial layers are u^0 = u^1 = 0, valid because all admitted data and
sources vanish near t = 0 (the solver warns otherwise).  When a source is
supplied, the first layer gets the Taylor term dt^2 S(0) / (2 rho0): with
zero initial data, rho0 u_tt(0) = S(0), and omitting the term leaves an
O(dt) velocity defect whose mean grows linearly under Neumann conditions.

One time loop serves every map.  It advances the increment v^n = u^n -
u^{n-1} by per-node coefficients computed once per medium,

    v^{n+1} = carry v^n + right (u_{i+1} - u_i) - left (u_i - u_{i-1}),

then u^{n+1} = u^n + v^{n+1}; the ghost node's doubled inward difference
and the sigma_x u_t edge term fold into the rows of nodes 0 and nx-1, and
the outer differences there take one injection signal per end,

    (2/dx) g + (dx/3) (rho0 d2g/dt2 + sigma_end dg/dt),

computed before the loop (a source adds gain S, and -+ (dx/3) S_x to the
injection).  Differencing before scaling keeps a constant field exact, so
rounding does not feed the undamped mean mode's double root at z = 1: on
the default grid the loop agrees with the scheme run in extended precision
to about 1e-12.  Fields are rows of nodes, so every update runs along x.
A row is real when the data and S(0) are, and complex otherwise (a source
that turns complex later is rejected at that step); the loop only adds,
subtracts, multiplies by real coefficients and divides a source's edge term
as reals, which numpy does on the two parts of a complex row exactly as on
two real rows.  The outputs are complex either way.

The nonlinear ND (Neumann-to-Dirichlet) map restricts the solution to the
endpoints.  The linearized map stacks background and perturbation rows in
one pass: the perturbation (source -sigma_dot du0/dt, zero data) shares the
background's coefficients, its injection is (dx/3) sigma_dot_end dg/dt, and
its increment gains K (u0^{n+1} - u0^{n-1}), K folding the centered source
with the sigma_dot_x edge term.  This pass is the exact parameter
derivative of the discrete nonlinear solve.  Like its transfer twin, the
linearized map returns the perturbation's endpoint traces only.

With a time-independent medium and zero initial data the loop is a linear
time-invariant map from injection signals to endpoint traces.  The transfer
backend (``transfer_nd_map_many``, ``transfer_linearized_nd_map_many``)
drives it once per medium with a unit impulse in each signal, memoizes the
response spectra of the two most recent media, and measures a trace by FFT
convolution of its signals, derived as the stepper derives them: 2 for the
nonlinear map, 4 for the linearized one, whose perturbation injection reuses
the background response (same operator).  The signals are computed in place
straight into the (steps, traces, signals) layout the convolution reads, and
the spectra are stored C-contiguous as (signals, ends, frequencies), so each
trace's contraction over the signals runs along contiguous frequencies.  It
agrees with the stepper to about 1e-13 relative; the stepper stays the
reference it is tested against, and alone serves sources, monitors and
snapshots at T.  Every map rejects Neumann data with a non-finite sample:
one such sample would silently spread NaN over both endpoint outputs.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import BoundaryTrace, ConfigurationError, GridSpec, MediumSpec

_INITIAL_DATA_TOL = 1e-9
_ENDS = [0, -1]


@dataclass(frozen=True)
class SolveOutput:
    """Endpoint trace plus interior snapshots at the half time T."""

    dirichlet: BoundaryTrace
    pT_snapshot: np.ndarray  # sqrt(rho0) * u_t(T, .) on the spatial nodes
    qT_snapshot: np.ndarray  # u_x(T, .) on the spatial nodes
    uT_snapshot: np.ndarray  # u(T, .), kept for verification work


def _as_sigma_array(sigma, nx: int, name: str = "sigma") -> np.ndarray:
    arr = np.asarray(sigma, dtype=float)
    if arr.ndim == 0:
        arr = np.full(nx, float(arr))
    elif arr.shape != (nx,):
        raise ConfigurationError(
            f"{name} has shape {arr.shape} but the grid has {nx} nodes"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} has a non-finite value")
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


def _stack_neumann(grid: GridSpec,
                   neumanns: Sequence[BoundaryTrace]) -> np.ndarray:
    """Checked endpoint data as one (nt, traces, 2) array, a side then b."""
    g = np.empty((grid.nt, len(neumanns), 2), dtype=complex)
    for j, tr in enumerate(neumanns):
        if len(tr) != grid.nt or tr.dt != grid.dt:
            raise ConfigurationError(
                f"Neumann trace {j} has {len(tr)} samples (dt={tr.dt}); "
                f"the grid needs {grid.nt} (dt={grid.dt})"
            )
        g[:, j, 0] = tr.values_a
        g[:, j, 1] = tr.values_b
    scale = np.maximum(np.max(np.abs(g), axis=(0, 2)), 1.0)
    bad = np.flatnonzero(~np.isfinite(scale))
    if bad.size:
        raise ConfigurationError(
            f"Neumann trace {bad[0]} has a non-finite sample"
        )
    if np.any(np.max(np.abs(g[0]), axis=1) > _INITIAL_DATA_TOL * scale):
        warnings.warn(
            "Neumann data nonzero at t = 0; zero initial layers are "
            "inconsistent with it",
            stacklevel=3,
        )
    return g


def _edge_term(arr):
    """(dx/3) (-d/dx at a, +d/dx at b) along the last axis, one-sided."""
    ends = np.stack((3.0 * arr[..., 0] - 4.0 * arr[..., 1] + arr[..., 2],
                     3.0 * arr[..., -1] - 4.0 * arr[..., -2] + arr[..., -3]),
                    axis=-1)
    # divide as reals: numpy divides a complex array by a real through a
    # rounded reciprocal, which would round each part unlike a real row
    return (ends.view(float) / 6.0).view(ends.dtype)


def _stencil(grid: GridSpec, rho0: float, sigma: np.ndarray):
    """Per-node coefficients (carry, left, right, gain) of the update

        v^{n+1} = carry v^n + right (u_{i+1} - u_i) - left (u_i - u_{i-1})
                  + gain S,    u^{n+1} = u^n + v^{n+1},

    with v^n = u^n - u^{n-1} and gain = 1/(rho0/dt^2 + sigma/(2 dt)); at
    the end nodes the injection signals stand for the outer differences.
    """
    dt, dx = grid.dt, grid.dx
    gain = 1.0 / (rho0 / dt**2 + sigma / (2.0 * dt))
    carry = (rho0 / dt**2 - sigma / (2.0 * dt)) * gain
    carry[_ENDS] += gain[_ENDS] * _edge_term(sigma) / dt  # sigma_x v^n / dt
    # the ghost node doubles the inward difference
    left = gain / dx**2
    right = left.copy()
    left[-1] *= 2.0
    right[0] *= 2.0
    left[0], right[-1] = gain[0], gain[-1]
    return carry, left, right, gain


def _coupling(grid: GridSpec, gain: np.ndarray, sigma_dot: np.ndarray):
    """K of the perturbation update v^{n+1} += K (u0^{n+1} - u0^{n-1}).

    It holds the centered source -sigma_dot w, w = (u0^{n+1} - u0^{n-1})/(2 dt),
    and the edge term -S_x by the product rule (w_x = -+ dg/dt at the ends
    goes into the perturbation's injection signal)."""
    k = -sigma_dot
    k[_ENDS] += _edge_term(sigma_dot)
    return k * gain / (2.0 * grid.dt)


def _injection(grid: GridSpec, rho0: float, sigma, g, sigma_dot=None):
    """Injection signals (nt, traces, 2) of the endpoint data ``g``; with
    ``sigma_dot``, (nt, traces, 2, 2): the background's, then the
    perturbation's.  Computed in place, rounded as

        (2/dx) g + (dx/3) (rho0 g_tt + sigma_end g_t),  (dx/3) sigma_dot_end g_t.
    """
    dx, dt = grid.dx, grid.dt
    g_t = np.gradient(g, dt, axis=0)
    g_tt = np.gradient(g_t, dt, axis=0)
    if sigma_dot is None:
        inj = out = np.empty(g.shape, dtype=complex)
    else:
        out = np.empty(g.shape[:2] + (2, 2), dtype=complex)
        inj = out[:, :, 0]
        np.multiply((dx / 3.0) * sigma_dot[_ENDS], g_t, out=out[:, :, 1])
    g_tt *= rho0
    g_t *= sigma[_ENDS]
    g_tt += g_t
    g_tt *= dx / 3.0
    np.multiply(2.0 / dx, g, out=inj)
    inj += g_tt
    return out


class _Level(NamedTuple):
    """A level of the loop: a flat buffer and the views the loop updates.

    Each row of nodes sits between two cells, so that a whole update is a
    few contiguous numpy calls; the coefficients vanish at the cells, which
    keeps the rows apart.  In the buffer of differences u_{k+1} - u_k, the
    slots next to the cells take the injection signals.
    """

    flat: np.ndarray
    head: np.ndarray          # flat[:-1]
    tail: np.ndarray          # flat[1:]
    background: np.ndarray    # first half: background rows of a coupled pass
    perturbation: np.ndarray  # second half: their perturbation rows
    slots: np.ndarray         # (*rows, 2) outer differences at a and b
    ends: np.ndarray          # (*rows, 2) nodes 0 and nx-1
    nodes: np.ndarray         # (*rows, nx)

    @classmethod
    def of(cls, rows: tuple, nx: int, nodes=0.0, dtype=float) -> "_Level":
        grid2d = np.zeros(rows + (nx + 2,), dtype)
        grid2d[..., 1:-1] = nodes
        flat, half = grid2d.reshape(-1), grid2d.size // 2
        return cls(flat, flat[:-1], flat[1:], flat[:half], flat[half:],
                   grid2d[..., ::nx], grid2d[..., 1:nx + 1:nx - 1],
                   grid2d[..., 1:-1])


def _time_loop(grid, stencil, inj, coupling=None, u1=0.0, source=None,
               monitor=None):
    """Advance rows of nodes from u^0 = 0 and u^1 = ``u1``.

    ``inj`` (nt, *rows, 2) holds each row's injection signals at a and b for
    steps 1 .. nt-2; the field has shape (*rows, nx).  The field is real
    when ``inj`` has no nonzero imaginary part, and takes the dtype of
    ``u1`` when that is wider.  With ``coupling`` the first row axis is
    [background, perturbation], and the perturbation gains
    ``coupling * (u0^{n+1} - u0^{n-1})`` in each update.  ``source(n)``
    gives S(t_n, .) broadcastable against the field, and ``monitor(n, u^n)``
    sees every level as an (nx, *rows) view of the live field.  Returns the
    endpoint traces (nt, *rows, 2) and the levels at steps T/dt - 1, T/dt
    and T/dt + 1, in the field's dtype.
    """
    if not np.any(inj.imag):
        inj = inj.real
    rows, nx, dtype = inj.shape[1:-1], grid.nx, np.result_type(inj, u1)
    carry, left, right, gain = (_Level.of(rows, nx, c) for c in stencil)
    if coupling is not None:
        coupling = _Level.of(rows, nx, coupling).background
    u, v = (_Level.of(rows, nx, u1, dtype) for _ in range(2))
    diff, tmp, acc = (_Level.of(rows, nx, dtype=dtype) for _ in range(3))
    # slot values for which -left * slot at a and right * slot at b inject
    outer = inj * np.array([-1.0, 1.0])
    traces = np.zeros(inj.shape, dtype)
    traces[1] = u.ends
    snap_steps, levels = range(grid.half_index - 1, grid.half_index + 2), []
    if monitor is not None:
        monitor(0, np.zeros_like(u.nodes.T))
        monitor(1, u.nodes.T)
    for n in range(1, grid.nt - 1):
        np.subtract(u.tail, u.head, out=diff.head)
        if source is None:
            diff.slots[...] = outer[n]
        else:
            s = source(n)
            if np.iscomplexobj(s) and not np.iscomplexobj(u.flat):
                raise ConfigurationError(
                    f"source is complex at step {n} but real at step 0, "
                    "whose dtype the field takes")
            np.add(outer[n], _edge_term(s) * [1.0, -1.0], out=diff.slots)
        if coupling is not None:
            np.multiply(v.background, coupling, out=acc.background)
        np.multiply(v.flat, carry.flat, out=v.flat)
        np.multiply(diff.head, right.head, out=tmp.head)
        np.add(v.head, tmp.head, out=v.head)
        np.multiply(diff.head, left.tail, out=tmp.tail)
        np.subtract(v.tail, tmp.tail, out=v.tail)
        if source is not None:
            v.nodes[...] += s * gain.nodes
        if coupling is not None:
            np.add(v.perturbation, acc.background, out=v.perturbation)
            np.multiply(v.background, coupling, out=acc.background)
            np.add(v.perturbation, acc.background, out=v.perturbation)
        np.add(u.flat, v.flat, out=u.flat)
        traces[n + 1] = u.ends
        if n + 1 in snap_steps:
            levels.append(u.nodes.copy())
        if monitor is not None:
            monitor(n + 1, u.nodes.T)
    return traces, levels


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
    applied to every column; the dtype of S(0) stands for all its values,
    and a complex value after a real S(0) raises ``ConfigurationError``.
    ``monitor`` receives (n, u^n) for each level, u^n an (nx, traces) view
    of the live field, real when the data and the source are and complex
    otherwise; copy it to keep it.
    """
    _check_cfl(grid, rho0)
    sig = _as_sigma_array(sigma, grid.nx)
    g = _stack_neumann(grid, neumanns)
    u1 = 0.0
    if source is not None:
        s0 = np.asarray(source(0))
        if np.max(np.abs(s0)) > _INITIAL_DATA_TOL:
            warnings.warn(
                "source nonzero at t = 0; zero initial layers introduce a "
                "one-step O(dt^2) error",
                stacklevel=2,
            )
        # Taylor first step: with zero initial data, rho0 u_tt(0) = S(0);
        # sources with S(0) != 0 would otherwise leave an O(dt) velocity
        # defect whose mean grows linearly under Neumann conditions
        u1 = (grid.dt**2 / (2.0 * rho0)) * s0
    traces, levels = _time_loop(grid, _stencil(grid, rho0, sig),
                                _injection(grid, rho0, sig, g), u1=u1,
                                source=source, monitor=monitor)
    # complex arithmetic for real fields too: numpy divides a complex array
    # by a real through a rounded reciprocal, so real and complex fields
    # round alike only on that route
    u_minus, u_mid, u_plus = (u.astype(complex, copy=False) for u in levels)
    pT = np.sqrt(rho0) * (u_plus - u_minus) / (2.0 * grid.dt)
    qT = np.empty_like(u_mid)
    qT[:, 1:-1] = (u_mid[:, 2:] - u_mid[:, :-2]) / (2.0 * grid.dx)
    g_T = g[grid.half_index]
    qT[:, 0] = -g_T[:, 0]  # ghost-consistent: the outward normal at a is -d/dx
    qT[:, -1] = g_T[:, 1]
    return [
        SolveOutput(BoundaryTrace(traces[:, j, 0], traces[:, j, 1], grid.dt),
                    pT[j], qT[j], u_mid[j])
        for j in range(len(neumanns))
    ]


def linearized_nd_map_many(
    grid: GridSpec, medium: MediumSpec, fs: Sequence[BoundaryTrace]
) -> list[BoundaryTrace]:
    """Linearized ND map for several Neumann traces in one coupled pass.

    For each trace the background field (constant-damping equation, data f)
    and the perturbation field (source -sigma_dot * d/dt background, zero
    data) advance together.  Returns the perturbation's endpoint traces, the
    linearized measurements, one per trace.
    """
    _check_cfl(grid, medium.rho0)
    _as_sigma_array(medium.sigma_dot, grid.nx, "sigma_dot")
    g = _stack_neumann(grid, fs)
    sig0 = np.full(grid.nx, medium.sigma0)
    stencil = _stencil(grid, medium.rho0, sig0)
    inj = _injection(grid, medium.rho0, sig0, g, medium.sigma_dot)
    # rows (fields, traces)
    traces, _ = _time_loop(
        grid, stencil, np.moveaxis(inj, 2, 1),
        coupling=_coupling(grid, stencil[-1], medium.sigma_dot),
    )
    return [BoundaryTrace(traces[:, 1, j, 0], traces[:, 1, j, 1], grid.dt)
            for j in range(len(fs))]


# ---------------------------------------------------------------------------
# transfer-kernel backend


def _fft_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n; numpy's FFT is fastest on such lengths."""
    r = range(n.bit_length() + 1)
    return min(m for m in (2**i * 3**j * 5**k for i in r for j in r for k in r)
               if m >= n)


@functools.lru_cache(maxsize=2)
def _kernel(grid: GridSpec, rho0: float, sigma: bytes,
            sigma_dot: bytes | None = None):
    """FFT length and spectrum (signals, 2 ends, frequencies) of the
    responses to a unit impulse at step 1, shifted to start at that step.

    ``sigma`` holds the bytes of the damping node array; ``sigma_dot``, if
    given, those of the perturbation the linearized map is taken along.
    """
    stencil = _stencil(grid, rho0, np.frombuffer(sigma))
    impulses = np.zeros((grid.nt, 2, 2))  # (steps, impulse end, output end)
    impulses[1] = np.eye(2)
    if sigma_dot is None:
        responses, _ = _time_loop(grid, stencil, impulses)
    else:
        # drive the background rows only: the perturbation's own injection
        # meets the same operator, so its response is the background's
        coupling = _coupling(grid, stencil[-1], np.frombuffer(sigma_dot))
        traces, _ = _time_loop(grid, stencil,
                               np.stack((impulses, 0.0 * impulses), axis=1),
                               coupling=coupling)
        responses = np.concatenate((traces[:, 1], traces[:, 0]), axis=1)
    # no wrap-around: inputs and responses both span fewer than nt - 1 steps
    n_fft = _fft_length(2 * grid.nt - 3)
    # C-contiguous, frequencies last: the convolution's einsum runs along f
    spectrum = np.fft.rfft(
        np.ascontiguousarray(np.moveaxis(responses[1:], 0, -1)), n_fft)
    spectrum.flags.writeable = False
    return n_fft, spectrum


def _convolve(grid: GridSpec, kernel, signals) -> list[BoundaryTrace]:
    """Endpoint traces from injection signals (nt, traces, signals)."""
    n_fft, spectrum = kernel
    signals[[0, -1]] = 0.0  # steps the time loop never reads
    traces = []
    for x in np.moveaxis(signals, 0, -1):  # one trace: (signals, nt)
        spec = np.fft.rfft(np.stack((x.real, x.imag)), n_fft)
        y = np.fft.irfft(np.einsum("psf,sef->pef", spec, spectrum), n_fft)
        a, b = y[0, :, : grid.nt] + 1j * y[1, :, : grid.nt]
        traces.append(BoundaryTrace(a, b, grid.dt))
    return traces


def transfer_nd_map_many(
    grid: GridSpec, rho0: float, sigma, fs: Sequence[BoundaryTrace]
) -> list[BoundaryTrace]:
    """Endpoint traces of :func:`solve_many` by convolution with the
    medium's transfer kernel.

    Agrees with the stepper, its oracle, to about 1e-13 relative.  The
    kernel costs one time loop per medium and is memoized for the two most
    recent media.
    """
    _check_cfl(grid, rho0)
    sig = _as_sigma_array(sigma, grid.nx)
    g = _stack_neumann(grid, fs)
    kernel = _kernel(grid, rho0, sig.tobytes())
    return _convolve(grid, kernel, _injection(grid, rho0, sig, g))


def transfer_linearized_nd_map_many(
    grid: GridSpec, medium: MediumSpec, fs: Sequence[BoundaryTrace]
) -> list[BoundaryTrace]:
    """Linearized measurements of :func:`linearized_nd_map_many` by convolution.

    Returns the perturbation traces only; see :func:`transfer_nd_map_many`.
    """
    _check_cfl(grid, medium.rho0)
    _as_sigma_array(medium.sigma_dot, grid.nx, "sigma_dot")
    g = _stack_neumann(grid, fs)
    sig0 = np.full(grid.nx, medium.sigma0)
    kernel = _kernel(grid, medium.rho0, sig0.tobytes(),
                     medium.sigma_dot.tobytes())
    inj = _injection(grid, medium.rho0, sig0, g, medium.sigma_dot)
    # (steps, traces, fields, ends) -> (steps, traces, fields x ends), a view
    return _convolve(grid, kernel, inj.reshape(grid.nt, len(fs), 4))
