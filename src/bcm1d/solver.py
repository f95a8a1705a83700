"""Second-order finite-difference solver for the 1D damped wave equation.

Advances  u_tt + sigma u_t - u_xx = S  on (0, 2T) x (a, b) with Neumann
endpoint data and zero initial data, using the explicit central scheme

    (u^{n+1} - 2u^n + u^{n-1})/dt^2
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

    u_xxx = -+ d2g/dt2 + sigma_x u_t -+ sigma dg/dt - S_x
            (upper signs at a, lower at b),

with dg/dt, d2g/dt2 taken by centered differences of the supplied data,
u_t = (u^n - u^{n-1})/dt, and S_x, sigma_x by one-sided differences; every
ingredient multiplies dx^3, so those low-order estimates cost no accuracy.

Initial layers are u^0 = u^1 = 0, valid because all admitted data and
sources vanish near t = 0 (the solver warns otherwise).  When a source is
supplied, the first layer gets the Taylor term dt^2 S(0) / 2: with zero
initial data, u_tt(0) = S(0), and omitting the term leaves an O(dt)
velocity defect whose mean grows linearly under Neumann conditions.

One time loop serves every map.  It advances the increment v^n = u^n -
u^{n-1} by per-node coefficients computed once per medium,

    v^{n+1} = carry v^n + right (u_{i+1} - u_i) - left (u_i - u_{i-1}),

then u^{n+1} = u^n + v^{n+1}; the ghost node's doubled inward difference
and the sigma_x u_t edge term fold into the rows of nodes 0 and nx-1, and
the outer differences there take one injection signal per end,

    (2/dx) g + (dx/3) (d2g/dt2 + sigma_end dg/dt),

computed before the loop from one tap table, ``_weights`` (a source adds
gain S, and -+ (dx/3) S_x to the injection).  Differencing before scaling
keeps a constant field exact, so rounding does not feed the undamped mean
mode's double root at z = 1: on the default grid the loop agrees with the
scheme run in extended precision to about 1e-12.  Fields are rows of
nodes, so every update runs along x.  A source is evaluated in blocks of
steps ahead of the state: each block's gain S and injection terms are
formed at once, and each step adds its row of them.  A row is real when
the data and S(0) are, and complex otherwise (a source that turns complex
later is rejected with its step named); the loop only adds, subtracts,
multiplies by real coefficients and divides a source's edge term as reals,
which numpy does on the two parts of a complex row exactly as on two real
rows.  The outputs are complex either way.

The nonlinear ND (Neumann-to-Dirichlet) map restricts the solution to the
endpoints.  The linearized map is its derivative along sigma_dot at sigma0,
taken by a complex step through the same loop: real data in the damping
sigma0 + i h sigma_dot / s, s = max |sigma_dot| (1 if sigma_dot = 0), give
traces whose imaginary part over h, times s, is the derivative to a
relative O(h^2), with no cancellation.  The data's real and imaginary parts
advance as two real rows, each scaled to O(1).  With h = 1e-30, the step
h sigma_dot / s cannot underflow, and dividing by h before multiplying by
s keeps the derivative from overflowing.

With a time-independent medium and zero initial data the loop is a linear
time-invariant map from injection signals to endpoint traces.  The transfer
backend drives it with a unit impulse at each end, once per map, when
``transfer_linearized_nd_map`` or ``transfer_difference_nd_map`` builds the
map's kernel from the medium.  For the linearized map the impulses run in
the complex medium and, as d(w R) = Re(w) Im(R) / h + Im(w) / h Re(R) for a
signal's weights w and response R, give 4 signals; for the difference map
the full and background media advance as rows of one pass, 2 signals per
medium, the background's responses negated and all divided by eps.  Away
from the window ends each signal is the endpoint data through a fixed
centered-difference filter, so the kernel folds the filters into the
response spectra: a 2 x 2 transfer matrix per frequency from input end to
output end, stored C-contiguous with frequencies last.  A trace then costs
one forward FFT of its four real endpoint series, the 2 x 2 contraction and
the inverse FFT; no injection signals are built.  Where the stepper's
signals depart from the filtered data (the four steps nearest each window
end, from the data's three samples nearest it) the kernel's time-domain
responses add the exact difference, taken from the same tap table: the
stepper's signals of those samples minus the filter's, skipped when the
samples are zero, as they are for the reconstruction controls.  The backend
agrees with the stepper to about 1e-13 relative; the stepper stays the
reference it is tested against, and alone serves sources and snapshots at
T.  Every map rejects Neumann data with a non-finite sample, which would
silently spread NaN over both endpoint outputs, and the backend rejects a
non-finite output.
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
# the complex step: small enough that h^2 is lost to rounding next to 1
_STEP = 1e-30
# steps of a source evaluated at once, ahead of the state
_BLOCK = 64


@dataclass(frozen=True)
class SolveOutput:
    """Endpoint trace plus interior snapshots at the half time T."""

    dirichlet: BoundaryTrace
    pT_snapshot: np.ndarray  # u_t(T, .) on the spatial nodes
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


def _check_cfl(grid: GridSpec) -> None:
    c = grid.dt / grid.dx
    if c > 1.0 + 1e-12:
        raise ConfigurationError(f"CFL violated: dt / dx = {c:.4f} > 1")
    if grid.half_index < 3:
        raise ConfigurationError("grid too coarse: fewer than 3 steps to t = T")
    if grid.nx < 3:
        raise ConfigurationError(f"grid too coarse: {grid.nx} nodes, fewer than 3")


def _stack_neumann(grid: GridSpec,
                   neumanns: Sequence[BoundaryTrace]) -> np.ndarray:
    """Checked endpoint data as one (traces, 2, nt) array, a side then b."""
    g = np.empty((len(neumanns), 2, grid.nt), dtype=complex)
    for j, tr in enumerate(neumanns):
        if len(tr) != grid.nt or tr.dt != grid.dt:
            raise ConfigurationError(
                f"Neumann trace {j} has {len(tr)} samples (dt={tr.dt}); "
                f"the grid needs {grid.nt} (dt={grid.dt})"
            )
        g[j, 0] = tr.values_a
        g[j, 1] = tr.values_b
    bad = np.flatnonzero(~np.isfinite(g.view(float)).all(axis=(1, 2)))
    if bad.size:
        raise ConfigurationError(
            f"Neumann trace {bad[0]} has a non-finite sample"
        )
    first = np.max(np.abs(g[:, :, 0]), axis=1)
    # the scale is at least 1, so only traces with a t = 0 sample above the
    # tolerance can warn
    suspect = np.flatnonzero(first > _INITIAL_DATA_TOL)
    if suspect.size:
        scale = np.maximum(np.max(np.abs(g[suspect]), axis=(1, 2)), 1.0)
        if np.any(first[suspect] > _INITIAL_DATA_TOL * scale):
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


def _stencil(grid: GridSpec, sigma: np.ndarray):
    """Per-node coefficients (carry, left, right, gain) of the update

        v^{n+1} = carry v^n + right (u_{i+1} - u_i) - left (u_i - u_{i-1})
                  + gain S,    u^{n+1} = u^n + v^{n+1},

    with v^n = u^n - u^{n-1} and gain = 1/(1/dt^2 + sigma/(2 dt)); at
    the end nodes the injection signals stand for the outer differences.
    Nodes run along the last axis of ``sigma``, which may hold several media.
    """
    dt, dx = grid.dt, grid.dx
    gain = 1.0 / (1.0 / dt**2 + sigma / (2.0 * dt))
    carry = (1.0 / dt**2 - sigma / (2.0 * dt)) * gain
    # sigma_x v^n / dt
    carry[..., _ENDS] += gain[..., _ENDS] * _edge_term(sigma) / dt
    # the ghost node doubles the inward difference
    left = gain / dx**2
    right = left.copy()
    left[..., -1] *= 2.0
    right[..., 0] *= 2.0
    left[..., 0], right[..., -1] = gain[..., 0], gain[..., -1]
    return carry, left, right, gain


def _complex_step(sigma0, sigma_dot: np.ndarray):
    """The damping sigma0 + i h sigma_dot / s on the nodes, and s."""
    s = np.max(np.abs(sigma_dot)) or 1.0
    return sigma0 + 1j * (_STEP * (sigma_dot / s)), s


def _weights(grid: GridSpec, sigma_ends):
    """Each injection signal as weights (signals, 3) of the data g of its
    end, of its centered difference g[n+1] - g[n-1] and of that difference
    taken twice, one signal per entry of ``sigma_ends``.  Signal s reads end
    s % 2 and is, with g_t and g_tt the centered derivatives,

        (2/dx) g + (dx/3) (g_tt + sigma_end g_t).
    """
    dx, dt = grid.dx, grid.dt
    return np.array([(2.0 / dx, dx * s / (6.0 * dt), dx / (12.0 * dt**2))
                     for s in sigma_ends])


def _injection(weights, g):
    """The injection signals (fields, *rows, 2, steps) of the endpoint data
    ``g`` (*rows, 2, steps) under ``weights`` (see :func:`_weights`), signal
    s as field s // 2 at end s % 2.  The differences are one-sided at the
    first and the last step, as :func:`numpy.gradient` takes them.
    """
    # np.gradient halves the differences, so doubling them is exact
    d = np.gradient(g, axis=-1)
    d *= 2.0
    # complex, as it serves as scratch for complex products below
    dd = np.gradient(d, axis=-1).astype(complex, copy=False)
    dd *= 2.0
    # (tap, field, end, 1); with steps last, as the data are stored, and
    # complex taps, no ufunc below buffers an operand
    taps = np.moveaxis(weights.reshape(-1, 2, 1, 3), -1, 0).astype(complex)
    out = np.empty((len(taps[0]),) + g.shape, dtype=complex)
    for o, w in zip(out, taps[2]):
        np.multiply(w, dd, out=o)
    # accumulate in place, dd serving as scratch once it is applied
    for w_tap, series in ((taps[1], d), (taps[0], g)):
        for o, w in zip(out, w_tap):
            np.multiply(w, series, out=dd)
            o += dd
    return out


class _Level(NamedTuple):
    """A level of the loop: a flat buffer and the views the loop updates.

    Each row of nodes sits between two cells, so that a whole update is a
    few contiguous numpy calls; the coefficients vanish at the cells, which
    keeps the rows apart.  In the buffer of differences u_{k+1} - u_k, the
    slots next to the cells take the injection signals.
    """

    flat: np.ndarray
    head: np.ndarray   # flat[:-1]
    tail: np.ndarray   # flat[1:]
    slots: np.ndarray  # (*rows, 2) outer differences at a and b
    ends: np.ndarray   # (*rows, 2) nodes 0 and nx-1
    nodes: np.ndarray  # (*rows, nx)

    @classmethod
    def of(cls, rows: tuple, nx: int, nodes=0.0, dtype=float) -> "_Level":
        grid2d = np.zeros(rows + (nx + 2,), np.result_type(nodes, dtype))
        grid2d[..., 1:-1] = nodes
        flat = grid2d.reshape(-1)
        return cls(flat, flat[:-1], flat[1:], grid2d[..., ::nx],
                   grid2d[..., 1:nx + 1:nx - 1], grid2d[..., 1:-1])


def _source_block(source, first, stop, outer, gain, field):
    """Evaluate S at steps ``first`` .. ``stop`` - 1, in order, in the
    shape and dtype of the ``field`` (*rows, nx).  Returns those steps' slot
    values (steps, *rows, 2), ``outer``'s plus the S_x edge terms, and their
    forcing ``gain`` S (steps, *rows, nx).
    """
    s = np.empty((stop - first,) + field.shape, field.dtype)
    for k, n in enumerate(range(first, stop)):
        row = source(n)
        if np.iscomplexobj(row) and not np.iscomplexobj(s):
            raise ConfigurationError(
                f"source is complex at step {n} but real at step 0, "
                "whose dtype the field takes")
        s[k] = row
    slots = outer[first:stop] + _edge_term(s) * [1.0, -1.0]
    return slots, s * gain


def _time_loop(grid, stencil, inj, u1=0.0, source=None):
    """Advance rows of nodes from u^0 = 0 and u^1 = ``u1``.

    ``inj`` (nt, *rows, 2) holds each row's injection signals at a and b for
    steps 1 .. nt-2; the field has shape (*rows, nx) and the widest dtype of
    ``inj`` (real if its imaginary part is zero), ``u1`` and the stencil.
    ``source(n)`` gives S(t_n, .) broadcastable against the field; it is
    called once per step n = 1 .. nt-2, in ascending order, in blocks of
    ``_BLOCK`` steps ahead of the state, and a complex value in a real field
    raises ``ConfigurationError`` naming its step.  Returns the endpoint
    traces (nt, *rows, 2) and the levels at steps T/dt - 1, T/dt and
    T/dt + 1, in the field's dtype.
    """
    if not np.any(inj.imag):
        inj = inj.real
    rows, nx = inj.shape[1:-1], grid.nx
    dtype = np.result_type(inj, u1, *stencil)
    carry, left, right, gain = (_Level.of(rows, nx, c) for c in stencil)
    u, v = (_Level.of(rows, nx, u1, dtype) for _ in range(2))
    diff, tmp = (_Level.of(rows, nx, dtype=dtype) for _ in range(2))
    # slot values for which -left * slot at a and right * slot at b inject
    outer = inj * np.array([-1.0, 1.0])
    traces = np.zeros(inj.shape, dtype)
    traces[1] = u.ends
    snap_steps, levels = range(grid.half_index - 1, grid.half_index + 2), []
    for n in range(1, grid.nt - 1):
        np.subtract(u.tail, u.head, out=diff.head)
        if source is None:
            diff.slots[...] = outer[n]
        else:
            i = (n - 1) % _BLOCK
            if i == 0:
                slots, forcing = _source_block(
                    source, n, min(n + _BLOCK, grid.nt - 1), outer,
                    gain.nodes, u.nodes)
            diff.slots[...] = slots[i]
        np.multiply(v.flat, carry.flat, out=v.flat)
        np.multiply(diff.head, right.head, out=tmp.head)
        np.add(v.head, tmp.head, out=v.head)
        np.multiply(diff.head, left.tail, out=tmp.tail)
        np.subtract(v.tail, tmp.tail, out=v.tail)
        if source is not None:
            np.add(v.nodes, forcing[i], out=v.nodes)
        np.add(u.flat, v.flat, out=u.flat)
        traces[n + 1] = u.ends
        if n + 1 in snap_steps:
            levels.append(u.nodes.copy())
    return traces, levels


def solve_many(
    grid: GridSpec,
    sigma,
    neumanns: Sequence[BoundaryTrace],
    source: Callable[[int], np.ndarray] | None = None,
) -> list[SolveOutput]:
    """Advance one field per Neumann trace through a single time loop.

    ``source``, if given, maps a time index n to the S(t_n, .) samples, of
    shape (nx,) for every column or (traces, nx) for one row each.  It is
    called once per n = 0 .. nt-2 in ascending order, in blocks of steps
    ahead of the state, so it must not depend on the solve's progress.  The
    dtype of S(0) stands for all its values, and a complex value after a
    real S(0) raises ``ConfigurationError`` naming its step.
    """
    _check_cfl(grid)
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
        # Taylor first step: with zero initial data, u_tt(0) = S(0);
        # sources with S(0) != 0 would otherwise leave an O(dt) velocity
        # defect whose mean grows linearly under Neumann conditions
        u1 = (grid.dt**2 / 2.0) * s0
    inj = _injection(_weights(grid, sig[_ENDS]), g)[0]
    inj = np.moveaxis(inj, -1, 0)  # (steps, traces, end)
    traces, levels = _time_loop(grid, _stencil(grid, sig), inj, u1=u1,
                                source=source)
    # complex arithmetic for real fields too: numpy divides a complex array
    # by a real through a rounded reciprocal, so real and complex fields
    # round alike only on that route
    u_minus, u_mid, u_plus = (u.astype(complex, copy=False) for u in levels)
    pT = (u_plus - u_minus) / (2.0 * grid.dt)
    qT = np.empty_like(u_mid)
    qT[:, 1:-1] = (u_mid[:, 2:] - u_mid[:, :-2]) / (2.0 * grid.dx)
    g_T = g[..., grid.half_index]
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
    """Linearized ND map for several Neumann traces in one pass.

    Returns, per trace, the derivative of the endpoint traces of
    :func:`solve_many` along sigma_dot at the damping sigma0: the linearized
    measurements, taken by a complex step (see the module docstring).
    """
    _check_cfl(grid)
    sd = _as_sigma_array(medium.sigma_dot, grid.nx, "sigma_dot")
    g = _stack_neumann(grid, fs)
    sigma, s = _complex_step(medium.sigma0, sd)
    weights = _weights(grid, sigma[_ENDS])
    # rows (parts, traces): each data part times an exact power of two 1 / r
    parts = np.stack((g.real, g.imag))
    r = np.ldexp(1.0, np.frexp(np.max(np.abs(parts), axis=(2, 3)))[1])
    inj = _injection(weights, parts / r[..., None, None])[0]
    traces, _ = _time_loop(grid, _stencil(grid, sigma), np.moveaxis(inj, -1, 0))
    d = traces.imag / _STEP * s * r[..., None]
    d = d[:, 0] + 1j * d[:, 1]
    return [BoundaryTrace(d[:, j, 0], d[:, j, 1], grid.dt)
            for j in range(len(fs))]


# ---------------------------------------------------------------------------
# transfer-kernel backend


def _fft_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n; numpy's FFT is fastest on such lengths."""
    r = range(n.bit_length() + 1)
    return min(m for m in (2**i * 3**j * 5**k for i in r for j in r for k in r)
               if m >= n)


class _Kernel(NamedTuple):
    """A medium's transfer kernel; the arrays are read-only."""

    n_fft: int
    transfer: np.ndarray   # (input end, output end, frequencies)
    responses: np.ndarray  # (signals, output end, steps 2 .. nt-1)
    weights: np.ndarray    # (signals, 3), see _weights


def _kernel(grid: GridSpec, responses: np.ndarray,
            weights: np.ndarray) -> _Kernel:
    """The transfer kernel from endpoint data to endpoint traces.

    ``responses`` (nt, signals, output end) are the loop's traces of a unit
    impulse at step 1 in each injection signal, signal s at end s % 2, and
    ``weights`` (signals, 3) those signals' taps (see :func:`_weights`).  The
    responses are transformed and each multiplied by its signal's filter
    w0 + w1 z + w2 z^2, z = 2i sin(omega), the spectrum of its weights; the
    signals of one input end then add up.
    """
    # (signals, output end, steps 1 .. nt-1)
    responses = np.ascontiguousarray(np.moveaxis(responses[1:], 0, -1))
    # no wrap-around: exact signals and responses both span fewer than
    # nt - 1 steps (the edge terms cancel the filtered data's longer reach)
    n_fft = _fft_length(2 * grid.nt - 3)
    z = 2j * np.sin(2.0 * np.pi * np.arange(n_fft // 2 + 1) / n_fft)
    w0, w1, w2 = weights.T[..., None]
    spectrum = np.fft.rfft(responses, n_fft)
    spectrum *= ((w2 * z + w1) * z + w0)[:, None]
    # C-contiguous, frequencies last: the contraction runs along them
    transfer = spectrum.reshape(-1, 2, 2, spectrum.shape[-1]).sum(axis=0)
    # the field at step 1 is zero: the edge terms need steps 2 .. nt-1 only
    edge_responses = responses[..., 1:].copy()
    for arr in (transfer, edge_responses, weights):
        arr.flags.writeable = False
    return _Kernel(n_fft, transfer, edge_responses, weights)


def _add_edge_terms(out: np.ndarray, g: np.ndarray, kernel: _Kernel) -> None:
    """Add to the traces ``out`` (2, nt) of the data ``g`` (2, nt) the
    response to the stepper's injection signals minus the filtered data.

    They differ at the four steps nearest each window end only, through the
    data's three samples nearest it, and the difference is skipped where
    those are zero.  Both sides come from :func:`_injection` on a 12-step
    frame of those samples, the filter's zero-extended so that every
    difference is centered; the difference is convolved in the FFT's
    circular frame, which also removes the filtered data's wrap-around.
    """
    n_fft, _, responses, weights = kernel
    nt = out.shape[1]
    # frames of steps -4 .. 7 and nt-8 .. nt+3
    for origin, first in ((-4, 0), (nt - 8, nt - 3)):
        if not np.any(g[:, first:first + 3]):
            continue
        steps = origin + np.arange(12)
        x = np.zeros((2, 12), dtype=g.dtype)
        x[:, first - origin:first - origin + 3] = g[:, first:first + 3]
        inside = (steps >= 0) & (steps < nt)
        signals = np.zeros((len(weights) // 2, 2, 12), dtype=complex)
        signals[..., inside] = _injection(weights, x[:, inside])
        # the loop reads the signals at steps 1 .. nt-2 only
        signals[..., (steps < 1) | (steps > nt - 2)] = 0.0
        signals -= _injection(weights, x)
        # the responses start at step 2 of an impulse at step 1
        at = (origin + 1 + np.arange(12 + responses.shape[-1] - 1)) % n_fft
        keep = at < nt
        for d, r in zip(signals.reshape(-1, 12), responses):
            for o in range(2):
                np.add.at(out[o], at[keep], np.convolve(d, r[o])[keep])


def _convolve(grid: GridSpec, kernel: _Kernel,
              fs: Sequence[BoundaryTrace]) -> list[BoundaryTrace]:
    """Endpoint traces of the Neumann traces ``fs``; a non-finite one, from
    a kernel that overflowed, raises an error."""
    g = _stack_neumann(grid, fs)
    n_fft, transfer = kernel.n_fft, kernel.transfer
    nt = grid.nt
    traces = []
    for j, gj in enumerate(g):
        # the real and the imaginary series of each end: (parts, ends, steps)
        x = np.moveaxis(gj.view(float).reshape(2, nt, 2), -1, 0)
        spec = np.fft.rfft(x, n_fft)
        # a 2 x 2 contraction over the input ends per frequency, in place
        y = spec[:, :1] * transfer[0]
        y += spec[:, 1:] * transfer[1]
        y = np.fft.irfft(y, n_fft)
        out = np.empty((2, nt), dtype=complex)
        out.real, out.imag = y[..., :nt]
        _add_edge_terms(out, gj, kernel)
        if not np.all(np.isfinite(out.view(float))):
            raise ConfigurationError(
                f"measured trace {j} has a non-finite sample: the medium "
                "overflows the transfer kernel")
        traces.append(BoundaryTrace(out[0], out[1], grid.dt))
    return traces


def transfer_difference_nd_map(
    grid: GridSpec, medium: MediumSpec, eps: float
) -> Callable[[Sequence[BoundaryTrace]], list[BoundaryTrace]]:
    """The map from Neumann traces to
    (Lambda(sigma0 + eps sigma_dot + eps^2 sigma_ddot) - Lambda(sigma0)) / eps
    per trace, Lambda the endpoint traces of :func:`solve_many`, by one
    convolution each; it stands in for linearized measurements.

    Making the map checks its arguments and runs the one time loop of its
    kernel, so the map measures the medium as it was then.  It agrees with
    the stepper's quotient to about 1e-13 of either medium's traces / eps.
    """
    _check_cfl(grid)
    if not (np.isfinite(eps) and eps > 0):
        raise ConfigurationError(f"eps must be positive and finite, got {eps}")
    sd = _as_sigma_array(medium.sigma_dot, grid.nx, "sigma_dot")
    with np.errstate(over="ignore"):
        full = medium.sigma0 + eps * sd
        if medium.sigma_ddot is not None:
            full = full + np.square(eps) * medium.sigma_ddot
    full = _as_sigma_array(full, grid.nx,
                           "sigma0 + eps sigma_dot + eps^2 sigma_ddot")
    # unit impulses at step 1 in both media as rows (media, impulse end);
    # the background's signals enter negated, each medium with its weights
    media = np.stack((full, np.full(grid.nx, medium.sigma0)))[:, None]
    impulses = np.zeros((grid.nt, 2, 2, 2))  # (steps, *rows, output end)
    impulses[1] = np.eye(2)
    traces, _ = _time_loop(grid, _stencil(grid, media), impulses)
    responses = np.concatenate((traces[:, 0], -traces[:, 1]), axis=1) / eps
    weights = _weights(grid, media[..., _ENDS].ravel())
    return functools.partial(_convolve, grid, _kernel(grid, responses, weights))


def transfer_linearized_nd_map(
    grid: GridSpec, medium: MediumSpec
) -> Callable[[Sequence[BoundaryTrace]], list[BoundaryTrace]]:
    """The map from Neumann traces to the linearized measurements of
    :func:`linearized_nd_map_many`, by one convolution each.

    Making the map checks its arguments and runs the one time loop of its
    kernel, so the map measures the medium as it was then.  It agrees with
    the stepper, its oracle, to about 1e-13 relative.
    """
    _check_cfl(grid)
    sd = _as_sigma_array(medium.sigma_dot, grid.nx, "sigma_dot")
    sigma, s = _complex_step(medium.sigma0, sd)
    impulses = np.zeros((grid.nt, 2, 2))  # (steps, impulse end, output end)
    impulses[1] = np.eye(2)
    traces, _ = _time_loop(grid, _stencil(grid, sigma), impulses)
    # d(w R) = Re(w) Im(R) / h + Im(w) / h Re(R); / h first, then * s
    responses = np.concatenate((traces.imag / _STEP * s, traces.real), axis=1)
    w = _weights(grid, sigma[_ENDS])
    weights = np.concatenate((w.real, w.imag / _STEP * s))
    return functools.partial(_convolve, grid, _kernel(grid, responses, weights))
