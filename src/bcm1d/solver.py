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

The initial data are zero: u^0 = 0, and the first layer u^1 = dt^2 S(0) / 2
is the Taylor term of u_tt(0) = S(0); omitting it would leave an O(dt)
velocity defect whose mean grows linearly under Neumann conditions.  Zero
initial data need Neumann data that vanish near t = 0, and the stepper warns
otherwise.

One driver, ``_drive``, runs every loop pass, a row of data and a medium
per field.  Its one time loop advances the increment v^n = u^n - u^{n-1}
by per-node coefficients computed once per medium,

    v^{n+1} = carry v^n + right (u_{i+1} - u_i) - left (u_i - u_{i-1}),

then u^{n+1} = u^n + v^{n+1}; the ghost node's doubled inward difference
and the sigma_x u_t edge term fold into the rows of nodes 0 and nx-1, and
the outer differences there take one injection signal per end,

    (2/dx) g + (dx/3) (d2g/dt2 + sigma_end dg/dt),

computed before the loop by ``_injection``, the one place the formula is
written (a source adds gain S, and +- (dx/3) S_x to the injection).
Differencing before scaling keeps a constant field exact, so rounding does
not feed the undamped mean mode's double root at z = 1: on the default
grid the loop agrees with the scheme run in extended precision to about
1e-12.  Fields are rows of nodes, so every update runs along x.  A source
comes as its real samples at every step before T, the same for every row:
their edge terms join each row's injection signals before the loop, and
each step adds gain S.  In a real medium a row is real when its data are,
and complex otherwise.  The loop only adds, subtracts and multiplies by
real coefficients there, which numpy does on the two parts of a complex
row exactly as on two real rows.  A batch of Neumann traces is complex
when one of its traces is complex128 (see
:class:`~bcm1d.core.BoundaryTrace`), whatever its samples, and real
otherwise: every ND map and the snapshots return float64 traces and
fields for a real batch and complex128 ones for a complex batch.

:func:`snapshots_many` reads the fields u and u_x at the half time T as two
blocks, u_x by centered differences, and stops at T: it takes T/dt steps,
half of a map's 2T/dt.  It alone takes a source.  u_t(T) is u(T) of the
derivative datum's field.  A pass runs each field to the last step
its caller reads and then drops it, so the nonlinear identity's four
fields, read to 2T and T, share one pass.

The nonlinear ND (Neumann-to-Dirichlet) map, :func:`solve_many`, restricts
the solution to the endpoints.  The linearized map is its derivative along
sigma_dot at sigma0, taken by a complex step through the same loop: real
data in the damping sigma0 + i h sigma_dot / s, s = max |sigma_dot| (1 if
sigma_dot = 0), give traces whose imaginary part over h, times s, is the
derivative to a relative O(h^2), with no cancellation.  The data's real
and imaginary parts advance as rows of their own, each scaled to O(1);
real data advance their real part alone, and their traces are real.  With
h = 1e-30, the step h sigma_dot / s cannot underflow, and dividing by h
before multiplying by s keeps the derivative from overflowing.

With a time-independent medium and zero initial data the loop is a linear
time-invariant map from data to endpoint traces wherever its centered
differences are those of the data: for data at rest in the ``_REACH``
samples nearest either end of the grid.  Such data are a sum of unit
samples, and a unit sample at step k gives the traces of one at step
``_REACH``, delayed by k - _REACH.  So ``transfer_linearized_nd_map`` and
``transfer_difference_nd_map`` measure a unit data sample at step
``_REACH`` at each end through their reference map when they build the map
from the medium: :func:`linearized_nd_map_many`, or one loop pass with
rows in the full and the background medium, whose traces' difference is
divided by eps.  The responses' spectra form a 2 x 2 transfer matrix per
frequency from input end to output end, stored C-contiguous with
frequencies last; the map is one object that holds it and its FFT work
arrays.  A trace then costs one forward FFT of its four real endpoint
series, the 2 x 2 contraction and the inverse FFT.  The stepper alone
builds injection signals, and the linearized map alone takes the complex
step.  Other data meet the stepper's one-sided differences at the grid's
ends, so the maps refuse them; the reconstruction controls on their
support grid (see :func:`~bcm1d.control.support_grid`) are at rest
there.  On the paper grid's support grid the kernel's loop takes 15005 steps
and the FFT length is 30375.  The map owns its FFT work arrays (see
:class:`_TransferMap`) and writes them on every call, so one map must not be
called from two threads at once.  A call copies each trace straight into the
zero-padded input and allocates only its result: the traces of one call are
views of one new block, never of the work arrays.  The backend agrees with
the stepper to about 1e-13 relative; the stepper stays the reference it is
tested against, takes any data and gives the snapshots.  Every map rejects
Neumann data with a non-finite sample, which would silently spread NaN over
both endpoint outputs, :func:`snapshots_many` rejects such a source sample likewise, and
the backend rejects a non-finite output.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

from .core import (BoundaryTrace, ConfigurationError, GridSpec, MediumSpec,
                   _check_real, _check_samples, _check_trace)

_INITIAL_DATA_TOL = 1e-9
_ENDS = [0, -1]
# the complex step: small enough that h^2 is lost to rounding next to 1
_STEP = 1e-30
# the injection filter's reach: the data samples nearest either end of the
# grid that must be zero for the stepper's signals to be the filtered data
_REACH = 3
# the largest share of a difference map's quotient that its rounding, about
# nt ulps of either medium's traces, may reach
_ROUNDING_SHARE = 1e-3


def _as_sigma_array(sigma, nx: int, name: str = "sigma") -> np.ndarray:
    # a number is the constant damping
    return _check_samples(name, np.full(nx, sigma) if np.ndim(sigma) == 0
                          else sigma, nx)


def _checked(grid: GridSpec, neumanns: Sequence[BoundaryTrace]):
    """Yield each Neumann trace once its length, its step and the finiteness
    of its samples are checked."""
    for j, tr in enumerate(neumanns):
        _check_trace(f"Neumann trace {j}", tr, grid)
        if not np.isfinite(tr.values).all():
            raise ConfigurationError(
                f"Neumann trace {j} has a non-finite sample"
            )
        yield tr


def _stack_neumann(grid: GridSpec, neumanns: Sequence[BoundaryTrace],
                   stacklevel: int = 3) -> np.ndarray:
    """Checked endpoint data as one (traces, 2, nt) array, a side then b,
    of the batch's dtype; at most one warning, at the stepper's caller
    ``stacklevel`` frames up, for data nonzero at t = 0."""
    cplx = any(np.iscomplexobj(tr.values) for tr in neumanns)
    g = np.empty((len(neumanns), 2, grid.nt), complex if cplx else float)
    for gj, tr in zip(g, _checked(grid, neumanns)):
        gj[...] = tr.values
    first = np.max(np.abs(g[..., 0]), axis=-1)
    # per trace: no temporary of the stack's size
    scale = np.maximum([np.max(np.abs(gj)) for gj in g], 1.0)
    if np.any(first > _INITIAL_DATA_TOL * scale):
        warnings.warn(
            "Neumann data nonzero at t = 0; zero initial layers are "
            "inconsistent with it",
            stacklevel=stacklevel,
        )
    return g


def _edge_term(arr):
    """(dx/3) (-d/dx at a, +d/dx at b) along the last axis, one-sided."""
    ends = np.stack((3.0 * arr[..., 0] - 4.0 * arr[..., 1] + arr[..., 2],
                     3.0 * arr[..., -1] - 4.0 * arr[..., -2] + arr[..., -3]),
                    axis=-1)
    return ends / 6.0


def _stencil(grid: GridSpec, sigma: np.ndarray):
    """Per-node coefficients (carry, left, right, gain) of the update

        v^{n+1} = carry v^n + right (u_{i+1} - u_i) - left (u_i - u_{i-1})
                  + gain S,    u^{n+1} = u^n + v^{n+1},

    with v^n = u^n - u^{n-1} and gain = 1/(1/dt^2 + sigma/(2 dt)); at
    the end nodes the injection signals stand for the outer differences,
    with left = -gain at node 0 and right = gain at node nx-1, so that
    either end adds gain times its signal.  ``sigma`` is (nx,) for every
    row or (rows, nx), one medium per row.
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
    left[..., 0], right[..., -1] = -gain[..., 0], gain[..., -1]
    return carry, left, right, gain


def _injection(grid: GridSpec, sigma_ends, g, source=None):
    """The injection signals (..., 2, steps) of the endpoint data ``g``
    (..., 2, steps) in one medium, whose damping at a and b is
    ``sigma_ends`` (2,): per end, with g_t and g_tt the centered
    derivatives,

        (2/dx) g + (dx/3) (g_tt + sigma_end g_t),

    less (dx/3) (-d/dx at a, +d/dx at b) of the real samples ``source``
    (see :func:`_time_loop`) at steps 1 .. len(source)-1, if given.  The
    differences are one-sided at the first and the last step, as
    :func:`numpy.gradient` takes them.
    """
    dx, dt = grid.dx, grid.dt
    # real for real data and medium, complex otherwise
    dtype = np.result_type(sigma_ends, g)
    # np.gradient halves the differences, so doubling them is exact
    d = np.gradient(g, axis=-1)
    d *= 2.0
    # of the signals' dtype, as it serves as scratch for the products below
    dd = np.gradient(d, axis=-1).astype(dtype, copy=False)
    dd *= 2.0
    # per end, the weights of g, of the centered difference g[n+1] - g[n-1]
    # and of that difference taken twice; of the signals' dtype, so that no
    # ufunc below buffers a weight
    w_g, w_d, w_dd = (np.broadcast_to(w, (2, 1)).astype(dtype) for w in (
        2.0 / dx, dx * sigma_ends[:, None] / (6.0 * dt), dx / (12.0 * dt**2)))
    out = w_dd * dd
    # accumulate in place, dd serving as scratch once it is applied
    for w, series in ((w_d, d), (w_g, g)):
        np.multiply(w, series, out=dd)
        out += dd
    if source is not None:
        out[..., 1:len(source)] -= _edge_term(source[1:]).T
    return out


def _time_loop(grid, stencil, inj, last, source=None):
    """Advance rows of nodes from u^0 = 0 and u^1 = dt^2 S(0) / 2.

    ``inj`` (steps, rows, 2), which the loop only reads, holds each row's
    injection signals at a and b for steps 1 .. steps-2, the edge terms of
    ``source`` included (see :func:`_injection`), and ``last`` each row's
    last step, longest first, the first steps-1.  ``source``, if given,
    holds the real samples S(t_n, .) for n = 0 .. steps-2, (steps-1, nx),
    which drive every row.  The field has shape (rows, nx) and the wider
    dtype of ``inj`` and the stencil: a row is real when its data and
    medium are.  Returns the endpoint traces (rows, 2, steps), zero past a
    row's last step, and the field at step T/dt of the rows running then.

    In each (rows, nx + 2) buffer a row of nodes sits between two cells,
    so that an update is a few numpy calls on the buffer read flat, its
    head flat[:-1] against its tail flat[1:]; the coefficients vanish at
    the cells, which keeps the rows apart.  In the buffer of differences
    u_{k+1} - u_k, the slots next to the cells take the injection signals.
    """
    rows, nx = len(last), grid.nx
    # Taylor first layer: with zero initial data, u_tt(0) = S(0)
    u1 = 0.0 if source is None else (grid.dt**2 / 2.0) * source[0]
    dtype = np.result_type(inj, *stencil)
    # carry, left, right, gain; then u, v, the differences and scratch
    buffers = [np.zeros((rows, nx + 2), kind)
               for kind in [c.dtype for c in stencil] + [dtype] * 4]
    for b, nodes in zip(buffers, (*stencil, u1, u1)):
        b[:, 1:-1] = nodes
    # steps last, as the data are stored: a row that stops early leaves
    # the rest of its memory untouched
    traces = np.zeros((rows, 2, len(inj)), dtype)
    traces[..., 1] = buffers[4][:, 1:nx + 1:nx - 1]
    half, level = grid.half_index, None
    sub, mul, add = np.subtract, np.multiply, np.add
    n0 = 1
    for n1 in sorted(set(last)):
        # views of the k rows that run through step n1, bound once per
        # count of rows
        k = sum(m >= n1 for m in last)
        carry, left, right, gain, u, v, diff, tmp = (b[:k] for b in buffers)
        carry_flat, u_flat, v_flat = (b.reshape(-1) for b in (carry, u, v))
        u_head, v_head, tmp_head, diff_head, right_head = (
            b.reshape(-1)[:-1] for b in (u, v, tmp, diff, right))
        u_tail, v_tail, tmp_tail, left_tail = (
            b.reshape(-1)[1:] for b in (u, v, tmp, left))
        v_nodes, tmp_nodes, gain_nodes = (b[:, 1:-1] for b in (v, tmp, gain))
        diff_slots, u_ends = diff[:, ::nx], u[:, 1:nx + 1:nx - 1]
        inj_k, traces_k = inj[:, :k], np.moveaxis(traces[:k], -1, 0)
        for n in range(n0, n1):
            sub(u_tail, u_head, diff_head)
            diff_slots[...] = inj_k[n]
            mul(v_flat, carry_flat, v_flat)
            mul(diff_head, right_head, tmp_head)
            add(v_head, tmp_head, v_head)
            mul(diff_head, left_tail, tmp_tail)
            sub(v_tail, tmp_tail, v_tail)
            if source is not None:
                mul(gain_nodes, source[n], tmp_nodes)
                add(v_nodes, tmp_nodes, v_nodes)
            add(u_flat, v_flat, u_flat)
            traces_k[n + 1] = u_ends
            if n + 1 == half:
                level = u[:, 1:-1].copy()
        n0 = n1
    return traces, level


def _drive(grid: GridSpec, sigma: np.ndarray, g: np.ndarray, last=None,
           source=None):
    """One loop pass over the endpoint data ``g`` (rows, 2, nt), a side
    then b, of the dtype of their injection signals, in the damping
    ``sigma``: (nx,) for every row or (rows, nx), one medium per row.

    Row j is read through step ``last[j]``, the longest first (through
    nt-1 without ``last``).  Its data are differenced two steps past that
    step and then overwritten in place by its injection signals, so that
    every injection the loop takes, the last at step last[j] - 1, is that
    of the full data, and only one row's differences take memory of their
    own.  Each row's signals take its medium's damping at the ends and the
    edge terms of ``source``, which, if given, drives every row.  Returns
    as :func:`_time_loop` does, with steps = last[0] + 1.
    """
    if not len(g):
        return np.zeros((0, 2, grid.nt)), np.zeros((0, grid.nx))
    last = last or [grid.nt - 1] * len(g)
    ends = np.broadcast_to(sigma[..., _ENDS], (len(g), 2))
    for gj, ej, m in zip(g, ends, last):
        gj[:, :m + 1] = _injection(grid, ej, gj[:, :m + 2], source)[:, :m + 1]
    inj = np.moveaxis(g[..., :last[0] + 1], -1, 0)  # (steps, rows, end)
    return _time_loop(grid, _stencil(grid, sigma), inj, last, source)


def _pass(grid: GridSpec, sigma, neumanns: Sequence[BoundaryTrace], last,
          source=None):
    """:func:`_drive` over a field per Neumann trace, field j read through
    step ``last[j]`` >= T/dt: the endpoint traces (traces, 2, last[0] + 1)
    and every field's u and u_x at T, (traces, nx) each."""
    sig = _as_sigma_array(sigma, grid.nx)
    g = _stack_neumann(grid, neumanns, stacklevel=4)
    # u_x at the ends is the data at T, read before _drive overwrites them;
    # the outward normal at a is -d/dx, consistent with the ghost node
    ends = g[..., grid.half_index] * [-1.0, 1.0]
    traces, u = _drive(grid, sig, g, last, source)
    # numpy divides complex by real through the rounded reciprocal: so a
    # complex field's u_x is that of its two real parts, bit for bit
    q = np.empty_like(u)
    q[:, 1:-1] = (u[:, 2:] - u[:, :-2]) * (1.0 / (2.0 * grid.dx))
    q[:, _ENDS] = ends
    return traces, u, q


def solve_many(
    grid: GridSpec, sigma, neumanns: Sequence[BoundaryTrace]
) -> list[BoundaryTrace]:
    """Nonlinear ND map: the endpoint traces of one field per Neumann trace,
    through a single time loop; the traces are the loop's rows."""
    traces, _, _ = _pass(grid, sigma, neumanns, [grid.nt - 1] * len(neumanns))
    return [BoundaryTrace(tr, grid.dt) for tr in traces]


def snapshots_many(
    grid: GridSpec,
    sigma,
    neumanns: Sequence[BoundaryTrace],
    source: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """u(T) and u_x(T) at the half time T, two (traces, nx) blocks with a
    row per Neumann trace, through a single time loop that stops at step
    T/dt; u_x is the data at the ends.  As d/dt commutes with the solution
    map, u(T) of a derivative datum g_t's field is u_t(T) of g's.

    ``source``, if given, holds the real samples S(t_n, .) that the loop
    reads, n = 0 .. T/dt - 1, of shape (T/dt, nx), and drives every trace.
    The blocks are the loop's rows.
    """
    h = grid.half_index
    if source is not None:
        source = np.asarray(source)
        shape = (h, grid.nx)
        if source.shape != shape or np.iscomplexobj(source):
            raise ConfigurationError(
                f"source is {source.dtype} of shape {source.shape}; the grid "
                f"needs real samples of shape (T/dt, nx) = {shape}")
        # NaN and inf show in a row's extremes: no array of the source's size
        bad = np.flatnonzero(~(np.isfinite(source.min(axis=1))
                               & np.isfinite(source.max(axis=1))))
        if bad.size:
            raise ConfigurationError(
                f"source has a non-finite sample at step {bad[0]}")
    return _pass(grid, sigma, neumanns, [h] * len(neumanns), source)[1:]


def linearized_nd_map_many(
    grid: GridSpec, medium: MediumSpec, fs: Sequence[BoundaryTrace]
) -> list[BoundaryTrace]:
    """Linearized ND map for several Neumann traces in one pass.

    Returns, per trace, the derivative of the endpoint traces of
    :func:`solve_many` along sigma_dot at the damping sigma0: the linearized
    measurements, taken by a complex step (see the module docstring).
    """
    sd = _as_sigma_array(medium.sigma_dot, grid.nx, "sigma_dot")
    g = _stack_neumann(grid, fs)
    # the damping sigma0 + i h sigma_dot / s on the nodes
    s = np.max(np.abs(sd)) or 1.0
    sigma = medium.sigma0 + 1j * (_STEP * (sd / s))
    # rows: each trace's real parts, then its imaginary ones unless the
    # data are real, times an exact power of two 1 / r, as complex data
    real = g.dtype == float
    parts = g if real else np.concatenate((g.real, g.imag))
    r = np.ldexp(1.0, np.frexp(np.max(np.abs(parts), axis=(1, 2)))[1])
    rows = (parts / r[:, None, None]).astype(complex)
    traces, _ = _drive(grid, sigma, rows)
    d = traces.imag / _STEP * s * r[:, None, None]
    d = d if real else d[:len(g)] + 1j * d[len(g):]
    return [BoundaryTrace(dj, grid.dt) for dj in d]


# ---------------------------------------------------------------------------
# transfer-kernel backend


def _fft_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n; numpy's FFT is fastest on such lengths."""
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


class _TransferMap:
    """Neumann traces to endpoint traces through a medium's transfer kernel.

    Made from ``responses`` (input end, output end, steps), a reference
    map's traces of a unit data sample at step ``_REACH`` at each end.  The
    centered differences reach one step ahead of the data, so the kernel is
    the responses from step _REACH - 1 on, and a trace is the data convolved
    with it, read one step on.  That holds only for data at rest in the
    ``_REACH`` samples nearest either end of the grid, and a call refuses
    any other.  The spectra of the responses are the read-only
    ``transfer``.  The FFT work arrays are the zero-padded input (parts,
    ends, samples), which the inverse FFT overwrites; its spectrum and the
    contraction's product, (parts, ends, frequencies); and one output end's
    term, (parts, frequencies): 14 real series of n_fft, a spectrum of
    n_fft // 2 + 1 complex samples counting as one; 3.4 MB on the paper
    grid's support grid.  A real batch takes the same operations and gives
    the real parts of the traces.
    """

    def __init__(self, grid: GridSpec, responses: np.ndarray):
        self.grid = grid
        kernel = responses[..., _REACH - 1:]
        # no wrap-around: the whole linear convolution of nt data samples
        # with the kernel fits
        self.n_fft = n_fft = _fft_length(grid.nt + kernel.shape[-1] - 1)
        n_freq = n_fft // 2 + 1
        # (input end, output end, frequencies), C-contiguous with
        # frequencies last: the contraction runs along them
        self.transfer = np.fft.rfft(kernel, n_fft)
        self.transfer.flags.writeable = False
        self.work = (np.zeros((2, 2, n_fft)),
                     np.empty((2, 2, n_freq), complex),
                     np.empty((2, 2, n_freq), complex),
                     np.empty((2, n_freq), complex))

    def __call__(self, fs: Sequence[BoundaryTrace]) -> list[BoundaryTrace]:
        """Endpoint traces of the Neumann traces ``fs``, as views of one new
        block.  A trace nonzero within ``_REACH`` steps of either end of the
        grid, or a non-finite result, from a kernel that overflowed, raises
        an error.  Every call overwrites the map's FFT work arrays."""
        n_fft, transfer, grid = self.n_fft, self.transfer, self.grid
        series, spectrum, product, term = self.work
        nt = grid.nt
        out = np.empty((len(fs), 2, nt), dtype=complex)
        # an overflow gives a non-finite trace, which is rejected by name
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (tr, oj) in enumerate(zip(_checked(grid, fs), out)):
                v = tr.values
                if np.any(v[:, :_REACH]) or np.any(v[:, -_REACH:]):
                    raise ConfigurationError(
                        f"Neumann trace {j} is nonzero within {_REACH} "
                        "steps of an end of the grid, where the transfer "
                        "maps take data at rest")
                series[0, :, :nt] = v.real
                series[1, :, :nt] = v.imag
                np.fft.rfft(series, n_fft, out=spectrum)
                # a 2 x 2 contraction over the input ends per frequency, one
                # output end at a time
                for o, po in enumerate(np.moveaxis(product, 1, 0)):
                    np.multiply(spectrum[:, 0], transfer[0, o], out=po)
                    np.multiply(spectrum[:, 1], transfer[1, o], out=term)
                    np.add(po, term, out=po)
                # the inverse overwrites the input; the next trace fills
                # its first nt samples, so only the tail is zeroed again
                np.fft.irfft(product, n_fft, out=series)
                oj.real, oj.imag = series[..., 1:nt + 1]
                series[..., nt:] = 0.0
                if not np.all(np.isfinite(oj.view(float))):
                    raise ConfigurationError(
                        f"measured trace {j} has a non-finite sample: the "
                        "medium overflows the transfer kernel")
        cplx = any(np.iscomplexobj(tr.values) for tr in fs)
        return [BoundaryTrace(oj, grid.dt)
                for oj in (out if cplx else out.real)]


def _unit_samples(grid: GridSpec) -> np.ndarray:
    """A unit data sample at step ``_REACH`` at end a and one at end b, as
    (sample end, end, steps)."""
    samples = np.zeros((2, 2, grid.nt))
    samples[..., _REACH] = np.eye(2)
    return samples


def transfer_difference_nd_map(
    grid: GridSpec, medium: MediumSpec, eps: float
) -> Callable[[Sequence[BoundaryTrace]], list[BoundaryTrace]]:
    """The map from Neumann traces to
    (Lambda(sigma0 + eps sigma_dot + eps^2 sigma_ddot) - Lambda(sigma0)) / eps
    per trace, Lambda the endpoint traces of :func:`solve_many`, by one
    convolution each; it stands in for linearized measurements.

    Making the map checks its arguments and runs the one time loop of its
    kernel, so the map measures the medium as it was then.  It agrees with
    the stepper's quotient to about 1e-13 of either medium's traces / eps,
    and an eps at which that rounding, taken as nt ulps, would exceed
    ``_ROUNDING_SHARE`` of the quotient is refused.  That estimate holds at
    dt = dx/10 but not at dt = dx: there, on experiment 3's medium at the
    paper dx, the kernel's rounding is about 80 times the estimate (2.4e-2
    of the kernel at eps = 1e-10, which is accepted, against 2.8e-4), so at
    unit CFL an accepted eps is not promised a small rounding share.
    The map writes work arrays of its own: do not call it from two threads
    at once.
    """
    _check_real("eps", eps, 0, strict=True)
    sd = _as_sigma_array(medium.sigma_dot, grid.nx, "sigma_dot")
    with np.errstate(over="ignore"):
        full = medium.sigma0 + eps * sd
        if medium.sigma_ddot is not None:
            full = full + np.square(eps) * medium.sigma_ddot
    full = _as_sigma_array(full, grid.nx,
                           "(sigma0 + eps sigma_dot + eps^2 sigma_ddot)")
    # the unit samples at a and b in media full, full, background, background
    media = np.repeat([full, np.full(grid.nx, medium.sigma0)], 2, axis=0)
    traces, _ = _drive(grid, media, np.tile(_unit_samples(grid), (2, 1, 1)))
    diff = traces[:2] - traces[2:]
    # the loop rounds either medium's traces to about nt ulps of their size
    rounding = grid.nt * np.finfo(float).eps
    with np.errstate(invalid="ignore"):
        rho = np.max(np.abs(diff)) / np.max(np.abs(traces[:2]))
    if (rounding > _ROUNDING_SHARE * rho
            and (np.any(sd) or np.any(medium.sigma_ddot))):
        raise ConfigurationError(
            f"eps = {eps} is too small: the media's traces differ by "
            f"{rho:.2g} of their size, and their rounding, about "
            f"{rounding:.2g}, would make up more than {_ROUNDING_SHARE:g} of "
            "the quotient")
    return _TransferMap(grid, diff / eps)


def transfer_linearized_nd_map(
    grid: GridSpec, medium: MediumSpec
) -> Callable[[Sequence[BoundaryTrace]], list[BoundaryTrace]]:
    """The map from Neumann traces to the linearized measurements of
    :func:`linearized_nd_map_many`, by one convolution each.

    Making the map checks its arguments and runs the one time loop of its
    kernel, so the map measures the medium as it was then.  It agrees with
    the stepper, its oracle, to about 1e-13 relative.  The map writes work
    arrays of its own: do not call it from two threads at once.
    """
    samples = [BoundaryTrace(g, grid.dt) for g in _unit_samples(grid)]
    return _TransferMap(grid, np.stack(
        [tr.values for tr in linearized_nd_map_many(grid, medium, samples)]))
