"""Boundary identities relating endpoint data to interior inner products.

Two exact relations drive the reconstruction and its verification.  The
nonlinear one expresses the interior pairing of two wave states at the half
time,

    int_a^b [ p^f(T) p^h(T) - q^f(T) q^h(T) ] dx,

through time-reversed boundary pairings of the Neumann data with measured
Dirichlet traces.  Its linearized counterpart carries a free complex
parameter lam and, when both controls steer the background to states
satisfying the coupled snapshot equations, evaluates the damping-weighted
interior product

    int_a^b sigma_dot p0^f(T) p0^h(T) dx

from linearized measurements alone.  The tests check both against
independent volume quadrature.  The nonlinear one runs its four fields
through one pass of the stepper, each to the last step it reads.

Each control enters as one :class:`ControlData` record: the control, its
analytic time derivative and its measured responses.  The linearized form
takes the two records of a pair as arguments, so the pairs (f, h), (f, f)
and (h, h) of a mode are three calls on the same two records.

All pairings are bilinear; reflected factors are read at 2T - t, which
stays on the grid by construction: a reversed view, never a copy.  The
measured derivative traces entering the linearized form come from separate
linearized solves driven by the analytic derivative controls (time
differentiation commutes with the measurement map), never from differencing
measured data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundaryTrace, GridSpec, _check_trace
from .solver import _pass

_RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class ControlData:
    """One boundary control with its measured linearized responses.

    ``g`` and ``g_t`` are the control and its analytic time derivative;
    ``meas_t`` and ``meas_tt`` are the measured linearized responses to its
    first and second analytic time derivatives.
    """

    g: BoundaryTrace
    g_t: BoundaryTrace
    meas_t: BoundaryTrace
    meas_tt: BoundaryTrace


def _pair(x: np.ndarray, y: np.ndarray, dt: float) -> complex:
    """Reflected bilinear pairing < x(t), y(2T - t) > over (0, T) x {a, b}.

    ``x`` holds samples 0 .. T/dt and ``y`` samples T/dt .. 2T/dt, each
    (2, T/dt + 1).  Composite trapezoid of x(t, a) y(2T - t, a) +
    x(t, b) y(2T - t, b), with no complex conjugation; ``y`` is read through
    a reversed view.
    """
    ends = x * y[:, ::-1]
    return complex(np.trapezoid(ends[0] + ends[1], dx=dt))


def linearized_rhs(
    f: ControlData, h: ControlData, lam: complex, grid: GridSpec
) -> complex:
    """Boundary-data side of the linearized identity for the pair (f, h).

    Evaluates

        - [ f(T) . (Lh_t)(T) ]_{a,b}
        - < f(t),   (Lh_tt)(2T - t) >
        + < (Lf_t)(t),  h_t(2T - t) >
        - lam < f(t),  (Lh_t)(2T - t) >
        + lam < (Lf_t)(t),  h(2T - t) >

    where L denotes the measured linearized map, [.] sums the two endpoint
    products at t = T and <.,.> is the bilinear pairing over (0, T) x {a, b}.
    By bilinearity the four pairings are taken as two, of f with
    Lh_tt + lam Lh_t and of Lf_t with h_t + lam h; f's traces are read over
    (0, T) and h's over (T, 2T).
    """
    for name, record, fields in (("f", f, ("g", "meas_t")),
                                 ("h", h, ("g", "g_t", "meas_t", "meas_tt"))):
        for field in fields:
            _check_trace(f"{name}.{field}", getattr(record, field), grid)
    nT = grid.half_index
    first, second = slice(None, nT + 1), slice(nT, None)
    at_T = f.g.values[:, nT] * h.meas_t.values[:, nT]
    boundary_at_T = at_T[0] + at_T[1]
    h_meas = h.meas_tt.values[:, second] + lam * h.meas_t.values[:, second]
    h_data = h.g_t.values[:, second] + lam * h.g.values[:, second]
    return (
        -boundary_at_T
        - _pair(f.g.values[:, first], h_meas, grid.dt)
        + _pair(f.meas_t.values[:, first], h_data, grid.dt)
    )


@dataclass(frozen=True)
class IdentityReport:
    lhs: complex
    rhs: complex
    rel_residual: float


def nonlinear_identity_residual(f, h, sigma, grid: GridSpec) -> IdentityReport:
    """Check the nonlinear identity for full damping ``sigma``.

    ``f`` and ``h`` are pairs (trace, analytic time-derivative trace).  The
    interior side reads the pass's t = T blocks, rows h_t, f, h, f_t: q^f
    and q^h are u_x(T) of f's and h's rows, p^f and p^h u(T) of f_t's and
    h_t's.
    The boundary side pairs each datum with the reflected ND map of the
    other datum's derivative, so it reads h_t's over (T, 2T) and f_t's over
    (0, T).  One loop pass serves both: h_t's field runs to 2T, the other
    three to T.  The relative residual is |lhs - rhs| normalized by the
    larger magnitude (0 when both are below a floor).
    """
    f_trace, f_t_trace = f
    h_trace, h_t_trace = h
    nT = grid.half_index
    traces, u, q = _pass(grid, sigma, [h_t_trace, f_trace, h_trace, f_t_trace],
                         [grid.nt - 1, nT, nT, nT])
    first, second = slice(None, nT + 1), slice(nT, None)
    lhs = complex(np.trapezoid(u[3] * u[0] - q[1] * q[2], dx=grid.dx))
    rhs = (_pair(f_trace.values[:, first], traces[0, :, second], grid.dt)
           - _pair(traces[3, :, first], h_trace.values[:, second], grid.dt))
    denom = max(abs(lhs), abs(rhs))
    rel = abs(lhs - rhs) / denom if denom > _RESIDUAL_FLOOR else 0.0
    return IdentityReport(lhs=lhs, rhs=rhs, rel_residual=rel)
