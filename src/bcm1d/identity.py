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

from linearized measurements alone.  Both are checked here against
independent volume quadrature.

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

from .core import (
    BoundaryTrace,
    GridMismatchError,
    GridSpec,
    discrete_sobolev_norm,
)
from .solver import solve_many

_RESIDUAL_FLOOR = 1e-12
_STABILITY_SLACK = 0.05


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


def _pair(x: BoundaryTrace, y: BoundaryTrace, grid: GridSpec) -> complex:
    """Reflected bilinear pairing < x(t), y(2T - t) > over (0, T) x {a, b}.

    Composite trapezoid of x(t, a) y(2T - t, a) + x(t, b) y(2T - t, b), with
    no complex conjugation; ``y`` is read through a reversed view.
    """
    for tr in (x, y):
        if (len(tr), tr.dt) != (grid.nt, grid.dt):
            raise GridMismatchError(f"trace of {len(tr)} samples (dt={tr.dt}) "
                                    f"is off the grid ({grid.nt}, dt={grid.dt})")
    n = grid.half_index + 1
    integrand = (x.values_a[:n] * y.values_a[::-1][:n]
                 + x.values_b[:n] * y.values_b[::-1][:n])
    return complex(np.trapezoid(integrand, dx=grid.dt))


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
    Lh_tt + lam Lh_t and of Lf_t with h_t + lam h.
    """
    nT = grid.half_index
    boundary_at_T = (
        f.g.values_a[nT] * h.meas_t.values_a[nT]
        + f.g.values_b[nT] * h.meas_t.values_b[nT]
    )
    return (
        -boundary_at_T
        - _pair(f.g, h.meas_tt + lam * h.meas_t, grid)
        + _pair(f.meas_t, h.g_t + lam * h.g, grid)
    )


def weighted_volume_pairing(
    pf: np.ndarray, ph: np.ndarray, sigma_dot: np.ndarray, grid: GridSpec
) -> complex:
    """int_a^b sigma_dot(x) p^f(x) p^h(x) dx by composite trapezoid (bilinear)."""
    pf = np.asarray(pf)
    ph = np.asarray(ph)
    sigma_dot = np.asarray(sigma_dot)
    if not pf.shape == ph.shape == sigma_dot.shape == (grid.nx,):
        raise ValueError(
            f"sample arrays must all have length {grid.nx}, got "
            f"{pf.shape}, {ph.shape}, {sigma_dot.shape}"
        )
    return complex(np.trapezoid(sigma_dot * pf * ph, dx=grid.dx))


@dataclass(frozen=True)
class IdentityReport:
    lhs: complex
    rhs: complex
    rel_residual: float


def nonlinear_identity_residual(f, h, sigma, grid: GridSpec) -> IdentityReport:
    """Check the nonlinear identity for full damping ``sigma``.

    ``f`` and ``h`` are pairs (trace, analytic time-derivative trace).  The
    interior side is computed from t = T snapshots of the two forward
    solves; the boundary side pairs each datum with the reflected measured
    trace of the other datum's derivative.  The relative residual is
    |lhs - rhs| normalized by the larger magnitude (with a small floor so
    trivially zero cases report 0).
    """
    f_trace, f_t_trace = f
    h_trace, h_t_trace = h
    out_f, out_h, out_ft, out_ht = solve_many(
        grid, sigma, [f_trace, h_trace, f_t_trace, h_t_trace]
    )
    lhs = complex(
        np.trapezoid(
            out_f.pT_snapshot * out_h.pT_snapshot
            - out_f.qT_snapshot * out_h.qT_snapshot,
            dx=grid.dx,
        )
    )
    rhs = (_pair(f_trace, out_ht.dirichlet, grid)
           - _pair(out_ft.dirichlet, h_trace, grid))
    denom = max(abs(lhs), abs(rhs), _RESIDUAL_FLOOR)
    rel = abs(lhs - rhs) / denom
    if abs(lhs) <= _RESIDUAL_FLOOR and abs(rhs) <= _RESIDUAL_FLOOR:
        rel = 0.0
    return IdentityReport(lhs=lhs, rhs=rhs, rel_residual=rel)


@dataclass(frozen=True)
class StabilityReport:
    lhs_abs: float
    bound: float
    ok: bool


def stability_bound_check(
    f: ControlData, h: ControlData, lam: complex, grid: GridSpec,
    meas_f: BoundaryTrace, meas_h: BoundaryTrace,
) -> StabilityReport:
    """Cauchy-Schwarz chain bounding the identity value by trace norms.

    Checks |linearized_rhs| <= (2 + |lam|) ||f||_H1 ||Lh||_H2
                               + (1 + |lam|) ||Lf||_H2 ||h||_H1
    with discrete Sobolev norms over (0, T) x {a, b}; a 5% slack absorbs
    the discretization of the norms.  ``meas_f`` and ``meas_h`` are the
    measured responses Lf and Lh to the controls themselves.
    """
    lhs_abs = abs(linearized_rhs(f, h, lam, grid))
    lam_abs = abs(lam)
    bound = (
        (2.0 + lam_abs)
        * discrete_sobolev_norm(f.g, 1)
        * discrete_sobolev_norm(meas_h, 2)
        + (1.0 + lam_abs)
        * discrete_sobolev_norm(meas_f, 2)
        * discrete_sobolev_norm(h.g, 1)
    )
    return StabilityReport(
        lhs_abs=lhs_abs,
        bound=bound,
        ok=lhs_abs <= bound * (1.0 + _STABILITY_SLACK),
    )
