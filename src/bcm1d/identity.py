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

All pairings are bilinear; reflected factors are sampled at 2T - t, which
stays on the grid by construction.  The measured derivative traces entering
the linearized form come from separate linearized solves driven by the
analytic derivative controls (time differentiation commutes with the
measurement map), never from differencing measured data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BoundaryTrace,
    GridSpec,
    bilinear_time_boundary_pairing,
    discrete_sobolev_norm,
    reflect_trace,
)
from .solver import solve_many

_RESIDUAL_FLOOR = 1e-12
_STABILITY_SLACK = 0.05


@dataclass(frozen=True)
class PairData:
    """Everything the linearized identity needs for one control pair (f, h).

    The f slot carries the control and the measured linearized trace of its
    first derivative; the h slot additionally carries second derivatives.
    ``snap_f`` and ``snap_h`` are the analytic target snapshots p0(T) on the
    spatial nodes, kept for oracle comparisons only.  The optional fields
    hold data for the symmetric pairs (f, f) and (h, h) and for the
    stability check.
    """

    lam: complex
    grid: GridSpec
    f: BoundaryTrace
    f_t: BoundaryTrace
    h: BoundaryTrace
    h_t: BoundaryTrace
    h_tt: BoundaryTrace
    meas_f_t: BoundaryTrace
    meas_h_t: BoundaryTrace
    meas_h_tt: BoundaryTrace
    snap_f: np.ndarray
    snap_h: np.ndarray
    f_tt: BoundaryTrace | None = None
    meas_f_tt: BoundaryTrace | None = None
    meas_f: BoundaryTrace | None = None
    meas_h: BoundaryTrace | None = None

    def pair_ff(self) -> "PairData":
        """View with the f control occupying both slots."""
        if self.f_tt is None or self.meas_f_tt is None:
            raise ValueError("pair_ff needs f_tt and meas_f_tt")
        return replace(
            self,
            h=self.f, h_t=self.f_t, h_tt=self.f_tt,
            meas_h_t=self.meas_f_t, meas_h_tt=self.meas_f_tt,
            snap_h=self.snap_f, meas_h=self.meas_f,
        )

    def pair_hh(self) -> "PairData":
        """View with the h control occupying both slots."""
        return replace(
            self,
            f=self.h, f_t=self.h_t, f_tt=self.h_tt,
            meas_f_t=self.meas_h_t, meas_f_tt=self.meas_h_tt,
            snap_f=self.snap_h, meas_f=self.meas_h,
        )

    def swapped(self) -> "PairData":
        """View with the f and h slots exchanged (needs full f-side data)."""
        if self.f_tt is None or self.meas_f_tt is None:
            raise ValueError("swapped needs f_tt and meas_f_tt")
        return replace(
            self,
            f=self.h, f_t=self.h_t, f_tt=self.h_tt,
            meas_f_t=self.meas_h_t, meas_f_tt=self.meas_h_tt,
            h=self.f, h_t=self.f_t, h_tt=self.f_tt,
            meas_h_t=self.meas_f_t, meas_h_tt=self.meas_f_tt,
            snap_f=self.snap_h, snap_h=self.snap_f,
            meas_f=self.meas_h, meas_h=self.meas_f,
        )


def linearized_rhs(pd: PairData) -> complex:
    """Boundary-data side of the linearized identity.

    Evaluates

        - [ f(T) . (Lh_t)(T) ]_{a,b}
        - < f(t),   (Lh_tt)(2T - t) >
        + < (Lf_t)(t),  h_t(2T - t) >
        - lam < f(t),  (Lh_t)(2T - t) >
        + lam < (Lf_t)(t),  h(2T - t) >

    where L denotes the measured linearized map, [.] sums the two endpoint
    products at t = T and <.,.> is the bilinear pairing over (0, T) x {a, b}.
    """
    g, T = pd.grid, pd.grid.T
    nT = g.half_index
    boundary_at_T = (
        pd.f.values_a[nT] * pd.meas_h_t.values_a[nT]
        + pd.f.values_b[nT] * pd.meas_h_t.values_b[nT]
    )
    return (
        -boundary_at_T
        - bilinear_time_boundary_pairing(pd.f, reflect_trace(pd.meas_h_tt), T)
        + bilinear_time_boundary_pairing(pd.meas_f_t, reflect_trace(pd.h_t), T)
        - pd.lam * bilinear_time_boundary_pairing(pd.f, reflect_trace(pd.meas_h_t), T)
        + pd.lam * bilinear_time_boundary_pairing(pd.meas_f_t, reflect_trace(pd.h), T)
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


def nonlinear_identity_residual(
    f, h, sigma, grid: GridSpec, rho0: float = 1.0
) -> IdentityReport:
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
        grid, rho0, sigma, [f_trace, h_trace, f_t_trace, h_t_trace]
    )
    lhs = complex(
        np.trapezoid(
            out_f.pT_snapshot * out_h.pT_snapshot
            - out_f.qT_snapshot * out_h.qT_snapshot,
            dx=grid.dx,
        )
    )
    rhs = bilinear_time_boundary_pairing(
        f_trace, reflect_trace(out_ht.dirichlet), grid.T
    ) - bilinear_time_boundary_pairing(
        out_ft.dirichlet, reflect_trace(h_trace), grid.T
    )
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


def stability_bound_check(pd: PairData) -> StabilityReport:
    """Cauchy-Schwarz chain bounding the identity value by trace norms.

    Checks |linearized_rhs| <= (2 + |lam|) ||f||_H1 ||Lh||_H2
                               + (1 + |lam|) ||Lf||_H2 ||h||_H1
    with discrete Sobolev norms over (0, T) x {a, b}; a 5% slack absorbs
    the discretization of the norms.  Requires the measured traces of the
    controls themselves (``meas_f``, ``meas_h``).
    """
    if pd.meas_f is None or pd.meas_h is None:
        raise ValueError("stability check needs the measured f and h traces")
    T = pd.grid.T
    lhs_abs = abs(linearized_rhs(pd))
    lam_abs = abs(pd.lam)
    bound = (
        (2.0 + lam_abs)
        * discrete_sobolev_norm(pd.f, 1, T)
        * discrete_sobolev_norm(pd.meas_h, 2, T)
        + (1.0 + lam_abs)
        * discrete_sobolev_norm(pd.meas_f, 2, T)
        * discrete_sobolev_norm(pd.h, 1, T)
    )
    return StabilityReport(
        lhs_abs=lhs_abs,
        bound=bound,
        ok=lhs_abs <= bound * (1.0 + _STABILITY_SLACK),
    )
