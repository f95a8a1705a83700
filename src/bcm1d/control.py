"""Exact Neumann boundary controls by time reversal for the free background.

For the undamped background, a control steering the interior state to
prescribed snapshots at t = T is available in closed form: extend the
targets beyond [a, b], run the free-space d'Alembert solution backwards from
its t = T data, and read off the outward normal derivative at the two
endpoints.  With measurement half-time T >= (b - a) + 1, the extended data
leave the domain of dependence of t = 0 and the field vanishes identically
there, so the trace is an admissible control for zero initial data.

Targets come coupled: prescribing the velocity snapshot p(T) = pT and the
gradient snapshot q(T) = -(1/lam) pT' is realized by the d'Alembert position
target phi = -(1/lam) pT (plus a constant) and velocity target psi = pT.

At t = 0 the d'Alembert arguments of a node x in [a, b] are the shifted nodes
x - T <= a - 1 and x + T >= b + 1, on either side of the extension's support
(a - 1, b + 1).  There the cumulative integral Psi of psi is 0 on the left
and its total on the right, so the constant total/2 cancels its term exactly
and the field reduces to (1/2)[phi(x + T) + phi(x - T)]: the extension's
values at the shifted nodes, which vanish.

The arguments s -+ = x0 -+ (T - t) of the traces at x0 = a, b depend on the
grid only, and s+ at time t is s- at 2T - t, a grid time: the samples at s+
are those at s- reversed.  Which samples of s- fall in (a - 1, b + 1), where
the extension is nonzero, and the bump factors there form one plan per end,
cached for the two most recent grids; each control evaluates only its own
profile and its derivatives, once per end.

Control traces are evaluated on all of [0, 2T]: the boundary identities
sample their reflected arguments in (T, 2T), where the normal trace is
generally nonzero.  Truncating at T would silently zero those terms.
Derivative traces are exact analytic t-derivatives of the normal trace (not
numerical differences), which avoids noise amplification in the
second-derivative data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .core import BoundaryTrace, GridSpec, _is_close_to_integer
from .extension import (AnalyticProfile, _derivatives, _plan,
                        extended_derivatives)
from .solver import _REACH, snapshots_many


class ControlBundle(NamedTuple):
    """The analytic traces of a synthesized control.

    ``f`` realizes the snapshots p(T) = pT and q(T) = -(1/lam) pT' for the
    free background; ``f_t`` and ``f_tt`` are its exact time derivatives.
    """

    f: BoundaryTrace
    f_t: BoundaryTrace
    f_tt: BoundaryTrace


@functools.lru_cache(maxsize=2)
def _geometry(grid: GridSpec) -> tuple:
    """Extension plans at s- = x0 - T + t, for x0 = a then b: the samples
    in (a - 1, b + 1) and the bump factors there.  They depend on the grid
    only, so every control on a grid shares them; on the paper grid they
    hold 0.81 MiB."""
    a, b, T = grid.a, grid.b, grid.T
    return tuple(_plan(a, b, x0 - T + grid.ts) for x0 in (a, b))


def build_control(pT: AnalyticProfile, lam: complex,
                  grid: GridSpec) -> ControlBundle:
    """Construct the Neumann control with velocity target ``pT`` at t = T.

    Writing s+ = x + T - t and s- = x - T + t, the normal trace and its
    time derivatives at an endpoint x in {a, b} are

        f    = +/- (1/2) [ phi'(s+)  + phi'(s-)  + psi(s-)  - psi(s+)  ]
        f_t  = +/- (1/2) [ -phi''(s+) + phi''(s-) + psi'(s-) + psi'(s+) ]
        f_tt = +/- (1/2) [ phi'''(s+) + phi'''(s-) + psi''(s-) - psi''(s+) ]

    with + at x = b and - at x = a, where phi, psi denote the extended
    position and velocity targets.  Since phi = -(1/lam) psi, every term
    comes from one evaluation of psi and its derivatives at s-, reversed at s+.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero (zero-frequency pairs are not used)")
    c = -1.0 / lam
    # the three traces (trace, end, steps) in one block, each written in
    # place: the real series' temporaries leave no holes between them
    out = np.empty((3, 2, grid.nt), complex)
    for sign, plan, o in zip((-1.0, +1.0), _geometry(grid), out.swapaxes(0, 1)):
        m = _derivatives(pT, plan)  # at s-
        p = [v[::-1] for v in m]  # at s+
        # sign / 2 (c xy + z - w) in the formulas' order of operations
        for t, xy, z, w in ((o[0], p[1] + m[1], m[0], p[0]),
                            (o[1], m[2] - p[2], m[1], -p[1]),
                            (o[2], p[3] + m[3], m[2], p[2])):
            np.multiply(c, xy, out=t)
            t += z
            t -= w
            t *= sign * 0.5
    return ControlBundle(*(BoundaryTrace(tr, grid.dt) for tr in out))


def support_grid(grid: GridSpec) -> GridSpec:
    """The grid on which the controls of ``grid`` are measured: ``grid``
    with T = (n + 3) dt, n = ((b - a) + 1) / dt rounded to the nearest
    integer when it is one to rounding, and up otherwise.

    The arguments s-+ of a trace of :func:`build_control` enter the
    extension's support (a - 1, b + 1) only after t = T - (b - a) - 1 and,
    by time reversal about T, leave it at t = T + (b - a) + 1, so on this
    grid every trace vanishes in the first and the last three steps, the
    injection filter's reach, as the measurement maps require.  The step
    after them can hold a bump factor near 1e-120, when rounding in ``ts``
    puts its argument just inside the support.  A control depends on t - T
    only, so the grid reads only a, b, dx and dt: every T, however large,
    gives it.  On the paper grid it has 15007 of 25001 steps.
    """
    steps = ((grid.b - grid.a) + 1.0) / grid.dt
    n = round(steps) if _is_close_to_integer(steps) else math.ceil(steps)
    return replace(grid, T=(n + _REACH) * grid.dt)


@dataclass(frozen=True)
class ControlReport:
    err_p: float
    err_q: float
    err_init: float


def verify_control(targets: Sequence[tuple[AnalyticProfile, complex]],
                   grid: GridSpec) -> list[ControlReport]:
    """Check the controls of ``targets``, (pT, lam) pairs, on the support
    grid of ``grid`` (see :func:`support_grid`), where they are quiet in
    the first and the last three steps only; ``grid``'s T is not read.

    Each control is built by :func:`build_control`; the traces f and f_t
    of all of them run as two columns each of a single pass over sigma = 0,
    the regime in which the construction is exact; the pass stops at T
    (see :func:`~bcm1d.solver.snapshots_many`).  Returns one report per
    target, in order.

    ``err_p`` and ``err_q`` are relative L2 errors of the computed t = T
    velocity and gradient snapshots against the analytic targets, each
    absolute where its target is zero.

    ``err_init`` is the sup of |w(0, .)| and |w_t(0, .)| over the nodes of
    [a, b], with the d'Alembert field w and phi = -(1/lam) psi:

        w(0, x)   = (1/2) [ phi(x + T) + phi(x - T) ]
        w_t(0, x) = (1/2) [ phi'(x - T) - phi'(x + T) + psi(x + T) + psi(x - T) ]

    both from one evaluation of the extension and its first derivative at
    the shifted nodes x -+ T.  The cumulative-integral term of w is left out:
    it cancels exactly against the additive constant because x - T and
    x + T lie on either side of the extension's support, which the support
    grid's T >= (b - a) + 1 + 3 dt guarantees.  The value is an analytic
    cancellation, not a solver property.

    The velocity snapshot is u(T) of the field driven by the analytic trace
    f_t, and the gradient u_x(T) of f's: time differentiation commutes with
    the solution map, so f_t's field is the velocity field.
    """
    grid = support_grid(grid)
    xs = grid.xs
    shifted = np.concatenate((xs - grid.T, xs + grid.T))
    controls = [build_control(pT, lam, grid) for pT, lam in targets]
    u, q = snapshots_many(grid, 0.0,
                          [tr for c in controls for tr in (c.f, c.f_t)])
    reports = []
    for (pT, lam), q_got, p_got in zip(targets, q[0::2], u[1::2]):
        value, slope = pT(xs)[:2]
        p_want = np.asarray(value, dtype=complex)
        q_want = -np.asarray(slope, dtype=complex) / lam
        err_p, err_q = (
            float(np.linalg.norm(got - want) / (np.linalg.norm(want) or 1.0))
            for got, want in ((p_got, p_want), (q_got, q_want)))
        (psi_m, psi_p), (dpsi_m, dpsi_p) = (
            np.split(v, 2)
            for v in extended_derivatives(pT, grid.a, grid.b, shifted)[:2])
        c = -1.0 / lam
        w0 = 0.5 * c * (psi_p + psi_m)
        w0_t = 0.5 * (c * (dpsi_m - dpsi_p) + psi_p + psi_m)
        err_init = float(max(np.max(np.abs(w0)), np.max(np.abs(w0_t))))
        reports.append(ControlReport(err_p=err_p, err_q=err_q, err_init=err_init))
    return reports
