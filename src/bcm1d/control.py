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
are those at s- reversed.  Which samples of s- fall on the domain or a
flank, and the flank bump factors there, form one plan per end, cached for
the two most recent grids; each control evaluates only its own profile and
its derivatives, once per end.

Control traces are evaluated on all of [0, 2T]: the boundary identities
sample their reflected arguments in (T, 2T), where the normal trace is
generally nonzero.  Truncating at T would silently zero those terms.
Derivative traces are exact analytic t-derivatives of the normal trace (not
numerical differences), which avoids noise amplification in the
second-derivative data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import BoundaryTrace, GridSpec
from .extension import (AnalyticProfile, _derivatives, _plan,
                        extended_derivatives)
from .solver import solve_many


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
    """Extension plans at s- = x0 - T + t, for x0 = a then b.  They depend
    on the grid only, so every control on a grid shares them; on the paper
    grid they hold 0.46 MiB."""
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
    traces = []
    for sign, plan in zip((-1.0, +1.0), _geometry(grid)):
        m = _derivatives(pT, plan)  # at s-
        p = [v[::-1] for v in m]  # at s+
        traces.append((
            sign * 0.5 * (c * (p[1] + m[1]) + m[0] - p[0]),
            sign * 0.5 * (c * (m[2] - p[2]) + m[1] + p[1]),
            sign * 0.5 * (c * (p[3] + m[3]) + m[2] - p[2]),
        ))
    return ControlBundle(*(
        BoundaryTrace(at_a, at_b, grid.dt) for at_a, at_b in zip(*traces)
    ))


@dataclass(frozen=True)
class ControlReport:
    err_p: float
    err_q: float
    err_init: float


def verify_control(targets: Sequence[tuple[AnalyticProfile, complex]],
                   grid: GridSpec) -> list[ControlReport]:
    """Check the controls of ``targets``, (pT, lam) pairs, on ``grid``.

    Each control is built by :func:`build_control`; the traces f and f_t
    of all of them run as two columns each of a single pass over sigma = 0,
    the regime in which the construction is exact.  Returns one report per
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
    x + T lie on either side of the extension's support, which GridSpec's
    check T >= (b - a) + 1 guarantees.  The value is an analytic
    cancellation, not a solver property.

    The velocity snapshot is measured through the derivative datum: since
    time differentiation commutes with the solution map, the field driven by
    the analytic trace f_t *is* the velocity field, and its t = T state is a
    far cleaner instrument than differencing the displacement in time (which
    amplifies the dispersive tail of the scheme by a frequency factor).
    """
    xs = grid.xs
    shifted = np.concatenate((xs - grid.T, xs + grid.T))
    controls = [build_control(pT, lam, grid) for pT, lam in targets]
    outs = solve_many(grid, 0.0, [tr for c in controls for tr in (c.f, c.f_t)])
    reports = []
    for (pT, lam), out, out_t in zip(targets, outs[0::2], outs[1::2]):
        p_got = out_t.uT_snapshot
        p_want = np.asarray(pT.value(xs), dtype=complex)
        q_want = -np.asarray(pT.deriv1(xs), dtype=complex) / lam
        err_p, err_q = (
            float(np.linalg.norm(got - want) / (np.linalg.norm(want) or 1.0))
            for got, want in ((p_got, p_want), (out.qT_snapshot, q_want)))
        (psi_m, psi_p), (dpsi_m, dpsi_p) = (
            np.split(v, 2)
            for v in extended_derivatives(pT, grid.a, grid.b, shifted)[:2])
        c = -1.0 / lam
        w0 = 0.5 * c * (psi_p + psi_m)
        w0_t = 0.5 * (c * (dpsi_m - dpsi_p) + psi_p + psi_m)
        err_init = float(max(np.max(np.abs(w0)), np.max(np.abs(w0_t))))
        reports.append(ControlReport(err_p=err_p, err_q=err_q, err_init=err_init))
    return reports
