"""Smooth compactly supported extension of profiles beyond the domain.

A profile known on [a, b] is extended to (a - 1, b + 1) by multiplying it on
each flank with the bump factor

    B(u) = exp(1 - 1/(1 - u^(2d))),    u = x - a  or  x - b,

which equals 1 at the domain edge and vanishes (with all derivatives) at
distance 1.  The extension is C^(2d-1) across x = a, b and smooth elsewhere;
d >= 2 keeps the second time derivative of the resulting Neumann control
well defined.

Profiles are analytic objects (value plus first three derivatives), not grid
samples: the targets used downstream all have closed-form derivatives, and
the time-reversal traces need derivative values at arbitrary real arguments.

The geometry of an evaluation, which points fall on the domain or a flank and
the bump factors there, does not depend on the profile.  It is a plan of its
own, so that the controls, which evaluate many profiles at the same
grid-determined points, build it once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, NamedTuple

import numpy as np

ArrayFunc = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AnalyticProfile:
    """A scalar function of one variable with three analytic derivatives."""

    value: ArrayFunc
    deriv1: ArrayFunc
    deriv2: ArrayFunc
    deriv3: ArrayFunc


def sine_profile(kappa: float) -> AnalyticProfile:
    return AnalyticProfile(
        lambda x: np.sin(kappa * np.asarray(x)),
        lambda x: kappa * np.cos(kappa * np.asarray(x)),
        lambda x: -(kappa**2) * np.sin(kappa * np.asarray(x)),
        lambda x: -(kappa**3) * np.cos(kappa * np.asarray(x)),
    )


def cosine_profile(kappa: float) -> AnalyticProfile:
    return AnalyticProfile(
        lambda x: np.cos(kappa * np.asarray(x)),
        lambda x: -kappa * np.sin(kappa * np.asarray(x)),
        lambda x: -(kappa**2) * np.cos(kappa * np.asarray(x)),
        lambda x: kappa**3 * np.sin(kappa * np.asarray(x)),
    )


def _bump_factors(u: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    """B, B', B'', B''' of the flank factor at signed distance u from the edge.

    Writing v = u^(2d), w = 1/(1 - v) and g = 1 - w (so B = e^g):

        g'   = -2d u^(2d-1) w^2
        g''  = -2d(2d-1) u^(2d-2) w^2 - 8 d^2 u^(4d-2) w^3
        g''' = -2d(2d-1)(2d-2) u^(2d-3) w^2 - 24 d^2 (2d-1) u^(4d-3) w^3
               - 48 d^3 u^(6d-3) w^4

    and B' = g' B, B'' = (g'' + g'^2) B, B''' = (g''' + 3 g' g'' + g'^3) B.
    Values with |u| >= 1, or where e^g underflows, are exactly 0.
    """
    u = np.asarray(u, dtype=float)
    out = tuple(np.zeros(u.shape, dtype=float) for _ in range(4))
    inside = np.abs(u) < 1.0
    ui = u[inside]
    w = 1.0 / (1.0 - ui ** (2 * d))
    g = 1.0 - w
    live = g > -700.0  # exp underflow guard; beyond this B and its derivatives are 0
    ui, w, g = ui[live], w[live], g[live]
    B = np.exp(g)
    g1 = -2 * d * ui ** (2 * d - 1) * w**2
    g2 = (-2 * d * (2 * d - 1) * ui ** (2 * d - 2) * w**2
          - 8 * d**2 * ui ** (4 * d - 2) * w**3)
    g3 = (-2 * d * (2 * d - 1) * (2 * d - 2) * ui ** (2 * d - 3) * w**2
          - 24 * d**2 * (2 * d - 1) * ui ** (4 * d - 3) * w**3
          - 48 * d**3 * ui ** (6 * d - 3) * w**4)
    idx = np.flatnonzero(inside)[live]
    out[0][idx] = B
    out[1][idx] = g1 * B
    out[2][idx] = (g2 + g1**2) * B
    out[3][idx] = (g3 + 3 * g1 * g2 + g1**3) * B
    return out


class _Plan(NamedTuple):
    """Where points fall on the extension, and the bump factors there.

    ``mid`` and each of the two flanks pair an index into the flattened
    points (a slice when the region's points are contiguous, as for
    monotone points, else a mask) with the points it selects; a flank adds
    the bump factors B .. B''' at those points.  A plan depends on the
    points, the domain and d only, so one serves every profile evaluated
    at those points; its arrays are read-only.
    """

    shape: tuple[int, ...]
    mid: tuple
    flanks: tuple


def _region(x: np.ndarray, inside: np.ndarray) -> tuple:
    """(index, points) of the points of ``x`` where ``inside`` holds."""
    idx = np.flatnonzero(inside)
    if idx.size == 0:
        index = slice(0)
    elif idx[-1] - idx[0] + 1 == idx.size:
        index = slice(idx[0], idx[-1] + 1)
    else:
        index = inside
    points = x[index].copy()  # not a view: a plan keeps only its regions
    points.flags.writeable = False
    return index, points


def _plan(a: float, b: float, x, d: int) -> _Plan:
    """The :class:`_Plan` of the extension of a profile on [a, b] at ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    flat = x.reshape(-1)
    flanks = []
    for edge, lo, hi in ((a, a - 1.0, a), (b, b, b + 1.0)):
        index, points = _region(flat, (flat > lo) & (flat < hi))
        B = _bump_factors(points - edge, d)
        for factor in B:
            factor.flags.writeable = False
        flanks.append((index, points, B))
    return _Plan(x.shape, _region(flat, (flat >= a) & (flat <= b)),
                 tuple(flanks))


def _derivatives(phi: AnalyticProfile, plan: _Plan) -> list[np.ndarray]:
    """:func:`extended_derivatives` at the points of ``plan``."""
    derivs = (phi.value, phi.deriv1, phi.deriv2, phi.deriv3)
    res = [np.zeros(plan.shape, dtype=complex).reshape(-1) for _ in derivs]
    index, points = plan.mid
    for r, deriv in zip(res, derivs):
        r[index] = deriv(points)
    for index, points, B in plan.flanks:
        p = [deriv(points) for deriv in derivs]
        for k, r in enumerate(res):  # product rule
            r[index] = sum(comb(k, j) * p[k - j] * B[j] for j in range(k + 1))
    return [r.reshape(plan.shape) for r in res]


def extended_derivatives(phi: AnalyticProfile, a: float, b: float, x,
                         d: int = 2) -> list[np.ndarray]:
    """Derivatives 0 .. 3 of the extension of ``phi`` at the points ``x``.

    The extension equals ``phi`` on [a, b], equals ``phi`` times the flank
    bump factor on (a-1, a) and (b, b+1), and is identically zero outside.
    Its derivatives are assembled by the product rule with the analytic
    bump-factor derivatives, so ``phi`` must supply three derivatives on
    [a-1, b+1].  Each flank's bump factors and each derivative of ``phi``
    are evaluated once and shared by all orders.  The geometry, which
    regions the points fall in and the bump factors there, is built afresh
    on each call; ``build_control`` keeps it per grid instead.
    """
    return _derivatives(phi, _plan(a, b, x, d))
