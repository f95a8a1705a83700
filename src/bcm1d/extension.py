"""Smooth compactly supported extension of profiles beyond the domain.

A profile known on [a, b] is extended to (a - 1, b + 1) by multiplying it on
each flank with the bump factor

    B(u) = (1 - u^4)^8,    u = x - a  or  x - b,

which equals 1 at the domain edge, where its first three derivatives vanish,
and meets zero at distance 1.  The extension is C^3 across x = a, b, which
keeps the second time derivative of the resulting Neumann control well
defined, and C^7 at distance 1.

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


def _bump_factors(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """B, B', B'', B''' of the flank factor at signed distances |u| < 1.

    B = (1 - u^4)^8 is C^3 against the constant 1 at the edge u = 0 and C^7
    against the zero beyond |u| = 1.  With v = 1 - u^4, v' = -4u^3,
    v'' = -12u^2 and v''' = -24u, in factored form, which does not cancel
    near |u| = 1:

        B = v^8,  B' = 8 v^7 v',  B'' = 56 v^6 v'^2 + 8 v^7 v'',
        B''' = 336 v^5 v'^3 + 168 v^6 v' v'' + 8 v^7 v'''
    """
    v, v1, v2, v3 = 1.0 - u**4, -4.0 * u**3, -12.0 * u**2, -24.0 * u
    return (v**8, 8 * v**7 * v1, 56 * v**6 * v1**2 + 8 * v**7 * v2,
            336 * v**5 * v1**3 + 168 * v**6 * v1 * v2 + 8 * v**7 * v3)


class _Plan(NamedTuple):
    """Where points fall on the extension, and the bump factors there.

    ``mid`` and each of the two flanks pair an index into the flattened
    points (a slice when the region's points are contiguous, as for
    monotone points, else a mask) with the points it selects; a flank adds
    the bump factors B .. B''' at those points.  A plan depends on the
    points and the domain only, so one serves every profile evaluated
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


def _plan(a: float, b: float, x) -> _Plan:
    """The :class:`_Plan` of the extension of a profile on [a, b] at ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    flat = x.reshape(-1)
    flanks = []
    for edge, lo, hi in ((a, a - 1.0, a), (b, b, b + 1.0)):
        index, points = _region(flat, (flat > lo) & (flat < hi))
        B = _bump_factors(points - edge)
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


def extended_derivatives(phi: AnalyticProfile, a: float, b: float,
                         x) -> list[np.ndarray]:
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
    return _derivatives(phi, _plan(a, b, x))
