"""Smooth compactly supported extension of profiles beyond the domain.

A profile phi known on [a, b] is extended to (a - 1, b + 1) as

    phi(x) B(u),    B(u) = (1 - u^4)^8,    u = x - clip(x, a, b),

u the signed distance from [a, b], and by zero where |u| >= 1.  B equals 1
at u = 0, where its first three derivatives vanish, so the extension is phi
on [a, b]; B meets zero at distance 1.  The extension is C^3 across x = a, b,
which keeps the second time derivative of the resulting Neumann control well
defined, and C^7 at distance 1.

A profile is one function, phi(x) -> (phi, phi', phi'', phi'''), not grid
samples: the targets used downstream all have closed-form derivatives, the
time-reversal traces need all four at the same arbitrary real arguments, and
one call shares the trigonometric evaluations among them.

The geometry of an evaluation, which points fall in (a - 1, b + 1) and the
bump factors there, does not depend on the profile.  It is a plan of its
own, so that the controls, which evaluate many profiles at the same
grid-determined points, build it once per grid.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

import numpy as np

# phi(x) -> (phi, phi', phi'', phi''') at the points x
AnalyticProfile = Callable[[np.ndarray], tuple]


def sine_profile(kappa: float) -> AnalyticProfile:
    def phi(x):
        kx = kappa * np.asarray(x)
        s, c = np.sin(kx), np.cos(kx)
        return s, kappa * c, -(kappa**2) * s, -(kappa**3) * c
    return phi


def cosine_profile(kappa: float) -> AnalyticProfile:
    def phi(x):
        kx = kappa * np.asarray(x)
        s, c = np.sin(kx), np.cos(kx)
        return c, -kappa * s, -(kappa**2) * c, kappa**3 * s
    return phi


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
    """The points where the extension is nonzero, and the bump factors there.

    ``index`` is the boolean mask, of the points' shape, of the points in
    (a - 1, b + 1); ``points`` are the points it selects, a copy, and ``B``
    the bump factors B .. B''' at their signed distances from [a, b],
    (1, 0, 0, 0) on [a, b] itself.  A plan depends on the points and the domain only, so one
    serves every profile evaluated at those points; its arrays are
    read-only.
    """

    index: np.ndarray
    points: np.ndarray
    B: tuple


def _plan(a: float, b: float, x) -> _Plan:
    """The :class:`_Plan` of the extension of a profile on [a, b] at ``x``:
    the mask of the points in (a - 1, b + 1) and the bump factors there."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    index = (x > a - 1.0) & (x < b + 1.0)
    points = x[index]
    B = _bump_factors(points - np.clip(points, a, b))
    for arr in (index, points, *B):
        arr.flags.writeable = False
    return _Plan(index, points, B)


def _derivatives(phi: AnalyticProfile, plan: _Plan) -> list[np.ndarray]:
    """:func:`extended_derivatives` at the points of ``plan``."""
    p = phi(plan.points)
    res = [np.zeros(plan.index.shape, np.result_type(float, *p)) for _ in p]
    for k, r in enumerate(res):  # product rule
        r[plan.index] = sum(comb(k, j) * p[k - j] * plan.B[j]
                                        for j in range(k + 1))
    return res


def extended_derivatives(phi: AnalyticProfile, a: float, b: float,
                         x) -> list[np.ndarray]:
    """Derivatives 0 .. 3 of the extension of ``phi`` at the points ``x``.

    The extension is ``phi`` times the bump factor of the signed distance
    from [a, b] on (a-1, b+1), which is ``phi`` itself on [a, b], and is
    identically zero outside.  Its derivatives are assembled by the product
    rule with the analytic bump-factor derivatives, so ``phi(x)`` must
    return its value and three derivatives on [a-1, b+1].  The bump factors
    and ``phi`` are evaluated once and shared by all orders.  The geometry,
    which points fall in (a-1, b+1) and the bump factors there, is built
    afresh on each call; ``build_control`` keeps it per grid instead.
    """
    return _derivatives(phi, _plan(a, b, x))
