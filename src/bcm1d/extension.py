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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable

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


def extended_derivatives(phi: AnalyticProfile, a: float, b: float, x,
                         d: int = 2, top: int = 3) -> list[np.ndarray]:
    """Derivatives 0 .. ``top`` of the extension of ``phi`` at the points ``x``.

    The extension equals ``phi`` on [a, b], equals ``phi`` times the flank
    bump factor on (a-1, a) and (b, b+1), and is identically zero outside.
    Its derivatives are assembled by the product rule with the analytic
    bump-factor derivatives, so ``phi`` must supply ``top`` derivatives on
    [a-1, b+1].  Each flank's bump factors and each derivative of ``phi``
    are evaluated once and shared by all orders.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    res = [np.zeros(x.shape, dtype=complex) for _ in range(top + 1)]
    derivs = (phi.value, phi.deriv1, phi.deriv2, phi.deriv3)[: top + 1]
    mid = (x >= a) & (x <= b)
    for r, deriv in zip(res, derivs):
        r[mid] = deriv(x[mid])
    for edge, lo, hi in ((a, a - 1.0, a), (b, b, b + 1.0)):
        flank = (x > lo) & (x < hi)
        B = _bump_factors(x[flank] - edge, d)
        p = [deriv(x[flank]) for deriv in derivs]
        for k, r in enumerate(res):  # product rule
            r[flank] = sum(comb(k, j) * p[k - j] * B[j] for j in range(k + 1))
    return res
