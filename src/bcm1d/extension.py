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

_UNBOUNDED = (-np.inf, np.inf)


@dataclass(frozen=True)
class AnalyticProfile:
    """A scalar function of one variable with three analytic derivatives.

    ``support`` is the interval outside which every evaluation returns 0;
    profiles defined by globally analytic formulas use an unbounded support.
    """

    value: ArrayFunc
    deriv1: ArrayFunc
    deriv2: ArrayFunc
    deriv3: ArrayFunc
    support: tuple[float, float] = _UNBOUNDED

    def __call__(self, x):
        return self.value(x)

    def derivative(self, order: int) -> ArrayFunc:
        if order == 0:
            return self.value
        return (self.deriv1, self.deriv2, self.deriv3)[order - 1]


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


def scale_profile(p: AnalyticProfile, c: complex) -> AnalyticProfile:
    return AnalyticProfile(
        lambda x: c * p.value(x),
        lambda x: c * p.deriv1(x),
        lambda x: c * p.deriv2(x),
        lambda x: c * p.deriv3(x),
        p.support,
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
    """Derivatives 0 .. ``top`` of ``extend(phi, a, b, d)`` at the points ``x``.

    Each flank's bump factors and each derivative of ``phi`` are evaluated
    once and shared by all orders.
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


def extend(phi: AnalyticProfile, a: float, b: float, d: int = 2) -> AnalyticProfile:
    """Extend ``phi`` from [a, b] to a C^(2d-1) profile supported in (a-1, b+1).

    The result equals ``phi`` on [a, b], equals ``phi`` times the flank bump
    factor on (a-1, a) and (b, b+1), and is identically zero outside.  Its
    derivatives up to order 3 are assembled by the product rule with the
    analytic bump-factor derivatives, so ``phi`` must supply three
    derivatives on [a-1, b+1].
    """
    if d < 2:
        raise ValueError(f"extension order d must be >= 2, got {d}")

    def make(order: int) -> ArrayFunc:
        return lambda x: extended_derivatives(phi, a, b, x, d, order)[order]

    return AnalyticProfile(make(0), make(1), make(2), make(3), (a - 1.0, b + 1.0))


class Antiderivative:
    """Cumulative integral of a compactly supported profile.

    Node values on a uniform refinement grid come from the trapezoid rule
    with the Euler-Maclaurin end correction -h^2/12 [psi'], values between
    nodes from cubic Hermite interpolation with the profile as the exact
    slope; both are fourth order.  Evaluations clamp to 0 left of the
    support and to ``total`` right of it, so the two tails are exact.
    """

    def __init__(self, profile: AnalyticProfile, spacing: float):
        s0, s1 = profile.support
        if not np.isfinite(s0) or not np.isfinite(s1):
            raise ValueError("antiderivative requires a compactly supported profile")
        n = int(np.ceil((s1 - s0) / spacing))
        xf = np.linspace(s0, s1, n + 1)
        h = self._h = (s1 - s0) / n
        y = np.asarray(profile.value(xf), dtype=complex)
        dy = np.asarray(profile.deriv1(xf), dtype=complex)
        trap = np.concatenate(([0.0], np.cumsum(0.5 * h * (y[1:] + y[:-1]))))
        self._values = trap - (h**2 / 12.0) * (dy - dy[0])
        self._slopes = h * y  # per unit of the interpolation variable
        self.support = (s0, s1)
        self.total = complex(self._values[-1])

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s0, s1 = self.support
        out = np.where(x >= s1, self.total, 0.0 + 0.0j)
        mid = (x > s0) & (x < s1)
        pos = (x[mid] - s0) / self._h
        k = np.minimum(pos.astype(int), len(self._values) - 2)
        t = pos - k
        c0, c1 = self._values[k], self._values[k + 1]
        m0, m1 = self._slopes[k], self._slopes[k + 1]
        out[mid] = c0 + t * (m0 + t * (3.0 * (c1 - c0) - 2.0 * m0 - m1
                                       + t * (2.0 * (c0 - c1) + m0 + m1)))
        return out


def antiderivative(psi_ext: AnalyticProfile, spacing: float) -> Antiderivative:
    """Callable x -> integral of ``psi_ext`` from the left support edge to x."""
    return Antiderivative(psi_ext, spacing)
