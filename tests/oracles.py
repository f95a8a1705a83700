"""Norms, quadratures and bounds that the tests check the pipeline against.

None of these is part of a reconstruction: the volume pairing is the
interior side the linearized identity is checked against, the stability
chain bounds an identity value by discrete Sobolev norms of its traces,
and the Born reflection and the exact linearized map for sigma0 = 0 are
the exact linearized traces the stepper's linearized map is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bcm1d import BoundaryTrace, GridMismatchError, GridSpec, linearized_rhs
from bcm1d.identity import ControlData

_STABILITY_SLACK = 0.05


def discrete_sobolev_norm(g: BoundaryTrace, s: int) -> float:
    """Discrete H^s norm of a trace over (0, T) x {a, b} for s in {0, 1, 2}.

    A trace holds 2T/dt + 1 samples, so the window ends at its middle
    sample; a trace of even length has no middle and is rejected.  Time
    derivatives of the restricted series are taken with second-order
    centered differences (one-sided at the ends); each derivative's squared
    L2 norm is accumulated by composite trapezoid.
    """
    if s not in (0, 1, 2):
        raise ValueError(f"s must be in {{0, 1, 2}}, got {s}")
    if len(g) % 2 == 0:
        raise GridMismatchError(f"a trace has 2T/dt + 1 samples, got {len(g)}")
    j = len(g) // 2
    if j + 1 < 3:
        raise ValueError("too few samples for second-order differences")
    total = 0.0
    for series in g.values[:, : j + 1]:
        deriv = series
        for _ in range(s + 1):
            total += float(np.trapezoid(np.abs(deriv) ** 2, dx=g.dt))
            deriv = np.gradient(deriv, g.dt, edge_order=2)
    return float(np.sqrt(total))


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


def born_reflection(grid: GridSpec, g: np.ndarray, depth_integral):
    """The linearized ND map's trace at the end where the Neumann series
    ``g`` enters, for sigma0 = 0 and no data at the other end,

        -int_0^t g(t - s) F(s/2) ds,

    with F = ``depth_integral``, F(xi) the integral of sigma_dot over the
    first xi of depth from that end.  It is exact until the far end's echo
    of the data returns, for t < t_on + 2 (b - a), t_on the data's onset:
    the single-scattering (Born) reflection from depth s/2 (Bube &
    Burridge, SIAM Review 25 (1983) 497-559).  The convolution is a
    rectangle sum, the trapezoid rule here, as F(0) = 0 and g is at rest at
    t = 0.
    """
    depth = np.clip(grid.ts / 2.0, 0.0, grid.b - grid.a)
    return -np.convolve(g, depth_integral(depth))[:grid.nt] * grid.dt


def exact_linearized_kernel(grid: GridSpec, depth_integral) -> np.ndarray:
    """The exact linearized ND map's kernel for sigma0 = 0, as (input end,
    output end, samples) at s = ``grid.ts``: the map takes the Neumann
    data g at the input end to the trace -int_0^t g(t - s) K(s) ds at the
    output end (d'Alembert with wall images and Duhamel's principle; Evans,
    *Partial Differential Equations*, 2nd ed., AMS 2010, section 2.4).

    K is built from F = ``depth_integral`` alone, F(xi) the integral of
    sigma_dot over the first xi of depth from end a, vectorized.  Each image
    path to the scatterer and back has a lag 2 xi + c, c - 2 xi or c, with c
    a multiple of L = b - a; j + 1 paths share each lag of order j.  A path
    adds F(clip((s - c)/2, 0, L)), F(L) - F(clip((c - s)/2, 0, L)) or
    F(L) H(s - c), with H = 1/2 at the jump.  For s < 2L the a -> a entry
    is F(s/2), :func:`born_reflection`'s kernel.  Data at b see the medium
    mirrored, whose depth integral is F(L) - F(L - xi).
    """
    s, L = grid.ts, grid.b - grid.a
    F_L = depth_integral(L)

    def entries(F):
        """The entries at the input end and at the far end."""
        def down(c):  # lag 2 xi + c
            return F(np.clip((s - c) / 2.0, 0.0, L))

        def up(c):  # lag c - 2 xi
            return F_L - F(np.clip((c - s) / 2.0, 0.0, L))

        def flat(c):  # lag c, which may fall on a sample
            return F_L * np.heaviside(np.round((s - c) / grid.dt, 6), 0.5)

        near = far = 0.0
        for j in range(int(s[-1] / (2.0 * L)) + 1):
            c = 2.0 * j * L
            near = near + (j + 1) * (down(c) + 2.0 * flat(c + 2.0 * L)
                                     + up(c + 4.0 * L))
            far = far + (j + 1) * (flat(c + L) + up(c + 3.0 * L)
                                   + down(c + L) + flat(c + 3.0 * L))
        return near, far

    (aa, ab), (bb, ba) = (entries(depth_integral),
                          entries(lambda xi: F_L - depth_integral(L - xi)))
    return np.array([[aa, ab], [ba, bb]])


def exact_linearized_nd_map(grid: GridSpec, depth_integral):
    """The map from Neumann traces to the exact linearized ND map's traces
    for sigma0 = 0, by FFT convolution with
    :func:`exact_linearized_kernel`; a rectangle sum, the trapezoid rule
    here, as K(0) = 0 and the data are at rest at t = 0."""
    n_fft = 1 << (2 * grid.nt - 1).bit_length()  # no wrap-around
    transfer = np.fft.fft(exact_linearized_kernel(grid, depth_integral), n_fft)

    def measure(fs):
        return [BoundaryTrace(-grid.dt * np.fft.ifft(np.einsum(
            "iof,if->of", transfer, np.fft.fft(f.values, n_fft)))[:, :grid.nt],
            grid.dt) for f in fs]

    return measure


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
