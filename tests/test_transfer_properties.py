"""Properties of the discrete ND maps that the transfer backend relies on.

The backend treats each map as a linear time-invariant system of its
injection signals: it measures a trace by convolving with impulse responses.
That is sound when the stepper is linear in the trace, when delaying a trace
by k steps delays the measurement by k steps, and, as a consequence, when
the map commutes with a time difference.  Each property is checked on the
stepper and on the transfer backend, and the backend against the stepper,
for traces drawn by hypothesis.  The backend takes data at rest in the
``_REACH`` steps nearest either end of the grid, so every drawn trace is.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcm1d import (
    BoundaryTrace,
    MediumSpec,
    linearized_nd_map_many,
    solve_many,
    transfer_difference_nd_map,
    transfer_linearized_nd_map,
)
from bcm1d.cli import smooth_pulse_trace
from bcm1d.solver import _REACH

from conftest import smooth_sigma_dot


def _medium(grid):
    return MediumSpec(0.1, smooth_sigma_dot(grid.xs) + grid.xs)


# the nonlinear maps are difference quotients (Lambda(sigma0 + eps sigma_dot)
# - Lambda(sigma0)) / eps
_EPS = 0.5


def _difference_medium(grid):
    return MediumSpec(0.2, 0.2 * np.cos(np.pi * grid.xs))


def _stepper_quotient(grid, fs):
    med = _difference_medium(grid)
    full, base = (solve_many(grid, sigma, fs)
                  for sigma in (med.sigma0 + _EPS * med.sigma_dot, med.sigma0))
    return [BoundaryTrace((f.values - b.values) * (1.0 / _EPS), grid.dt)
            for f, b in zip(full, base)]


MAPS = {
    "nonlinear-stepper": _stepper_quotient,
    "nonlinear-transfer":
        lambda grid, fs: transfer_difference_nd_map(
            grid, _difference_medium(grid), _EPS)(fs),
    "linearized-stepper":
        lambda grid, fs: linearized_nd_map_many(grid, _medium(grid), fs),
    "linearized-transfer":
        lambda grid, fs: transfer_linearized_nd_map(grid, _medium(grid))(fs),
}

# tone bursts with t0 >= 6 width vanish to rounding at both window ends
pulses = st.builds(
    lambda t0, width, omega, wa, wb: (t0, width, omega, wa, wb),
    st.floats(1.2, 2.0), st.floats(0.1, 0.2), st.floats(1.0, 8.0),
    st.floats(0.2, 1.0), st.floats(-1.0, -0.2),
)
coefficients = st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                                  allow_nan=False, allow_infinity=False)


# the longest delay drawn below
_DELAY = 300


def _trace(grid, params, phase=1.0):
    """A tone burst set to zero outside steps _REACH + 1 .. nt - _REACH -
    _DELAY - 2, where it is below rounding already, so that its centered
    difference and its delays by up to _DELAY steps are at rest in the
    _REACH steps at either end too."""
    values = phase * smooth_pulse_trace(grid, *params)[0].values
    values[:, :_REACH + 1] = values[:, -(_REACH + _DELAY + 1):] = 0.0
    return BoundaryTrace(values, grid.dt)


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("kind", sorted(MAPS))
class TestProperties:
    @given(p=pulses, q=pulses, al=coefficients, be=coefficients)
    @settings(max_examples=4, deadline=None)
    def test_linear_in_the_trace(self, kind, coarse_grid, p, q, al, be):
        f, h = _trace(coarse_grid, p), _trace(coarse_grid, q, 1j)
        f_h = BoundaryTrace(al * f.values + be * h.values, f.dt)
        combo, mf, mh = MAPS[kind](coarse_grid, [f_h, f, h])
        assert _rel(combo.values, al * mf.values + be * mh.values) <= 1e-11

    @given(p=pulses, k=st.integers(1, _DELAY))
    @settings(max_examples=4, deadline=None)
    def test_delay_delays_the_measurement(self, kind, coarse_grid, p, k):
        f = _trace(coarse_grid, p, 0.3 - 1j)
        late = BoundaryTrace(
            np.concatenate((np.zeros((2, k)), f.values[:, :-k]), axis=1), f.dt)
        meas, meas_late = (m.values for m in MAPS[kind](coarse_grid, [f, late]))
        assert np.max(np.abs(meas_late[:, :k])) <= 1e-12 * np.max(np.abs(meas))
        assert _rel(meas_late[:, k:], meas[:, :-k]) <= 1e-11

    @given(p=pulses)
    @settings(max_examples=4, deadline=None)
    def test_commutes_with_time_difference(self, kind, coarse_grid, p):
        def diff(v):  # centered difference, zero at the window ends
            out = np.zeros_like(v)
            out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * coarse_grid.dt)
            return out

        f = _trace(coarse_grid, p, 1.0 + 0.5j)
        f_diff = BoundaryTrace(diff(f.values), f.dt)
        meas, meas_diff = (m.values for m in MAPS[kind](coarse_grid, [f, f_diff]))
        assert _rel(meas_diff[:, 1:-1], diff(meas)[:, 1:-1]) <= 1e-10


@pytest.mark.parametrize("kind", ["nonlinear", "linearized"])
@given(p=pulses, q=pulses)
@settings(max_examples=4, deadline=None)
def test_transfer_matches_stepper(kind, coarse_grid, p, q):
    fs = [_trace(coarse_grid, p), _trace(coarse_grid, q, 2.0 - 1j)]
    stepper = MAPS[f"{kind}-stepper"](coarse_grid, fs)
    transfer = MAPS[f"{kind}-transfer"](coarse_grid, fs)
    for got, want in zip(transfer, stepper, strict=True):
        assert _rel(got.values, want.values) <= 1e-11
