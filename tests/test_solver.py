import numpy as np
import pytest

from bcm1d import (
    BoundaryTrace,
    ConfigurationError,
    GridSpec,
    MediumSpec,
    linearized_nd_map_many,
    nd_map_many,
    solve,
    solve_many,
    transfer_linearized_nd_map_many,
    transfer_nd_map_many,
)
from bcm1d.cli import smooth_pulse_trace

from conftest import smooth_sigma_dot


def mms_grid(n):
    return GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 3.0)


def mms_error(grid, rho0=1.0, sigma_fn=lambda x: 0.3 * (1 + x**2)):
    """u* = t^2 cos(pi x): zero Neumann flux, zero initial data, known source."""
    xs = grid.xs
    sigma = sigma_fn(xs)
    cos_px = np.cos(np.pi * xs)

    def source(n):
        t = n * grid.dt
        return (2 * rho0 + 2 * t * sigma + np.pi**2 * t**2) * cos_px

    with pytest.warns(UserWarning, match="source nonzero"):
        out = solve(grid, rho0, sigma, BoundaryTrace.zeros(grid), source=source)
    exact = grid.T**2 * cos_px
    return np.linalg.norm(out.uT_snapshot - exact) / np.linalg.norm(exact)


def test_zero_data_zero_solution(coarse_grid):
    out = solve(coarse_grid, 1.0, 0.3, BoundaryTrace.zeros(coarse_grid))
    assert np.all(out.dirichlet.values_a == 0)
    assert np.all(out.dirichlet.values_b == 0)
    assert np.all(out.pT_snapshot == 0)
    assert np.all(out.qT_snapshot == 0)


def test_manufactured_solution_second_order():
    errs = [mms_error(mms_grid(n)) for n in (25, 50)]
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_real_data_real_field(coarse_grid):
    f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.5)
    out = solve(coarse_grid, 1.0, 0.2, f)
    assert np.all(out.dirichlet.values_a.imag == 0)
    assert np.all(out.dirichlet.values_b.imag == 0)
    assert np.all(out.pT_snapshot.imag == 0)


def test_complex_solve_equals_pair_of_real_solves(coarse_grid):
    fr, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.4)
    fi, _ = smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)
    fc = fr + 1j * fi
    sigma = 0.1
    out_c = solve(coarse_grid, 1.0, sigma, fc)
    out_r = solve(coarse_grid, 1.0, sigma, fr)
    out_i = solve(coarse_grid, 1.0, sigma, fi)
    assert np.array_equal(out_c.dirichlet.values_a,
                          out_r.dirichlet.values_a + 1j * out_i.dirichlet.values_a)
    assert np.array_equal(out_c.pT_snapshot,
                          out_r.pT_snapshot + 1j * out_i.pT_snapshot)


def test_nd_map_linearity(coarse_grid):
    f1, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.0)
    f2, _ = smooth_pulse_trace(coarse_grid, 1.4, 0.3, 3.0, 0.0, 1.0)
    al, be = 2.0 - 1.0j, 0.7
    combo = solve(coarse_grid, 1.0, 0.25, al * f1 + be * f2).dirichlet
    separate = (al * solve(coarse_grid, 1.0, 0.25, f1).dirichlet
                + be * solve(coarse_grid, 1.0, 0.25, f2).dirichlet)
    assert np.allclose(combo.values_a, separate.values_a, rtol=1e-12, atol=1e-14)
    assert np.allclose(combo.values_b, separate.values_b, rtol=1e-12, atol=1e-14)


def test_nd_map_commutes_with_time_derivative(coarse_grid):
    # measurements of the derivative datum match the time derivative of the
    # measurement, up to the O(dt^2) differentiation error
    f, f_t = smooth_pulse_trace(coarse_grid, 1.2, 0.25, 4.0, 1.0, 0.6)
    sigma = 0.2
    meas_dot = solve(coarse_grid, 1.0, sigma, f_t).dirichlet
    meas = solve(coarse_grid, 1.0, sigma, f).dirichlet
    for side in ("values_a", "values_b"):
        fd = np.gradient(getattr(meas, side), coarse_grid.dt, edge_order=2)
        err = np.max(np.abs(fd - getattr(meas_dot, side)))
        assert err <= 5e-3 * np.max(np.abs(getattr(meas_dot, side)))


def test_energy_non_increasing_after_data_stops(coarse_grid):
    f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.15, 6.0, 1.0, 0.0)
    sigma = 0.3
    levels = {}

    def monitor(n, u):
        levels[n] = u[:, 0].copy()

    solve(coarse_grid, 1.0, sigma, f, monitor=monitor)
    dt, dx = coarse_grid.dt, coarse_grid.dx
    off_index = round(2.0 / dt)  # pulse is gone well before t = 2
    energies = []
    for n in range(off_index, coarse_grid.nt - 1, 25):
        u0, u1 = levels[n], levels[n + 1]
        ut = (u1 - u0) / dt
        ux = np.gradient((u0 + u1) / 2, dx)
        energies.append(0.5 * np.trapezoid(np.abs(ut) ** 2, dx=dx)
                        + 0.5 * np.trapezoid(np.abs(ux) ** 2, dx=dx))
    energies = np.asarray(energies)
    tol = 10 * dt * energies[0]
    assert np.all(np.diff(energies) <= tol)


class TestLinearized:
    def test_zero_perturbation_zero_response(self, coarse_grid, zero_medium):
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        out = linearized_nd_map_many(coarse_grid, zero_medium, [f])[0]
        assert np.all(out.trace.values_a == 0)
        assert np.all(out.trace.values_b == 0)

    def test_linearity_in_perturbation(self, coarse_grid):
        xs = coarse_grid.xs
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        s1 = np.cos(np.pi * xs) + 2.0
        s2 = np.sin(2 * np.pi * xs)
        al, be = 1.7, -0.4
        med = lambda s: MediumSpec(1.0, 0.0, s)
        lin = lambda s: linearized_nd_map_many(coarse_grid, med(s), [f])[0].trace
        combo = lin(al * s1 + be * s2)
        separate = al * lin(s1) + be * lin(s2)
        assert np.allclose(combo.values_a, separate.values_a, rtol=1e-12, atol=1e-15)

    def test_matches_nonlinear_differences(self, coarse_grid):
        # the coupled pass is the exact parameter derivative of the discrete
        # solver, so difference quotients converge at O(eps^2)
        xs = coarse_grid.xs
        sigma_dot = smooth_sigma_dot(xs)
        sigma0 = 0.1
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        lin = linearized_nd_map_many(
            coarse_grid, MediumSpec(1.0, sigma0, sigma_dot), [f]
        )[0].trace
        base = solve(coarse_grid, 1.0, sigma0, f).dirichlet
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            diff = solve(coarse_grid, 1.0, sigma0 + eps * sigma_dot,
                         f).dirichlet - base
            resid = diff - eps * lin
            errs.append(max(np.max(np.abs(resid.values_a)),
                            np.max(np.abs(resid.values_b))))
        assert errs[0] / errs[1] > 50
        assert errs[1] / errs[2] > 50

    def test_background_dirichlet_matches_plain_solve(self, coarse_grid):
        xs = coarse_grid.xs
        med = MediumSpec(1.0, 0.2, np.sin(np.pi * xs))
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        out = linearized_nd_map_many(coarse_grid, med, [f])[0]
        plain = solve(coarse_grid, 1.0, 0.2, f)
        assert np.array_equal(out.background.dirichlet.values_a,
                              plain.dirichlet.values_a)
        assert np.array_equal(out.background.pT_snapshot, plain.pT_snapshot)


class TestValidation:
    def test_cfl_violation(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 25, 3.0)  # dt > dx
        with pytest.raises(ConfigurationError, match="CFL"):
            solve(g, 1.0, 0.0, BoundaryTrace.zeros(g))

    def test_sigma_length_mismatch(self, coarse_grid):
        with pytest.raises(ConfigurationError):
            solve(coarse_grid, 1.0, np.zeros(7), BoundaryTrace.zeros(coarse_grid))

    def test_trace_length_mismatch(self, coarse_grid):
        bad = BoundaryTrace(np.zeros(11), np.zeros(11), coarse_grid.dt)
        with pytest.raises(ConfigurationError):
            solve(coarse_grid, 1.0, 0.0, bad)

    def test_nonzero_initial_data_warns(self, coarse_grid):
        f = BoundaryTrace.from_functions(coarse_grid, np.cos, np.zeros_like)
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            solve(coarse_grid, 1.0, 0.0, f)

    def test_batched_matches_single(self, coarse_grid):
        f1, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.0)
        f2, _ = smooth_pulse_trace(coarse_grid, 1.5, 0.3, 2.0, 0.3, 1.0)
        outs = solve_many(coarse_grid, 1.0, 0.15, [f1, f2])
        for f, out in zip((f1, f2), outs):
            single = solve(coarse_grid, 1.0, 0.15, f)
            assert np.array_equal(out.dirichlet.values_a, single.dirichlet.values_a)
            assert np.array_equal(out.qT_snapshot, single.qT_snapshot)


def _window_traces(grid):
    """Complex traces that are nonzero at both ends of the time window."""
    f, _ = smooth_pulse_trace(grid, 1.0, 0.2, 5.0, 1.0, 0.3)
    h, _ = smooth_pulse_trace(grid, 1.3, 0.25, 3.0, 0.2, 1.0)
    ramp = BoundaryTrace.from_functions(
        grid, lambda t: 0.3 + 0.1 * t, lambda t: np.cos(2.0 * t) - 0.5j
    )
    return [f + 1j * h + ramp, (0.5 - 2j) * h + 1j * ramp]


def _max_rel_deviation(traces, refs):
    worst = 0.0
    for tr, ref in zip(traces, refs, strict=True):
        dev = max(np.max(np.abs(tr.values_a - ref.values_a)),
                  np.max(np.abs(tr.values_b - ref.values_b)))
        scale = max(np.max(np.abs(ref.values_a)), np.max(np.abs(ref.values_b)))
        worst = max(worst, dev / scale)
    return worst


def _stepper_linearized(grid, medium, fs):
    return [out.trace for out in linearized_nd_map_many(grid, medium, fs)]


def _sigma(grid):
    return 0.1 + 0.3 * smooth_sigma_dot(grid.xs) + 0.2 * grid.xs


@pytest.mark.filterwarnings("ignore:Neumann data nonzero at t = 0")
class TestTransfer:
    """The transfer-kernel backend against the stepper, its oracle."""

    def test_linearized_matches_stepper(self, coarse_grid):
        med = MediumSpec(1.0, 0.1, smooth_sigma_dot(coarse_grid.xs) + coarse_grid.xs)
        fs = _window_traces(coarse_grid)
        dev = _max_rel_deviation(
            transfer_linearized_nd_map_many(coarse_grid, med, fs),
            _stepper_linearized(coarse_grid, med, fs),
        )
        assert dev <= 1e-9

    def test_nonlinear_matches_stepper(self, coarse_grid):
        sigma = _sigma(coarse_grid)
        fs = _window_traces(coarse_grid)
        dev = _max_rel_deviation(
            transfer_nd_map_many(coarse_grid, 1.0, sigma, fs),
            nd_map_many(coarse_grid, 1.0, sigma, fs),
        )
        assert dev <= 1e-9

    def test_medium_mutated_in_place_gets_new_kernel(self, coarse_grid):
        med = MediumSpec(1.0, 0.0, smooth_sigma_dot(coarse_grid.xs))
        sigma = _sigma(coarse_grid)
        fs = _window_traces(coarse_grid)[:1]
        transfer_linearized_nd_map_many(coarse_grid, med, fs)
        transfer_nd_map_many(coarse_grid, 1.0, sigma, fs)
        med.sigma_dot[: coarse_grid.nx // 2] *= -2.0
        sigma[::3] += 0.5
        lin = transfer_linearized_nd_map_many(coarse_grid, med, fs)
        assert _max_rel_deviation(
            lin, _stepper_linearized(coarse_grid, med, fs)) <= 1e-9
        plain = transfer_nd_map_many(coarse_grid, 1.0, sigma, fs)
        assert _max_rel_deviation(
            plain, nd_map_many(coarse_grid, 1.0, sigma, fs)) <= 1e-9


_TRANSFER_MAPS = {
    "linearized": lambda grid, fs: transfer_linearized_nd_map_many(
        grid, MediumSpec(1.0, 0.0, smooth_sigma_dot(grid.xs)), fs),
    "nonlinear": lambda grid, fs: transfer_nd_map_many(grid, 1.0, 0.2, fs),
}


@pytest.mark.parametrize("kind", sorted(_TRANSFER_MAPS))
class TestTransferValidation:
    def test_cfl_violation(self, kind):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 25, 3.0)  # dt > dx
        with pytest.raises(ConfigurationError, match="CFL"):
            _TRANSFER_MAPS[kind](g, [BoundaryTrace.zeros(g)])

    def test_trace_length_mismatch(self, kind, coarse_grid):
        bad = BoundaryTrace(np.zeros(11), np.zeros(11), coarse_grid.dt)
        with pytest.raises(ConfigurationError, match="Neumann trace 0"):
            _TRANSFER_MAPS[kind](coarse_grid, [bad])

    def test_nonzero_initial_data_warns(self, kind, coarse_grid):
        f = BoundaryTrace.from_functions(coarse_grid, np.cos, np.zeros_like)
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            _TRANSFER_MAPS[kind](coarse_grid, [f])
