import numpy as np
import pytest

from bcm1d import (
    BoundaryTrace,
    ConfigurationError,
    GridSpec,
    MediumSpec,
    linearized_nd_map_many,
    solve_many,
    transfer_linearized_nd_map_many,
    transfer_nd_map_many,
)
from bcm1d import solver
from bcm1d.cli import smooth_pulse_trace

from conftest import smooth_sigma_dot


def mms_grid(n):
    return GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 3.0)


def mms_source(grid, rho0, sigma):
    """Source of u* = t^2 cos(pi x): zero Neumann flux, zero initial data."""
    cos_px = np.cos(np.pi * grid.xs)

    def source(n):
        t = n * grid.dt
        return (2 * rho0 + 2 * t * sigma + np.pi**2 * t**2) * cos_px

    return source


def mms_error(grid, rho0=1.0, sigma_fn=lambda x: 0.3 * (1 + x**2)):
    xs = grid.xs
    sigma = sigma_fn(xs)
    source = mms_source(grid, rho0, sigma)
    with pytest.warns(UserWarning, match="source nonzero"):
        (out,) = solve_many(grid, rho0, sigma, [BoundaryTrace.zeros(grid)],
                            source=source)
    exact = grid.T**2 * np.cos(np.pi * xs)
    return np.linalg.norm(out.uT_snapshot - exact) / np.linalg.norm(exact)


def _fields(out):
    return (out.dirichlet.values_a, out.dirichlet.values_b,
            out.pT_snapshot, out.qT_snapshot, out.uT_snapshot)


def test_zero_data_zero_solution(coarse_grid):
    (out,) = solve_many(coarse_grid, 1.0, 0.3, [BoundaryTrace.zeros(coarse_grid)])
    assert np.all(out.dirichlet.values_a == 0)
    assert np.all(out.dirichlet.values_b == 0)
    assert np.all(out.pT_snapshot == 0)
    assert np.all(out.qT_snapshot == 0)


def test_manufactured_solution_second_order():
    errs = [mms_error(mms_grid(n)) for n in (25, 50)]
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_real_data_real_field(coarse_grid):
    f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.5)
    (out,) = solve_many(coarse_grid, 1.0, 0.2, [f])
    assert np.all(out.dirichlet.values_a.imag == 0)
    assert np.all(out.dirichlet.values_b.imag == 0)
    assert np.all(out.pT_snapshot.imag == 0)


def test_complex_solve_equals_pair_of_real_solves(coarse_grid):
    # a complex field must round exactly as its real and imaginary parts
    # advanced as two real fields
    fr, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.4)
    fi, _ = smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)
    sigma = 0.1 + 0.2 * coarse_grid.xs**2
    # one call each: a batch holding a complex trace advances complex rows
    (out_c,), (out_r,), (out_i,) = (solve_many(coarse_grid, 1.0, sigma, [f])
                                    for f in (fr + 1j * fi, fr, fi))
    for c, r, i in zip(_fields(out_c), _fields(out_r), _fields(out_i)):
        assert np.iscomplexobj(c)
        assert np.array_equal(c, r + 1j * i)


def test_complex_linearized_equals_pair_of_real_passes(coarse_grid):
    fr, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.4)
    fi, _ = smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)
    med = MediumSpec(1.0, 0.1, smooth_sigma_dot(coarse_grid.xs))
    (out_c,), (out_r,), (out_i,) = (
        linearized_nd_map_many(coarse_grid, med, [f])
        for f in (fr + 1j * fi, fr, fi))
    for side in ("values_a", "values_b"):
        c, r, i = (getattr(out, side) for out in (out_c, out_r, out_i))
        assert np.array_equal(c, r + 1j * i)


@pytest.mark.filterwarnings("ignore:source nonzero at t = 0")
def test_complex_source_matches_real_source(coarse_grid):
    # the same source as float64 runs a real field, as complex a complex one
    sigma = 0.3 * (1 + coarse_grid.xs**2)
    source = mms_source(coarse_grid, 1.0, sigma)
    zero = [BoundaryTrace.zeros(coarse_grid)]
    (real,) = solve_many(coarse_grid, 1.0, sigma, zero, source)
    (cplx,) = solve_many(coarse_grid, 1.0, sigma, zero,
                         lambda n: source(n).astype(complex))
    for r, c in zip(_fields(real), _fields(cplx)):
        assert np.array_equal(r, c)


@pytest.mark.filterwarnings("ignore:source nonzero at t = 0")
def test_complex_source_equals_pair_of_real_sources(coarse_grid):
    # S vanishes at x = a but its slope does not, so the update of node 0
    # sees the source only through its edge term, divided by 6 per part
    xs, dt = coarse_grid.xs, coarse_grid.dt
    sigma = 0.1 + 0.3 * np.cos(np.pi * xs) ** 2 + 0.2 * xs

    def source(n):
        t = n * dt
        return (1.0 + 2.0j * t + t**2) * (xs - coarse_grid.a) * (1.0 - 0.7j * xs)

    zero = [BoundaryTrace.zeros(coarse_grid)]
    (out_c,), (out_r,), (out_i,) = (
        solve_many(coarse_grid, 1.0, sigma, zero, part)
        for part in (source, lambda n: source(n).real,
                     lambda n: source(n).imag))
    for c, r, i in zip(_fields(out_c), _fields(out_r), _fields(out_i)):
        assert np.array_equal(c, r + 1j * i)


def test_nd_map_linearity(coarse_grid):
    f1, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.0)
    f2, _ = smooth_pulse_trace(coarse_grid, 1.4, 0.3, 3.0, 0.0, 1.0)
    al, be = 2.0 - 1.0j, 0.7
    combo, m1, m2 = (solve_many(coarse_grid, 1.0, 0.25, [f])[0].dirichlet
                     for f in (al * f1 + be * f2, f1, f2))
    separate = al * m1 + be * m2
    assert np.allclose(combo.values_a, separate.values_a, rtol=1e-12, atol=1e-14)
    assert np.allclose(combo.values_b, separate.values_b, rtol=1e-12, atol=1e-14)


def test_nd_map_commutes_with_time_derivative(coarse_grid):
    # measurements of the derivative datum match the time derivative of the
    # measurement, up to the O(dt^2) differentiation error
    f, f_t = smooth_pulse_trace(coarse_grid, 1.2, 0.25, 4.0, 1.0, 0.6)
    sigma = 0.2
    meas_dot, meas = (out.dirichlet for out in
                      solve_many(coarse_grid, 1.0, sigma, [f_t, f]))
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

    solve_many(coarse_grid, 1.0, sigma, [f], monitor=monitor)
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
        (out,) = linearized_nd_map_many(coarse_grid, zero_medium, [f])
        assert np.all(out.values_a == 0)
        assert np.all(out.values_b == 0)

    def test_linearity_in_perturbation(self, coarse_grid):
        xs = coarse_grid.xs
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        s1 = np.cos(np.pi * xs) + 2.0
        s2 = np.sin(2 * np.pi * xs)
        al, be = 1.7, -0.4
        med = lambda s: MediumSpec(1.0, 0.0, s)
        lin = lambda s: linearized_nd_map_many(coarse_grid, med(s), [f])[0]
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
        (lin,) = linearized_nd_map_many(
            coarse_grid, MediumSpec(1.0, sigma0, sigma_dot), [f]
        )
        (base,) = solve_many(coarse_grid, 1.0, sigma0, [f])
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            (pert,) = solve_many(coarse_grid, 1.0, sigma0 + eps * sigma_dot, [f])
            diff = pert.dirichlet - base.dirichlet
            resid = diff - eps * lin
            errs.append(max(np.max(np.abs(resid.values_a)),
                            np.max(np.abs(resid.values_b))))
        assert errs[0] / errs[1] > 50
        assert errs[1] / errs[2] > 50


def _one_bad_sample(grid, bad):
    """A clean trace, then one with a single sample ``bad`` at end b."""
    values = np.zeros(grid.nt, dtype=complex)
    values[grid.nt // 2] = bad
    return [BoundaryTrace.zeros(grid),
            BoundaryTrace(np.zeros(grid.nt), values, grid.dt)]


_NON_FINITE = {"nan": np.nan, "inf": np.inf,
               "imag_inf": complex(0.0, -np.inf)}


class TestValidation:
    def test_cfl_violation(self):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 25, 3.0)  # dt > dx
        with pytest.raises(ConfigurationError, match="CFL"):
            solve_many(g, 1.0, 0.0, [BoundaryTrace.zeros(g)])

    def test_sigma_length_mismatch(self, coarse_grid):
        with pytest.raises(ConfigurationError):
            solve_many(coarse_grid, 1.0, np.zeros(7),
                       [BoundaryTrace.zeros(coarse_grid)])

    @pytest.mark.parametrize("nonlinear_map", [solve_many, transfer_nd_map_many])
    def test_sigma_bad_shape_named(self, coarse_grid, nonlinear_map):
        nx = coarse_grid.nx
        with pytest.raises(ConfigurationError,
                           match=rf"sigma has shape \({nx}, 1\) but the grid"):
            nonlinear_map(coarse_grid, 1.0, np.zeros((nx, 1)),
                          [BoundaryTrace.zeros(coarse_grid)])

    @pytest.mark.parametrize("nonlinear_map", [solve_many, transfer_nd_map_many])
    @pytest.mark.parametrize("where", ["node", "scalar"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, coarse_grid, nonlinear_map,
                                       where, bad):
        sigma = bad
        if where == "node":
            sigma = np.full(coarse_grid.nx, 0.2)
            sigma[3] = bad
        with pytest.raises(ConfigurationError,
                           match="sigma has a non-finite value"):
            nonlinear_map(coarse_grid, 1.0, sigma,
                          [BoundaryTrace.zeros(coarse_grid)])

    def test_trace_length_mismatch(self, coarse_grid):
        bad = BoundaryTrace(np.zeros(11), np.zeros(11), coarse_grid.dt)
        with pytest.raises(ConfigurationError):
            solve_many(coarse_grid, 1.0, 0.0, [bad])

    def test_nonzero_initial_data_warns(self, coarse_grid):
        f = BoundaryTrace.from_functions(coarse_grid, np.cos, np.zeros_like)
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            solve_many(coarse_grid, 1.0, 0.0, [f])

    @pytest.mark.parametrize("bad", _NON_FINITE.values(), ids=_NON_FINITE)
    def test_non_finite_sample_rejected(self, coarse_grid, bad):
        with pytest.raises(ConfigurationError,
                           match="Neumann trace 1 has a non-finite sample"):
            solve_many(coarse_grid, 1.0, 0.0, _one_bad_sample(coarse_grid, bad))

    def test_source_complex_after_real_start_rejected(self, coarse_grid):
        # a real S(0) makes the field real, which cannot take a complex S(t_n)
        nx = coarse_grid.nx
        with pytest.raises(ConfigurationError,
                           match="source is complex at step 1 but real at step 0"):
            solve_many(coarse_grid, 1.0, 0.0, [BoundaryTrace.zeros(coarse_grid)],
                       lambda n: np.zeros(nx) if n == 0 else 1j * np.ones(nx))

    def test_batched_matches_single(self, coarse_grid):
        f1, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.0)
        f2, _ = smooth_pulse_trace(coarse_grid, 1.5, 0.3, 2.0, 0.3, 1.0)
        outs = solve_many(coarse_grid, 1.0, 0.15, [f1, f2])
        for f, out in zip((f1, f2), outs):
            (single,) = solve_many(coarse_grid, 1.0, 0.15, [f])
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


def _edge_traces(grid, window):
    """Complex traces that are nonzero only at the samples ``window``."""
    rng = np.random.default_rng(7)
    traces = []
    for _ in range(2):
        va, vb = np.zeros((2, grid.nt), dtype=complex)
        va[window], vb[window] = (rng.standard_normal((2, 3))
                                  + 1j * rng.standard_normal((2, 3)))
        traces.append(BoundaryTrace(va, vb, grid.dt))
    return traces


def _max_rel_deviation(traces, refs):
    worst = 0.0
    for tr, ref in zip(traces, refs, strict=True):
        dev = max(np.max(np.abs(tr.values_a - ref.values_a)),
                  np.max(np.abs(tr.values_b - ref.values_b)))
        scale = max(np.max(np.abs(ref.values_a)), np.max(np.abs(ref.values_b)))
        worst = max(worst, dev / scale)
    return worst


def _stepper(grid, sigma, fs):
    return [out.dirichlet for out in solve_many(grid, 1.0, sigma, fs)]


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
            linearized_nd_map_many(coarse_grid, med, fs),
        )
        assert dev <= 1e-9

    def test_nonlinear_matches_stepper(self, coarse_grid):
        sigma = _sigma(coarse_grid)
        fs = _window_traces(coarse_grid)
        dev = _max_rel_deviation(
            transfer_nd_map_many(coarse_grid, 1.0, sigma, fs),
            _stepper(coarse_grid, sigma, fs),
        )
        assert dev <= 1e-9

    @pytest.mark.parametrize("window", [slice(0, 3), slice(-3, None)],
                             ids=["first-three", "last-three"])
    def test_window_end_samples_match_stepper(self, coarse_grid, window):
        # only there do the stepper's signals depart from the filtered data
        med = MediumSpec(1.0, 0.1, smooth_sigma_dot(coarse_grid.xs) + coarse_grid.xs)
        sigma = _sigma(coarse_grid)
        fs = _edge_traces(coarse_grid, window)
        assert _max_rel_deviation(
            transfer_linearized_nd_map_many(coarse_grid, med, fs),
            linearized_nd_map_many(coarse_grid, med, fs),
        ) <= 1e-9
        assert _max_rel_deviation(
            transfer_nd_map_many(coarse_grid, 1.0, sigma, fs),
            _stepper(coarse_grid, sigma, fs),
        ) <= 1e-9

    def test_kernels_are_two_by_two_transfer_matrices(self, coarse_grid):
        sigma_dot = smooth_sigma_dot(coarse_grid.xs)
        for kernel in (
            solver._kernel(coarse_grid, 1.0, _sigma(coarse_grid).tobytes()),
            solver._kernel(coarse_grid, 1.0, np.zeros(coarse_grid.nx).tobytes(),
                           sigma_dot.tobytes()),
        ):
            assert kernel.transfer.shape == (2, 2, kernel.n_fft // 2 + 1)

    def test_transfer_maps_build_no_injection_signals(self, coarse_grid,
                                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the transfer backend built injection signals")

        monkeypatch.setattr(solver, "_injection", refuse)
        med = MediumSpec(1.0, 0.0, smooth_sigma_dot(coarse_grid.xs))
        fs = _window_traces(coarse_grid)
        transfer_linearized_nd_map_many(coarse_grid, med, fs)
        transfer_nd_map_many(coarse_grid, 1.0, _sigma(coarse_grid), fs)

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
            lin, linearized_nd_map_many(coarse_grid, med, fs)) <= 1e-9
        plain = transfer_nd_map_many(coarse_grid, 1.0, sigma, fs)
        assert _max_rel_deviation(
            plain, _stepper(coarse_grid, sigma, fs)) <= 1e-9


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

    def test_initial_data_warning_scale_is_per_trace(self, kind, coarse_grid):
        # a small t = 0 sample warns next to a trace a million times larger
        nt = coarse_grid.nt
        small = np.zeros(nt)
        small[0] = 1e-6
        large = 1e6 * np.sin(np.pi * coarse_grid.ts)
        fs = [BoundaryTrace(np.zeros(nt), large, coarse_grid.dt),
              BoundaryTrace(small, np.zeros(nt), coarse_grid.dt)]
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            _TRANSFER_MAPS[kind](coarse_grid, fs)

    @pytest.mark.parametrize("bad", _NON_FINITE.values(), ids=_NON_FINITE)
    def test_non_finite_sample_rejected(self, kind, coarse_grid, bad):
        with pytest.raises(ConfigurationError,
                           match="Neumann trace 1 has a non-finite sample"):
            _TRANSFER_MAPS[kind](coarse_grid, _one_bad_sample(coarse_grid, bad))

    @pytest.mark.filterwarnings("ignore:Neumann data nonzero at t = 0")
    def test_batched_matches_single(self, kind, coarse_grid):
        # a batch must not mix up traces, fields or ends
        pulse, _ = smooth_pulse_trace(coarse_grid, 1.2, 0.3, 4.0, 0.5, 0.7)
        fs = _window_traces(coarse_grid) + [(1.0 - 0.5j) * pulse]
        batched = _TRANSFER_MAPS[kind](coarse_grid, fs)
        for f, got in zip(fs, batched, strict=True):
            (single,) = _TRANSFER_MAPS[kind](coarse_grid, [f])
            assert np.array_equal(got.values_a, single.values_a)
            assert np.array_equal(got.values_b, single.values_b)
