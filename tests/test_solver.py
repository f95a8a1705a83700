import inspect
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest

from bcm1d import (
    LINEARIZED,
    NONLINEAR_DIFFERENCE,
    BoundaryTrace,
    ConfigurationError,
    GridSpec,
    MediumSpec,
    ReconSettings,
    acquire_clean_pair_data,
    build_control,
    fourier_targets,
    linearized_nd_map_many,
    reconstruct,
    snapshots_many,
    solve_many,
    transfer_difference_nd_map,
    transfer_linearized_nd_map,
)
from bcm1d import solver
from bcm1d.cli import _mms_error, experiment_setup, smooth_pulse_trace
from bcm1d.control import support_grid
from bcm1d.solver import _REACH

from conftest import assert_quiet, smooth_sigma_dot
from oracles import born_reflection


def _per_trace(out):
    """Each trace's arrays: its values from :func:`solve_many`, its rows of
    the u and u_x blocks from :func:`snapshots_many`."""
    if isinstance(out, list):
        return [(tr.values,) for tr in out]
    return list(zip(*out))


def test_zero_data_zero_solution(coarse_grid):
    for solve in (solve_many, snapshots_many):
        (out,) = _per_trace(solve(coarse_grid, 0.3,
                                  [BoundaryTrace.zeros(coarse_grid)]))
        assert all(np.all(v == 0) for v in out)
        assert _per_trace(solve(coarse_grid, 0.3, [])) == []


def test_manufactured_solution_second_order():
    errs = [_mms_error(GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 3.0))
            for n in (25, 50)]
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def _steps(grid):
    """The times t_n of the source samples, n = 0 .. T/dt - 1, as a
    column."""
    return np.arange(grid.half_index)[:, None] * grid.dt


def test_manufactured_solution_with_cubic_start_second_order():
    # u = (t^2 + t^3) cos(pi x) has u_ttt(0) != 0, which the Taylor first
    # layer dt^2 S(0) / 2 leaves out; the scheme stays second order
    errs = []
    for n in (25, 50, 100):
        grid = GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 3.0)
        xs, t = grid.xs, _steps(grid)
        sigma = 0.3 * (1.0 + xs**2)
        cos_px = np.cos(np.pi * xs)
        source = (2.0 + 6.0 * t + sigma * (2.0 * t + 3.0 * t**2)
                  + np.pi**2 * (t**2 + t**3)) * cos_px
        u, _ = snapshots_many(grid, sigma, [BoundaryTrace.zeros(grid)],
                              source)
        exact = (grid.T**2 + grid.T**3) * cos_px
        errs.append(np.linalg.norm(u[0] - exact)
                    / np.linalg.norm(exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.9 <= coarse / fine <= 4.1


def test_real_data_real_field(coarse_grid):
    f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.5)
    for solve in (solve_many, snapshots_many):
        (out,) = _per_trace(solve(coarse_grid, 0.2, [f]))
        assert all(np.all(v.imag == 0) for v in out)


def test_real_pulses_stay_real_in_the_stepper(coarse_grid):
    # real data in a real medium need no complex copy, difference or
    # signal: a call peaks at about two real copies of the data (the
    # stacked data and the traces, which the outputs view; the injection
    # signals overwrite the data, one trace's differences at a time);
    # complex ones take over four
    fs = [smooth_pulse_trace(coarse_grid, 1.2, 0.3, 4.0, w, 0.7)[0]
          for w in (0.5, -1.0, 2.0)]
    solve_many(coarse_grid, 0.3, fs)
    tracemalloc.start()
    try:
        solve_many(coarse_grid, 0.3, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(fs) * 2 * coarse_grid.nt * 8


def test_real_pulses_give_real_traces(coarse_grid):
    # the ND map's traces are the loop's rows: real for data whose
    # imaginary parts are all zero, whatever the data's dtype
    fs = [smooth_pulse_trace(coarse_grid, t0, 0.3, 4.0, w, 0.7)[0]
          for t0, w in ((1.2, 0.5), (1.5, -1.0))]
    as_complex = [BoundaryTrace(f.values.astype(complex), f.dt) for f in fs]
    sigma = 0.1 + 0.2 * coarse_grid.xs**2
    real, typed = (solve_many(coarse_grid, sigma, gs) for gs in (fs, as_complex))
    for r, t in zip(real, typed, strict=True):
        for vr, vt in zip(r.values, t.values):
            assert vr.dtype == vt.dtype == np.float64
            assert np.array_equal(vr, vt)


def test_real_pulses_run_one_row_in_the_linearized_map(coarse_grid,
                                                        monkeypatch):
    # real data advance their real part alone, and their trace is real: the
    # real part of the trace of the same data plus i times other data
    f, h = (smooth_pulse_trace(coarse_grid, t0, 0.3, 4.0, w, 0.7)[0]
            for t0, w in ((1.2, 0.5), (1.5, -1.0)))
    rows, time_loop = [], solver._time_loop

    def counted(grid, stencil, inj, *args):
        rows.append(inj.shape[1])  # parts x traces
        return time_loop(grid, stencil, inj, *args)

    monkeypatch.setattr(solver, "_time_loop", counted)
    med = MediumSpec(0.1, smooth_sigma_dot(coarse_grid.xs))
    (real,) = linearized_nd_map_many(coarse_grid, med, [f])
    mixed_data = BoundaryTrace(f.values + 1j * h.values, f.dt)
    (mixed,) = linearized_nd_map_many(coarse_grid, med, [mixed_data])
    assert rows == [1, 2]
    for vr, vm in zip(real.values, mixed.values):
        assert vr.dtype == np.float64
        assert np.array_equal(vr, vm.real)


def test_complex_solve_equals_pair_of_real_solves(coarse_grid):
    # a complex field must round exactly as its real and imaginary parts
    # advanced as two real fields
    fr, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.4)
    fi, _ = smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)
    fc = BoundaryTrace(fr.values + 1j * fi.values, fr.dt)
    sigma = 0.1 + 0.2 * coarse_grid.xs**2
    for solve in (solve_many, snapshots_many):
        # one call each: a batch holding a complex trace advances complex rows
        (out_c,), (out_r,), (out_i,) = (
            _per_trace(solve(coarse_grid, sigma, [f])) for f in (fc, fr, fi))
        for c, r, i in zip(out_c, out_r, out_i):
            assert np.iscomplexobj(c)
            assert np.array_equal(c, r + 1j * i)


def test_complex_linearized_equals_pair_of_real_passes(coarse_grid):
    fr, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.4)
    fi, _ = smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)
    fc = BoundaryTrace(fr.values + 1j * fi.values, fr.dt)
    med = MediumSpec(0.1, smooth_sigma_dot(coarse_grid.xs))
    (out_c,), (out_r,), (out_i,) = (
        linearized_nd_map_many(coarse_grid, med, [f]) for f in (fc, fr, fi))
    assert np.array_equal(out_c.values, out_r.values + 1j * out_i.values)


def _edge_sloped_source(grid):
    """A source that vanishes at t = 0 and has a slope at both ends."""
    xs, t = grid.xs, _steps(grid)
    return t**2 * (1.0 + t) * (xs - grid.a) * (1.0 + 0.5 * xs)


@pytest.mark.parametrize("shared", [True], ids=["shared"])
def test_source_rows_match_single_solves(coarse_grid, shared):
    # the one source form: a (T/dt, nx) source is applied to every trace
    fs = [smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.4)[0],
          smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)[0]]
    sigma = 0.1 + 0.2 * coarse_grid.xs**2
    source = _edge_sloped_source(coarse_grid)
    batch = _per_trace(snapshots_many(coarse_grid, sigma, fs, source))
    for f, out in zip(fs, batch):
        (single,) = _per_trace(snapshots_many(coarse_grid, sigma, [f], source))
        for b, o in zip(out, single):
            assert np.array_equal(b, o)


def test_nd_map_linearity(coarse_grid):
    f1, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.0)
    f2, _ = smooth_pulse_trace(coarse_grid, 1.4, 0.3, 3.0, 0.0, 1.0)
    al, be = 2.0 - 1.0j, 0.7
    f12 = BoundaryTrace(al * f1.values + be * f2.values, f1.dt)
    combo, m1, m2 = (solve_many(coarse_grid, 0.25, [f])[0]
                     for f in (f12, f1, f2))
    separate = al * m1.values + be * m2.values
    assert np.allclose(combo.values, separate, rtol=1e-12, atol=1e-14)


def test_nd_map_commutes_with_time_derivative(coarse_grid):
    # measurements of the derivative datum match the time derivative of the
    # measurement, up to the O(dt^2) differentiation error
    f, f_t = smooth_pulse_trace(coarse_grid, 1.2, 0.25, 4.0, 1.0, 0.6)
    sigma = 0.2
    meas_dot, meas = solve_many(coarse_grid, sigma, [f_t, f])
    for v, v_dot in zip(meas.values, meas_dot.values):
        fd = np.gradient(v, coarse_grid.dt, edge_order=2)
        err = np.max(np.abs(fd - v_dot))
        assert err <= 5e-3 * np.max(np.abs(v_dot))


def test_energy_non_increasing_after_data_stops(coarse_grid):
    # the pulse is gone well before t = 2; each window's snapshots at T give
    # the energy 1/2 int |p|^2 + 1/2 int |q|^2 at t = T, p the derivative
    # datum's u(T)
    dt, dx = coarse_grid.dt, coarse_grid.dx
    energies = []
    for T in np.arange(3.0, 5.001, 0.25):
        grid = GridSpec(coarse_grid.a, coarse_grid.b, dx, dt, T)
        f, f_t = smooth_pulse_trace(grid, 1.0, 0.15, 6.0, 1.0, 0.0)
        u, q = snapshots_many(grid, 0.3, [f, f_t])
        energies.append(0.5 * np.trapezoid(np.abs(u[1]) ** 2, dx=dx)
                        + 0.5 * np.trapezoid(np.abs(q[0]) ** 2, dx=dx))
    energies = np.asarray(energies)
    tol = 10 * dt * energies[0]
    assert np.all(np.diff(energies) <= tol)


class TestSnapshots:
    @pytest.mark.parametrize("case", ["real", "typed_complex", "complex",
                                      "none"])
    def test_two_blocks_in_the_data_dtype(self, case, coarse_grid):
        # u(T) and u_x(T) are two (traces, nx) blocks, float64 when every
        # imaginary part of the data is zero; a complex batch's blocks are
        # those of its real and its imaginary parts, bit for bit
        f, h = (smooth_pulse_trace(coarse_grid, t0, 0.25, 4.0, w, 0.6)[0]
                for t0, w in ((1.0, 1.0), (1.3, -0.5)))
        sigma = 0.1 + 0.2 * coarse_grid.xs**2
        typed = [BoundaryTrace(tr.values.astype(complex), tr.dt)
                 for tr in (f, h)]
        mixed = BoundaryTrace(f.values + h.values * 1j, f.dt)
        fs, re, im = {"real": ([f, h], [f, h], None),
                      "typed_complex": (typed, [f, h], None),
                      "complex": ([mixed, typed[1]], [f, h],
                                  [h, BoundaryTrace.zeros(coarse_grid)]),
                      "none": ([], [], None)}[case]
        u, q = snapshots_many(coarse_grid, sigma, fs)
        assert u.shape == q.shape == (len(fs), coarse_grid.nx)
        assert u.dtype == q.dtype == (np.float64 if im is None
                                      else np.complex128)
        for got, want in zip((u, q), snapshots_many(coarse_grid, sigma, re)):
            assert np.array_equal(got.real, want)
        if im is not None:
            for got, want in zip((u, q),
                                 snapshots_many(coarse_grid, sigma, im)):
                assert np.array_equal(got.imag, want)
    def test_the_loop_stops_at_T(self, coarse_grid, monkeypatch):
        # a loop of k injection rows reaches u^{k-1}: the snapshots take
        # u^1 .. u^{T/dt}, T/dt steps, against the map's 2T/dt
        grid, steps, time_loop = coarse_grid, [], solver._time_loop

        def counted(grid, stencil, inj, *args):
            steps.append(len(inj))
            return time_loop(grid, stencil, inj, *args)

        monkeypatch.setattr(solver, "_time_loop", counted)
        f, _ = smooth_pulse_trace(grid, 1.0, 0.2, 5.0, 1.0, 0.5)
        snapshots_many(grid, 0.2, [f, f])
        snapshots_many(grid, 0.2, [f], _edge_sloped_source(grid))
        solve_many(grid, 0.2, [f])
        assert (grid.half_index, grid.nt) == (1500, 3001)
        assert steps == [1501, 1501, 3001]

    def test_derivative_datum_gives_u_t(self):
        # u(T) of f_t's field is u_t(T) of f's: it meets the centered
        # difference of f's u(T) on the grids T -+ dt to second order
        def u_T(dx, dt, T, j):
            """u(T) of the field of the pulse (j = 0) or its derivative."""
            grid = GridSpec(-1.0, 1.0, dx, dt, T)
            datum = smooth_pulse_trace(grid, 1.2, 0.25, 6.0, 1.0, 0.3)[j]
            return snapshots_many(grid, 0.3, [datum])[0][0]

        gaps = []
        for n in (50, 100):
            dx, dt = 1.0 / n, 1.0 / (10 * n)
            before, u_t, after = (u_T(dx, dt, T, j) for T, j in
                                  ((3.5 - dt, 0), (3.5, 1), (3.5 + dt, 0)))
            centered = (after - before) / (2.0 * dt)
            gaps.append(np.linalg.norm(u_t - centered) / np.linalg.norm(u_t))
        assert gaps[0] <= 1e-4
        assert 3.4 <= gaps[0] / gaps[1] <= 4.6

    def test_snapshots_are_those_of_the_full_pass(self, coarse_grid,
                                                  monkeypatch):
        # a support-grid control is nonzero at T: the injection at step
        # T/dt - 1, the last the loop takes, must be that of the full data,
        # not of data cut at T/dt.  The level the loop reaches at step
        # T/dt gives q and u.
        grid = support_grid(coarse_grid)
        pT, _, lam = fourier_targets(2, grid)
        control = build_control(pT, lam, grid)
        fs = [control.f, control.f_tt]
        h = grid.half_index
        assert all(np.abs(tr.values[0, h - 2:h + 3]).min() > 1e-3 for tr in fs)
        sigma = 0.2 + 0.1 * grid.xs
        levels, time_loop = [], solver._time_loop

        def spy(*args):
            traces, reached = time_loop(*args)
            levels.append(reached)
            return traces, reached

        monkeypatch.setattr(solver, "_time_loop", spy)
        u, _ = snapshots_many(grid, sigma, fs)
        g = solver._stack_neumann(grid, fs)
        full, cut = (solver._injection(grid, sigma[[0, -1]], data)[..., h - 1]
                     for data in (g, g[..., :h + 1]))
        assert not np.array_equal(full, cut)
        # every field run through the last step
        _, want = solver._drive(grid, sigma, g)
        assert np.array_equal(levels[0], want)
        assert np.array_equal(u, want)


class TestLinearized:
    @pytest.mark.parametrize("end", [0, 1], ids=["a", "b"])
    def test_converges_to_the_born_reflection(self, end):
        # sigma0 = 0 and data at one end: until the far end's echo returns
        # the trace at that end is the Born reflection, and the stepper's
        # linearized map meets it at second order
        def antiderivative(x):
            """Of sigma_dot = cos(pi x) + sin(2 pi x) / 2 + 2."""
            return (np.sin(np.pi * x) / np.pi
                    - np.cos(2.0 * np.pi * x) / (4.0 * np.pi) + 2.0 * x)

        gaps = []
        for n in (50, 100, 200):
            grid = GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 3.0)
            xs = grid.xs
            medium = MediumSpec(0.0, np.cos(np.pi * xs)
                                + 0.5 * np.sin(2.0 * np.pi * xs) + 2.0)
            g = smooth_pulse_trace(grid, 0.5, 0.08, 20.0, 1.0 - end, end)[0]
            (out,) = linearized_nd_map_many(grid, medium, [g])
            # depth runs inward from the end the data enter
            x0, inward = ((grid.a, 1.0), (grid.b, -1.0))[end]
            exact = born_reflection(grid, g.values[end], lambda xi: inward * (
                antiderivative(x0 + inward * xi) - antiderivative(x0)))
            early = grid.ts < 3.5
            gaps.append(np.max(np.abs(out.values[end] - exact)[early])
                        / np.max(np.abs(exact[early])))
        assert gaps[-1] <= 1e-5
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.4 <= coarse / fine <= 4.6

    @pytest.mark.parametrize("steps_per_dx", [10, 1], ids=["dx/10", "dx"])
    def test_kernel_is_reciprocal_and_mirror_symmetric(self, steps_per_dx):
        # K[i, j] is the response at end j to a unit sample at end i: the
        # response at b to a sample at a is that at a to a sample at b, and
        # mirroring the medium about the midpoint swaps the two ends
        grid = support_grid(GridSpec(-1.0, 1.0, 1.0 / 50,
                                     1.0 / (50 * steps_per_dx), 3.0))
        xs = grid.xs
        sigma_dot = np.cos(np.pi * xs) + 0.5 * np.sin(2.0 * np.pi * xs) + 2.0
        samples = [BoundaryTrace(g, grid.dt)
                   for g in solver._unit_samples(grid)]
        k, k_mirrored = (
            np.stack([tr.values for tr in linearized_nd_map_many(
                grid, MediumSpec(0.0, s), samples)])
            for s in (sigma_dot, sigma_dot[::-1]))
        scale = np.max(np.abs(k))
        assert np.max(np.abs(k[0, 1] - k[1, 0])) <= 1e-12 * scale
        assert np.max(np.abs(k - k_mirrored[::-1, ::-1])) <= 1e-12 * scale
    def test_zero_perturbation_zero_response(self, coarse_grid, zero_medium):
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        (out,) = linearized_nd_map_many(coarse_grid, zero_medium, [f])
        assert np.all(out.values == 0)

    def test_linearity_in_perturbation(self, coarse_grid):
        xs = coarse_grid.xs
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        s1 = np.cos(np.pi * xs) + 2.0
        s2 = np.sin(2 * np.pi * xs)
        al, be = 1.7, -0.4
        med = lambda s: MediumSpec(0.0, s)
        lin = lambda s: linearized_nd_map_many(coarse_grid, med(s), [f])[0]
        combo = lin(al * s1 + be * s2)
        separate = al * lin(s1).values + be * lin(s2).values
        assert np.allclose(combo.values[0], separate[0], rtol=1e-12,
                           atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    @pytest.mark.parametrize("scaled", ["sigma_dot", "data"])
    @pytest.mark.parametrize("linearized_map", [
        linearized_nd_map_many,
        lambda grid, medium, fs: transfer_linearized_nd_map(grid, medium)(fs),
    ])
    def test_scale_of_perturbation(self, coarse_grid, linearized_map, scaled,
                                   scale):
        # the complex step scales sigma_dot by s = max |sigma_dot| and the
        # data to O(1), so that small ones do not underflow, and divides by h
        # before multiplying by s, so that a large sigma_dot does not overflow
        xs = coarse_grid.xs
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        h, _ = smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)
        f = _at_rest(BoundaryTrace(f.values + 0.5j * h.values, f.dt))
        sigma_dot = np.cos(np.pi * xs) + 2.0 + xs

        def measure(c):
            sd, data = ((c * sigma_dot, f) if scaled == "sigma_dot"
                        else (sigma_dot, BoundaryTrace(c * f.values, f.dt)))
            return linearized_map(coarse_grid, MediumSpec(0.1, sd), [data])

        (ref,), (got,) = measure(1.0), measure(scale)
        got = BoundaryTrace(got.values * (1.0 / scale), got.dt)
        assert _max_rel_deviation([got], [ref]) <= 1e-12

    def test_matches_nonlinear_differences(self, coarse_grid):
        # the linearized map is the parameter derivative of the discrete
        # solver, so these one-sided quotients meet it at their own O(eps)
        xs = coarse_grid.xs
        sigma_dot = smooth_sigma_dot(xs)
        sigma0 = 0.1
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        (lin,) = linearized_nd_map_many(
            coarse_grid, MediumSpec(sigma0, sigma_dot), [f]
        )
        (base,) = solve_many(coarse_grid, sigma0, [f])
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            (pert,) = solve_many(coarse_grid, sigma0 + eps * sigma_dot, [f])
            resid = pert.values - base.values - eps * lin.values
            errs.append(np.max(np.abs(resid)))
        assert errs[0] / errs[1] > 50
        assert errs[1] / errs[2] > 50

    def test_is_the_derivative_of_the_solve_at_the_end_nodes(self,
                                                               coarse_grid):
        # sigma_dot has a slope at both ends, where the solver's edge term
        # sigma_x u_t takes the backward difference of u; central quotients
        # meet the derivative at O(eps^2), with no plateau
        xs = coarse_grid.xs
        sigma0, sigma_dot = 0.1, 0.3 * np.sin(np.pi * xs) + 2.0 * xs
        f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.3)
        (lin,) = linearized_nd_map_many(
            coarse_grid, MediumSpec(sigma0, sigma_dot), [f])
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            plus, minus = (solve_many(coarse_grid, sigma0 + e * sigma_dot,
                                      [f])[0] for e in (eps, -eps))
            quotient = BoundaryTrace(
                (plus.values - minus.values) * (1.0 / (2.0 * eps)), f.dt)
            gaps.append(_max_rel_deviation([quotient], [lin]))
        assert gaps[0] / gaps[1] > 50
        assert gaps[1] / gaps[2] > 50


def test_injection_applies_the_documented_formula(coarse_grid):
    # the formula is written in code only in _injection; a complex
    # sigma_end is a complex-step medium's.  A source s_n x^2, whose
    # one-sided S_x is exact, adds +(dx/3) S_x at a and -(dx/3) S_x at b
    # at steps 1 .. T/dt - 1
    grid = coarse_grid
    sigma_ends = np.array([[0.2, 0.7], [0.2 - 1.1j, 0.7 + 2.5j]])  # (medium, end)
    rng = np.random.default_rng(11)
    g = (rng.standard_normal((3, 2, grid.nt))
         + 1j * rng.standard_normal((3, 2, grid.nt)))  # (traces, end, steps)
    g_t = np.gradient(g, grid.dt, axis=-1)
    g_tt = np.gradient(g_t, grid.dt, axis=-1)
    dx, h = grid.dx, grid.half_index
    s = rng.standard_normal(h)
    source = np.outer(s, grid.xs**2)
    # (dx/3) (S_x at a, -S_x at b), with a = -1 and b = 1
    edge = (dx / 3.0) * np.outer([-2.0, -2.0], s[1:])
    for ends in sigma_ends:
        expected = (2.0 / dx) * g + (dx / 3.0) * (g_tt + ends[:, None] * g_t)
        for src in (None, source):
            inj = solver._injection(grid, ends, g, src)
            if src is not None:
                expected[..., 1:h] += edge
            assert inj.shape == expected.shape
            assert (np.max(np.abs(inj - expected))
                    <= 1e-13 * np.max(np.abs(expected)))


def test_time_loop_reads_its_injection_signals_only(coarse_grid):
    # a source's edge terms are in the signals _injection forms: the loop
    # runs on read-only signals and steps as _drive does
    grid = coarse_grid
    h = grid.half_index
    sigma = 0.1 + 0.2 * grid.xs**2
    data = solver._stack_neumann(grid, [
        smooth_pulse_trace(grid, t0, 0.3, 4.0, w, 0.7)[0]
        for t0, w in ((1.2, 0.5), (1.5, -1.0))])
    source = np.outer(np.sin(grid.ts[:h]), np.cos(grid.xs))
    inj = np.moveaxis(np.stack([
        solver._injection(grid, sigma[[0, -1]], gj[:, :h + 2], source)
        for gj in data])[..., :h + 1], -1, 0)
    inj.flags.writeable = False
    last = [h] * len(data)
    got = solver._time_loop(grid, solver._stencil(grid, sigma), inj, last,
                            source)
    want = solver._drive(grid, sigma, data.copy(), last, source)
    for got_part, want_part in zip(got, want, strict=True):
        assert np.array_equal(got_part, want_part)


def test_a_pass_runs_one_medium_per_row(coarse_grid):
    # rows in media (sa, sa, sb, sb) over two data rows step bit for bit as
    # two passes of one medium each
    grid = coarse_grid
    sa, sb = 0.1 + 0.2 * grid.xs**2, np.full(grid.nx, 0.4)
    data = solver._stack_neumann(grid, [
        smooth_pulse_trace(grid, t0, 0.3, 4.0, w, 0.7)[0]
        for t0, w in ((1.2, 0.5), (1.5, -1.0))])
    both, levels = solver._drive(grid, np.repeat([sa, sb], 2, axis=0),
                                 np.tile(data, (2, 1, 1)))
    assert not np.array_equal(both[:2], both[2:])
    for k, sigma in enumerate((sa, sb)):
        traces, level = solver._drive(grid, sigma, data.copy())
        assert np.array_equal(both[2 * k:2 * k + 2], traces)
        assert np.array_equal(levels[2 * k:2 * k + 2], level)


def test_free_space_trace_is_the_running_integral():
    # sigma = 0 and data g at end a only: until the far end's echo returns
    # at t = 2 (b - a) = 4, u(a, t) = integral of g from 0 to t, and the
    # nonlinear map meets its trapezoid sum at second order
    gaps = []
    for dx in (0.04, 0.02, 0.01, 0.005):
        grid = GridSpec(-1.0, 1.0, dx, dx / 10, 3.0)
        f, _ = smooth_pulse_trace(grid, 1.2, 0.25, 6.0, 1.0, 0.0)
        (trace,) = solve_many(grid, 0.0, [f])
        g = f.values[0]
        running = np.concatenate(
            ([0.0], np.cumsum(g[1:] + g[:-1]) * (grid.dt / 2.0)))
        early = grid.ts < 4.0
        gaps.append(np.max(np.abs(trace.values[0, early] - running[early]))
                    / np.max(np.abs(running[early])))
    assert gaps[0] <= 2e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.4 <= coarse / fine <= 4.6


def _one_bad_sample(grid, bad):
    """A clean trace, then one with a single sample ``bad`` at end b."""
    values = np.zeros((2, grid.nt), dtype=complex)
    values[1, grid.nt // 2] = bad
    return [BoundaryTrace.zeros(grid), BoundaryTrace(values, grid.dt)]


_NON_FINITE = {"nan": np.nan, "inf": np.inf,
               "imag_inf": complex(0.0, -np.inf)}


class TestValidation:
    def test_cfl_violation(self):
        with pytest.raises(ConfigurationError, match="CFL"):
            g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 25, 3.0)  # dt > dx
            solve_many(g, 0.0, [BoundaryTrace.zeros(g)])

    def test_sigma_length_mismatch(self, coarse_grid):
        with pytest.raises(ConfigurationError):
            solve_many(coarse_grid, np.zeros(7),
                       [BoundaryTrace.zeros(coarse_grid)])

    @pytest.mark.parametrize("nonlinear_map", [solve_many, snapshots_many])
    def test_sigma_bad_shape_named(self, coarse_grid, nonlinear_map):
        nx = coarse_grid.nx
        with pytest.raises(ConfigurationError,
                           match=rf"sigma has shape \({nx}, 1\) but the grid"):
            nonlinear_map(coarse_grid, np.zeros((nx, 1)),
                          [BoundaryTrace.zeros(coarse_grid)])

    @pytest.mark.parametrize("nonlinear_map", [solve_many, snapshots_many])
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
            nonlinear_map(coarse_grid, sigma,
                          [BoundaryTrace.zeros(coarse_grid)])

    @pytest.mark.parametrize("where", ["node", "scalar"])
    def test_complex_sigma_rejected(self, coarse_grid, where):
        # never cast to its real part
        sigma = 0.2 + 0.1j
        if where == "node":
            sigma = np.full(coarse_grid.nx, sigma)
        with pytest.raises(ConfigurationError,
                           match="sigma is complex; the damping is real"):
            solve_many(coarse_grid, sigma, [BoundaryTrace.zeros(coarse_grid)])

    def test_trace_length_mismatch(self, coarse_grid):
        bad = BoundaryTrace(np.zeros((2, 11)), coarse_grid.dt)
        with pytest.raises(ConfigurationError):
            solve_many(coarse_grid, 0.0, [bad])

    def test_nonzero_initial_data_warns(self, coarse_grid):
        ts = coarse_grid.ts
        f = BoundaryTrace(np.stack((np.cos(ts), np.zeros_like(ts))),
                          coarse_grid.dt)
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            solve_many(coarse_grid, 0.0, [f])

    def test_initial_data_warning_scale_is_per_trace(self, coarse_grid):
        # a small t = 0 sample warns next to a trace a million times larger
        nt = coarse_grid.nt
        small = np.zeros(nt)
        small[0] = 1e-6
        large = 1e6 * np.sin(np.pi * coarse_grid.ts)
        fs = [BoundaryTrace(np.stack((np.zeros(nt), large)), coarse_grid.dt),
              BoundaryTrace(np.stack((small, np.zeros(nt))), coarse_grid.dt)]
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            solve_many(coarse_grid, 0.0, fs)

    @pytest.mark.parametrize("bad", _NON_FINITE.values(), ids=_NON_FINITE)
    def test_non_finite_sample_rejected(self, coarse_grid, bad):
        with pytest.raises(ConfigurationError,
                           match="Neumann trace 1 has a non-finite sample"):
            solve_many(coarse_grid, 0.0, _one_bad_sample(coarse_grid, bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_source_rejected(self, coarse_grid, bad):
        # the first bad step is named; a row of huge finite samples is not
        source = np.zeros((coarse_grid.half_index, coarse_grid.nx))
        source[600] = np.finfo(float).max
        source[600, ::2] *= -1.0
        source[700, 3] = source[900, 0] = bad
        with pytest.raises(ConfigurationError,
                           match="source has a non-finite sample at step 700"):
            snapshots_many(coarse_grid, 0.0,
                           [BoundaryTrace.zeros(coarse_grid)], source)

    @pytest.mark.parametrize("case", ["row_too_long", "step_missing",
                                      "one_row_per_trace",
                                      "two_rows_one_trace", "imag_inf",
                                      "to_2T", "step_past_T"])
    def test_misshaped_source_rejected(self, coarse_grid, case):
        # one real (T/dt, nx) source drives every trace; a per-trace,
        # complex or longer one is refused, named by its dtype and shape
        steps, nx = coarse_grid.half_index, coarse_grid.nx
        source = np.zeros({"row_too_long": (steps, nx + 1),
                           "step_missing": (steps - 1, nx),
                           "step_past_T": (steps + 1, nx),
                           "one_row_per_trace": (steps, 1, nx),
                           "two_rows_one_trace": (steps, 2, nx),
                           "imag_inf": (steps, nx),
                           "to_2T": (coarse_grid.nt - 1, nx)}[case])
        if case == "imag_inf":
            source = source.astype(complex)
            source[700, 3] = _NON_FINITE["imag_inf"]
        with pytest.raises(ConfigurationError,
                           match=rf"source is {source.dtype} of shape "
                                 rf"\({', '.join(map(str, source.shape))}\); "
                                 rf"the grid needs real samples of shape "
                                 rf"\(T/dt, nx\) = \({steps}, {nx}\)"):
            snapshots_many(coarse_grid, 0.0,
                           [BoundaryTrace.zeros(coarse_grid)], source)

    def test_batched_matches_single(self, coarse_grid):
        f1, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.0)
        f2, _ = smooth_pulse_trace(coarse_grid, 1.5, 0.3, 2.0, 0.3, 1.0)
        for solve in (solve_many, snapshots_many):
            outs = _per_trace(solve(coarse_grid, 0.15, [f1, f2]))
            for f, out in zip((f1, f2), outs):
                (single,) = _per_trace(solve(coarse_grid, 0.15, [f]))
                for b, o in zip(out, single, strict=True):
                    assert np.array_equal(b, o)


def _at_rest(tr):
    """``tr`` with its samples within ``_REACH`` steps of either end of the
    grid set to zero, as the transfer maps take them."""
    v = tr.values.copy()
    v[:, :_REACH] = v[:, -_REACH:] = 0.0
    return BoundaryTrace(v, tr.dt)


def _window_traces(grid):
    """Complex traces that are O(1) from the first step to the last that
    the transfer maps take, and at rest beyond them."""
    f, _ = smooth_pulse_trace(grid, 1.0, 0.2, 5.0, 1.0, 0.3)
    h, _ = smooth_pulse_trace(grid, 1.3, 0.25, 3.0, 0.2, 1.0)
    ts = grid.ts
    ramp = np.stack((0.3 + 0.1 * ts, np.cos(2.0 * ts) - 0.5j))
    return [_at_rest(BoundaryTrace(v, grid.dt))
            for v in (f.values + 1j * h.values + ramp,
                      (0.5 - 2j) * h.values + 1j * ramp)]


def _edge_traces(grid, window, seed=7):
    """Complex traces that are nonzero only at the samples ``window``, which
    the callers keep among the steps the transfer maps take, drawn from
    ``seed``."""
    rng = np.random.default_rng(seed)
    traces = []
    shape = (2, len(range(grid.nt)[window]))
    for _ in range(2):
        v = np.zeros((2, grid.nt), dtype=complex)
        v[:, window] = (rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
        traces.append(BoundaryTrace(v, grid.dt))
    return traces


def _max_rel_deviation(traces, refs):
    worst = 0.0
    for tr, ref in zip(traces, refs, strict=True):
        dev = np.max(np.abs(tr.values - ref.values))
        scale = np.max(np.abs(ref.values))
        worst = max(worst, dev / scale)
    return worst


def _stepper_quotient(grid, medium, eps, fs):
    """(Lambda(sigma0 + eps sigma_dot + eps^2 sigma_ddot) - Lambda(sigma0)) / eps
    from two stepper solves."""
    full = medium.sigma0 + eps * medium.sigma_dot + eps**2 * medium.sigma_ddot
    return [BoundaryTrace((f.values - b.values) * (1.0 / eps), grid.dt)
            for f, b in
            zip(solve_many(grid, full, fs),
                solve_many(grid, medium.sigma0, fs))]


def _medium(grid):
    xs = grid.xs
    return MediumSpec(0.1, smooth_sigma_dot(xs) + xs,
                      0.3 * np.cos(2.0 * np.pi * xs))


# at eps = 1e-3 the stepper quotient's own cancellation reaches 4e-9
_EPS = 0.5


# every ND map, as (grid, medium, traces) -> traces
_ND_MAPS = {
    "solve_many": lambda grid, med, fs: solve_many(grid, med.sigma0, fs),
    "linearized_nd_map_many": linearized_nd_map_many,
    "transfer_linearized": lambda grid, med, fs:
        transfer_linearized_nd_map(grid, med)(fs),
    "transfer_difference": lambda grid, med, fs:
        transfer_difference_nd_map(grid, med, _EPS)(fs),
}


@pytest.mark.parametrize("entry", [*sorted(_ND_MAPS), "snapshots_many"])
def test_no_traces_give_no_outputs(entry, coarse_grid):
    if entry == "snapshots_many":
        u, q = snapshots_many(coarse_grid, 0.1, [])
        assert u.shape == q.shape == (0, coarse_grid.nx)
    else:
        assert _ND_MAPS[entry](coarse_grid, _medium(coarse_grid), []) == []


@pytest.mark.parametrize("entry", sorted(_ND_MAPS))
def test_traces_of_a_call_are_views_of_one_block(entry, coarse_grid):
    # for real and for complex data, the traces' values are the rows of
    # one block per call, with no copy
    pulses = [_at_rest(smooth_pulse_trace(coarse_grid, t0, 0.25, 4.0, 1.0,
                                          0.5)[0]) for t0 in (1.0, 1.4)]
    med = _medium(coarse_grid)
    for fs in (pulses, _window_traces(coarse_grid) + pulses[:1]):
        out = _ND_MAPS[entry](coarse_grid, med, fs)
        block = out[0].values.base
        assert block.shape == (len(fs), 2, coarse_grid.nt)
        assert all(tr.values.base is block for tr in out)


class TestTransfer:
    """The transfer-kernel backend against the stepper, its oracle."""

    def test_linearized_matches_stepper(self, coarse_grid):
        med = _medium(coarse_grid)
        fs = _window_traces(coarse_grid)
        dev = _max_rel_deviation(
            transfer_linearized_nd_map(coarse_grid, med)(fs),
            linearized_nd_map_many(coarse_grid, med, fs),
        )
        assert dev <= 1e-9

    def test_integer_background_damping(self, coarse_grid):
        med = MediumSpec(1, smooth_sigma_dot(coarse_grid.xs))
        fs = _window_traces(coarse_grid)
        assert _max_rel_deviation(
            transfer_linearized_nd_map(coarse_grid, med)(fs),
            linearized_nd_map_many(coarse_grid, med, fs),
        ) <= 1e-9

    def test_nonlinear_matches_stepper(self, coarse_grid):
        med = _medium(coarse_grid)
        fs = _window_traces(coarse_grid)
        dev = _max_rel_deviation(
            transfer_difference_nd_map(coarse_grid, med, _EPS)(fs),
            _stepper_quotient(coarse_grid, med, _EPS, fs),
        )
        assert dev <= 1e-9

    def test_fft_length_is_the_next_five_smooth_number(self):
        # every 5-smooth number below 2^14, sorted, and some above
        r = range(14)
        smooth = sorted(2**i * 3**j * 5**k for i in r for j in r for k in r)
        for n in range(1, 5001):
            assert solver._fft_length(n) == smooth[bisect_left(smooth, n)]
        assert solver._fft_length(49999) == 50000

    def test_kernels_are_two_by_two_transfer_matrices(self, coarse_grid):
        # the responses to a unit sample at either end, (input end, output
        # end, steps), give a 2 x 2 matrix per frequency
        rng = np.random.default_rng(0)
        responses = rng.standard_normal((2, 2, coarse_grid.nt))
        measure = solver._TransferMap(coarse_grid, responses)
        assert measure.transfer.shape == (2, 2, measure.n_fft // 2 + 1)
        assert measure.transfer.flags.c_contiguous
        assert not measure.transfer.flags.writeable

    def test_transfer_maps_build_no_injection_signals(self, coarse_grid,
                                                      monkeypatch):
        # only making a map drives the stepper: a trace is measured by FFT
        # convolution, never by a stepper pass
        med = _medium(coarse_grid)
        maps = (transfer_linearized_nd_map(coarse_grid, med),
                transfer_difference_nd_map(coarse_grid, med, _EPS))

        def unused(*args):
            raise AssertionError("a transfer map built injection signals")

        monkeypatch.setattr(solver, "_injection", unused)
        fs = _window_traces(coarse_grid)
        for measure in maps:
            measure(fs)

    @pytest.mark.parametrize("step", ["first", "last"])
    def test_unit_samples_match_the_reference_maps(self, coarse_support_grid,
                                                   step):
        # a unit sample at either end, at the first or the last step the
        # maps take, against each map's reference, relative to the trace's
        # maximum: the kernels are those maps' own responses
        grid = coarse_support_grid
        med = _medium(grid)
        med = MediumSpec(0.2, med.sigma_dot, med.sigma_ddot)
        n, tol = {"first": (_REACH, 1e-14),
                  "last": (grid.nt - 1 - _REACH, 1e-10)}[step]
        g = np.zeros((2, 2, grid.nt))
        g[..., n] = np.eye(2)
        fs = [BoundaryTrace(gj, grid.dt) for gj in g]
        eps = 1e-3
        for got, want in (
                (transfer_linearized_nd_map(grid, med)(fs),
                 linearized_nd_map_many(grid, med, fs)),
                (transfer_difference_nd_map(grid, med, eps)(fs),
                 _stepper_quotient(grid, med, eps, fs))):
            assert _max_rel_deviation(got, want) <= tol

    @pytest.mark.parametrize("data_mode", [LINEARIZED, NONLINEAR_DIFFERENCE])
    def test_acquired_data_at_minimal_window_match_stepper(self, data_mode):
        # with T at its minimum (b - a) + 1 the support grid adds three
        # steps at each end: the reconstruction controls are nonzero from
        # the first step the transfer maps take to the last
        grid = support_grid(GridSpec(-1.0, 1.0, 0.04, 0.04, 3.0))
        med = _medium(grid)
        settings = ReconSettings(grid=grid, N=5, data_mode=data_mode,
                                 eps_linearization=1e-3)
        measure = settings.measurement(med)
        for k in (1, 3, 5):
            pT_f, pT_h, lam = fourier_targets(k, grid)
            bf, bh = (build_control(pT, lam, grid) for pT in (pT_f, pT_h))
            driven = [bf.f_t, bf.f_tt, bh.f_t, bh.f_tt, bf.f, bh.f]
            for tr in driven:
                g = tr.values
                assert not np.any(g[:, :3]) and not np.any(g[:, -3:])
                assert np.any(g[:, 3:6]) and np.any(g[:, -6:-3])
            f, h = acquire_clean_pair_data(k, grid, measure)[1:]
            got = [f.meas_t, f.meas_tt, h.meas_t, h.meas_tt,
                   *measure([f.g, h.g])]
            if data_mode == LINEARIZED:
                want = linearized_nd_map_many(grid, med, driven)
            else:
                want = _stepper_quotient(grid, med, 1e-3, driven)
            assert _max_rel_deviation(got, want) <= 1e-9

    def test_map_made_after_mutation_matches_stepper(self, coarse_grid):
        # a map measures the medium as it was when the map was made
        med = _medium(coarse_grid)
        fs = _window_traces(coarse_grid)[:1]
        maps = (transfer_linearized_nd_map(coarse_grid, med),
                transfer_difference_nd_map(coarse_grid, med, _EPS))
        before = [measure(fs)[0] for measure in maps]
        med.sigma_dot[: coarse_grid.nx // 2] *= -2.0
        med.sigma_ddot[::3] += 0.5
        lin = transfer_linearized_nd_map(coarse_grid, med)(fs)
        assert _max_rel_deviation(
            lin, linearized_nd_map_many(coarse_grid, med, fs)) <= 1e-9
        quotient = transfer_difference_nd_map(coarse_grid, med, _EPS)(fs)
        assert _max_rel_deviation(
            quotient, _stepper_quotient(coarse_grid, med, _EPS, fs)) <= 1e-9
        for measure, old in zip(maps, before):
            (again,) = measure(fs)
            assert np.array_equal(again.values, old.values)

    def test_earlier_results_survive_later_calls(self, coarse_support_grid):
        # a map's outputs must not alias its work buffers, and a call must
        # not leave data behind in them for the next
        def unchanged(traces, copies):
            for tr, want in zip(traces, copies, strict=True):
                assert np.array_equal(tr.values, want)

        grid = coarse_support_grid
        med = _medium(grid)
        makers = (lambda: transfer_linearized_nd_map(grid, med),
                  lambda: transfer_difference_nd_map(grid, med, _EPS))
        fs = _window_traces(grid)
        pT_f, pT_h, lam = fourier_targets(1, grid)
        controls = [build_control(pT, lam, grid).f for pT in (pT_f, pT_h)]
        for make in makers:
            measure = make()
            kept = measure(fs)
            copies = [tr.values.copy() for tr in kept]
            measure(controls)
            unchanged(kept, copies)
            unchanged(measure(fs), copies)
            unchanged(make()(fs), copies)

    def test_second_call_allocates_little_beyond_its_result(self,
                                                            coarse_grid):
        # the FFT work arrays belong to the map, and a trace goes straight
        # into them: a call allocates its result and little else
        med = _medium(coarse_grid)
        fs = 2 * _window_traces(coarse_grid)
        for measure in (transfer_linearized_nd_map(coarse_grid, med),
                        transfer_difference_nd_map(coarse_grid, med, _EPS)):
            measure(fs)
            tracemalloc.start()
            try:
                out = measure(fs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            returned = sum(tr.values.nbytes for tr in out)
            assert peak <= 1.5 * returned

    def test_work_arrays_hold_fourteen_real_series(self, coarse_grid):
        # the zero-padded input, which the inverse FFT overwrites (4), its
        # spectrum and the contraction's product (4 each), and one output
        # end's term (2); a spectrum of n_fft // 2 + 1 complex samples
        # counts as one real series
        med = _medium(coarse_grid)
        for measure in (transfer_linearized_nd_map(coarse_grid, med),
                        transfer_difference_nd_map(coarse_grid, med, _EPS)):
            assert (sum(arr.nbytes for arr in measure.work)
                    <= 14 * 8 * 2 * (measure.n_fft // 2 + 1))


class TestDifferenceMap:
    def test_kernel_costs_one_time_loop(self, coarse_grid, monkeypatch):
        calls, time_loop = [], solver._time_loop

        def counted(*args, **kwargs):
            calls.append(args[2].shape)
            return time_loop(*args, **kwargs)

        monkeypatch.setattr(solver, "_time_loop", counted)
        med = _medium(coarse_grid)
        fs = [_at_rest(smooth_pulse_trace(coarse_grid, 1.2, 0.3, 4.0, 0.5,
                                          0.7)[0])]
        measure = transfer_difference_nd_map(coarse_grid, med, _EPS)
        # one pass over four rows: the impulse at either end, in either
        # medium
        assert calls == [(coarse_grid.nt, 4, 2)]
        measure(fs)
        measure(fs)
        assert len(calls) == 1
        transfer_difference_nd_map(coarse_grid, med, 0.25)(fs)
        assert len(calls) == 2

    def test_sigma_dot_wrong_length_rejected(self, coarse_grid):
        med = MediumSpec(0.1, np.ones(7))
        with pytest.raises(ConfigurationError,
                           match=r"sigma_dot has shape \(7,\) but the grid"):
            transfer_difference_nd_map(coarse_grid, med, _EPS)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
    def test_bad_eps_rejected(self, coarse_grid, eps):
        with pytest.raises(ConfigurationError,
                           match="eps must be positive and finite"):
            transfer_difference_nd_map(coarse_grid, _medium(coarse_grid), eps)

    @pytest.mark.parametrize("eps, message", [
        (True, "eps must be a real number, got True"),
        ("1e-3", "eps must be a real number, got '1e-3'"),
        (10**400, "eps must be finite, got an int past the float range"),
    ], ids=["bool", "str", "huge_int"])
    def test_non_real_eps_refused(self, coarse_grid, eps, message):
        # True once built the map at eps = 1
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            transfer_difference_nd_map(coarse_grid, _medium(coarse_grid), eps)

    def test_overflowing_sigma_ddot_rejected(self, coarse_grid):
        nx = coarse_grid.nx
        med = MediumSpec(0.1, np.ones(nx), np.full(nx, 1e306))
        with pytest.raises(ConfigurationError,
                           match="eps\\^2 sigma_ddot has a non-finite value"):
            transfer_difference_nd_map(coarse_grid, med, 1e3)


    def test_eps_too_small_to_change_the_medium_refused(self, coarse_grid):
        # sigma0 + eps sigma_dot rounds to sigma0: the full and background
        # traces are identical, and the map once measured zeros
        with pytest.raises(ConfigurationError,
                           match="eps = 1e-200 is too small"):
            transfer_difference_nd_map(coarse_grid, _medium(coarse_grid),
                                       1e-200)

    @pytest.mark.parametrize("ddot", [None, 0.0], ids=["none", "zero"])
    def test_zero_perturbation_gives_a_zero_map(self, ddot, coarse_grid):
        zeros = np.zeros(coarse_grid.nx)
        med = MediumSpec(0.1, zeros, None if ddot is None else zeros + ddot)
        fs = [_at_rest(smooth_pulse_trace(coarse_grid, 1.2, 0.3, 4.0, 0.5,
                                          0.7)[0])]
        (out,) = transfer_difference_nd_map(coarse_grid, med, 1e-200)(fs)
        assert not np.any(out.values)

    @pytest.mark.parametrize("ddot", [0.0, 200.0], ids=["no_ddot", "ddot"])
    @pytest.mark.parametrize("steps_per_dx", [10, 1], ids=["dx/10", "dx"])
    def test_kernel_is_reciprocal_and_mirror_symmetric(self, steps_per_dx,
                                                       ddot):
        # as the linearized kernel is (TestLinearized): K[i, j] is the
        # map's response at end j to a unit sample at end i, with and
        # without experiment 3's second-order term
        grid = support_grid(GridSpec(-1.0, 1.0, 1.0 / 50,
                                     1.0 / (50 * steps_per_dx), 3.0))
        xs = grid.xs
        sigma_dot = np.cos(np.pi * xs) + 0.5 * np.sin(2.0 * np.pi * xs) + 2.0
        sigma_ddot = ddot * np.sin(20.0 * np.pi * xs)
        samples = [BoundaryTrace(g, grid.dt)
                   for g in solver._unit_samples(grid)]
        k, k_mirrored = (
            np.stack([tr.values for tr in transfer_difference_nd_map(
                grid, MediumSpec(0.0, sd, sdd), 1e-3)(samples)])
            for sd, sdd in ((sigma_dot, sigma_ddot),
                            (sigma_dot[::-1], sigma_ddot[::-1])))
        scale = np.max(np.abs(k))
        assert np.max(np.abs(k[0, 1] - k[1, 0])) <= 1e-10 * scale
        assert np.max(np.abs(k - k_mirrored[::-1, ::-1])) <= 1e-10 * scale

    def test_reconstruct_refuses_an_eps_too_small(self):
        # experiment 3's medium, which at eps = 1e-3 reads 1.088%; at
        # 1e-200 the run once returned a0 = 0 and rel_l2 = 1 with no error
        grid = GridSpec(-1.0, 1.0, 0.02, 0.002, 3.0)
        medium, _, mode, _ = experiment_setup(3, grid, 4)
        settings = ReconSettings(grid, N=4, data_mode=mode,
                                 eps_linearization=1e-200)
        with pytest.raises(ConfigurationError, match="eps = 1e-200"):
            reconstruct(settings, medium)

    @pytest.mark.parametrize("dx, dt", [(0.02, 0.002), (1 / 250, 1 / 2500),
                                        (1 / 250, 1 / 250)],
                             ids=["coarse", "paper", "unit_cfl"])
    @pytest.mark.parametrize("eps", [1e-3, 1e-8, 1e-13])
    def test_eps_whose_quotient_is_mostly_rounding_refused(self, dx, dt,
                                                           eps):
        # experiment 3's medium: at eps = 1e-13 the media's traces differ
        # by about 1e-12 of their size, near the loop's rounding of them,
        # and the coarse grid's run once read rel_l2 9.45% with no error
        grid = support_grid(GridSpec(-1.0, 1.0, dx, dt, 3.0))
        medium = experiment_setup(3, grid, 4)[0]
        if eps > 1e-13:
            transfer_difference_nd_map(grid, medium, eps)
        else:
            with pytest.raises(ConfigurationError,
                               match="eps = 1e-13 is too small"):
                transfer_difference_nd_map(grid, medium, eps)

    def test_reconstruct_refuses_an_eps_whose_quotient_is_rounding(self):
        grid = GridSpec(-1.0, 1.0, 0.02, 0.002, 3.0)
        medium, _, mode, _ = experiment_setup(3, grid, 4)
        settings = ReconSettings(grid, N=4, data_mode=mode,
                                 eps_linearization=1e-13)
        with pytest.raises(ConfigurationError,
                           match="eps = 1e-13 is too small"):
            reconstruct(settings, medium)


def _controls(grid, ks=(1, 3)):
    """Every trace of the reconstruction controls of the modes ``ks``."""
    traces = []
    for k in ks:
        pT_f, pT_h, lam = fourier_targets(k, grid)
        for pT in (pT_f, pT_h):
            traces.extend(build_control(pT, lam, grid))
    return traces


# (the map on a grid, its stepper oracle)
_MAPS = {
    "linearized": (transfer_linearized_nd_map, linearized_nd_map_many),
    "nonlinear": (
        lambda grid, med: transfer_difference_nd_map(grid, med, _EPS),
        lambda grid, med, fs: _stepper_quotient(grid, med, _EPS, fs)),
}


@pytest.mark.parametrize("kind", sorted(_MAPS))
def test_transfer_maps_return_real_traces_for_real_data(kind, coarse_grid):
    # the dtype rule of every ND map: data whose imaginary parts are all
    # zero give float64 traces, the real parts of the traces that the same
    # data give in one call with complex data
    f = _at_rest(smooth_pulse_trace(coarse_grid, 1.2, 0.3, 4.0, 0.5, 0.7)[0])
    h = _window_traces(coarse_grid)[0]
    measure = _MAPS[kind][0](coarse_grid, _medium(coarse_grid))
    mixed = measure([f, h])
    assert all(tr.values.dtype == np.complex128 for tr in mixed)
    want = np.ascontiguousarray(mixed[0].values.real)
    for real in (f, BoundaryTrace(f.values.astype(complex), f.dt)):
        (out,) = measure([real])
        assert out.values.dtype == np.float64
        assert out.values.tobytes() == want.tobytes()


def _quiet_grid(quiet):
    """Coarse spacing, with T leaving the controls ``quiet`` quiet steps;
    every such grid has one support grid, of 3007 steps."""
    grid = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 3.0 + quiet / 500)
    assert_quiet(_controls(grid, (1,)), quiet)
    return grid


def _between(traces, start, stop):
    """The samples at steps ``start`` .. ``stop``-1 of ``traces``."""
    return [BoundaryTrace(tr.values[:, start:stop], tr.dt) for tr in traces]


@pytest.mark.parametrize("kind", sorted(_MAPS))
class TestWindow:
    """On the controls' support grid the maps start three steps before the
    controls do: the lead-in of the grid they were made for is gone."""

    @pytest.mark.parametrize("grid_name", ["coarse_grid_t5", "mid_grid"])
    def test_controls_match_the_stepper_and_the_whole_window(
            self, kind, grid_name, request):
        grid = request.getfixturevalue(grid_name)
        short = support_grid(grid)
        s = grid.half_index - short.half_index
        make, oracle = _MAPS[kind]
        med = _medium(grid)
        fs = _controls(short)
        got = make(short, med)(fs)
        assert _max_rel_deviation(got, oracle(short, med, fs)) <= 1e-9
        # the map on the whole grid, at the steps the support grid keeps
        whole = make(grid, med)(_controls(grid))
        assert _max_rel_deviation(
            got, _between(whole, s, grid.nt - s)) <= 1e-12

    def test_window_sizes_the_loop_and_the_transforms(self, kind,
                                                      coarse_grid_t5,
                                                      monkeypatch):
        grid = coarse_grid_t5
        steps, time_loop = [], solver._time_loop

        def counted(*args, **kwargs):
            steps.append(len(args[2]))
            return time_loop(*args, **kwargs)

        monkeypatch.setattr(solver, "_time_loop", counted)
        make = _MAPS[kind][0]
        whole, short = (make(g, _medium(grid))
                        for g in (grid, support_grid(grid)))
        window = grid.nt - 2 * 997
        assert steps == [grid.nt, window]
        assert short.n_fft == solver._fft_length(2 * window - 3)
        assert (sum(arr.nbytes for arr in short.work)
                < 0.65 * sum(arr.nbytes for arr in whole.work))

    def test_a_window_from_step_zero_is_the_whole_map(self, kind,
                                                      coarse_grid):
        # a grid without quiet steps, whose controls start at step 0, is
        # lengthened by three steps at each end: on the support grid they
        # start at step 3, the first the maps take
        make, oracle = _MAPS[kind]
        for grid in (coarse_grid, GridSpec(-1.0, 1.0, 0.04, 0.04, 3.0)):
            short = support_grid(grid)
            fs = _controls(short, (2,))
            assert_quiet(_controls(grid, (2,)), 0)
            assert_quiet(fs, 3)
            assert short.nt == grid.nt + 6
            med = _medium(short)
            assert _max_rel_deviation(make(short, med)(fs),
                                      oracle(short, med, fs)) <= 1e-9

    @pytest.mark.parametrize("quiet", [501, 1500], ids=["mid", "last"])
    def test_data_from_step_quiet_match_the_stepper(self, kind, quiet):
        # step ``quiet`` of the grid is step 3 of its support grid, the
        # first the maps take: O(1) samples from there on, where the
        # controls' are tiny; every quiet gives that support grid, so each
        # draws its own data
        grid = support_grid(_quiet_grid(quiet))
        assert grid.nt == 3007
        make, oracle = _MAPS[kind]
        med = _medium(grid)
        fs = _edge_traces(grid, slice(3, 6), seed=quiet)
        assert _max_rel_deviation(make(grid, med)(fs),
                                  oracle(grid, med, fs)) <= 1e-9


@pytest.mark.parametrize("kind", sorted(_MAPS))
class TestTwoSidedWindow:
    """On the support grid the maps stop three steps after the controls
    do, and measure the field that rings on after them."""

    @pytest.mark.parametrize("grid_name", ["coarse_grid_t5", "mid_grid"])
    def test_controls_match_the_stepper_through_the_window(
            self, kind, grid_name, request):
        grid = support_grid(request.getfixturevalue(grid_name))
        make, oracle = _MAPS[kind]
        med = _medium(grid)
        fs = _controls(grid)
        for tr in fs:  # zero in the last three steps
            assert not np.any(tr.values[:, -3:])
        got = make(grid, med)(fs)
        assert _max_rel_deviation(got, oracle(grid, med, fs)) <= 1e-9
        assert all(np.any(tr.values[0, -3:]) for tr in got)

    @pytest.mark.parametrize("quiet", [1, 2, 3])
    def test_a_window_to_the_last_step_is_the_one_sided_map(self, kind,
                                                            quiet):
        # a grid with fewer than three quiet steps is lengthened to three at
        # each end, and one with three is its own support grid: the
        # controls stop at step nt - 4, the last the maps take
        grid = GridSpec(-1.0, 1.0, 1.0 / 32, 1.0 / 64, 3.0 + quiet / 64)
        short = support_grid(grid)
        fs = _controls(short, (2,))
        assert_quiet(_controls(grid, (2,)), quiet)
        assert_quiet(fs, 3)
        assert short.nt == grid.nt + 2 * (3 - quiet)
        assert (short == grid) == (quiet == 3)
        make, oracle = _MAPS[kind]
        med = _medium(short)
        assert _max_rel_deviation(make(short, med)(fs),
                                  oracle(short, med, fs)) <= 1e-9

    @pytest.mark.parametrize("before_tail", [2500, 1501],
                             ids=["mid", "first"])
    def test_data_up_to_the_tail_match_the_stepper(self, kind, before_tail):
        # the last step before the grid's last nt - before_tail quiet steps
        # is step nt - 4 of its support grid, the last the maps take: O(1)
        # samples there and at the two steps before it; every before_tail
        # gives that support grid, so each draws its own data
        grid = support_grid(_quiet_grid(3001 - before_tail))
        make, oracle = _MAPS[kind]
        med = _medium(grid)
        fs = _edge_traces(grid, slice(grid.nt - 6, grid.nt - 3),
                          seed=before_tail)
        assert _max_rel_deviation(make(grid, med)(fs),
                                  oracle(grid, med, fs)) <= 1e-9

    def test_paper_grid_window_sizes(self, kind, monkeypatch):
        # the loop is replaced by traces of its traces' shape, each row a
        # constant of its own, so that the difference map's media differ:
        # only the sizes are under test
        grid = support_grid(GridSpec(-1.0, 1.0, 1.0 / 250, 1.0 / 2500, 5.0))
        steps = []

        def constants(grid, stencil, inj, last, source):
            steps.append(len(inj))
            traces = np.zeros(inj.shape[1:] + inj.shape[:1],
                              np.result_type(inj, *stencil))
            traces += np.arange(len(last))[:, None, None]
            return traces, []

        monkeypatch.setattr(solver, "_time_loop", constants)
        measure = _MAPS[kind][0](grid, _medium(grid))
        # 15007 steps, of which the loop takes 1 .. 15005
        assert grid.nt == 15007
        assert steps == [15007]
        assert measure.n_fft == 30375
        # 3.40 MB of work arrays, 0.97 MB of transfer matrices
        assert (sum(arr.nbytes for arr in measure.work)
                == 4 * 8 * 30375 + 10 * 16 * (30375 // 2 + 1) == 3402080)
        assert measure.transfer.nbytes == 4 * 16 * (30375 // 2 + 1) == 972032


@pytest.mark.parametrize("data_mode", [LINEARIZED, NONLINEAR_DIFFERENCE])
def test_measurement_skips_the_controls_lead_in(coarse_grid_t5, data_mode,
                                                monkeypatch):
    # reconstruct measures on the support grid, noisy or not: of the 1000
    # quiet steps at either end, 3 are left
    grid = coarse_grid_t5
    short = support_grid(grid)
    assert_quiet(_controls(grid), 1000)
    assert_quiet(_controls(short), 3)
    assert short.nt == grid.nt - 2 * 997
    grids, measurement = [], ReconSettings.measurement

    def spy(self, medium):
        grids.append(self.grid)
        return measurement(self, medium)

    monkeypatch.setattr(ReconSettings, "measurement", spy)
    sig = smooth_sigma_dot(grid.xs)
    reconstruct(ReconSettings(grid=grid, N=2, data_mode=data_mode,
                              noise_eps=0.05), MediumSpec(0.0, sig))
    assert grids == [short]


_TRANSFER_MAPS = {
    "linearized": lambda grid: transfer_linearized_nd_map(
        grid, MediumSpec(0.0, smooth_sigma_dot(grid.xs))),
    "nonlinear": lambda grid: transfer_difference_nd_map(
        grid, MediumSpec(0.2, smooth_sigma_dot(grid.xs)), 1e-3),
}


@pytest.mark.parametrize("kind", sorted(_TRANSFER_MAPS))
class TestTransferValidation:
    def test_cfl_violation(self, kind):
        with pytest.raises(ConfigurationError, match="CFL"):
            g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 25, 3.0)  # dt > dx
            _TRANSFER_MAPS[kind](g)

    def test_trace_length_mismatch(self, kind, coarse_grid):
        bad = BoundaryTrace(np.zeros((2, 11)), coarse_grid.dt)
        with pytest.raises(ConfigurationError, match="Neumann trace 0"):
            _TRANSFER_MAPS[kind](coarse_grid)([bad])

    @pytest.mark.parametrize("end, step", [(0, 0), (1, 2), (0, -3), (1, -1)],
                             ids=["a-0", "b-2", "a-nt-3", "b-nt-1"])
    def test_data_not_at_rest_at_the_grid_ends_refused(self, kind,
                                                       coarse_grid, end,
                                                       step):
        # however small, a sample within _REACH steps of either end is
        # refused by the maps and taken by the stepper
        values = np.zeros((2, coarse_grid.nt), dtype=complex)
        values[end, step] = 1e-300j
        fs = [BoundaryTrace.zeros(coarse_grid),
              BoundaryTrace(values, coarse_grid.dt)]
        with pytest.raises(ConfigurationError,
                           match="Neumann trace 1 is nonzero within 3 steps "
                                 "of an end of the grid"):
            _TRANSFER_MAPS[kind](coarse_grid)(fs)
        solve_many(coarse_grid, 0.2, fs)

    @pytest.mark.parametrize("bad", _NON_FINITE.values(), ids=_NON_FINITE)
    def test_non_finite_sample_rejected(self, kind, coarse_grid, bad):
        with pytest.raises(ConfigurationError,
                           match="Neumann trace 1 has a non-finite sample"):
            _TRANSFER_MAPS[kind](coarse_grid)(_one_bad_sample(coarse_grid, bad))

    def test_batched_matches_single(self, kind, coarse_grid):
        # a batch must not mix up traces, fields or ends
        pulse, _ = smooth_pulse_trace(coarse_grid, 1.2, 0.3, 4.0, 0.5, 0.7)
        fs = _window_traces(coarse_grid) + [
            BoundaryTrace((1.0 - 0.5j) * _at_rest(pulse).values, pulse.dt)]
        measure = _TRANSFER_MAPS[kind](coarse_grid)
        batched = measure(fs)
        for f, got in zip(fs, batched, strict=True):
            (single,) = measure([f])
            assert np.array_equal(got.values, single.values)


@pytest.mark.parametrize("kind", ["stepper", "snapshots"])
def test_initial_data_warning_names_the_caller(kind, coarse_grid):
    # the transfer maps refuse such data instead
    solve = {"stepper": solve_many, "snapshots": snapshots_many}[kind]
    ts = coarse_grid.ts
    f = BoundaryTrace(np.stack((np.cos(ts), np.zeros_like(ts))),
                      coarse_grid.dt)
    with pytest.warns(UserWarning, match="Neumann data nonzero") as record:
        line = inspect.currentframe().f_lineno + 1
        solve(coarse_grid, 0.0, [f])
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]
