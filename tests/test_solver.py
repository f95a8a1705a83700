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
    solve_many,
    transfer_difference_nd_map,
    transfer_linearized_nd_map,
)
from bcm1d import solver
from bcm1d.cli import _mms_error, smooth_pulse_trace

from conftest import smooth_sigma_dot


def _fields(out):
    return (out.dirichlet.values_a, out.dirichlet.values_b,
            out.pT_snapshot, out.qT_snapshot, out.uT_snapshot)


def test_zero_data_zero_solution(coarse_grid):
    (out,) = solve_many(coarse_grid, 0.3, [BoundaryTrace.zeros(coarse_grid)])
    assert np.all(out.dirichlet.values_a == 0)
    assert np.all(out.dirichlet.values_b == 0)
    assert np.all(out.pT_snapshot == 0)
    assert np.all(out.qT_snapshot == 0)


def test_manufactured_solution_second_order():
    errs = []
    for n in (25, 50):
        with pytest.warns(UserWarning, match="source nonzero"):
            errs.append(_mms_error(GridSpec(-1.0, 1.0, 1.0 / n,
                                            1.0 / (10 * n), 3.0)))
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_real_data_real_field(coarse_grid):
    f, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.5)
    (out,) = solve_many(coarse_grid, 0.2, [f])
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
    (out_c,), (out_r,), (out_i,) = (solve_many(coarse_grid, sigma, [f])
                                    for f in (fr + 1j * fi, fr, fi))
    for c, r, i in zip(_fields(out_c), _fields(out_r), _fields(out_i)):
        assert np.iscomplexobj(c)
        assert np.array_equal(c, r + 1j * i)


def test_complex_linearized_equals_pair_of_real_passes(coarse_grid):
    fr, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.4)
    fi, _ = smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)
    med = MediumSpec(0.1, smooth_sigma_dot(coarse_grid.xs))
    (out_c,), (out_r,), (out_i,) = (
        linearized_nd_map_many(coarse_grid, med, [f])
        for f in (fr + 1j * fi, fr, fi))
    for side in ("values_a", "values_b"):
        c, r, i = (getattr(out, side) for out in (out_c, out_r, out_i))
        assert np.array_equal(c, r + 1j * i)


@pytest.mark.filterwarnings("ignore:source nonzero at t = 0")
def test_complex_source_matches_real_source(coarse_grid):
    # the same source as float64 runs a real field, as complex a complex one
    xs, dt = coarse_grid.xs, coarse_grid.dt
    sigma = 0.3 * (1 + xs**2)

    def source(n):
        t = n * dt
        return (2 + 2 * t * sigma + np.pi**2 * t**2) * np.cos(np.pi * xs)

    zero = [BoundaryTrace.zeros(coarse_grid)]
    (real,) = solve_many(coarse_grid, sigma, zero, source)
    (cplx,) = solve_many(coarse_grid, sigma, zero,
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
        solve_many(coarse_grid, sigma, zero, part)
        for part in (source, lambda n: source(n).real,
                     lambda n: source(n).imag))
    for c, r, i in zip(_fields(out_c), _fields(out_r), _fields(out_i)):
        assert np.array_equal(c, r + 1j * i)


def test_source_called_once_per_step_in_order(coarse_grid):
    # nt - 2 = 2999 is prime, so the last block of source steps is partial
    nt = coarse_grid.nt
    assert nt - 2 == 2999
    calls = []

    def source(n):
        calls.append(n)
        return np.zeros(coarse_grid.nx)

    solve_many(coarse_grid, 0.2, [BoundaryTrace.zeros(coarse_grid)], source)
    assert calls == list(range(nt - 1))


def _trace_sources(grid):
    """Two sources that vanish at t = 0 and have a slope at both ends."""
    xs, dt = grid.xs, grid.dt
    profiles = ((xs - grid.a) * (1.0 + 0.5 * xs), np.cos(2.0 * xs) + xs**3)
    return [lambda n, p=p: (n * dt) ** 2 * (1.0 + n * dt) * p for p in profiles]


@pytest.mark.parametrize("shared", [False, True], ids=["per_trace", "shared"])
def test_source_rows_across_blocks_match_single_solves(coarse_grid, shared):
    # a (traces, nx) source gives each trace its own row, an (nx,) one is
    # applied to every trace; the run spans many blocks of source steps
    assert coarse_grid.nt - 2 > 2 * solver._BLOCK
    fs = [smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.4)[0],
          smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)[0]]
    sigma = 0.1 + 0.2 * coarse_grid.xs**2
    sources = _trace_sources(coarse_grid)
    if shared:
        sources[1] = sources[0]
        batch = solve_many(coarse_grid, sigma, fs, sources[0])
    else:
        batch = solve_many(coarse_grid, sigma, fs,
                           lambda n: np.stack([s(n) for s in sources]))
    for f, source, out in zip(fs, sources, batch):
        (single,) = solve_many(coarse_grid, sigma, [f], source)
        for b, o in zip(_fields(out), _fields(single)):
            assert np.array_equal(b, o)


def test_nd_map_linearity(coarse_grid):
    f1, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.0)
    f2, _ = smooth_pulse_trace(coarse_grid, 1.4, 0.3, 3.0, 0.0, 1.0)
    al, be = 2.0 - 1.0j, 0.7
    combo, m1, m2 = (solve_many(coarse_grid, 0.25, [f])[0].dirichlet
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
                      solve_many(coarse_grid, sigma, [f_t, f]))
    for side in ("values_a", "values_b"):
        fd = np.gradient(getattr(meas, side), coarse_grid.dt, edge_order=2)
        err = np.max(np.abs(fd - getattr(meas_dot, side)))
        assert err <= 5e-3 * np.max(np.abs(getattr(meas_dot, side)))


def test_energy_non_increasing_after_data_stops(coarse_grid):
    # the pulse is gone well before t = 2; each window's snapshots at T give
    # the energy 1/2 int |p|^2 + 1/2 int |q|^2 at t = T
    dt, dx = coarse_grid.dt, coarse_grid.dx
    energies = []
    for T in np.arange(3.0, 5.001, 0.25):
        grid = GridSpec(coarse_grid.a, coarse_grid.b, dx, dt, T)
        f, _ = smooth_pulse_trace(grid, 1.0, 0.15, 6.0, 1.0, 0.0)
        (out,) = solve_many(grid, 0.3, [f])
        energies.append(0.5 * np.trapezoid(np.abs(out.pT_snapshot) ** 2, dx=dx)
                        + 0.5 * np.trapezoid(np.abs(out.qT_snapshot) ** 2, dx=dx))
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
        med = lambda s: MediumSpec(0.0, s)
        lin = lambda s: linearized_nd_map_many(coarse_grid, med(s), [f])[0]
        combo = lin(al * s1 + be * s2)
        separate = al * lin(s1) + be * lin(s2)
        assert np.allclose(combo.values_a, separate.values_a, rtol=1e-12, atol=1e-15)

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
        f = f + 0.5j * smooth_pulse_trace(coarse_grid, 1.3, 0.25, 3.0, 0.2, 1.0)[0]
        sigma_dot = np.cos(np.pi * xs) + 2.0 + xs

        def measure(c):
            sd, data = ((c * sigma_dot, f) if scaled == "sigma_dot"
                        else (sigma_dot, c * f))
            return linearized_map(coarse_grid, MediumSpec(0.1, sd), [data])

        (ref,), (got,) = measure(1.0), measure(scale)
        assert _max_rel_deviation([got * (1.0 / scale)], [ref]) <= 1e-12

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
            diff = pert.dirichlet - base.dirichlet
            resid = diff - eps * lin
            errs.append(max(np.max(np.abs(resid.values_a)),
                            np.max(np.abs(resid.values_b))))
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
                                      [f])[0].dirichlet for e in (eps, -eps))
            quotient = (plus - minus) * (1.0 / (2.0 * eps))
            gaps.append(_max_rel_deviation([quotient], [lin]))
        assert gaps[0] / gaps[1] > 50
        assert gaps[1] / gaps[2] > 50


def test_injection_applies_the_documented_formula(coarse_grid):
    # the formula lives in code only as the tap table of _weights; a complex
    # sigma_end is a complex-step medium's
    grid = coarse_grid
    sigma_ends = np.array([[0.2, 0.7], [0.2 - 1.1j, 0.7 + 2.5j]])  # (field, end)
    rng = np.random.default_rng(11)
    g = (rng.standard_normal((3, 2, grid.nt))
         + 1j * rng.standard_normal((3, 2, grid.nt)))  # (traces, end, steps)
    inj = solver._injection(solver._weights(grid, sigma_ends.ravel()), g)
    g_t = np.gradient(g, grid.dt, axis=-1)
    g_tt = np.gradient(g_t, grid.dt, axis=-1)
    dx = grid.dx
    expected = (2.0 / dx) * g + (dx / 3.0) * (
        g_tt + sigma_ends[:, None, :, None] * g_t)
    assert inj.shape == expected.shape
    per_field = (1, 2, 3)
    assert np.all(np.max(np.abs(inj - expected), axis=per_field)
                  <= 1e-13 * np.max(np.abs(expected), axis=per_field))


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
            solve_many(g, 0.0, [BoundaryTrace.zeros(g)])

    def test_sigma_length_mismatch(self, coarse_grid):
        with pytest.raises(ConfigurationError):
            solve_many(coarse_grid, np.zeros(7),
                       [BoundaryTrace.zeros(coarse_grid)])

    @pytest.mark.parametrize("nonlinear_map", [solve_many])
    def test_sigma_bad_shape_named(self, coarse_grid, nonlinear_map):
        nx = coarse_grid.nx
        with pytest.raises(ConfigurationError,
                           match=rf"sigma has shape \({nx}, 1\) but the grid"):
            nonlinear_map(coarse_grid, np.zeros((nx, 1)),
                          [BoundaryTrace.zeros(coarse_grid)])

    @pytest.mark.parametrize("nonlinear_map", [solve_many])
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

    def test_trace_length_mismatch(self, coarse_grid):
        bad = BoundaryTrace(np.zeros(11), np.zeros(11), coarse_grid.dt)
        with pytest.raises(ConfigurationError):
            solve_many(coarse_grid, 0.0, [bad])

    def test_nonzero_initial_data_warns(self, coarse_grid):
        f = BoundaryTrace.from_functions(coarse_grid, np.cos, np.zeros_like)
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            solve_many(coarse_grid, 0.0, [f])

    @pytest.mark.parametrize("bad", _NON_FINITE.values(), ids=_NON_FINITE)
    def test_non_finite_sample_rejected(self, coarse_grid, bad):
        with pytest.raises(ConfigurationError,
                           match="Neumann trace 1 has a non-finite sample"):
            solve_many(coarse_grid, 0.0, _one_bad_sample(coarse_grid, bad))

    def test_source_complex_after_real_start_rejected(self, coarse_grid):
        # a real S(0) makes the field real, which cannot take a complex S(t_n)
        nx = coarse_grid.nx
        with pytest.raises(ConfigurationError,
                           match="source is complex at step 1 but real at step 0"):
            solve_many(coarse_grid, 0.0, [BoundaryTrace.zeros(coarse_grid)],
                       lambda n: np.zeros(nx) if n == 0 else 1j * np.ones(nx))

    @pytest.mark.parametrize("last", [False, True],
                             ids=["second_block", "last_step"])
    def test_source_complex_mid_run_rejected(self, coarse_grid, last):
        nx, nt = coarse_grid.nx, coarse_grid.nt
        step = nt - 2 if last else solver._BLOCK + 5
        with pytest.raises(ConfigurationError,
                           match=f"source is complex at step {step} but real"):
            solve_many(coarse_grid, 0.0, [BoundaryTrace.zeros(coarse_grid)],
                       lambda n: np.zeros(nx) + (1j if n >= step else 0.0))

    def test_batched_matches_single(self, coarse_grid):
        f1, _ = smooth_pulse_trace(coarse_grid, 1.0, 0.2, 5.0, 1.0, 0.0)
        f2, _ = smooth_pulse_trace(coarse_grid, 1.5, 0.3, 2.0, 0.3, 1.0)
        outs = solve_many(coarse_grid, 0.15, [f1, f2])
        for f, out in zip((f1, f2), outs):
            (single,) = solve_many(coarse_grid, 0.15, [f])
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
    return [out.dirichlet for out in solve_many(grid, sigma, fs)]


def _stepper_quotient(grid, medium, eps, fs):
    """(Lambda(sigma0 + eps sigma_dot + eps^2 sigma_ddot) - Lambda(sigma0)) / eps
    from two stepper solves."""
    full = medium.sigma0 + eps * medium.sigma_dot + eps**2 * medium.sigma_ddot
    return [(f - b) * (1.0 / eps) for f, b in
            zip(_stepper(grid, full, fs), _stepper(grid, medium.sigma0, fs))]


def _medium(grid):
    xs = grid.xs
    return MediumSpec(0.1, smooth_sigma_dot(xs) + xs,
                      0.3 * np.cos(2.0 * np.pi * xs))


# at eps = 1e-3 the stepper quotient's own cancellation reaches 4e-9
_EPS = 0.5


@pytest.mark.filterwarnings("ignore:Neumann data nonzero at t = 0")
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

    @pytest.mark.parametrize("window", [slice(0, 3), slice(-3, None)],
                             ids=["first-three", "last-three"])
    def test_window_end_samples_match_stepper(self, coarse_grid, window):
        # only there do the stepper's signals depart from the filtered data
        med = _medium(coarse_grid)
        fs = _edge_traces(coarse_grid, window)
        assert _max_rel_deviation(
            transfer_linearized_nd_map(coarse_grid, med)(fs),
            linearized_nd_map_many(coarse_grid, med, fs),
        ) <= 1e-9
        assert _max_rel_deviation(
            transfer_difference_nd_map(coarse_grid, med, _EPS)(fs),
            _stepper_quotient(coarse_grid, med, _EPS, fs),
        ) <= 1e-9

    def test_kernels_are_two_by_two_transfer_matrices(self, coarse_grid):
        # both maps drive 4 signals, signal s at end s % 2; the signals of
        # one input end add up into its row of the matrix
        rng = np.random.default_rng(0)
        responses = rng.standard_normal((coarse_grid.nt, 4, 2))
        weights = rng.standard_normal((4, 3))
        kernel = solver._kernel(coarse_grid, responses, weights)
        assert kernel.transfer.shape == (2, 2, kernel.n_fft // 2 + 1)
        assert kernel.responses.shape == (4, 2, coarse_grid.nt - 2)
        for arr in (kernel.transfer, kernel.responses, kernel.weights):
            assert not arr.flags.writeable

    def test_transfer_maps_build_no_injection_signals(self, coarse_grid,
                                                      coarse_grid_t5,
                                                      monkeypatch):
        # only the edge terms call _injection, on a few steps, and only for
        # data nonzero among the three samples nearest a window end
        calls, injection = [], solver._injection

        def few_steps(weights, g):
            if g.shape[-1] >= coarse_grid.nt:
                raise AssertionError(
                    "the transfer backend built injection signals")
            calls.append(g.shape[-1])
            return injection(weights, g)

        monkeypatch.setattr(solver, "_injection", few_steps)
        med = _medium(coarse_grid)
        fs = _window_traces(coarse_grid)
        transfer_linearized_nd_map(coarse_grid, med)(fs)
        transfer_difference_nd_map(coarse_grid, med, _EPS)(fs)
        assert calls  # these data are nonzero at both window ends
        calls.clear()
        # the reconstruction controls vanish there
        pT_f, pT_h, lam = fourier_targets(1, coarse_grid_t5)
        controls = [build_control(pT, lam, coarse_grid_t5).f
                    for pT in (pT_f, pT_h)]
        med = _medium(coarse_grid_t5)
        transfer_linearized_nd_map(coarse_grid_t5, med)(controls)
        transfer_difference_nd_map(coarse_grid_t5, med, _EPS)(controls)
        assert calls == []

    @pytest.mark.parametrize("data_mode", [LINEARIZED, NONLINEAR_DIFFERENCE])
    def test_acquired_data_at_minimal_window_match_stepper(self, data_mode):
        # with T at its minimum (b - a) + 1 the reconstruction controls are
        # nonzero among the three samples nearest each window end, so the
        # edge terms of the transfer maps do real work
        grid = GridSpec(-1.0, 1.0, 0.04, 0.04, 3.0)
        med = _medium(grid)
        settings = ReconSettings(grid=grid, N=5, data_mode=data_mode,
                                 eps_linearization=1e-3)
        measure = settings.measurement(med)
        for k in (1, 3, 5):
            pT_f, pT_h, lam = fourier_targets(k, grid)
            bf, bh = (build_control(pT, lam, grid) for pT in (pT_f, pT_h))
            driven = [bf.f_t, bf.f_tt, bh.f_t, bh.f_tt, bf.f, bh.f]
            for tr in driven:
                g = np.stack((tr.values_a, tr.values_b))
                assert np.any(g[:, :3]) and np.any(g[:, -3:])
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
            assert np.array_equal(again.values_a, old.values_a)
            assert np.array_equal(again.values_b, old.values_b)


class TestDifferenceMap:
    def test_kernel_costs_one_time_loop(self, coarse_grid, monkeypatch):
        calls, time_loop = [], solver._time_loop

        def counted(*args, **kwargs):
            calls.append(args[2].shape)
            return time_loop(*args, **kwargs)

        monkeypatch.setattr(solver, "_time_loop", counted)
        med = _medium(coarse_grid)
        fs = [smooth_pulse_trace(coarse_grid, 1.2, 0.3, 4.0, 0.5, 0.7)[0]]
        measure = transfer_difference_nd_map(coarse_grid, med, _EPS)
        # one pass over rows (media, impulse end)
        assert calls == [(coarse_grid.nt, 2, 2, 2)]
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

    def test_overflowing_sigma_ddot_rejected(self, coarse_grid):
        nx = coarse_grid.nx
        med = MediumSpec(0.1, np.ones(nx), np.full(nx, 1e306))
        with pytest.raises(ConfigurationError,
                           match="eps\\^2 sigma_ddot has a non-finite value"):
            transfer_difference_nd_map(coarse_grid, med, 1e3)


_TRANSFER_MAPS = {
    "linearized": lambda grid: transfer_linearized_nd_map(
        grid, MediumSpec(0.0, smooth_sigma_dot(grid.xs))),
    "nonlinear": lambda grid: transfer_difference_nd_map(
        grid, MediumSpec(0.2, smooth_sigma_dot(grid.xs)), 1e-3),
}


@pytest.mark.parametrize("kind", sorted(_TRANSFER_MAPS))
class TestTransferValidation:
    def test_cfl_violation(self, kind):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 25, 3.0)  # dt > dx
        with pytest.raises(ConfigurationError, match="CFL"):
            _TRANSFER_MAPS[kind](g)

    def test_trace_length_mismatch(self, kind, coarse_grid):
        bad = BoundaryTrace(np.zeros(11), np.zeros(11), coarse_grid.dt)
        with pytest.raises(ConfigurationError, match="Neumann trace 0"):
            _TRANSFER_MAPS[kind](coarse_grid)([bad])

    def test_nonzero_initial_data_warns(self, kind, coarse_grid):
        f = BoundaryTrace.from_functions(coarse_grid, np.cos, np.zeros_like)
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            _TRANSFER_MAPS[kind](coarse_grid)([f])

    def test_initial_data_warning_scale_is_per_trace(self, kind, coarse_grid):
        # a small t = 0 sample warns next to a trace a million times larger
        nt = coarse_grid.nt
        small = np.zeros(nt)
        small[0] = 1e-6
        large = 1e6 * np.sin(np.pi * coarse_grid.ts)
        fs = [BoundaryTrace(np.zeros(nt), large, coarse_grid.dt),
              BoundaryTrace(small, np.zeros(nt), coarse_grid.dt)]
        with pytest.warns(UserWarning, match="Neumann data nonzero"):
            _TRANSFER_MAPS[kind](coarse_grid)(fs)

    @pytest.mark.parametrize("bad", _NON_FINITE.values(), ids=_NON_FINITE)
    def test_non_finite_sample_rejected(self, kind, coarse_grid, bad):
        with pytest.raises(ConfigurationError,
                           match="Neumann trace 1 has a non-finite sample"):
            _TRANSFER_MAPS[kind](coarse_grid)(_one_bad_sample(coarse_grid, bad))

    @pytest.mark.filterwarnings("ignore:Neumann data nonzero at t = 0")
    def test_batched_matches_single(self, kind, coarse_grid):
        # a batch must not mix up traces, fields or ends
        pulse, _ = smooth_pulse_trace(coarse_grid, 1.2, 0.3, 4.0, 0.5, 0.7)
        fs = _window_traces(coarse_grid) + [(1.0 - 0.5j) * pulse]
        measure = _TRANSFER_MAPS[kind](coarse_grid)
        batched = measure(fs)
        for f, got in zip(fs, batched, strict=True):
            (single,) = measure([f])
            assert np.array_equal(got.values_a, single.values_a)
            assert np.array_equal(got.values_b, single.values_b)
