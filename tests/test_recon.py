import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from bcm1d import (
    BoundaryTrace,
    ConfigurationError,
    FourierCoeffs,
    GridSpec,
    MediumSpec,
    ReconSettings,
    UnsupportedRegimeError,
    acquire_clean_pair_data,
    add_noise,
    apply_measurement_noise,
    error_metrics,
    fourier_targets,
    reconstruct,
    reconstruct_from_data,
    synthesize,
)
from bcm1d import recon
from bcm1d.cli import projection_truth
from bcm1d.control import support_grid
from conftest import smooth_sigma_dot


class TestFourierTargets:
    def test_first_mode_parameter(self, coarse_grid):
        pT_f, pT_h, lam = fourier_targets(1, coarse_grid)
        assert np.isclose(lam, 1j * np.pi / 2)

    def test_values_at_origin(self, coarse_grid):
        for k in (1, 3, 7):
            pT_f, pT_h, _ = fourier_targets(k, coarse_grid)
            assert pT_f(0.0)[0] == 0.0
            assert pT_h(0.0)[0] == 1.0

    def test_pythagorean_identity(self, coarse_grid):
        xs = coarse_grid.xs
        pT_f, pT_h, _ = fourier_targets(5, coarse_grid)
        assert np.allclose(pT_f(xs)[0] ** 2 + pT_h(xs)[0] ** 2, 1.0)

    def test_invalid_mode(self, coarse_grid):
        with pytest.raises(ValueError):
            fourier_targets(0, coarse_grid)

    @pytest.mark.parametrize("k", [1.5, 2.0, True, "1"],
                             ids=["half", "float", "bool", "str"])
    def test_non_integer_mode_refused(self, k, coarse_grid):
        # k = 1.5 gave a target at kappa = 1.5 pi / 2, outside the basis
        message = f"^mode index must be an integer, got {k!r}$"
        with pytest.raises(ValueError, match=message):
            fourier_targets(k, coarse_grid)


class TestAddNoise:
    def _trace(self, n=25001, seed=3):
        z = np.random.default_rng(seed).standard_normal((2, 2, n))
        return BoundaryTrace(z[:, 0] + 1j * z[:, 1], 4e-4)

    def test_zero_eps_identity(self):
        tr = self._trace()
        assert add_noise(tr, 0.0, np.random.default_rng(0)) is tr

    def test_zero_trace_unchanged(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        out = add_noise(z, 0.05, np.random.default_rng(0))
        assert np.all(out.values == 0)

    def test_empirical_noise_level(self):
        # across 2 x 25001 samples the empirical std of the perturbation
        # matches the requested relative level to a few percent
        tr = self._trace()
        eps = 0.01
        noisy = add_noise(tr, eps, np.random.default_rng(11))
        delta = noisy.values - tr.values
        rms = np.sqrt(np.mean(np.abs(tr.values) ** 2))
        measured = np.sqrt(np.mean(np.abs(delta) ** 2))
        assert abs(measured - eps * rms) <= 0.05 * eps * rms

    def test_real_imag_parts_independent(self):
        tr = self._trace(n=50001)
        noisy = add_noise(tr, 0.02, np.random.default_rng(5))
        delta = noisy.values[0] - tr.values[0]
        corr = np.corrcoef(delta.real, delta.imag)[0, 1]
        assert abs(corr) < 0.05

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            add_noise(self._trace(n=100), -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=rf"eps must be finite.*, got {eps}$"):
            add_noise(self._trace(n=100), eps, np.random.default_rng(0))

    @pytest.mark.parametrize("eps, message", [
        (True, "eps must be a real number, got True"),
        ("0.1", "eps must be a real number, got '0.1'"),
        (1 + 0j, r"eps must be a real number, got \(1\+0j\)"),
        (np.array([0.1]), r"eps must be a real number, got array"),
        (10**400, "eps must be finite, got an int past the float range"),
    ], ids=["bool", "str", "complex", "array", "huge_int"])
    def test_non_real_eps_refused(self, eps, message):
        # True once ran at 100 % noise
        with pytest.raises(ConfigurationError, match=f"^{message}"):
            add_noise(self._trace(n=100), eps, np.random.default_rng(0))


@pytest.fixture(scope="module")
def pair_data(coarse_support_grid):
    grid = coarse_support_grid
    medium = MediumSpec(0.0, smooth_sigma_dot(grid.xs))
    measure = ReconSettings(grid=grid, N=1).measurement(medium)
    return acquire_clean_pair_data(1, grid, measure)


class TestNoiseDeterminism:
    def test_same_seed_bitwise_identical(self, pair_data):
        n1 = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        n2 = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        assert np.array_equal(n1.f.meas_t.values[0], n2.f.meas_t.values[0])
        assert np.array_equal(n1.h.meas_tt.values[1], n2.h.meas_tt.values[1])

    def test_different_seeds_differ(self, pair_data):
        n1 = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        n2 = apply_measurement_noise(pair_data, 1, 0.01, seed=43)
        assert not np.array_equal(n1.f.meas_t.values[0], n2.f.meas_t.values[0])

    def test_roles_get_independent_streams(self, pair_data):
        noisy = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        d1 = noisy.f.meas_t.values[0] - pair_data.f.meas_t.values[0]
        d2 = noisy.h.meas_t.values[0] - pair_data.h.meas_t.values[0]
        # identical streams would give perfectly correlated increments
        scale1 = np.sqrt(np.mean(np.abs(d1) ** 2))
        scale2 = np.sqrt(np.mean(np.abs(d2) ** 2))
        corr = np.abs(np.vdot(d1, d2)) / (len(d1) * scale1 * scale2)
        assert corr < 0.05

    def test_mode_index_changes_stream(self, pair_data):
        n1 = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        n2 = apply_measurement_noise(pair_data, 2, 0.01, seed=42)
        assert not np.array_equal(n1.f.meas_t.values[0], n2.f.meas_t.values[0])

    def test_substream_labels_pinned(self, coarse_support_grid):
        # the (mode, label) spawn keys fix every noisy output; moving a label
        # changes the noisy results of every earlier run
        grid = coarse_support_grid
        medium = MediumSpec(0.0, smooth_sigma_dot(grid.xs))
        settings = ReconSettings(grid=grid, N=2)
        k, eps, seed = 2, 0.03, 11
        clean = acquire_clean_pair_data(k, grid, settings.measurement(medium))
        noisy = apply_measurement_noise(clean, k, eps, seed)
        labels = {("f", "meas_t"): 0, ("f", "meas_tt"): 1, ("h", "meas_t"): 2,
                  ("h", "meas_tt"): 3}
        for (control, field), label in labels.items():
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(k, label)))
            want = add_noise(getattr(getattr(clean, control), field), eps,
                             rng)
            got = getattr(getattr(noisy, control), field)
            assert np.array_equal(got.values, want.values)


def test_noise_level_is_the_same_at_every_T():
    # one control's measured trace on the support grids of two grids that
    # differ only in T: one grid, so one eps gives one noise level; unit
    # draws make the noise std * (1 + 1j) at every sample
    class UnitDraws:
        def standard_normal(self, n):
            return np.ones(n)

    stds = []
    for T in (4.0, 5.0):
        grid = support_grid(GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, T))
        medium = MediumSpec(0.0, smooth_sigma_dot(grid.xs))
        measure = ReconSettings(grid=grid, N=1).measurement(medium)
        trace = acquire_clean_pair_data(1, grid, measure).f.meas_t
        noise = add_noise(trace, 0.05, UnitDraws()).values - trace.values
        stds.append(np.median(noise[0].real))
    assert stds[0] > 0
    assert stds[1] == pytest.approx(stds[0], rel=1e-9)


class TestAssembleAndSynthesize:
    def test_zero_values(self, coarse_support_grid):
        # the free medium's data give identity values, and moments, of zero
        grid = coarse_support_grid
        settings = ReconSettings(grid=grid, N=3)
        measure = settings.measurement(MediumSpec(0.0, np.zeros(grid.nx)))
        data = (acquire_clean_pair_data(k, grid, measure) for k in (1, 2, 3))
        coeffs = reconstruct_from_data(data, settings)
        assert coeffs.a0 == 0 and np.all(coeffs.a == 0) and np.all(coeffs.b == 0)
        assert np.all(synthesize(coeffs, grid) == 0)

    def test_double_angle_map(self, coarse_grid, monkeypatch):
        # a distinct identity value for each pair and mode, exact in floats
        base = {("f", "f"): 1 + 2j, ("h", "h"): 5 - 3j, ("f", "h"): 7 + 11j}

        def rhs(x, y, lam, grid):
            return base[x, y] * 10**lam + lam

        monkeypatch.setattr(recon, "linearized_rhs", rhs)
        settings = ReconSettings(grid=coarse_grid, N=3)
        coeffs = reconstruct_from_data(
            (recon.ModeData(k, "f", "h") for k in (1, 2, 3)), settings)
        S_ff, S_hh, S_fh = (np.array([rhs(x, y, k, None) for k in (1, 2, 3)])
                            for x, y in base)
        assert coeffs.N == 3
        assert coeffs.a0 == S_hh[0] + S_ff[0] == 60 - 10j + 2
        assert np.array_equal(coeffs.a, S_hh - S_ff)
        assert np.array_equal(coeffs.b, 2 * S_fh)
        assert coeffs.a[2] == (4 - 5j) * 1000 and coeffs.b[1] == 1404 + 2200j

    def test_known_coefficients_roundtrip(self, coarse_grid):
        xs = coarse_grid.xs
        coeffs = FourierCoeffs(N=2, a0=4.0, a=np.array([1.0, 0.0]),
                               b=np.array([0.0, 2.0]))
        got = synthesize(coeffs, coarse_grid)
        want = 2.0 + np.cos(np.pi * xs) + 2.0 * np.sin(2 * np.pi * xs)
        assert np.allclose(got, want, atol=1e-12)

    def test_synthesize_linear_in_coefficients(self, coarse_grid):
        rng = np.random.default_rng(0)
        c1 = FourierCoeffs(N=2, a0=rng.standard_normal(),
                           a=rng.standard_normal(2), b=rng.standard_normal(2))
        c2 = FourierCoeffs(N=2, a0=rng.standard_normal(),
                           a=rng.standard_normal(2), b=rng.standard_normal(2))
        summed = FourierCoeffs(N=2, a0=c1.a0 + c2.a0, a=c1.a + c2.a,
                               b=c1.b + c2.b)
        assert np.allclose(synthesize(summed, coarse_grid),
                           synthesize(c1, coarse_grid) + synthesize(c2, coarse_grid))

    def test_length_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"coefficient arrays must have shape \(2,\)"):
            FourierCoeffs(2, 0.0, [1.0], [1.0, 2.0])


class TestProjectionTruth:
    def test_mean_level(self, coarse_grid):
        vals = projection_truth(10, coarse_grid)
        mean = np.trapezoid(vals, dx=coarse_grid.dx) / 2.0
        assert abs(mean - 35.0 / 24.0) <= 1e-6

    def test_pointwise_convergence_away_from_jumps(self, coarse_grid):
        vals = projection_truth(400, coarse_grid)
        xs = coarse_grid.xs
        for x0, level in ((-0.8, 2.0), (-0.1, 1.5), (0.8, 1.0)):
            i = np.argmin(np.abs(xs - x0))
            assert abs(vals[i] - level) <= 2e-2

    def test_coefficients_match_direct_projection(self, coarse_grid):
        # independent oracle: adaptive quadrature of the piecewise function
        # against each mode, summed as a series on [-1, 1]
        pieces = ((-1.0, -0.5, 2.0), (-0.5, 1.0 / 3.0, 1.5), (1.0 / 3.0, 1.0, 1.0))

        def moment(mode):
            return sum(lv * quad(mode, lo, hi)[0] for lo, hi, lv in pieces)

        xs = coarse_grid.xs
        want = np.full(coarse_grid.nx, moment(lambda x: 1.0) / 2.0)
        for k in range(1, 6):
            want += (moment(lambda x: np.cos(k * np.pi * x)) * np.cos(k * np.pi * xs)
                     + moment(lambda x: np.sin(k * np.pi * x)) * np.sin(k * np.pi * xs))
        assert np.allclose(projection_truth(5, coarse_grid), want, atol=1e-10)

    def test_wrong_domain_rejected(self):
        g = GridSpec(0.0, 2.0, 1.0 / 50, 1.0 / 500, 3.0)
        with pytest.raises(UnsupportedRegimeError):
            projection_truth(5, g)

    def test_N_below_one_rejected(self, coarse_grid):
        with pytest.raises(ValueError, match="N must be >= 1, got 0"):
            projection_truth(0, coarse_grid)


class TestReconstructPipeline:
    def test_zero_perturbation(self, coarse_grid):
        medium = MediumSpec(0.0, np.zeros(coarse_grid.nx))
        settings = ReconSettings(grid=coarse_grid, N=2)
        c = reconstruct(settings, medium)
        biggest = max(abs(c.a0), np.max(np.abs(c.a)), np.max(np.abs(c.b)))
        assert biggest <= 1e-3

    def test_end_to_end_linearity(self, coarse_grid):
        xs = coarse_grid.xs
        s1 = np.cos(np.pi * xs)
        s2 = np.sin(np.pi * xs) + 2.0
        al, be = 2.0, -0.7
        settings = ReconSettings(grid=coarse_grid, N=1)

        def coeffs_for(sig):
            c = reconstruct(settings, MediumSpec(0.0, sig))
            return np.array([c.a0, c.a[0], c.b[0]])

        combo = coeffs_for(al * s1 + be * s2)
        separate = al * coeffs_for(s1) + be * coeffs_for(s2)
        assert np.allclose(combo, separate, rtol=1e-10, atol=1e-12)

    def test_deterministic_with_noise(self, coarse_grid):
        medium = MediumSpec(0.0, smooth_sigma_dot(coarse_grid.xs))
        settings = ReconSettings(grid=coarse_grid, N=2, noise_eps=0.02, seed=9)
        c1 = reconstruct(settings, medium)
        c2 = reconstruct(settings, medium)
        assert np.array_equal(c1.a, c2.a)
        assert np.array_equal(c1.b, c2.b)
        assert c1.a0 == c2.a0

    @pytest.mark.parametrize("noise", [0.05, 0.0])
    def test_noisy_and_noise_free_runs_build_one_map(self, coarse_grid_t5,
                                                      noise, monkeypatch):
        # a run, noisy or not, measures on the support grid and adds noise
        # to the data of ``measurement`` there, as acceptance criterion 4
        # does
        grid = coarse_grid_t5
        sig = smooth_sigma_dot(grid.xs)
        medium = MediumSpec(0.0, sig)
        settings = ReconSettings(grid=grid, N=2, noise_eps=noise, seed=3)
        grids, measurement = [], ReconSettings.measurement

        def spy(self, medium):
            grids.append(self.grid)
            return measurement(self, medium)

        monkeypatch.setattr(ReconSettings, "measurement", spy)
        got = reconstruct(settings, medium)
        short = support_grid(grid)
        assert grids == [short] and short.nt == grid.nt - 2 * 997
        settings = ReconSettings(grid=short, N=2)
        measure = measurement(settings, medium)
        want = reconstruct_from_data(
            (apply_measurement_noise(
                acquire_clean_pair_data(k, short, measure), k, noise, 3)
             for k in (1, 2)), settings)
        assert got.a0 == want.a0
        assert np.array_equal(got.a, want.a)
        assert np.array_equal(got.b, want.b)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_T_4_and_T_5_give_the_same_coefficients(self, noise):
        # both grids have one support grid, so the same data and noise
        coeffs = []
        for T in (4.0, 5.0):
            grid = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, T)
            sig = smooth_sigma_dot(grid.xs)
            settings = ReconSettings(grid=grid, N=2, noise_eps=noise, seed=5)
            coeffs.append(reconstruct(settings, MediumSpec(0.0, sig)))
        assert coeffs[0].a0 == coeffs[1].a0
        assert np.array_equal(coeffs[0].a, coeffs[1].a)
        assert np.array_equal(coeffs[0].b, coeffs[1].b)

    def test_overflowing_medium_rejected(self, coarse_grid):
        medium = MediumSpec(0.0, np.full(coarse_grid.nx, 1e305))
        with pytest.raises(ConfigurationError,
                           match="measured trace 0 has a non-finite sample"):
            reconstruct(ReconSettings(grid=coarse_grid, N=2), medium)

    def test_damped_background_rejected(self, coarse_grid):
        medium = MediumSpec(0.3, np.zeros(coarse_grid.nx))
        settings = ReconSettings(grid=coarse_grid, N=1)
        with pytest.raises(UnsupportedRegimeError):
            reconstruct(settings, medium)

    def test_nonlinear_difference_mode_consistent(self, coarse_grid):
        # the difference route carries an O(eps) linearization bias from the
        # quadratic response (the same bias that dominates the noiseless
        # nonlinear experiment), so agreement is first order in eps
        sig = smooth_sigma_dot(coarse_grid.xs)
        medium = MediumSpec(0.0, sig)
        lin = reconstruct(ReconSettings(grid=coarse_grid, N=1), medium)
        gaps = []
        for eps in (1e-3, 1e-4):
            non = reconstruct(
                ReconSettings(grid=coarse_grid, N=1,
                              data_mode="nonlinear_difference",
                              eps_linearization=eps),
                medium,
            )
            gaps.append(max(abs(lin.a0 - non.a0), np.max(np.abs(lin.a - non.a))))
        assert gaps[0] <= 0.1
        assert gaps[1] <= 0.2 * gaps[0]  # bias shrinks linearly in eps

    def test_settings_validation(self, coarse_grid):
        with pytest.raises(ValueError):
            ReconSettings(grid=coarse_grid, N=0)
        for bad in (2.5, 3.0):
            with pytest.raises(ValueError, match=f"N must be an integer, got {bad}"):
                ReconSettings(grid=coarse_grid, N=bad)
        assert ReconSettings(grid=coarse_grid, N=np.int64(2)).N == 2
        with pytest.raises(ValueError):
            ReconSettings(grid=coarse_grid, noise_eps=-0.1)
        with pytest.raises(ValueError, match="seed"):
            ReconSettings(grid=coarse_grid, seed=-1)
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            ReconSettings(grid=coarse_grid, seed=1.5, noise_eps=0.01)
        assert ReconSettings(grid=coarse_grid, seed=np.int64(3)).seed == 3
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="noise_eps must be finite"):
                ReconSettings(grid=coarse_grid, noise_eps=bad)
            with pytest.raises(ValueError, match="eps_linearization must be finite"):
                ReconSettings(grid=coarse_grid, data_mode="nonlinear_difference",
                              eps_linearization=bad)
        with pytest.raises(ValueError):
            ReconSettings(grid=coarse_grid, data_mode="bogus")
        with pytest.raises(ValueError):
            ReconSettings(grid=coarse_grid, data_mode="nonlinear_difference",
                          eps_linearization=0.0)

    @pytest.mark.parametrize("field", ["N", "seed"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_refused_as_an_integer(self, coarse_grid, field, value):
        # a bool is an int: N = True once ran as N = 1, seed = False as 0
        with pytest.raises(ValueError, match=f"^{field} must be an integer, "
                           f"got {value}$"):
            ReconSettings(grid=coarse_grid, **{field: value})

    def test_N_limited_by_grid_resolution(self, coarse_grid):
        # on 101 nodes mode 50's frequency 2 kappa_50 = 50 pi reaches the
        # nodes' Nyquist limit pi / dx
        assert ReconSettings(grid=coarse_grid, N=49).N == 49
        with pytest.raises(ValueError, match=r"^N = 50 exceeds.*N <= 49$"):
            ReconSettings(grid=coarse_grid, N=50)

    def test_reconstruct_from_data_matches_reconstruct(self,
                                                       coarse_support_grid):
        grid = coarse_support_grid
        sig = smooth_sigma_dot(grid.xs)
        medium = MediumSpec(0.0, sig)
        settings = ReconSettings(grid=grid, N=2)
        direct = reconstruct(settings, medium)
        measure = settings.measurement(medium)
        data = [acquire_clean_pair_data(k, grid, measure) for k in (1, 2)]
        via_data = reconstruct_from_data(data, settings)
        assert direct.a0 == via_data.a0
        assert np.array_equal(direct.a, via_data.a)
        assert np.array_equal(direct.b, via_data.b)

    def test_each_mode_dropped_before_the_next_is_acquired(self, coarse_grid,
                                                            monkeypatch):
        sig = smooth_sigma_dot(coarse_grid.xs)
        settings = ReconSettings(grid=coarse_grid, N=3)
        acquire = recon.acquire_clean_pair_data
        records, alive = [], []

        def spy(k, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in records))
            data = acquire(k, *args, **kwargs)
            records.extend((weakref.ref(data.f), weakref.ref(data.h)))
            return data

        monkeypatch.setattr(recon, "acquire_clean_pair_data", spy)
        reconstruct(settings, MediumSpec(0.0, sig))
        assert alive == [0, 0, 0]

    @pytest.mark.parametrize("modes", [0, 2])
    def test_too_few_modes_rejected(self, coarse_support_grid, modes):
        grid = coarse_support_grid
        sig = smooth_sigma_dot(grid.xs)
        settings = ReconSettings(grid=grid, N=3)
        measure = settings.measurement(MediumSpec(0.0, sig))
        data = [acquire_clean_pair_data(k, grid, measure)
                for k in range(1, modes + 1)]
        with pytest.raises(ValueError, match="need 3 identity values"):
            reconstruct_from_data(data, settings)


class TestErrorMetrics:
    def test_values_on_the_nodes(self, coarse_grid):
        xs = coarse_grid.xs
        truth = 2.0 + np.cos(np.pi * xs)
        # an imaginary part is not scored
        sigma = truth + 0.01 * np.sin(np.pi * xs) + 5j
        rel_l2, linf = error_metrics(sigma, truth, coarse_grid)
        num = np.sqrt(np.trapezoid((0.01 * np.sin(np.pi * xs)) ** 2,
                                   dx=coarse_grid.dx))
        den = np.sqrt(np.trapezoid(truth**2, dx=coarse_grid.dx))
        assert rel_l2 == pytest.approx(num / den, rel=1e-10)
        assert linf == pytest.approx(0.01, rel=1e-12)
        assert error_metrics(truth, truth, coarse_grid) == (0.0, 0.0)

    def test_overflowing_squares_give_inf(self, coarse_grid, recwarn):
        truth = np.ones(coarse_grid.nx)
        rel_l2, linf = error_metrics(truth + 1e200, truth, coarse_grid)
        assert rel_l2 == np.inf and linf == pytest.approx(1e200)
        assert not recwarn.list

    def test_truth_off_the_grid_refused(self, coarse_grid):
        sigma = np.zeros(coarse_grid.nx, dtype=complex)
        with pytest.raises(ValueError, match=rf"truth must have shape "
                           rf"\({coarse_grid.nx},\).*got \(7,\)"):
            error_metrics(sigma, np.ones(7), coarse_grid)

    def test_complex_truth_refused(self, coarse_grid):
        # never scored by its real part alone
        sigma = np.ones(coarse_grid.nx)
        with pytest.raises(ValueError, match="^truth is complex"):
            error_metrics(sigma, sigma + 1j, coarse_grid)

    @pytest.mark.parametrize("samples", [1, 7])
    def test_sigma_off_the_grid_refused(self, coarse_grid, samples):
        # one sample would broadcast and be scored as a constant
        truth = np.full(coarse_grid.nx, 2.0)
        with pytest.raises(ValueError, match=rf"sigma must have shape "
                           rf"\({coarse_grid.nx},\).*got \({samples},\)"):
            error_metrics(np.ones(samples), truth, coarse_grid)
