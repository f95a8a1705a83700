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
    assemble_coefficients,
    fourier_targets,
    projection_truth,
    reconstruct,
    reconstruct_from_data,
    synthesize,
)
from bcm1d import recon
from conftest import smooth_sigma_dot


class TestFourierTargets:
    def test_first_mode_parameter(self, coarse_grid):
        pT_f, pT_h, lam = fourier_targets(1, coarse_grid)
        assert np.isclose(lam, 1j * np.pi / 2)

    def test_values_at_origin(self, coarse_grid):
        for k in (1, 3, 7):
            pT_f, pT_h, _ = fourier_targets(k, coarse_grid)
            assert pT_f.value(0.0) == 0.0
            assert pT_h.value(0.0) == 1.0

    def test_pythagorean_identity(self, coarse_grid):
        xs = coarse_grid.xs
        pT_f, pT_h, _ = fourier_targets(5, coarse_grid)
        assert np.allclose(pT_f.value(xs) ** 2 + pT_h.value(xs) ** 2, 1.0)

    def test_invalid_mode(self, coarse_grid):
        with pytest.raises(ValueError):
            fourier_targets(0, coarse_grid)


class TestAddNoise:
    def _trace(self, n=25001, seed=3):
        rng = np.random.default_rng(seed)
        return BoundaryTrace(
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            rng.standard_normal(n) + 1j * rng.standard_normal(n),
            4e-4,
        )

    def test_zero_eps_identity(self):
        tr = self._trace()
        assert add_noise(tr, 0.0, np.random.default_rng(0)) is tr

    def test_zero_trace_unchanged(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        out = add_noise(z, 0.05, np.random.default_rng(0))
        assert np.all(out.values_a == 0) and np.all(out.values_b == 0)

    def test_empirical_noise_level(self):
        # across 2 x 25001 samples the empirical std of the perturbation
        # matches the requested relative level to a few percent
        tr = self._trace()
        eps = 0.01
        noisy = add_noise(tr, eps, np.random.default_rng(11))
        delta = np.concatenate([noisy.values_a - tr.values_a,
                                noisy.values_b - tr.values_b])
        rms = np.sqrt(np.mean(np.abs(np.concatenate(
            [tr.values_a, tr.values_b])) ** 2))
        measured = np.sqrt(np.mean(np.abs(delta) ** 2))
        assert abs(measured - eps * rms) <= 0.05 * eps * rms

    def test_real_imag_parts_independent(self):
        tr = self._trace(n=50001)
        noisy = add_noise(tr, 0.02, np.random.default_rng(5))
        delta = noisy.values_a - tr.values_a
        corr = np.corrcoef(delta.real, delta.imag)[0, 1]
        assert abs(corr) < 0.05

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            add_noise(self._trace(n=100), -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=rf"eps must be finite.*, got {eps}$"):
            add_noise(self._trace(n=100), eps, np.random.default_rng(0))


@pytest.fixture(scope="module")
def pair_data(coarse_grid):
    medium = MediumSpec(0.0, smooth_sigma_dot(coarse_grid.xs))
    measure = ReconSettings(grid=coarse_grid, N=1).measurement(medium)
    return acquire_clean_pair_data(1, coarse_grid, measure)


class TestNoiseDeterminism:
    def test_same_seed_bitwise_identical(self, pair_data):
        n1 = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        n2 = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        assert np.array_equal(n1.f.meas_t.values_a, n2.f.meas_t.values_a)
        assert np.array_equal(n1.h.meas_tt.values_b, n2.h.meas_tt.values_b)

    def test_different_seeds_differ(self, pair_data):
        n1 = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        n2 = apply_measurement_noise(pair_data, 1, 0.01, seed=43)
        assert not np.array_equal(n1.f.meas_t.values_a, n2.f.meas_t.values_a)

    def test_roles_get_independent_streams(self, pair_data):
        noisy = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        d1 = (noisy.f.meas_t - pair_data.f.meas_t).values_a
        d2 = (noisy.h.meas_t - pair_data.h.meas_t).values_a
        # identical streams would give perfectly correlated increments
        scale1 = np.sqrt(np.mean(np.abs(d1) ** 2))
        scale2 = np.sqrt(np.mean(np.abs(d2) ** 2))
        corr = np.abs(np.vdot(d1, d2)) / (len(d1) * scale1 * scale2)
        assert corr < 0.05

    def test_mode_index_changes_stream(self, pair_data):
        n1 = apply_measurement_noise(pair_data, 1, 0.01, seed=42)
        n2 = apply_measurement_noise(pair_data, 2, 0.01, seed=42)
        assert not np.array_equal(n1.f.meas_t.values_a, n2.f.meas_t.values_a)

    def test_substream_labels_pinned(self, coarse_grid):
        # the (mode, label) spawn keys fix every noisy output; moving a label
        # changes the noisy results of every earlier run
        medium = MediumSpec(0.0, smooth_sigma_dot(coarse_grid.xs))
        settings = ReconSettings(grid=coarse_grid, N=2)
        k, eps, seed = 2, 0.03, 11
        clean = acquire_clean_pair_data(k, coarse_grid,
                                        settings.measurement(medium))
        noisy = apply_measurement_noise(clean, k, eps, seed)
        labels = {("f", "meas_t"): 0, ("f", "meas_tt"): 1, ("h", "meas_t"): 2,
                  ("h", "meas_tt"): 3}
        for (control, field), label in labels.items():
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(k, label)))
            want = add_noise(getattr(getattr(clean, control), field), eps, rng)
            got = getattr(getattr(noisy, control), field)
            assert np.array_equal(got.values_a, want.values_a)
            assert np.array_equal(got.values_b, want.values_b)


class TestAssembleAndSynthesize:
    def test_zero_values(self, coarse_grid):
        z = [0.0] * 3
        coeffs = assemble_coefficients(z, z, z, 3)
        assert coeffs.a0 == 0 and np.all(coeffs.a == 0) and np.all(coeffs.b == 0)
        assert np.all(synthesize(coeffs, coarse_grid) == 0)

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
        with pytest.raises(ValueError):
            assemble_coefficients([1.0], [1.0], [1.0, 2.0], 2)


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
        # against each mode
        for k in (1, 2, 5):
            got_c = (np.sin(k * np.pi / 3) - np.sin(k * np.pi / 2)) / (2 * k * np.pi)
            got_d = -(np.cos(k * np.pi / 3) + np.cos(k * np.pi / 2)
                      - 2 * np.cos(k * np.pi)) / (2 * k * np.pi)
            pieces = ((-1.0, -0.5, 2.0), (-0.5, 1.0 / 3.0, 1.5), (1.0 / 3.0, 1.0, 1.0))
            want_c = sum(
                lv * quad(lambda x: np.cos(k * np.pi * x), lo, hi)[0]
                for lo, hi, lv in pieces
            )
            want_d = sum(
                lv * quad(lambda x: np.sin(k * np.pi * x), lo, hi)[0]
                for lo, hi, lv in pieces
            )
            assert np.isclose(got_c, want_c, atol=1e-10)
            assert np.isclose(got_d, want_d, atol=1e-10)

    def test_wrong_domain_rejected(self):
        g = GridSpec(0.0, 2.0, 1.0 / 50, 1.0 / 500, 3.0)
        with pytest.raises(UnsupportedRegimeError):
            projection_truth(5, g)


class TestReconstructPipeline:
    def test_zero_perturbation(self, coarse_grid):
        medium = MediumSpec(0.0, np.zeros(coarse_grid.nx))
        settings = ReconSettings(grid=coarse_grid, N=2)
        res = reconstruct(settings, medium, np.zeros(coarse_grid.nx))
        biggest = max(abs(res.coeffs.a0), np.max(np.abs(res.coeffs.a)),
                      np.max(np.abs(res.coeffs.b)))
        assert biggest <= 1e-3

    def test_end_to_end_linearity(self, coarse_grid):
        xs = coarse_grid.xs
        s1 = np.cos(np.pi * xs)
        s2 = np.sin(np.pi * xs) + 2.0
        al, be = 2.0, -0.7
        settings = ReconSettings(grid=coarse_grid, N=1)

        def coeffs_for(sig):
            res = reconstruct(settings, MediumSpec(0.0, sig), sig)
            return np.array([res.coeffs.a0, res.coeffs.a[0], res.coeffs.b[0]])

        combo = coeffs_for(al * s1 + be * s2)
        separate = al * coeffs_for(s1) + be * coeffs_for(s2)
        assert np.allclose(combo, separate, rtol=1e-10, atol=1e-12)

    def test_deterministic_with_noise(self, coarse_grid):
        medium = MediumSpec(0.0, smooth_sigma_dot(coarse_grid.xs))
        settings = ReconSettings(grid=coarse_grid, N=2, noise_eps=0.02, seed=9)
        truth = smooth_sigma_dot(coarse_grid.xs)
        r1 = reconstruct(settings, medium, truth)
        r2 = reconstruct(settings, medium, truth)
        assert np.array_equal(r1.coeffs.a, r2.coeffs.a)
        assert np.array_equal(r1.coeffs.b, r2.coeffs.b)
        assert r1.coeffs.a0 == r2.coeffs.a0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_medium_rejected(self, coarse_grid):
        medium = MediumSpec(0.0, np.full(coarse_grid.nx, 1e305))
        with pytest.raises(ConfigurationError,
                           match="measured trace 0 has a non-finite sample"):
            reconstruct(ReconSettings(grid=coarse_grid, N=2), medium,
                        np.zeros(coarse_grid.nx))

    def test_damped_background_rejected(self, coarse_grid):
        medium = MediumSpec(0.3, np.zeros(coarse_grid.nx))
        settings = ReconSettings(grid=coarse_grid, N=1)
        with pytest.raises(UnsupportedRegimeError):
            reconstruct(settings, medium, np.zeros(coarse_grid.nx))

    def test_nonlinear_difference_mode_consistent(self, coarse_grid):
        # the difference route carries an O(eps) linearization bias from the
        # quadratic response (the same bias that dominates the noiseless
        # nonlinear experiment), so agreement is first order in eps
        sig = smooth_sigma_dot(coarse_grid.xs)
        medium = MediumSpec(0.0, sig)
        lin = reconstruct(ReconSettings(grid=coarse_grid, N=1), medium, sig)
        gaps = []
        for eps in (1e-3, 1e-4):
            non = reconstruct(
                ReconSettings(grid=coarse_grid, N=1,
                              data_mode="nonlinear_difference",
                              eps_linearization=eps),
                medium, sig,
            )
            gaps.append(max(abs(lin.coeffs.a0 - non.coeffs.a0),
                            np.max(np.abs(lin.coeffs.a - non.coeffs.a))))
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

    def test_N_limited_by_grid_resolution(self, coarse_grid):
        # on 101 nodes mode 50's frequency 2 kappa_50 = 50 pi reaches the
        # nodes' Nyquist limit pi / dx
        assert ReconSettings(grid=coarse_grid, N=49).N == 49
        with pytest.raises(ValueError, match=r"^N = 50 exceeds.*N <= 49$"):
            ReconSettings(grid=coarse_grid, N=50)

    def test_reconstruct_from_data_matches_reconstruct(self, coarse_grid):
        sig = smooth_sigma_dot(coarse_grid.xs)
        medium = MediumSpec(0.0, sig)
        settings = ReconSettings(grid=coarse_grid, N=2)
        direct = reconstruct(settings, medium, sig)
        measure = settings.measurement(medium)
        data = [acquire_clean_pair_data(k, coarse_grid, measure) for k in (1, 2)]
        via_data = reconstruct_from_data(data, settings, sig)
        assert np.array_equal(direct.coeffs.a, via_data.coeffs.a)
        assert direct.rel_l2 == via_data.rel_l2

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
        reconstruct(settings, MediumSpec(0.0, sig), sig)
        assert alive == [0, 0, 0]

    @pytest.mark.parametrize("modes", [0, 2])
    def test_too_few_modes_rejected(self, coarse_grid, modes):
        sig = smooth_sigma_dot(coarse_grid.xs)
        settings = ReconSettings(grid=coarse_grid, N=3)
        measure = settings.measurement(MediumSpec(0.0, sig))
        data = [acquire_clean_pair_data(k, coarse_grid, measure)
                for k in range(1, modes + 1)]
        with pytest.raises(ValueError, match="need 3 identity values"):
            reconstruct_from_data(data, settings, sig)

    def test_truth_off_grid_rejected_before_any_mode(self, coarse_grid,
                                                     monkeypatch):
        def acquire(*args):
            raise AssertionError("a mode was measured")

        monkeypatch.setattr(recon, "acquire_clean_pair_data", acquire)
        settings = ReconSettings(grid=coarse_grid, N=3)
        medium = MediumSpec(0.0, smooth_sigma_dot(coarse_grid.xs))
        with pytest.raises(ValueError, match=rf"truth must have shape "
                           rf"\({coarse_grid.nx},\).*got \(7,\)"):
            reconstruct(settings, medium, np.ones(7))
