import numpy as np
import pytest

from bcm1d import (
    BoundaryTrace,
    GridSpec,
    MediumSpec,
    ReconSettings,
    acquire_clean_pair_data,
    linearized_rhs,
    nonlinear_identity_residual,
    stability_bound_check,
    weighted_volume_pairing,
)
from bcm1d.cli import smooth_pulse_trace
from bcm1d.identity import ControlData
from bcm1d.recon import fourier_targets

from conftest import smooth_sigma_dot


@pytest.fixture(scope="module")
def mode4_measure(mid_grid):
    """Linearized measurement of the smooth reference perturbation."""
    medium = MediumSpec(0.0, smooth_sigma_dot(mid_grid.xs))
    return ReconSettings(grid=mid_grid, N=4).measurement(medium)


@pytest.fixture(scope="module")
def mode4_data(mid_grid, mode4_measure):
    """Mode-4 control data for the smooth reference perturbation."""
    return acquire_clean_pair_data(4, mid_grid, mode4_measure)


@pytest.fixture(scope="module")
def mode4_operator_traces(mode4_data, mode4_measure):
    """Measured responses Lf, Lh to the mode-4 controls themselves."""
    return mode4_measure([mode4_data.f.g, mode4_data.h.g])


@pytest.fixture(scope="module")
def mode4_snaps(mid_grid):
    """Target snapshots p0(T) of the mode-4 sine and cosine controls."""
    pT_f, pT_h, _ = fourier_targets(4, mid_grid)
    return tuple(np.asarray(p.value(mid_grid.xs), dtype=complex)
                 for p in (pT_f, pT_h))


def _zero_control(grid):
    z = BoundaryTrace.zeros(grid)
    return ControlData(g=z, g_t=z, meas_t=z, meas_tt=z)


class TestLinearizedRhs:
    def test_zero_measurements_give_zero(self, coarse_grid):
        z = _zero_control(coarse_grid)
        assert linearized_rhs(z, z, 2j, coarse_grid) == 0

    def test_mode4_pair_recovers_sine_moment(self, mode4_data, mode4_snaps,
                                             mid_grid):
        # the perturbation contains the fourth sine mode with unit weight, so
        # the (f, h) product integrates to exactly 1/2 by orthogonality
        lam, f, h = mode4_data
        value = linearized_rhs(f, h, lam, mid_grid)
        assert abs(value - 0.5) <= 1e-2
        vol = weighted_volume_pairing(
            *mode4_snaps,
            smooth_sigma_dot(mid_grid.xs), mid_grid,
        )
        assert abs(vol - 0.5) <= 1e-4
        assert abs(value - vol) <= 1e-2

    def test_symmetric_pairs_match_volume_oracle(self, mode4_data, mode4_snaps,
                                                 mid_grid):
        sig = smooth_sigma_dot(mid_grid.xs)
        for c, snap in zip((mode4_data.f, mode4_data.h), mode4_snaps):
            value = linearized_rhs(c, c, mode4_data.lam, mid_grid)
            vol = weighted_volume_pairing(snap, snap, sig, mid_grid)
            assert abs(value - vol) / abs(vol) <= 1e-2

    def test_swap_symmetry(self, mode4_data, mid_grid):
        # the volume side is symmetric in the pair, so both orderings of the
        # boundary evaluation must agree to discretization tolerance
        lam, f, h = mode4_data
        forward = linearized_rhs(f, h, lam, mid_grid)
        backward = linearized_rhs(h, f, lam, mid_grid)
        assert abs(forward - backward) <= 1e-2

    def test_swap_asymmetry_shrinks_under_refinement(self):
        diffs = []
        for n in (50, 100):
            g = GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 5.0)
            medium = MediumSpec(0.0, smooth_sigma_dot(g.xs))
            measure = ReconSettings(grid=g, N=4).measurement(medium)
            lam, f, h = acquire_clean_pair_data(4, g, measure)
            diffs.append(abs(linearized_rhs(f, h, lam, g)
                             - linearized_rhs(h, f, lam, g)))
        # both orderings converge to the symmetric volume value at second
        # order; their gap decays at least that fast
        assert diffs[1] <= 0.35 * diffs[0]

    def test_matches_five_term_oracle(self, coarse_grid):
        # the docstring's formula written out term by term, each reflected
        # factor an explicit reversed copy, each pairing np.trapezoid over
        # the samples of (0, T)
        g = coarse_grid
        medium = MediumSpec(0.0, smooth_sigma_dot(g.xs))
        lam, f, h = acquire_clean_pair_data(
            4, g, ReconSettings(grid=g, N=4).measurement(medium))
        n = g.half_index + 1

        def pairing(x, y):
            ya, yb = y.values_a[::-1].copy(), y.values_b[::-1].copy()
            return (np.trapezoid(x.values_a[:n] * ya[:n], dx=g.dt)
                    + np.trapezoid(x.values_b[:n] * yb[:n], dx=g.dt))

        nT = g.half_index
        want = (
            -(f.g.values_a[nT] * h.meas_t.values_a[nT]
              + f.g.values_b[nT] * h.meas_t.values_b[nT])
            - pairing(f.g, h.meas_tt)
            + pairing(f.meas_t, h.g_t)
            - lam * pairing(f.g, h.meas_t)
            + lam * pairing(f.meas_t, h.g)
        )
        got = linearized_rhs(f, h, lam, g)
        assert abs(want) > 1e-3  # a non-degenerate pair
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_f_side_scaling(self, mode4_data, mid_grid):
        # scaling every f-side trace scales the identity value linearly
        from dataclasses import replace

        lam, f, h = mode4_data
        al = 1.5 - 0.5j
        scaled = replace(f, g=al * f.g, g_t=al * f.g_t, meas_t=al * f.meas_t)
        assert np.isclose(linearized_rhs(scaled, h, lam, mid_grid),
                          al * linearized_rhs(f, h, lam, mid_grid), rtol=1e-12)


class TestVolumePairing:
    def test_zero_weight(self, coarse_grid):
        z = np.zeros(coarse_grid.nx)
        ones = np.ones(coarse_grid.nx)
        assert weighted_volume_pairing(ones, ones, z, coarse_grid) == 0

    def test_constant_weight(self, coarse_grid):
        ones = np.ones(coarse_grid.nx)
        val = weighted_volume_pairing(ones, ones, ones, coarse_grid)
        assert np.isclose(val, 2.0, atol=1e-12)

    def test_orthogonality_half(self, coarse_grid):
        xs = coarse_grid.xs
        val = weighted_volume_pairing(
            np.sin(2 * np.pi * xs), np.cos(2 * np.pi * xs),
            smooth_sigma_dot(xs), coarse_grid,
        )
        assert abs(val - 0.5) <= 1e-4

    def test_length_mismatch(self, coarse_grid):
        with pytest.raises(ValueError):
            weighted_volume_pairing(np.ones(3), np.ones(3), np.ones(3), coarse_grid)


class TestNonlinearIdentity:
    def test_zero_data(self, coarse_grid):
        z = BoundaryTrace.zeros(coarse_grid)
        rep = nonlinear_identity_residual((z, z), (z, z), 0.3, coarse_grid)
        assert rep.lhs == 0 and rep.rhs == 0 and rep.rel_residual == 0

    def test_smooth_pulses_constant_damping(self, coarse_grid):
        f = smooth_pulse_trace(coarse_grid, 1.2, 0.25, 6.0, 1.0, 0.3)
        h = smooth_pulse_trace(coarse_grid, 1.7, 0.30, 4.0, 0.5, 1.0)
        rep = nonlinear_identity_residual(f, h, 0.3, coarse_grid)
        assert abs(rep.lhs) > 1e-4  # a non-degenerate pair
        assert rep.rel_residual <= 1e-2

    def test_residual_is_second_order(self):
        diffs = []
        for n in (50, 100):
            g = GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 3.0)
            f = smooth_pulse_trace(g, 1.2, 0.25, 6.0, 1.0, 0.3)
            h = smooth_pulse_trace(g, 1.7, 0.30, 4.0, 0.5, 1.0)
            rep = nonlinear_identity_residual(f, h, 0.3, g)
            diffs.append(abs(rep.lhs - rep.rhs))
        assert 3.4 <= diffs[0] / diffs[1] <= 4.6

    def test_accepts_control_bundles(self, coarse_grid):
        from bcm1d import build_control, sine_profile, cosine_profile

        kappa = np.pi / 2
        bf = build_control(sine_profile(kappa), 1j * kappa, coarse_grid)
        bh = build_control(cosine_profile(kappa), 1j * kappa, coarse_grid)
        rep = nonlinear_identity_residual((bf.f, bf.f_t), (bh.f, bh.f_t), 0.25,
                                          coarse_grid)
        # the Helmholtz pair makes the interior side degenerate (p p = q q),
        # so only smallness of both sides is meaningful here
        assert abs(rep.lhs) < 5e-2 and abs(rep.rhs) < 5e-2


class TestStabilityBound:
    def test_zero_data_ok(self, coarse_grid):
        z = _zero_control(coarse_grid)
        rep = stability_bound_check(z, z, 2j, coarse_grid, z.g, z.g)
        assert rep.lhs_abs == 0 and rep.bound == 0 and rep.ok

    def test_mode_data_passes_with_wide_margin(self, mode4_data,
                                               mode4_operator_traces, mid_grid):
        lam, f, h = mode4_data
        Lf, Lh = mode4_operator_traces
        for a, b, La, Lb in ((f, h, Lf, Lh), (f, f, Lf, Lf), (h, h, Lh, Lh)):
            rep = stability_bound_check(a, b, lam, mid_grid, La, Lb)
            assert rep.ok
            assert rep.bound > 10 * rep.lhs_abs

    def test_bound_monotone_in_lambda(self, mode4_data, mode4_operator_traces,
                                      mid_grid):
        _, f, h = mode4_data
        bounds = [
            stability_bound_check(f, h, lam, mid_grid,
                                  *mode4_operator_traces).bound
            for lam in (0.5j, 2.0j, 8.0j)
        ]
        assert bounds[0] <= bounds[1] <= bounds[2]
