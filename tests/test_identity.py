from dataclasses import replace

import numpy as np
import pytest

from bcm1d import (
    BoundaryTrace,
    GridSpec,
    MediumSpec,
    ReconSettings,
    acquire_clean_pair_data,
    build_control,
    cosine_profile,
    linearized_rhs,
    nonlinear_identity_residual,
    sine_profile,
    snapshots_many,
    solve_many,
)
from bcm1d import identity, solver
from bcm1d.cli import PAPER, _identity_pulses, smooth_pulse_trace
from bcm1d.identity import ControlData, _pair
from bcm1d.recon import fourier_targets

from conftest import smooth_sigma_dot
from oracles import stability_bound_check, weighted_volume_pairing


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
    return tuple(np.asarray(p(mid_grid.xs)[0], dtype=complex)
                 for p in (pT_f, pT_h))


def test_identities_never_read_the_trailing_tail(mode4_data, mid_grid):
    # a measured sample at step i meets only the control sample at step
    # nt - 1 - i, which is zero for i > nt - 1 - quiet, so the map may leave
    # the tail unmeasured
    lam, f, h = mode4_data
    # the controls' quiet steps, (T - (b - a) - 1) / dt
    quiet = 2000
    for c in (f, h):
        assert not np.any(c.g.values[:, :quiet])
    tail = slice(mid_grid.nt - quiet, None)

    def loud(tr):
        v = tr.values.copy()
        v[:, tail] = 1e6
        return BoundaryTrace(v, tr.dt)

    lf, lh = (replace(c, meas_t=loud(c.meas_t), meas_tt=loud(c.meas_tt))
              for c in (f, h))
    for (x, y), (lx, ly) in zip(((f, f), (h, h), (f, h)),
                                ((lf, lf), (lh, lh), (lf, lh))):
        assert linearized_rhs(lx, ly, lam, mid_grid) == linearized_rhs(
            x, y, lam, mid_grid)


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

    def test_matches_five_term_oracle(self, coarse_support_grid):
        # the docstring's formula written out term by term, each reflected
        # factor an explicit reversed copy, each pairing np.trapezoid over
        # the samples of (0, T)
        g = coarse_support_grid
        medium = MediumSpec(0.0, smooth_sigma_dot(g.xs))
        lam, f, h = acquire_clean_pair_data(
            4, g, ReconSettings(grid=g, N=4).measurement(medium))
        n = g.half_index + 1

        def pairing(x, y):
            (xa, xb), (ya, yb) = x.values, y.values[:, ::-1].copy()
            return (np.trapezoid(xa[:n] * ya[:n], dx=g.dt)
                    + np.trapezoid(xb[:n] * yb[:n], dx=g.dt))

        nT = g.half_index
        (fa, fb), (ha, hb) = f.g.values, h.meas_t.values
        want = (
            -(fa[nT] * ha[nT] + fb[nT] * hb[nT])
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
        scaled = replace(f, **{name: BoundaryTrace(al * getattr(f, name).values,
                                                   mid_grid.dt)
                               for name in ("g", "g_t", "meas_t")})
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
        kappa = np.pi / 2
        bf = build_control(sine_profile(kappa), 1j * kappa, coarse_grid)
        bh = build_control(cosine_profile(kappa), 1j * kappa, coarse_grid)
        rep = nonlinear_identity_residual((bf.f, bf.f_t), (bh.f, bh.f_t), 0.25,
                                          coarse_grid)
        # the Helmholtz pair makes the interior side degenerate (p p = q q),
        # so only smallness of both sides is meaningful here
        assert abs(rep.lhs) < 5e-2 and abs(rep.rhs) < 5e-2


def _pulses(case, coarse_grid):
    """The grid and the pairs (trace, derivative) of an identity check."""
    if case == "coarse":
        return (coarse_grid, *_identity_pulses(coarse_grid))
    if case == "paper":
        grid = GridSpec(PAPER["a"], PAPER["b"], PAPER["dx"], PAPER["dt"],
                        PAPER["T"])
        return (grid, *_identity_pulses(grid))
    kappa = np.pi / 2
    bf, bh = (build_control(p(kappa), 1j * kappa, coarse_grid)
              for p in (sine_profile, cosine_profile))
    return coarse_grid, (bf.f, bf.f_t), (bh.f, bh.f_t)


class TestOnePass:
    @pytest.mark.parametrize("case", ["coarse", "paper", "bundles"])
    def test_equals_the_snapshots_and_the_nd_map(self, case, coarse_grid):
        # the fields of one pass never mix, and each reads the injection of
        # its full data: lhs and rhs are those of two separate passes, the
        # snapshots of f, h, f_t and h_t and the ND map of f_t and h_t, bit
        # for bit; p is u(T) of the derivative datum's field
        grid, (f, f_t), (h, h_t) = _pulses(case, coarse_grid)
        u, q = snapshots_many(grid, 0.3, [f, h, f_t, h_t])
        meas_ft, meas_ht = solve_many(grid, 0.3, [f_t, h_t])
        lhs = complex(np.trapezoid(u[2] * u[3] - q[0] * q[1], dx=grid.dx))
        n = grid.half_index
        rhs = (_pair(f.values[:, :n + 1], meas_ht.values[:, n:], grid.dt)
               - _pair(meas_ft.values[:, :n + 1], h.values[:, n:], grid.dt))
        rep = nonlinear_identity_residual((f, f_t), (h, h_t), 0.3, grid)
        assert abs(lhs) > 1e-4 or case == "bundles"  # a non-degenerate pair
        assert (rep.lhs, rep.rhs) == (lhs, rhs)

    def test_each_field_stops_at_its_last_read(self, coarse_grid,
                                               monkeypatch):
        grid, passes, time_loop = coarse_grid, [], solver._time_loop

        def spy(*args):
            traces, level = time_loop(*args)
            passes.append((traces, len(level)))
            return traces, level

        monkeypatch.setattr(solver, "_time_loop", spy)
        f, h = _identity_pulses(grid)
        nonlinear_identity_residual(f, h, 0.3, grid)
        ((traces, level_rows),) = passes
        n = grid.half_index
        # fields h_t, f, h and f_t: a field's traces end at the last step it
        # takes, step k - 1 reaching level k
        reached = [np.flatnonzero(np.any(tr != 0, axis=0))[-1]
                   for tr in traces]
        assert reached == [2 * n, n, n, n]
        # the level at T is of all four
        assert level_rows == 4
        # 4 fields for T/dt - 1 steps and 1 for T/dt more: 5 T/dt - 4
        # field-steps, against the separate passes' 4 (T/dt - 1) for the
        # snapshots and 2 (2T/dt - 1) for the ND map, 8 T/dt - 6
        assert sum(k - 1 for k in reached) == 5 * n - 4

    def test_real_and_complex_typed_pulses_agree_bit_for_bit(self,
                                                             monkeypatch):
        # the pulses are real and stay real; the same samples typed complex,
        # with zero imaginary parts, run as complex rows: the pass's traces,
        # u and q have zero imaginary parts and the real pulses' real parts,
        # bit for bit, the signs of zeros included.  numpy sums complex
        # arrays in another order than real ones, so lhs and rhs are those
        # of the real pulses' pass typed complex, bit for bit
        grid, f, h = _pulses("paper", None)
        assert all(tr.values.dtype == np.float64 for tr in (*f, *h))
        typed = [tuple(BoundaryTrace(tr.values.astype(complex), tr.dt)
                       for tr in pair) for pair in (f, h)]
        blocks, one_pass = [], identity._pass

        def spy(*args):
            blocks.append(one_pass(*args))
            return blocks[-1]

        monkeypatch.setattr(identity, "_pass", spy)
        real, other = (nonlinear_identity_residual(*pairs, 0.3, grid)
                       for pairs in ((f, h), typed))
        assert abs(real.lhs) > 1e-4  # a non-degenerate pair
        for want, got in zip(*blocks, strict=True):
            assert want.dtype == np.float64 and got.dtype == np.complex128
            assert not np.any(got.imag)
            assert np.ascontiguousarray(got.real).tobytes() == want.tobytes()
        monkeypatch.setattr(identity, "_pass", lambda *args: tuple(
            block.astype(complex) for block in blocks[0]))
        typed_real = nonlinear_identity_residual(*typed, 0.3, grid)
        for got, want in ((other.lhs, typed_real.lhs),
                          (other.rhs, typed_real.rhs)):
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


def test_pair_reads_x_through_T_and_y_from_T(coarse_grid):
    # < x(t), y(2T - t) > over (0, T): x's samples 0 .. T/dt meet y's
    # 2T/dt .. T/dt, so the identity's shorter f_t field, paired as x, may
    # stop at T
    n, rng = coarse_grid.half_index, np.random.default_rng(3)
    x, y = (rng.standard_normal((2, coarse_grid.nt)) for _ in range(2))
    ends = x[:, :n + 1] * y[:, ::-1][:, :n + 1].copy()
    want = np.trapezoid(ends[0] + ends[1], dx=coarse_grid.dt)
    got = _pair(x[:, :n + 1], y[:, n:], coarse_grid.dt)
    assert np.isfinite(want) and got == want


def test_linearized_rhs_reads_only_its_halves(mode4_data, mid_grid):
    # the first record is read over (0, T) and the second over (T, 2T): NaN
    # in the samples it does not read changes none of the three values
    lam, f, h = mode4_data
    n = mid_grid.half_index

    def nan_at(c, names, steps):
        fields = {}
        for name in names:
            v = getattr(c, name).values.copy()
            v[:, steps] = np.nan
            fields[name] = BoundaryTrace(v, mid_grid.dt)
        return replace(c, **fields)

    for x, y in ((f, f), (h, h), (f, h)):
        want = linearized_rhs(x, y, lam, mid_grid)
        first = nan_at(x, ("g", "meas_t"), slice(n + 1, None))
        second = nan_at(y, ("g", "g_t", "meas_t", "meas_tt"), slice(None, n))
        assert np.isfinite(want)
        assert linearized_rhs(first, second, lam, mid_grid) == want


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
