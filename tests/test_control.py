import numpy as np
import pytest

from bcm1d import (
    GridSpec,
    build_control,
    cosine_profile,
    fourier_targets,
    sine_profile,
    snapshots_many,
    verify_control,
)
from bcm1d import control
from bcm1d.control import support_grid
from bcm1d.extension import extended_derivatives

from conftest import assert_quiet


def test_zero_target_gives_zero_control(coarse_grid):
    bundle = build_control(sine_profile(0.0), 1j, coarse_grid)
    for tr in (bundle.f, bundle.f_t, bundle.f_tt):
        assert np.all(tr.values == 0)


def test_zero_lambda_rejected(coarse_grid):
    with pytest.raises(ValueError):
        build_control(sine_profile(1.0), 0.0, coarse_grid)


def test_control_achieves_target_snapshots(coarse_grid):
    kappa = np.pi / 2
    (rep,) = verify_control([(sine_profile(kappa), 1j * kappa)], coarse_grid)
    assert rep.err_p <= 3e-2
    assert rep.err_q <= 3e-2
    assert rep.err_init <= 1e-12


def test_control_error_decays_under_refinement():
    # the scheme's dispersion error is second order, so halving dx and dt
    # divides err_p by about 4 (3.99 at these sizes)
    kappa = np.pi / 2
    errs = []
    for n in (100, 200):
        g = GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 3.0)
        errs.append(verify_control([(sine_profile(kappa), 1j * kappa)], g)[0].err_p)
    assert 2.5 <= errs[0] / errs[1] <= 5.0


def test_control_is_exact_at_unit_cfl():
    # dt = dx propagates 1D waves exactly, isolating the control itself
    # from the instrument's dispersion: targets check out to near machine
    # precision once the flank spectrum is resolved
    g = GridSpec(-1.0, 1.0, 1.0 / 250, 1.0 / 250, 3.0)
    kappa = np.pi / 2
    for prof in (sine_profile(kappa), cosine_profile(kappa)):
        (rep,) = verify_control([(prof, 1j * kappa)], g)
        assert rep.err_p <= 1e-4
        assert rep.err_init == 0.0


def test_batched_verification_matches_single(coarse_grid):
    kappa = np.pi / 2
    t1 = (sine_profile(kappa), 1j * kappa)
    t2 = (cosine_profile(np.pi), 1j * np.pi)
    assert verify_control([t1, t2], coarse_grid) == [
        verify_control([t1], coarse_grid)[0], verify_control([t2], coarse_grid)[0]]


def test_traces_match_direct_extension(coarse_grid):
    # the controls share per-grid extension geometry; built alternately on
    # two grids of equal size but different domains, each bundle must equal the extension evaluated at s- = x0 - T + t,
    # read reversed for s+ = x0 + T - t, and agree to rounding with an
    # independent evaluation at s+ itself
    shifted = GridSpec(0.0, 2.0, coarse_grid.dx, coarse_grid.dt, coarse_grid.T)
    kappa = 1.3
    lam, prof = 1j * kappa, cosine_profile(kappa)
    c = -1.0 / lam

    def normal_traces(sign, p, m):
        return (sign * 0.5 * (c * (p[1] + m[1]) + m[0] - p[0]),
                sign * 0.5 * (c * (m[2] - p[2]) + m[1] + p[1]),
                sign * 0.5 * (c * (p[3] + m[3]) + m[2] - p[2]))

    for g in (coarse_grid, shifted, coarse_grid):
        bundle = build_control(prof, lam, g)
        for x0, sign, end in ((g.a, -1.0, 0), (g.b, +1.0, 1)):
            m = extended_derivatives(prof, g.a, g.b, x0 - g.T + g.ts)
            p = extended_derivatives(prof, g.a, g.b, x0 + g.T - g.ts)
            want = normal_traces(sign, [v[::-1] for v in m], m)
            direct = normal_traces(sign, p, m)
            for tr, w, w_direct in zip((bundle.f, bundle.f_t, bundle.f_tt),
                                       want, direct):
                got = tr.values[end]
                assert np.array_equal(got, w)
                assert (np.max(np.abs(got - w_direct))
                        <= 1e-12 * np.max(np.abs(w_direct)))


def test_controls_from_real_series_keep_their_bits(coarse_grid, monkeypatch):
    # the extension's series are real for the real targets, and the controls
    # turn complex through c = -1/lam only: bit for bit the controls built
    # from the same series stored as complex with zero imaginary parts
    pT_f, pT_h, lam = fourier_targets(3, coarse_grid)
    real = [build_control(pT, lam, coarse_grid) for pT in (pT_f, pT_h)]
    derivatives = control._derivatives

    def as_complex(phi, plan):
        series = derivatives(phi, plan)
        assert all(v.dtype == np.float64 for v in series)
        return [v.astype(complex) for v in series]

    monkeypatch.setattr(control, "_derivatives", as_complex)
    typed = [build_control(pT, lam, coarse_grid) for pT in (pT_f, pT_h)]
    for got, want in zip(real, typed, strict=True):
        for tg, tw in zip(got, want, strict=True):
            assert tg.values.dtype == np.complex128
            assert tg.values.tobytes() == tw.values.tobytes()


def test_control_map_is_linear(coarse_grid):
    lam = 1j * np.pi
    p1, p2 = sine_profile(np.pi), cosine_profile(np.pi)
    al, be = 1.5, -2.0 + 0.5j
    combo = lambda x: tuple(al * u + be * v for u, v in zip(p1(x), p2(x)))
    b1 = build_control(p1, lam, coarse_grid)
    b2 = build_control(p2, lam, coarse_grid)
    bc = build_control(combo, lam, coarse_grid)
    for attr in ("f", "f_t", "f_tt"):
        want = al * getattr(b1, attr).values + be * getattr(b2, attr).values
        got = getattr(bc, attr)
        assert np.allclose(got.values, want, rtol=1e-12, atol=1e-12)


def test_conjugation_pairing_for_real_targets(coarse_grid):
    # real target, lam = i kappa: conj(control) equals the control at -i kappa
    kappa = np.pi / 2
    plus = build_control(sine_profile(kappa), 1j * kappa, coarse_grid)
    minus = build_control(sine_profile(kappa), -1j * kappa, coarse_grid)
    assert np.allclose(np.conj(plus.f.values), minus.f.values, atol=1e-14)
    # psi terms are real, phi' terms imaginary
    psi_part = (plus.f.values[0] + minus.f.values[0]) / 2
    phi_part = (plus.f.values[0] - minus.f.values[0]) / 2
    assert np.max(np.abs(psi_part.imag)) <= 1e-14
    assert np.max(np.abs(phi_part.real)) <= 1e-14


def test_control_quiet_before_wave_arrival(coarse_grid_t5):
    # extension support reaches distance 1, so the trace sleeps until T - L - 1
    g = coarse_grid_t5
    bundle = build_control(sine_profile(np.pi / 2), 1j * np.pi / 2, g)
    onset = g.T - (g.b - g.a) - 1.0
    quiet = g.ts < onset - 1e-9
    assert np.all(bundle.f.values[:, quiet] == 0)
    active = (g.ts > onset + 0.2) & (g.ts < onset + 0.8)
    assert np.max(np.abs(bundle.f.values[1, active])) > 0


def test_derivative_traces_match_numerical_differentiation():
    # centered differences of the trace approach the analytic derivative
    # trace at second order; the second-derivative trace is only
    # continuous, so the rate check applies to f alone
    kappa = np.pi
    devs = []
    for n_t in (500, 1000):
        g = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / n_t, 3.0)
        bundle = build_control(sine_profile(kappa), 1j * kappa, g)
        devs.append(max(
            np.max(np.abs(np.gradient(v, g.dt, edge_order=2) - w))
            for v, w in zip(bundle.f.values, bundle.f_t.values)
        ))
    assert 3.0 <= devs[0] / devs[1] <= 5.2, devs


def test_verify_control_zero_target(coarse_grid):
    (rep,) = verify_control([(sine_profile(0.0), 1j)], coarse_grid)
    assert rep.err_p == 0 and rep.err_q == 0 and rep.err_init == 0


def test_verify_control_zero_gradient_target(coarse_grid):
    # a constant velocity target: the gradient target is zero, so err_q is
    # the absolute error while err_p stays relative, both on the support
    # grid, where verify_control runs
    pT, lam = cosine_profile(0.0), 1j
    (rep,) = verify_control([(pT, lam)], coarse_grid)
    grid = support_grid(coarse_grid)
    control = build_control(pT, lam, grid)
    u, q = snapshots_many(grid, 0.0, [control.f, control.f_t])
    assert rep.err_q == np.linalg.norm(q[0])
    p_want = np.ones(grid.nx)
    assert rep.err_p == (np.linalg.norm(u[1] - p_want)
                         / np.linalg.norm(p_want))


def _quiet_steps(grid):
    """The steps at either end of ``grid`` that its support grid leaves
    out, plus the three it keeps."""
    return grid.half_index - support_grid(grid).half_index + 3


@pytest.mark.parametrize("dx, dt, nt", [
    (1.0 / 50, 1.0 / 500, 3007),
    (1.0 / 50, 1.0 / 196, 1183),
    (0.04, 0.04, 157),
    (0.1, 0.1, 67),
], ids=["dt=1/500", "dt=1/196", "dt=0.04", "dt=0.1"])
def test_support_grid_is_one_for_every_T(dx, dt, nt):
    # each T, taken to a whole number of steps, gives one support grid,
    # also where T / dt passes 2^54: ((b - a) + 1) / dt steps, rounded up
    # to a whole one, and the three the maps need, at either side of T
    grids = {support_grid(GridSpec(-1.0, 1.0, dx, dt, round(T / dt) * dt))
             for T in (3.0, 3.3, 5.0, 7.0, 1e9, 1e17)}
    assert len(grids) == 1
    (grid,) = grids
    assert grid.nt == nt


@pytest.mark.parametrize("T", [3.0, 4.0, 5.0, 7.0])
def test_quiet_steps_is_the_controls_lead_in(T):
    # the support grid leaves out all but three of the grid's quiet steps:
    # the controls are zero before them and nonzero right after them, on
    # the grid and on its support grid
    grid = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, T)
    quiet = _quiet_steps(grid)
    assert quiet == round((T - 3.0) * 500)
    for k in range(1, 6):
        pT_f, pT_h, lam = fourier_targets(k, grid)
        for pT in (pT_f, pT_h):
            assert_quiet(build_control(pT, lam, grid), quiet)
            assert_quiet(build_control(pT, lam, support_grid(grid)), 3)


def test_quiet_steps_on_the_paper_grid():
    grid = GridSpec(-1.0, 1.0, 1.0 / 250, 1.0 / 2500, 5.0)
    short = support_grid(grid)
    assert short.nt == 15007 and short.T == 3.0012000000000003
    assert _quiet_steps(grid) == 5000
    pT_f, pT_h, lam = fourier_targets(3, grid)
    for pT in (pT_f, pT_h):
        assert_quiet(build_control(pT, lam, grid), 5000)
        assert_quiet(build_control(pT, lam, short), 3)


def test_quiet_steps_bounds_the_steps_before_it_only():
    # the step after the quiet ones can hold a bump factor near 1e-120,
    # when rounding in ts puts its argument just inside (a - 1, b + 1)
    grid = GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 196, 3.5)
    for g, quiet in ((grid, 98), (support_grid(grid), 3)):
        pT_f, _, lam = fourier_targets(1, g)
        bundle = build_control(pT_f, lam, g)
        assert_quiet(bundle, quiet)
        at = np.abs(bundle.f.values[:, quiet])
        assert 0.0 < np.max(at) < 1e-100
    assert _quiet_steps(grid) == 98


def test_quiet_steps_at_unit_cfl():
    # the coarse spacing and the paper's
    for dx, nt in ((1.0 / 50, 307), (1.0 / 250, 1507)):
        grid = GridSpec(-1.0, 1.0, dx, dx, 5.0)
        short = support_grid(grid)
        assert short.nt == nt
        assert _quiet_steps(grid) == round(2.0 / dx)
        for k in (1, 4):
            pT_f, pT_h, lam = fourier_targets(k, grid)
            for pT in (pT_f, pT_h):
                assert_quiet(build_control(pT, lam, grid), _quiet_steps(grid))
                assert_quiet(build_control(pT, lam, short), 3)


def test_quiet_steps_at_the_minimal_window():
    # T = (b - a) + 1, also where ((b - a) + 1) / dt rounds to 19 - 4e-15:
    # the controls start at step 0, and the support grid is three steps
    # longer at either end
    for grid in (GridSpec(-1.0, 1.0, 0.04, 0.04, 3.0),
                 GridSpec(0.0, 0.9, 0.1, 0.1, 1.9)):
        short = support_grid(grid)
        assert short.half_index == grid.half_index + 3
        pT_f, pT_h, lam = fourier_targets(1, grid)
        for pT in (pT_f, pT_h):
            assert_quiet(build_control(pT, lam, grid), 0)
            assert_quiet(build_control(pT, lam, short), 3)


@pytest.mark.parametrize("grid", [
    GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 5.0),
    GridSpec(-1.0, 1.0, 1.0 / 100, 1.0 / 1000, 5.0),
    GridSpec(-1.0, 1.0, 1.0 / 250, 1.0 / 2500, 5.0),
    # (T - (b - a) - 1) / dt = 26.25
    GridSpec(0.0, 0.95, 0.05, 0.04, 3.0),
], ids=["coarse_grid_t5", "mid_grid", "paper", "fractional"])
def test_controls_on_the_support_grid_are_the_grid_s_moved(grid):
    # samples s .. nt - 1 - s of the controls on ``grid``, zero in the
    # first and the last three steps
    short = support_grid(grid)
    s = grid.half_index - short.half_index
    assert s > 0
    for k in (1, 5):
        pT_f, pT_h, lam = fourier_targets(k, grid)
        for pT in (pT_f, pT_h):
            for got, want in zip(build_control(pT, lam, short),
                                 build_control(pT, lam, grid)):
                for v, w in zip(got.values, want.values):
                    assert (np.max(np.abs(v - w[s:grid.nt - s]))
                            <= 1e-13 * np.max(np.abs(w)))
                    assert not np.any(v[:3]) and not np.any(v[-3:])
