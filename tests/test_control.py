import numpy as np
import pytest

from bcm1d import (
    AnalyticProfile,
    GridSpec,
    build_control,
    cosine_profile,
    sine_profile,
    solve_many,
    verify_control,
)
from bcm1d.extension import extended_derivatives


def test_zero_target_gives_zero_control(coarse_grid):
    bundle = build_control(sine_profile(0.0), 1j, coarse_grid)
    for tr in (bundle.f, bundle.f_t, bundle.f_tt):
        assert np.all(tr.values_a == 0) and np.all(tr.values_b == 0)


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
    # the flank waveform carries marginally resolved wavenumbers at these
    # sizes, so the dispersion-driven error ratio approaches 4 from below
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
        for x0, sign, end in ((g.a, -1.0, "values_a"),
                              (g.b, +1.0, "values_b")):
            m = extended_derivatives(prof, g.a, g.b, x0 - g.T + g.ts)
            p = extended_derivatives(prof, g.a, g.b, x0 + g.T - g.ts)
            want = normal_traces(sign, [v[::-1] for v in m], m)
            direct = normal_traces(sign, p, m)
            for tr, w, w_direct in zip((bundle.f, bundle.f_t, bundle.f_tt),
                                       want, direct):
                got = getattr(tr, end)
                assert np.array_equal(got, w)
                assert (np.max(np.abs(got - w_direct))
                        <= 1e-12 * np.max(np.abs(w_direct)))


def test_control_map_is_linear(coarse_grid):
    lam = 1j * np.pi
    p1, p2 = sine_profile(np.pi), cosine_profile(np.pi)
    al, be = 1.5, -2.0 + 0.5j
    combo = AnalyticProfile(
        lambda x: al * p1.value(x) + be * p2.value(x),
        lambda x: al * p1.deriv1(x) + be * p2.deriv1(x),
        lambda x: al * p1.deriv2(x) + be * p2.deriv2(x),
        lambda x: al * p1.deriv3(x) + be * p2.deriv3(x),
    )
    b1 = build_control(p1, lam, coarse_grid)
    b2 = build_control(p2, lam, coarse_grid)
    bc = build_control(combo, lam, coarse_grid)
    for attr in ("f", "f_t", "f_tt"):
        want = al * getattr(b1, attr) + be * getattr(b2, attr)
        got = getattr(bc, attr)
        assert np.allclose(got.values_a, want.values_a, rtol=1e-12, atol=1e-12)
        assert np.allclose(got.values_b, want.values_b, rtol=1e-12, atol=1e-12)


def test_conjugation_pairing_for_real_targets(coarse_grid):
    # real target, lam = i kappa: conj(control) equals the control at -i kappa
    kappa = np.pi / 2
    plus = build_control(sine_profile(kappa), 1j * kappa, coarse_grid)
    minus = build_control(sine_profile(kappa), -1j * kappa, coarse_grid)
    assert np.allclose(np.conj(plus.f.values_a), minus.f.values_a, atol=1e-14)
    assert np.allclose(np.conj(plus.f.values_b), minus.f.values_b, atol=1e-14)
    # psi terms are real, phi' terms imaginary
    psi_part = (plus.f.values_a + minus.f.values_a) / 2
    phi_part = (plus.f.values_a - minus.f.values_a) / 2
    assert np.max(np.abs(psi_part.imag)) <= 1e-14
    assert np.max(np.abs(phi_part.real)) <= 1e-14


def test_control_quiet_before_wave_arrival(coarse_grid_t5):
    # extension support reaches distance 1, so the trace sleeps until T - L - 1
    g = coarse_grid_t5
    bundle = build_control(sine_profile(np.pi / 2), 1j * np.pi / 2, g)
    onset = g.T - (g.b - g.a) - 1.0
    quiet = g.ts < onset - 1e-9
    assert np.all(bundle.f.values_a[quiet] == 0)
    assert np.all(bundle.f.values_b[quiet] == 0)
    active = (g.ts > onset + 0.2) & (g.ts < onset + 0.8)
    assert np.max(np.abs(bundle.f.values_b[active])) > 0


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
            np.max(np.abs(np.gradient(bundle.f.values_a, g.dt, edge_order=2)
                          - bundle.f_t.values_a)),
            np.max(np.abs(np.gradient(bundle.f.values_b, g.dt, edge_order=2)
                          - bundle.f_t.values_b)),
        ))
    assert 3.0 <= devs[0] / devs[1] <= 5.2, devs


def test_verify_control_zero_target(coarse_grid):
    (rep,) = verify_control([(sine_profile(0.0), 1j)], coarse_grid)
    assert rep.err_p == 0 and rep.err_q == 0 and rep.err_init == 0


def test_verify_control_zero_gradient_target(coarse_grid):
    # a constant velocity target: the gradient target is zero, so err_q is
    # the absolute error while err_p stays relative
    pT, lam = cosine_profile(0.0), 1j
    (rep,) = verify_control([(pT, lam)], coarse_grid)
    control = build_control(pT, lam, coarse_grid)
    out, out_t = solve_many(coarse_grid, 0.0, [control.f, control.f_t])
    assert rep.err_q == np.linalg.norm(out.qT_snapshot)
    p_want = np.ones(coarse_grid.nx)
    assert rep.err_p == (np.linalg.norm(out_t.uT_snapshot - p_want)
                         / np.linalg.norm(p_want))
