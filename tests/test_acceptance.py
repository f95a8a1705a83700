"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
on success).  The reference configuration is the [-1, 1] domain with
dx = 1/250, dt = 1/2500, T = 5 and truncation N = 10; module fixtures
acquire the measurement data once, on the paper grid's support grid as
``reconstruct`` does, and share them across criteria.
"""

import json
import statistics

import numpy as np
import pytest

from bcm1d import (
    GridSpec,
    MediumSpec,
    ReconSettings,
    acquire_clean_pair_data,
    apply_measurement_noise,
    error_metrics,
    linearized_rhs,
    nonlinear_identity_residual,
    reconstruct_from_data,
    synthesize,
    verify_control,
)
from bcm1d.cli import (_mms_error, main, piecewise_perturbation,
                       projection_truth, smooth_perturbation,
                       smooth_pulse_trace)
from bcm1d.control import support_grid
from bcm1d.recon import NONLINEAR_DIFFERENCE, fourier_targets

from oracles import stability_bound_check, weighted_volume_pairing

N_MODES = 10
SEEDS = range(11)


def paper_grid():
    return GridSpec(-1.0, 1.0, 1.0 / 250, 1.0 / 2500, 5.0)


def _report(num: int, desc: str, detail: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {desc} ({detail})")


def _acquire(medium, settings):
    measure = settings.measurement(medium)
    return [acquire_clean_pair_data(k, settings.grid, measure)
            for k in range(1, settings.N + 1)]


@pytest.fixture(scope="module")
def grid():
    return paper_grid()


@pytest.fixture(scope="module")
def support():
    """The paper grid's support grid, which ``reconstruct`` measures on."""
    return support_grid(paper_grid())


@pytest.fixture(scope="module")
def exp1(support):
    sig = smooth_perturbation(support.xs)
    medium = MediumSpec(0.0, sig)
    settings = ReconSettings(grid=support, N=N_MODES)
    data = _acquire(medium, settings)
    return dict(data=data, settings=settings, truth=sig, medium=medium)


@pytest.fixture(scope="module")
def exp2(support):
    medium = MediumSpec(0.0, piecewise_perturbation(support.xs))
    settings = ReconSettings(grid=support, N=N_MODES)
    data = _acquire(medium, settings)
    return dict(data=data, settings=settings,
                truth=projection_truth(N_MODES, support), medium=medium)


@pytest.fixture(scope="module")
def exp3(support):
    sig = smooth_perturbation(support.xs)
    medium = MediumSpec(0.0, sig, 200.0 * np.sin(20 * np.pi * support.xs))
    settings = ReconSettings(grid=support, N=N_MODES,
                             data_mode=NONLINEAR_DIFFERENCE,
                             eps_linearization=1e-3)
    data = _acquire(medium, settings)
    return dict(data=data, settings=settings, truth=sig, medium=medium)


def _rel_l2(bundle, data=None):
    """rel_l2 against the bundle's truth of the reconstruction from
    ``data``, by default the bundle's own."""
    grid = bundle["settings"].grid
    coeffs = reconstruct_from_data(
        bundle["data"] if data is None else data, bundle["settings"])
    return error_metrics(synthesize(coeffs, grid), bundle["truth"], grid)[0]


def _noisy_rel_l2(bundle, eps, seed):
    noisy = [
        apply_measurement_noise(data, k, eps, seed)
        for k, data in enumerate(bundle["data"], start=1)
    ]
    return _rel_l2(bundle, noisy)


def test_criterion_01_experiment1_noiseless_cli(tmp_path):
    code = main(["experiment", "--id", "1", "--noise", "0", "--seed", "0",
                 "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "summary.json").read_text())
    rel = summary["rel_l2"]
    # emitted coefficient table carries the sine moment in row k=4
    rows = (tmp_path / "coefficients.csv").read_text().splitlines()
    b4 = float(rows[5].split(",")[3])
    ok = code == 0 and rel <= 0.01 and abs(b4 - 1.0) <= 0.02
    _report(1, "experiment 1 noiseless (CLI end to end)",
            f"rel_l2 = {rel:.4%}, tol 1%; b_4 = {b4:.4f}; "
            f"runtime {summary['runtime_seconds']}s", ok)
    assert ok


def test_criterion_02_experiment2_noiseless(exp2):
    rel = _rel_l2(exp2)
    ok = rel <= 0.01
    _report(2, "experiment 2 noiseless vs N-term projection",
            f"rel_l2 = {rel:.4%}, tol 1%", ok)
    assert ok


def test_criterion_03_experiment3_noiseless(exp3):
    rel = _rel_l2(exp3)
    ok = rel <= 0.05
    _report(3, "experiment 3 noiseless (nonlinear differences)",
            f"rel_l2 = {rel:.4%}, tol 5%", ok)
    assert ok


def test_criterion_04_noisy_medians(exp1, exp2, exp3):
    reference = {
        (1, 0.01): 0.035, (1, 0.05): 0.162,
        (2, 0.01): 0.030, (2, 0.05): 0.225,
        (3, 0.01): 0.059, (3, 0.05): 0.194,
    }
    bundles = {1: exp1, 2: exp2, 3: exp3}
    ok_all = True
    details = []
    for exp_id, bundle in bundles.items():
        medians = {}
        for eps in (0.01, 0.05):
            rels = [_noisy_rel_l2(bundle, eps, seed) for seed in SEEDS]
            medians[eps] = statistics.median(rels)
        clean = _rel_l2(bundle)
        monotone = clean <= medians[0.01] <= medians[0.05]
        ok_all &= monotone
        for eps in (0.01, 0.05):
            ref = reference[(exp_id, eps)]
            ok = 0.5 * ref <= medians[eps] <= 2.0 * ref
            ok_all &= ok
            details.append(f"exp{exp_id}@{eps:.0%}: {medians[eps]:.3%} "
                           f"[{0.5 * ref:.2%}, {2 * ref:.2%}]")
    _report(4, "noisy-run medians near reference values", "; ".join(details), ok_all)
    assert ok_all


def test_criterion_05_nonlinear_identity(grid):
    reps = []
    fine = GridSpec(grid.a, grid.b, grid.dx / 2, grid.dt / 2, grid.T)
    for g in (grid, fine):
        f = smooth_pulse_trace(g, 1.2, 0.25, 6.0, 1.0, 0.3)
        h = smooth_pulse_trace(g, 1.7, 0.30, 4.0, 0.5, 1.0)
        reps.append(nonlinear_identity_residual(f, h, 0.3, g))
    rel = reps[0].rel_residual
    factor = abs(reps[0].lhs - reps[0].rhs) / abs(reps[1].lhs - reps[1].rhs)
    ok = rel <= 1e-2 and 3.4 <= factor <= 4.6
    _report(5, "nonlinear boundary identity + refinement",
            f"rel residual = {rel:.2e} (tol 1e-2), halving factor = {factor:.2f}"
            " (window [3.4, 4.6])", ok)
    assert ok


def test_criterion_06_linearized_identity_oracle(exp1, support):
    sig = exp1["truth"]
    ok_all = True
    worst = 0.0
    for k, (lam, f, h) in enumerate(exp1["data"][:5], start=1):
        # each control with its target snapshot p0(T) on the nodes
        pf, ph, _ = fourier_targets(k, support)
        F = (f, np.asarray(pf(support.xs)[0], dtype=complex))
        H = (h, np.asarray(ph(support.xs)[0], dtype=complex))
        for (a, snap_a), (b, snap_b) in ((F, H), (F, F), (H, H)):
            value = linearized_rhs(a, b, lam, support)
            vol = weighted_volume_pairing(snap_a, snap_b, sig, support)
            err = abs(value - vol) / max(abs(vol), 1.0)
            worst = max(worst, err)
            ok_all &= err <= 1e-2
        sym = abs(linearized_rhs(f, h, lam, support)
                  - linearized_rhs(h, f, lam, support))
        vol_fh = weighted_volume_pairing(F[1], H[1], sig, support)
        ok_all &= sym / max(abs(vol_fh), 1.0) <= 1e-2
    _report(6, "linearized identity vs volume oracle (k <= 5, all pairs)",
            f"worst relative deviation = {worst:.2e}, tol 1e-2", ok_all)
    assert ok_all


def test_criterion_07_control_fidelity(grid):
    # The criterion pins the targets and lam but not the verification
    # discretization.  At the reference time step the (2,2) scheme's own
    # dispersion of the flank waveform contributes up to ~4.4e-3 over
    # k <= 10, so the controls are verified with the exact
    # unit-CFL propagation (dt = dx, same spatial grid), which isolates the
    # controls from the instrument; the reference-dt instrument values are
    # reported alongside.
    exact_grid = GridSpec(grid.a, grid.b, grid.dx, grid.dx, grid.T)
    ok_all = True
    worst_p = worst_init = 0.0
    targets = []
    for k in range(1, 11):
        pT_f, pT_h, lam = fourier_targets(k, grid)
        targets += [(pT_f, lam), (pT_h, lam)]
    for rep in verify_control(targets, exact_grid):
        worst_p = max(worst_p, rep.err_p)
        worst_init = max(worst_init, rep.err_init)
        ok_all &= rep.err_p <= 1e-2 and rep.err_init <= 1e-10
    worst_ref = max(rep.err_p for rep in verify_control(targets, grid))
    _report(7, "control fidelity k <= 10 (exact-propagation instrument)",
            f"worst err_p = {worst_p:.2e} (tol 1e-2), worst err_init = "
            f"{worst_init:.1e} (tol 1e-10); reference-dt instrument worst "
            f"err_p = {worst_ref:.2e} (dispersion-limited)", ok_all)
    assert ok_all


def test_criterion_08_coefficient_ground_truth(exp1):
    # Coefficients are compared through their real parts: by conjugation
    # symmetry the run with the conjugate free parameter yields exactly the
    # conjugate coefficients, so Re(a_k) is the average over the conjugate
    # parameter pair while Im(a_k) is the parameter-odd discretization error
    # (amplified by |lambda|; it vanishes with the scheme's dispersion).
    c = reconstruct_from_data(exp1["data"], exp1["settings"])
    checks = [abs(c.a0.real - 8.0) <= 0.1]
    details = [f"a0 = {c.a0.real:.4f}"]
    worst = 0.0
    for k in range(1, N_MODES + 1):
        want_a = 1.0 if k in (1, 2, 3) else 0.0
        want_b = 1.0 if k == 4 else 0.0
        dev = max(abs(c.a[k - 1].real - want_a), abs(c.b[k - 1].real - want_b))
        worst = max(worst, dev)
        checks.append(dev <= 0.02)
    leak = max(np.max(np.abs(c.a.imag)), np.max(np.abs(c.b.imag)))
    details.append(f"worst mode deviation = {worst:.4f} (tol 0.02)")
    details.append(f"imaginary leakage = {leak:.4f} (reported, dispersion-driven)")
    ok = all(checks)
    _report(8, "experiment 1 coefficient oracle", ", ".join(details), ok)
    assert ok


def test_invariant_imaginary_leakage_is_pure_dispersion(exp1, grid):
    # the parameter-odd error grows like |lambda| times the dispersion phase
    # at the reference time step; with exact unit-CFL propagation it collapses
    # to roundoff, confirming the coefficients' imaginary parts carry no
    # information about the perturbation
    c = reconstruct_from_data(exp1["data"], exp1["settings"])
    leak_ref = max(np.max(np.abs(c.a.imag)), np.max(np.abs(c.b.imag)))
    assert leak_ref <= 0.1

    magic = GridSpec(grid.a, grid.b, grid.dx, grid.dx, grid.T)
    medium = MediumSpec(0.0, smooth_perturbation(magic.xs))
    settings = ReconSettings(grid=magic, N=N_MODES)
    lam, f, h = acquire_clean_pair_data(N_MODES, magic,
                                        settings.measurement(medium))
    a_N = linearized_rhs(h, h, lam, magic) - linearized_rhs(f, f, lam, magic)
    print(f"imaginary leakage: reference dt {leak_ref:.2e}, unit-CFL "
          f"|Im a_N| = {abs(a_N.imag):.2e}")
    assert abs(a_N.imag) <= 1e-5


def test_criterion_09_stability_chain(exp1, support):
    ok_all = True
    min_slack = np.inf
    measure = exp1["settings"].measurement(exp1["medium"])
    for lam, f, h in exp1["data"][:5]:
        Lf, Lh = measure([f.g, h.g])
        for a, b, La, Lb in ((f, h, Lf, Lh), (f, f, Lf, Lf), (h, h, Lh, Lh)):
            rep = stability_bound_check(a, b, lam, support, La, Lb)
            ok_all &= rep.ok
            if rep.lhs_abs > 0:
                min_slack = min(min_slack, rep.bound / rep.lhs_abs)
    _report(9, "trace-level stability chain (k <= 5, all pairs)",
            f"all bounds hold; smallest bound/value ratio = {min_slack:.1f}",
            ok_all)
    assert ok_all


def test_criterion_10_solver_order():
    errs = [_mms_error(GridSpec(-1.0, 1.0, 1.0 / n, 1.0 / (10 * n), 3.0))
            for n in (25, 50, 100)]
    factors = [errs[i] / errs[i + 1] for i in range(2)]
    ok = all(3.4 <= f <= 4.6 for f in factors)
    _report(10, "manufactured-solution refinement factors",
            f"factors = {factors[0]:.2f}, {factors[1]:.2f} (window [3.4, 4.6])",
            ok)
    assert ok
