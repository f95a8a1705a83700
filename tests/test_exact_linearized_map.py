"""The stepper's linearized ND map against the exact one for sigma0 = 0.

``oracles.exact_linearized_nd_map`` builds the map's 2 x 2 kernel from the
depth integral F of sigma_dot over its image paths and applies it by FFT
convolution.  The tests check the kernel's own structure (the Born
reflection before the far end's echo, reciprocity, mirror symmetry), the
stepper's second-order convergence to it, and a reconstruction from its
data, which carries no error of the finite-difference instrument.
"""

import numpy as np

from bcm1d import (
    GridSpec,
    MediumSpec,
    ReconSettings,
    acquire_clean_pair_data,
    build_control,
    error_metrics,
    fourier_targets,
    linearized_nd_map_many,
    reconstruct_from_data,
    synthesize,
)
from bcm1d.cli import PIECEWISE, projection_truth, smooth_pulse_trace
from bcm1d.control import support_grid

from conftest import smooth_sigma_dot
from oracles import (born_reflection, exact_linearized_kernel,
                     exact_linearized_nd_map)


def _asymmetric_antiderivative(x):
    """Of sigma_dot = cos(pi x) + sin(2 pi x) / 2 + 2."""
    return (np.sin(np.pi * x) / np.pi - np.cos(2.0 * np.pi * x) / (4.0 * np.pi)
            + 2.0 * x)


def _smooth_antiderivative(x):
    """Of ``conftest.smooth_sigma_dot``, experiment 1's perturbation."""
    return (np.sin(np.pi * x) / np.pi + np.sin(2.0 * np.pi * x) / (2.0 * np.pi)
            + np.sin(3.0 * np.pi * x) / (3.0 * np.pi)
            - np.cos(4.0 * np.pi * x) / (4.0 * np.pi) + 4.0 * x)


def _depth_integral(grid, antiderivative):
    """F(xi), the integral of sigma_dot over the first xi of depth from a."""
    return lambda xi: antiderivative(grid.a + xi) - antiderivative(grid.a)


def _piecewise_depth_integral(grid):
    """F(xi) of experiment 2's medium, exact across its breaks."""
    u, v, level = np.array(PIECEWISE).T
    return lambda xi: (np.clip(grid.a + np.asarray(xi)[..., None], u, v)
                       - u) @ level


def _rel_l2_from_exact_data(grid, F, N, truth):
    """rel_l2 against ``truth`` of the N-mode reconstruction from the exact
    map's data in the medium whose depth integral is ``F``."""
    exact = exact_linearized_nd_map(grid, F)
    coeffs = reconstruct_from_data(
        (acquire_clean_pair_data(k, grid, exact) for k in range(1, N + 1)),
        ReconSettings(grid, N=N))
    return error_metrics(synthesize(coeffs, grid), truth, grid)[0]


def _paper_support_grid():
    return support_grid(GridSpec(-1.0, 1.0, 1.0 / 250, 1.0 / 2500, 5.0))


def test_kernel_is_the_born_reflection_then_reciprocal_and_mirrored():
    grid = support_grid(GridSpec(-1.0, 1.0, 1.0 / 50, 1.0 / 500, 3.0))
    L = grid.b - grid.a
    F = _depth_integral(grid, _asymmetric_antiderivative)
    # the a -> a entry is F(s/2) for s < 2L, so before t = 2L the trace at
    # the end the data enter is the Born reflection
    g = smooth_pulse_trace(grid, 0.5, 0.08, 20.0, 1.0, 0.0)[0]
    (out,) = exact_linearized_nd_map(grid, F)([g])
    born = born_reflection(grid, g.values[0], F)
    early = grid.ts < 2.0 * L
    assert (np.max(np.abs(out.values[0] - born)[early])
            <= 1e-12 * np.max(np.abs(born[early])))
    # K[i, j] is the response at end j to data at end i: the response at b
    # to data at a is that at a to data at b, and mirroring the medium
    # about the midpoint swaps the two ends
    k = exact_linearized_kernel(grid, F)
    scale = np.max(np.abs(k))
    assert np.max(np.abs(k[0, 1] - k[1, 0])) <= 1e-13 * scale
    k_mirrored = exact_linearized_kernel(
        grid, lambda xi: (_asymmetric_antiderivative(grid.b)
                          - _asymmetric_antiderivative(grid.b - xi)))
    assert np.max(np.abs(k - k_mirrored[::-1, ::-1])) <= 1e-13 * scale


def test_stepper_converges_to_the_exact_map():
    # experiment 1's medium driven by mode 1's sine control f_t, relative
    # L2 gap over whole traces
    gaps = []
    for dx in (0.02, 0.01, 0.005):
        grid = support_grid(GridSpec(-1.0, 1.0, dx, dx / 10, 3.0))
        pT_f, _, lam = fourier_targets(1, grid)
        f_t = build_control(pT_f, lam, grid).f_t
        (exact,) = exact_linearized_nd_map(
            grid, _depth_integral(grid, _smooth_antiderivative))([f_t])
        (got,) = linearized_nd_map_many(
            grid, MediumSpec(0.0, smooth_sigma_dot(grid.xs)), [f_t])
        gaps.append(np.linalg.norm(got.values - exact.values)
                    / np.linalg.norm(exact.values))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.4 <= coarse / fine <= 4.6


def test_reconstruction_from_exact_data():
    # experiment 1 on the paper grid's support grid: with the instrument's
    # error gone, what is left is the quadratures' O(dt^2)
    grid = _paper_support_grid()
    rel_l2 = _rel_l2_from_exact_data(
        grid, _depth_integral(grid, _smooth_antiderivative), 10,
        smooth_sigma_dot(grid.xs))
    assert rel_l2 <= 1e-6


def test_reconstruction_from_exact_data_at_N_40():
    # the stepper's phase error makes N = 40 unreadable on this grid; the
    # exact map's data carry none
    grid = _paper_support_grid()
    rel_l2 = _rel_l2_from_exact_data(
        grid, _depth_integral(grid, _smooth_antiderivative), 40,
        smooth_sigma_dot(grid.xs))
    assert rel_l2 <= 1e-6


def test_piecewise_reconstruction_from_exact_data():
    # experiment 2 against its N-term projection: the depth integral takes
    # the jumps exactly, so no sampling of the medium enters
    grid = _paper_support_grid()
    rel_l2 = _rel_l2_from_exact_data(grid, _piecewise_depth_integral(grid),
                                     10, projection_truth(10, grid))
    assert rel_l2 <= 1e-5
