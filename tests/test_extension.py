import numpy as np
import pytest
import sympy as sp

from bcm1d import AnalyticProfile, cosine_profile, sine_profile
from bcm1d.extension import _bump_factors, extended_derivatives

A, B = -1.0, 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_bump_factor_derivatives_match_symbolic(d):
    # independent oracle: differentiate exp(1 - 1/(1 - u^(2d))) symbolically
    u = sp.symbols("u")
    expr = sp.exp(1 - 1 / (1 - u ** (2 * d)))
    pts = np.linspace(-0.97, 0.97, 53)
    got = _bump_factors(pts, d)
    for order in range(4):
        fn = sp.lambdify(u, sp.diff(expr, u, order), "numpy")
        assert np.allclose(got[order], fn(pts), rtol=1e-10, atol=1e-9)


def test_extension_is_identity_on_the_domain():
    one = cosine_profile(0.0)
    assert np.isclose(extended_derivatives(one, A, B, 0.3)[0][0], 1.0)
    xs = np.linspace(A, B, 11)
    assert np.allclose(extended_derivatives(one, A, B, xs)[0], 1.0)


def test_extension_vanishes_outside_support():
    one = cosine_profile(0.0)
    assert extended_derivatives(one, A, B, -2.1)[0][0] == 0
    assert extended_derivatives(one, A, B, 2.0)[0][0] == 0
    xs = np.array([-3.0, -2.0, 2.0, 5.0])
    for values in extended_derivatives(one, A, B, xs):
        assert np.all(values == 0)


def test_flank_value_closed_form():
    # at x - a = -1/2 with d = 2 the bump exponent is 1 - 16/15 = -1/15
    got = extended_derivatives(cosine_profile(0.0), A, B, -1.5)[0][0]
    want = np.exp(-1.0 / 15.0)
    assert np.isclose(got, want, rtol=1e-14)
    assert np.isclose(want, 0.935507, atol=5e-7)


def test_extension_matches_profile_and_derivatives_inside():
    p = sine_profile(1.7)
    xs = np.linspace(-0.9, 0.9, 7)
    ext = extended_derivatives(p, A, B, xs)
    for order, deriv in enumerate((p.value, p.deriv1, p.deriv2, p.deriv3)):
        assert np.allclose(ext[order], deriv(xs), rtol=1e-14)


def test_extension_derivatives_consistent_with_finite_differences():
    def ext(x):
        return extended_derivatives(cosine_profile(2.1), A, B, x)

    # interior of the left flank, interior of the domain, right flank
    pts = np.array([-1.6, -1.2, 0.4, 1.3, 1.8])
    for order in range(1, 4):
        hi = ext(pts)[order]
        errs = []
        for h in (1e-4, 5e-5):
            fd = (ext(pts + h)[order - 1] - ext(pts - h)[order - 1]) / (2 * h)
            errs.append(np.max(np.abs(fd - hi)))
        assert errs[0] < 1e-4 * max(1.0, np.max(np.abs(hi)))
        # second-order convergence of the centered difference check
        assert errs[1] < 0.3 * errs[0]


def test_extension_linearity():
    p1, p2 = sine_profile(1.0), cosine_profile(2.0)
    al, be = 2.0, -0.5 + 1.0j
    combo = AnalyticProfile(
        lambda x: al * p1.value(x) + be * p2.value(x),
        lambda x: al * p1.deriv1(x) + be * p2.deriv1(x),
        lambda x: al * p1.deriv2(x) + be * p2.deriv2(x),
        lambda x: al * p1.deriv3(x) + be * p2.deriv3(x),
    )
    xs = np.linspace(-2.2, 2.2, 97)
    e1 = extended_derivatives(p1, A, B, xs)
    e2 = extended_derivatives(p2, A, B, xs)
    ec = extended_derivatives(combo, A, B, xs)
    for order in range(4):
        assert np.allclose(ec[order], al * e1[order] + be * e2[order],
                           rtol=1e-12, atol=1e-12)


def test_extension_at_unsorted_points_of_any_shape():
    # regions of unsorted points are not contiguous; the values stay pointwise
    xs = np.linspace(-2.2, 2.2, 97)
    perm = np.random.default_rng(0).permutation(xs.size)
    want = extended_derivatives(sine_profile(1.1), A, B, xs)
    got = extended_derivatives(sine_profile(1.1), A, B,
                               xs[perm].reshape(-1, 1))
    for k in range(4):
        assert got[k].shape == (xs.size, 1)
        assert np.allclose(got[k][:, 0], want[k][perm],
                           rtol=1e-14, atol=0.0)


def test_one_sided_continuity_at_domain_edges():
    # C^(2d-1) = C^3 for d = 2: one-sided limits of derivatives 0..3 agree.
    # Linear extrapolation 2 f(e -+ h) - f(e -+ 2h) estimates each one-sided
    # limit with O(h^2) error, so the left/right gap must shrink like h^2.
    def ext(x):
        return extended_derivatives(cosine_profile(1.3), A, B, np.array([x]))

    for edge in (A, B):
        for order in range(4):
            def f(x):
                return ext(x)[order][0]

            def gap(h):
                left = 2 * f(edge - h) - f(edge - 2 * h)
                right = 2 * f(edge + h) - f(edge + 2 * h)
                return abs(left - right)

            g1, g2 = gap(1e-3), gap(5e-4)
            scale = max(1.0, abs(f(edge)))
            assert g1 <= 1e-4 * scale
            assert g2 <= 0.35 * g1 + 1e-13

