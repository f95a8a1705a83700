import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from bcm1d import (
    AnalyticProfile,
    antiderivative,
    cosine_profile,
    extend,
    sine_profile,
)
from bcm1d.extension import _bump_factors

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
    ext = extend(cosine_profile(0.0), A, B, d=2)
    assert np.isclose(ext.value(0.3)[0], 1.0)
    xs = np.linspace(A, B, 11)
    assert np.allclose(ext.value(xs), 1.0)


def test_extension_vanishes_outside_support():
    ext = extend(cosine_profile(0.0), A, B, d=2)
    assert ext.value(-2.1)[0] == 0
    assert ext.value(2.0)[0] == 0
    xs = np.array([-3.0, -2.0, 2.0, 5.0])
    for order in range(4):
        assert np.all(ext.derivative(order)(xs) == 0)


def test_flank_value_closed_form():
    # at x - a = -1/2 with d = 2 the bump exponent is 1 - 16/15 = -1/15
    ext = extend(cosine_profile(0.0), A, B, d=2)
    want = np.exp(-1.0 / 15.0)
    assert np.isclose(ext.value(-1.5)[0], want, rtol=1e-14)
    assert np.isclose(want, 0.935507, atol=5e-7)


def test_extension_matches_profile_and_derivatives_inside():
    p = sine_profile(1.7)
    ext = extend(p, A, B, d=2)
    xs = np.linspace(-0.9, 0.9, 7)
    for order in range(4):
        assert np.allclose(ext.derivative(order)(xs), p.derivative(order)(xs),
                           rtol=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_extension_derivatives_consistent_with_finite_differences(d):
    ext = extend(cosine_profile(2.1), A, B, d=d)
    # interior of the left flank, interior of the domain, right flank
    pts = np.array([-1.6, -1.2, 0.4, 1.3, 1.8])
    for order in range(1, 4):
        lo = ext.derivative(order - 1)
        hi = ext.derivative(order)
        errs = []
        for h in (1e-4, 5e-5):
            fd = (lo(pts + h) - lo(pts - h)) / (2 * h)
            errs.append(np.max(np.abs(fd - hi(pts))))
        assert errs[0] < 1e-4 * max(1.0, np.max(np.abs(hi(pts))))
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
    e1 = extend(p1, A, B)
    e2 = extend(p2, A, B)
    ec = extend(combo, A, B)
    xs = np.linspace(-2.2, 2.2, 97)
    for order in range(4):
        assert np.allclose(
            ec.derivative(order)(xs),
            al * e1.derivative(order)(xs) + be * e2.derivative(order)(xs),
            rtol=1e-12, atol=1e-12,
        )


def test_one_sided_continuity_at_domain_edges():
    # C^(2d-1) = C^3 for d = 2: one-sided limits of derivatives 0..3 agree.
    # Linear extrapolation 2 f(e -+ h) - f(e -+ 2h) estimates each one-sided
    # limit with O(h^2) error, so the left/right gap must shrink like h^2.
    ext = extend(cosine_profile(1.3), A, B, d=2)
    for edge in (A, B):
        for order in range(4):
            f = ext.derivative(order)

            def gap(h):
                left = 2 * f(np.array([edge - h]))[0] - f(np.array([edge - 2 * h]))[0]
                right = 2 * f(np.array([edge + h]))[0] - f(np.array([edge + 2 * h]))[0]
                return abs(left - right)

            g1, g2 = gap(1e-3), gap(5e-4)
            scale = max(1.0, abs(f(np.array([edge]))[0]))
            assert g1 <= 1e-4 * scale
            assert g2 <= 0.35 * g1 + 1e-13


def test_order_below_two_rejected():
    with pytest.raises(ValueError):
        extend(cosine_profile(0.0), A, B, d=1)


class TestIntegrals:
    def test_zero_profile(self):
        ext = extend(sine_profile(0.0), A, B)
        assert antiderivative(ext, 1e-3).total == 0

    def test_constant_extension_bounds_and_symmetry(self):
        ext = extend(cosine_profile(0.0), A, B, d=2)
        tot = antiderivative(ext, 1e-3).total
        assert 2.0 < tot.real < 4.0 and abs(tot.imag) < 1e-15
        Psi = antiderivative(ext, 1e-3)
        left_flank = Psi(np.array([A]))[0]
        right_flank = Psi.total - Psi(np.array([B]))[0]
        assert np.isclose(left_flank, right_flank, rtol=1e-10)

    def test_constant_extension_against_adaptive_quadrature(self):
        # independent oracle: adaptive quadrature of the flank bump
        ext = extend(cosine_profile(0.0), A, B, d=2)
        flank, err = quad(lambda s: np.exp(1 - 1 / (1 - s**4)), 0.0, 1.0,
                          epsabs=1e-12)
        want = 2.0 + 2.0 * flank
        assert err < 1e-8
        assert np.isclose(antiderivative(ext, 4e-5).total.real, want, atol=1e-8)

    def test_antiderivative_tails(self):
        ext = extend(sine_profile(2.0), A, B)
        Psi = antiderivative(ext, 1e-3)
        assert Psi(np.array([A - 1.0]))[0] == 0
        assert Psi(np.array([B + 1.0]))[0] == Psi.total
        assert Psi(np.array([B + 7.5]))[0] == Psi.total

    def test_antiderivative_monotone_for_nonnegative(self):
        ext = extend(cosine_profile(0.0), A, B)
        Psi = antiderivative(ext, 1e-3)
        xs = np.linspace(A - 1.2, B + 1.2, 400)
        vals = Psi(xs).real
        assert np.all(np.diff(vals) >= -1e-12)

    def test_unbounded_profile_rejected(self):
        with pytest.raises(ValueError):
            antiderivative(sine_profile(1.0), 1e-3)
