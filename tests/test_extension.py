import numpy as np
import sympy as sp

from bcm1d import cosine_profile, sine_profile
from bcm1d.extension import _bump_factors, extended_derivatives

A, B = -1.0, 1.0


def test_bump_factor_derivatives_match_symbolic():
    # independent oracle: differentiate (1 - u^4)^8 symbolically
    u = sp.symbols("u")
    expr = (1 - u**4) ** 8
    pts = np.linspace(-0.999, 0.999, 53)
    got = _bump_factors(pts)
    for order in range(4):
        fn = sp.lambdify(u, sp.diff(expr, u, order), "numpy")
        assert np.allclose(got[order], fn(pts), rtol=1e-10, atol=1e-9)


def test_profiles_match_symbolic_derivatives():
    # independent oracle: differentiate sin(kx) and cos(kx) symbolically
    x, k = sp.symbols("x kappa")
    pts = np.linspace(-2.3, 2.3, 41)
    for kappa in (0.0, 0.7, np.pi, 5 * np.pi / 2):
        for make, expr in ((sine_profile, sp.sin(k * x)),
                           (cosine_profile, sp.cos(k * x))):
            got = make(kappa)(pts)
            assert len(got) == 4
            for order in range(4):
                fn = sp.lambdify((x, k), sp.diff(expr, x, order), "numpy")
                want = np.broadcast_to(fn(pts, kappa), pts.shape)
                assert np.allclose(got[order], want, rtol=1e-13, atol=1e-13)


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
    # at x - a = -1/2 the bump is (1 - 1/16)^8 = (15/16)^8
    got = extended_derivatives(cosine_profile(0.0), A, B, -1.5)[0][0]
    want = (15.0 / 16.0) ** 8
    assert np.isclose(got, want, rtol=1e-14)
    assert np.isclose(want, 0.5967195, atol=5e-8)


def test_extension_matches_profile_and_derivatives_inside():
    # the product rule runs on the closed domain too, with B = (1, 0, 0, 0)
    p = sine_profile(1.7)
    xs = np.concatenate(([A], np.linspace(-0.9, 0.9, 7), [B]))
    ext = extended_derivatives(p, A, B, xs)
    for order, deriv in enumerate(p(xs)):
        assert np.array_equal(ext[order], deriv)


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
    combo = lambda x: tuple(al * u + be * v for u, v in zip(p1(x), p2(x)))
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
    # C^3: one-sided limits of derivatives 0..3 agree.  Linear extrapolation
    # 2 f(e -+ h) - f(e -+ 2h) estimates each one-sided limit with O(h^2)
    # error, so the left/right gap must shrink like h^2; its size is set by
    # the bump's fourth derivative at the edge, B''''(0) = -192.
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
            assert g1 <= 8e-4 * scale
            assert g2 <= 0.35 * g1 + 1e-13




def test_real_profiles_give_real_series():
    # no imaginary half of zeros: a real profile's extension is real, and
    # the same profile returning complex values gives the same numbers
    xs = np.linspace(-2.2, 2.2, 97)
    for phi in (sine_profile(1.1), cosine_profile(1.1)):
        def as_complex(x, phi=phi):
            return tuple(np.asarray(p, complex) for p in phi(x))

        real, typed = (extended_derivatives(p, A, B, xs)
                       for p in (phi, as_complex))
        for v, w in zip(real, typed, strict=True):
            assert v.dtype == np.float64 and w.dtype == np.complex128
            assert np.array_equal(v, w)
