import numpy as np
import pytest

from rscorr.cubic import real_cubic_root, solve_cubic


def _residual(b, c, d, x):
    return abs(((x + b) * x + c) * x + d)


def test_growth_cubic_root():
    lam = real_cubic_root(1.0, -2.0, -4.0, lo=1.0, hi=2.0)
    assert lam == pytest.approx(1.6589670819169942, abs=1e-14)
    assert _residual(1.0, -2.0, -4.0, lam) < 1e-12


def test_bracket_requires_sign_change():
    with pytest.raises(ValueError):
        real_cubic_root(0.0, 0.0, -8.0, lo=3.0, hi=4.0)  # root is 2


def test_solve_cubic_structure():
    roots = solve_cubic(1.0, -2.0, -4.0)
    assert roots[0].imag == 0.0
    assert roots[1] == roots[2].conjugate()
    assert sum(roots) == pytest.approx(-1.0, abs=1e-10)
    prod = roots[0] * roots[1] * roots[2]
    assert prod == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("roots", [
    (1.0, 2.0, 3.0),
    (-5.0, 0.5, 7.25),
    (2.0, 2.0, 2.0),        # triple root
    (0.0, 0.0, -1.0),       # double root at zero
    (1e4, -1e-3, 3.0),      # wide magnitude spread
])
def test_solve_cubic_known_real_roots(roots):
    distinct = len(set(roots)) == len(roots)
    # repeated roots are ill-conditioned for every solver: expect ~eps^(1/3)
    tol = 1e-7 if distinct else 1e-4
    r1, r2, r3 = roots
    b = -(r1 + r2 + r3)
    c = r1 * r2 + r1 * r3 + r2 * r3
    d = -r1 * r2 * r3
    got = sorted(z.real for z in solve_cubic(b, c, d))
    scale = max(1.0, max(abs(r) for r in roots))
    assert np.allclose(got, sorted(roots), atol=tol * scale)
    for z in solve_cubic(b, c, d):
        assert abs(z.imag) < tol * scale


def test_repeated_roots_snap_to_critical_points():
    # (x - 2)^3: the triple root is the (double) critical point
    got = sorted(z.real for z in solve_cubic(-6.0, 12.0, -8.0))
    assert got == [2.0, 2.0, 2.0]
    # (x - 1)^2 (x - 3)
    got = sorted(z.real for z in solve_cubic(-5.0, 7.0, -3.0))
    assert got == [1.0, 1.0, 3.0]
    # scaled identity matrices hit this path through the spectral radius
    from rscorr.jsr import spectral_radius
    import numpy as np
    assert spectral_radius(2.0 * np.eye(3)) == 2.0
    assert spectral_radius(np.eye(3)) == 1.0


def test_solve_cubic_against_numpy_roots():
    rng = np.random.default_rng(42)
    for _ in range(200):
        b, c, d = rng.uniform(-10, 10, size=3)
        ours = sorted(solve_cubic(b, c, d), key=lambda z: (z.real, z.imag))
        ref = sorted(np.roots([1.0, b, c, d]), key=lambda z: (z.real, z.imag))
        for z, w in zip(ours, ref):
            assert abs(z - w) < 1e-6 * max(1.0, abs(w)), (b, c, d)
        for z in ours:
            assert abs(((z + b) * z + c) * z + d) < 1e-8 * max(1.0, abs(z)) ** 3


def test_char_roots_against_numpy_poly():
    from rscorr.cubic import char_roots
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = rng.integers(-6, 7, size=(3, 3))
        ours = np.sort_complex(np.array(char_roots(a)))
        ref = np.sort_complex(np.roots(np.poly(a.astype(float))))
        assert np.allclose(ours, ref, rtol=1e-6, atol=1e-6), a
    with pytest.raises(ValueError):
        char_roots(np.eye(2))
