import cmath
import math
import random

import pytest
from scipy.integrate import quad

from cdtlab import weights as wt


def transform_by_quadrature(z: complex, params: wt.WeightParams) -> complex:
    """Independent oracle: integrate f(t) e^{-zt} over the support with
    breakpoints at every polynomial knot."""
    f = wt.WeightFunction(params)
    lo, hi = f.support
    twoA = 2 * params.A
    knots = sorted(
        {lo, hi, 0.5, 1.0 + params.ell * twoA}
        | {0.5 - k * twoA for k in range(params.ell + 1)}
        | {1.0 + params.ell * twoA - k * twoA for k in range(params.ell + 1)}
    )
    knots = [t for t in knots if lo - 1e-15 <= t <= hi + 1e-15]
    re = 0.0
    im = 0.0
    for a, b in zip(knots, knots[1:]):
        r, _ = quad(
            lambda t: f(t) * math.exp(-z.real * t) * math.cos(-z.imag * t),
            a, b, limit=300, epsabs=1e-12, epsrel=1e-12,
        )
        i, _ = quad(
            lambda t: f(t) * math.exp(-z.real * t) * math.sin(-z.imag * t),
            a, b, limit=300, epsabs=1e-12, epsrel=1e-12,
        )
        re += r
        im += i
    return complex(re, im)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            wt.WeightParams(x=2.0, epsilon=0.1, ell=2)
        with pytest.raises(ValueError):
            wt.WeightParams(x=100.0, epsilon=0.3, ell=2)
        with pytest.raises(ValueError):
            wt.WeightParams(x=100.0, epsilon=0.1, ell=0)

    def test_standard_choice(self):
        # the asymptotic choice only enters its validity range at very
        # large x; c_ZDE = 1, n_K = 2 admits representable scales
        p = wt.WeightParams.standard_choice(1e160, n_K=2, c_ZDE=1)
        assert p.ell == 8
        assert p.epsilon == pytest.approx(8 * 8 * 1e160 ** (-1 / 64))
        assert 0 < p.epsilon < 0.25

    def test_standard_choice_out_of_range(self):
        with pytest.raises(ValueError, match=r"it needs x > \(32 ell\)\^\(8 ell\) = 2560\^640"):
            wt.WeightParams.standard_choice(1e7, n_K=2, c_ZDE=10)

    def test_A(self):
        p = wt.WeightParams(x=math.e**10, epsilon=0.1, ell=5)
        assert p.A == pytest.approx(0.1 / (2 * 5 * 10))


class TestWeightFunction:
    def test_plateau_and_support(self):
        p = wt.WeightParams(x=1e5, epsilon=0.05, ell=3)
        f = wt.WeightFunction(p)
        lo, hi = f.support
        assert lo == pytest.approx(0.5 - 0.05 / math.log(1e5))
        assert hi == pytest.approx(1.0 + 0.05 / math.log(1e5))
        for t in (0.5, 0.6, 0.8, 1.0):
            assert f(t) == pytest.approx(1.0, abs=1e-12)
        for t in (lo - 1e-6, hi + 1e-6, 0.0, 2.0):
            assert f(t) == 0.0
        for t in (lo + 1e-4, hi - 1e-4):
            assert 0 < f(t) < 1

    def test_mass_quadrature(self):
        p = wt.WeightParams(x=1e5, epsilon=0.05, ell=4)
        f = wt.WeightFunction(p)
        mass, _ = quad(f, *f.support, limit=300)
        assert mass == pytest.approx(f.mass(), abs=1e-10)
        assert f.mass() == pytest.approx(0.5 + 0.05 / math.log(1e5))

    def test_degree_cap(self):
        p = wt.WeightParams(x=1e200, epsilon=0.2, ell=80)
        f = wt.WeightFunction(p)
        with pytest.raises(ValueError):
            f(0.75)
        # the transform stays available above the cap
        assert wt.laplace_F(0.0, p).real == pytest.approx(0.5 + 0.2 / math.log(1e200))


class TestTransform:
    def test_F0(self):
        for eps, ell, x in ((0.05, 3, 1e5), (0.2, 8, 1e7), (0.01, 1, 1e3)):
            p = wt.WeightParams(x=x, epsilon=eps, ell=ell)
            assert wt.laplace_F(0.0, p).real == pytest.approx(
                0.5 + eps / math.log(x), abs=1e-14
            )
            assert wt.laplace_F(0.0, p).imag == 0.0

    def test_vs_quadrature_20_points(self):
        # Re z >= -4 keeps |F| = O(e^4), so the absolute 1e-8 comparison
        # is meaningful in double precision
        p = wt.WeightParams(x=1e5, epsilon=0.08, ell=3)
        rng = random.Random(5)
        for _ in range(20):
            z = complex(rng.uniform(-4, 25), rng.uniform(-25, 25))
            oracle = transform_by_quadrature(z, p)
            got = wt.laplace_F(z, p)
            assert abs(got - oracle) <= 1e-8, z

    def test_series_branch_continuity(self):
        p = wt.WeightParams(x=1e6, epsilon=0.05, ell=4)
        # straddle the series cutoff in the (e^u - 1)/u factors
        for mag in (1e-6, 9.9e-5, 1.01e-4, 1e-3):
            z = complex(mag, mag)
            a = wt.laplace_F(z, p)
            b = transform_by_quadrature(z, p)
            assert abs(a - b) <= 1e-10

    def test_entire_no_pole_at_zero(self):
        p = wt.WeightParams(x=1e5, epsilon=0.1, ell=2)
        vals = [wt.laplace_F(complex(t, 0), p) for t in (-1e-9, 0.0, 1e-9)]
        assert abs(vals[0] - vals[2]) < 1e-9
        assert abs(vals[1] - vals[0]) < 1e-9


class TestBounds:
    def test_verify_bounds_clean(self):
        p = wt.WeightParams(x=1e5, epsilon=0.05, ell=4)
        rep = wt.verify_bounds(p)
        assert rep["ok"], rep["violations"]
        assert rep["F0"] == pytest.approx(rep["mass_expected"], abs=1e-10)

    def test_main_term_constant_bounded(self):
        p = wt.WeightParams(x=1e6, epsilon=0.05, ell=4)
        rep = wt.verify_bounds(p)
        assert rep["main_term_constant"] <= 10.0
