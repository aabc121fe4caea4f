import cmath
import math
import random
from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest

from cdtlab import weights as wt


def knots(params: wt.WeightParams) -> list[float]:
    """The weight's polynomial knots 1/2 - 2kA and 1 + 2kA, k = 0..ell."""
    twoA = 2 * params.A
    steps = range(params.ell + 1)
    return sorted({0.5 - k * twoA for k in steps} | {1.0 + k * twoA for k in steps})


def transform_by_quadrature(z: complex, params: wt.WeightParams) -> complex:
    """Independent oracle: mpmath's quadrature of f(t) e^{-zt}, one piece
    between each pair of the weight's polynomial knots."""
    f = wt.WeightFunction(params)
    return complex(mpmath.quad(lambda t: f(float(t)) * mpmath.exp(-z * t), knots(params)))


def irwin_hall_exact(u: float, ell: int) -> Fraction:
    """The Irwin-Hall CDF at the float u, in exact rationals: the
    alternating sum with u = N/D cleared of denominators."""
    N, D = u.as_integer_ratio()
    S = sum((-1) ** k * comb(ell, k) * (N - k * D) ** ell for k in range(N // D + 1))
    return Fraction(S, D**ell * factorial(ell))


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
        mass = float(mpmath.quad(lambda t: f(float(t)), knots(p)))
        assert mass == pytest.approx(f.mass(), abs=1e-10)
        assert f.mass() == pytest.approx(0.5 + 0.05 / math.log(1e5))

    @pytest.mark.parametrize("ell, tol", [(8, 1e-11), (16, 1e-11), (32, 1e-11), (64, 1e-6)])
    def test_irwin_hall_vs_exact(self, ell, tol):
        # the plain alternating sum missed by 1.1 at ell = 32 and 4e17 at 64
        us = [ell * i / 2000 for i in range(2001)]
        err = max(abs(Fraction(wt._irwin_hall_cdf(u, ell)) - irwin_hall_exact(u, ell)) for u in us)
        assert err <= tol

    @pytest.mark.parametrize("ell", [32, 40, 64])
    def test_values_in_unit_interval(self, ell):
        p = wt.WeightParams(x=1e100, epsilon=0.2, ell=ell)
        f = wt.WeightFunction(p)
        ts = knots(p)
        for a, b in zip(ts, ts[1:]):
            for i in range(9):
                assert -1e-12 <= f(a + (b - a) * i / 8) <= 1 + 1e-12

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

    @pytest.mark.parametrize("ell", [3, 4, 8, 40])
    def test_vs_mpmath_closed_form(self, ell):
        # |z| log-uniform on [1e-3, 100] puts the factors' u = 2Az near 0,
        # where e^u - 1 cancels
        p = wt.WeightParams(x=1e12, epsilon=0.1, ell=ell)
        rng = random.Random(ell)
        with mpmath.workdps(50):
            A = mpmath.mpf(p.epsilon) / (2 * ell * mpmath.log(p.x))
            L0 = mpmath.mpf(1) / 2 + 2 * ell * A
            for _ in range(300):
                z = cmath.rect(10 ** rng.uniform(-3, 2), rng.uniform(-math.pi, math.pi))
                w = mpmath.mpc(z)
                exact = (
                    mpmath.exp(-(1 + 2 * ell * A) * w) * mpmath.expm1(L0 * w) / w
                    * (mpmath.expm1(2 * A * w) / (2 * A * w)) ** ell
                )
                assert abs(wt.laplace_F(z, p) - exact) <= 1e-13 * abs(exact), z

    def test_series_branch_continuity(self):
        p = wt.WeightParams(x=1e6, epsilon=0.05, ell=4)
        # small |u| in the (e^u - 1)/u factors, on both sides of 1e-4
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
