"""The smoothed counting weight and its Laplace transform.

The weight f(t) is the convolution of the box indicator on
[1/2, 1 + 2*l*A] with l normalized uniform densities on [-2A, 0], where
A = eps / (2*l*log x).  This is the unique realization (up to null sets)
of the two-sided Laplace transform

    F(z) = e^{-(1+2lA)z} * ((1 - e^{(1/2+2lA)z}) / -z) * ((1 - e^{2Az}) / -2Az)^l

so f is 1 on [1/2, 1], supported on [1/2 - eps/log x, 1 + eps/log x],
and piecewise polynomial of degree l (an Irwin-Hall ramp on each side).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from math import comb, fsum

from .arith import check_int, checked_log, power_or_inf

__all__ = ["WeightParams", "WeightFunction", "laplace_F", "verify_bounds"]

# The Irwin-Hall closed form in doubles, summed below the mean, is within
# 1e-12 of the exact CDF for ell <= 32 and 4.2e-7 at ell = 64 (2001 points
# each); above this degree only F itself is usable (log-space evaluation).
MAX_POLY_DEGREE = 64


@dataclass(frozen=True)
class WeightParams:
    x: float
    epsilon: float
    ell: int

    def __post_init__(self):
        checked_log(self.x, 3, "x must be >= 3")
        if not 0 < self.epsilon < 0.25:
            raise ValueError("epsilon must lie in (0, 1/4)")
        check_int(self.ell, 1, "ell")

    @property
    def A(self) -> float:
        return self.epsilon / (2 * self.ell * math.log(self.x))

    @property
    def log_x(self) -> float:
        return math.log(self.x)

    @classmethod
    def standard_choice(cls, x: float, n_K: int, c_ZDE: int) -> "WeightParams":
        """ell = 4 * c_ZDE * n_K and eps = 8 * ell * x^(-1/(8*ell))."""
        check_int(n_K, 1, "n_K")
        check_int(c_ZDE, 1, "c_ZDE")
        ell = 4 * c_ZDE * n_K
        eps = 8 * ell * x ** (-1 / (8 * ell))
        if eps >= 0.25:  # eps < 1/4 exactly when x > (32 ell)^(8 ell)
            raise ValueError(
                f"the standard choice ell = 4 c_ZDE n_K = {ell}, epsilon = 8 ell "
                f"x^(-1/(8 ell)) gives epsilon = {eps:.4g} at x = {x:g}, outside "
                f"(0, 1/4); for n_K = {n_K}, c_ZDE = {c_ZDE} it needs "
                f"x > (32 ell)^(8 ell) = {32 * ell}^{8 * ell}, or give epsilon and ell"
            )
        return cls(x=x, epsilon=eps, ell=ell)


def _irwin_hall_cdf(u: float, ell: int) -> float:
    """CDF at u of the sum of ell i.i.d. uniform[0,1] variables."""
    if u <= 0:
        return 0.0
    if u >= ell:
        return 1.0
    if u > ell / 2:  # past the mean the alternating sum cancels; F(u) = 1 - F(ell - u)
        return 1.0 - _irwin_hall_cdf(ell - u, ell)
    terms = [
        (-1) ** k * comb(ell, k) * (u - k) ** ell for k in range(int(math.floor(u)) + 1)
    ]
    return fsum(terms) / math.factorial(ell)


@dataclass(frozen=True)
class WeightFunction:
    params: WeightParams

    @property
    def support(self) -> tuple[float, float]:
        p = self.params
        w = p.epsilon / p.log_x
        return (0.5 - w, 1.0 + w)

    def __call__(self, t: float) -> float:
        p = self.params
        if p.ell > MAX_POLY_DEGREE:
            raise ValueError(
                f"pointwise evaluation capped at degree {MAX_POLY_DEGREE}; "
                "only the transform F is available for larger ell"
            )
        twoA = 2 * p.A
        # f(t) = P(t - 1 - 2lA <= S <= t - 1/2) with S the sum of ell
        # uniforms on [-2A, 0]; S = -2A * IrwinHall(ell).
        def cdf_S(y: float) -> float:
            return 1.0 - _irwin_hall_cdf(-y / twoA, p.ell)

        return cdf_S(t - 0.5) - cdf_S(t - 1.0 - p.ell * twoA)

    def mass(self) -> float:
        """Total integral, equal to F(0) = 1/2 + eps/log x."""
        return 0.5 + self.params.epsilon / self.params.log_x


def _em(u: complex) -> complex:
    """(e^u - 1)/u, e^(a+ib) - 1 taken as expm1(a) cos b - 2 sin^2(b/2)
    + i e^a sin b, free of cancellation near 0 (Higham 2002, 1.14.1)."""
    if u == 0:
        return 1.0
    a, b = u.real, u.imag
    return complex(math.expm1(a) * math.cos(b) - 2 * math.sin(b / 2) ** 2,
                   math.exp(a) * math.sin(b)) / u


def laplace_F(z: complex, params: WeightParams) -> complex:
    """Entire Laplace transform of the weight.  Relative error against a
    50-digit mpmath oracle: below 2e-14 for |z| <= 100 at ell = 3, 4, 8
    and 40; past that it grows with |z|, as the conditioning of e^z does."""
    p = params
    twolA = 2 * p.ell * p.A
    L0 = 0.5 + twolA
    head = cmath.exp(-(1.0 + twolA) * z)
    return head * L0 * _em(L0 * z) * _em(2 * p.A * z) ** p.ell


_SIGMAS = (0.05, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5)
_TS = (0.0, 0.5, 1.0, 5.0, 25.0, 100.0, 1000.0)


def verify_bounds(params: WeightParams) -> dict:
    """Numerically check the transform decay bounds at sigma in _SIGMAS
    and t in _TS.

    Checked inequalities, with s = sigma + i t and logx = log x:
      (a) |F(-s logx)| <= e^{sigma eps} x^sigma / (|s| logx)
                          * (1 + x^{-sigma/2}) * (2 ell / (eps |s|))^alpha
          for alpha in {0, ell/2, ell}, and the cruder e^{sigma eps} x^sigma;
      (b) on sigma = -1/2:
          |F(-s logx)| <= (5 x^{-1/4} / logx) (2 ell/eps)^ell (1/4 + t^2)^{-ell/2};
      (c) for 3/4 < sigma <= 1 the two-sided main-term expansion of
          F(-logx) +- F(-sigma logx), reporting the smallest constant C with
          |residual| <= C * (eps * |main| + x^{1/2} / logx).
    """
    p = params
    logx = p.log_x
    # |F(-sigma logx)| reaches e^{sigma eps} x^sigma, a float only up to x_max
    x_max = math.exp(math.log(sys.float_info.max) / _SIGMAS[-1] - p.epsilon)
    if p.x > x_max:
        raise ValueError(
            f"x = {p.x:g} exceeds {x_max:g}, the largest x at which "
            f"e^(sigma eps) x^sigma fits a float for sigma = {_SIGMAS[-1]}"
        )
    violations: list[str] = []
    worst_margin = math.inf

    for sigma in _SIGMAS:
        for t in _TS:
            s = complex(sigma, t)
            mod = abs(laplace_F(-s * logx, p))
            crude = math.exp(sigma * p.epsilon) * p.x**sigma
            if mod > crude * (1 + 1e-9):
                violations.append(f"crude bound at s = {s}")
            base = (
                crude / (abs(s) * logx) * (1 + p.x ** (-sigma / 2))
            )
            for alpha in (0.0, p.ell / 2, p.ell):
                bound = base * power_or_inf(2 * p.ell / (p.epsilon * abs(s)), alpha)
                if mod > bound * (1 + 1e-9):
                    violations.append(f"decay bound at s = {s}, alpha = {alpha}")
                else:
                    worst_margin = min(worst_margin, bound / mod if mod else math.inf)

    for t in _TS:
        s = complex(-0.5, t)
        mod = abs(laplace_F(-s * logx, p))
        # (2 ell/eps)^ell (1/4 + t^2)^(-ell/2) as one power: at large ell
        # the first factor alone overflows where the second underflows
        bound = (
            5 * p.x ** (-0.25)
            / logx
            * power_or_inf(2 * p.ell / (p.epsilon * math.sqrt(0.25 + t * t)), p.ell)
        )
        if mod > bound * (1 + 1e-9):
            violations.append(f"critical-line bound at t = {t}")

    smallest_C = 0.0
    if p.x >= 10:
        F1 = laplace_F(-logx, p).real
        for sigma in (0.8, 0.9, 0.95, 1.0):
            Fs = laplace_F(-sigma * logx, p).real
            for sign in (+1, -1):
                main = p.x / logx + sign * p.x**sigma / (sigma * logx)
                residual = abs((F1 + sign * Fs) - main)
                budget = p.epsilon * abs(main) + math.sqrt(p.x) / logx
                smallest_C = max(smallest_C, residual / budget)

    return {
        "violations": violations,
        "worst_decay_margin": worst_margin,
        "main_term_constant": smallest_C,
        "F0": laplace_F(0.0, p).real,
        "mass_expected": 0.5 + p.epsilon / logx,
        "ok": not violations,
    }
