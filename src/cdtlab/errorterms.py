"""Evaluable analytic bound calculus.

Zero-free-region width, zero repulsion, the log-free density factor B1,
Stark's floor for the exceptional zero, the single-variable optimization
eta(x), its classical closed-form bound, the Siegel-zero regimes, the
main-term lower bound, and the remainder-sum estimates.

The optional exceptional zero is two fields of the model: beta1, never
computed, only supplied, and its sign theta1 (0 exactly when there is no
zero).  Every bound reads lambda1 = (1 - beta1) log Q from `nu1`.

Every real argument x, t, T, z or R passes arith.checked_log (no NaN or
+-inf, then its lower bound: x >= Q^k for a range), and Q is finite, >= 2.

None of the underlying theorems are proved here; every "absolute,
effective" constant the source theory leaves unnumbered is an explicit
configuration field, and inequality checks report the smallest constant
that makes them hold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .arith import check_finite, checked_log, divisors, euler_phi, power_or_inf, tau

__all__ = [
    "ErrorModel",
    "ConfigurationError",
    "delta_zfr",
    "delta_repulsion",
    "combined_delta",
    "B1",
    "nu1",
    "stark_floor",
    "eta",
    "classical_error",
    "thm11_error",
    "siegel_error",
    "main_term_floor",
    "remainder_eps",
    "remainder_R",
    "level_of_distribution",
]


class ConfigurationError(ValueError):
    """A bound was evaluated outside its stated hypotheses."""


@dataclass(frozen=True)
class ErrorModel:
    """Field invariants, explicit constants and the optional exceptional
    zero powering every bound."""

    D_K: float = 3.0
    n_K: int = 2
    Qcal: float = 1.0  # conductor bound
    c_ZFR: float = 0.05
    c_ZDE: int = 10
    c_DH: float = 1.0
    c_Stark: float = 1.0
    vartheta: float = 1.0
    eta_thm: float = 1.0
    c_1: float = 40.0  # range exponent of the asymptotic theorem
    c_SZ_err: float = 1.0
    c_SZ_size: float = 36.0
    c_SZ_lambda: float = 0.125
    beta1: float | None = None
    theta1: int = 0

    def __post_init__(self):
        check_finite(self.D_K, "D_K")
        check_finite(self.Qcal, "Qcal")
        for name in ("c_ZFR", "c_DH", "c_Stark", "vartheta", "eta_thm", "c_1",
                     "c_SZ_err", "c_SZ_size", "c_SZ_lambda"):
            value = getattr(self, name)
            check_finite(value, name)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.n_K < 1:
            raise ValueError(f"n_K must be an integer >= 1, got {self.n_K}")
        if self.c_ZDE < 1:
            raise ValueError("c_ZDE must be an integer >= 1")
        try:
            Q = self.Q
        except OverflowError:  # n_K^n_K past the float range
            Q = math.inf
        checked_log(Q, 2, "bound evaluations need Q >= 2", "Q")
        if (self.beta1 is None) != (self.theta1 == 0):
            raise ValueError("theta1 = 0 exactly when beta1 is absent")
        if self.beta1 is not None and not 0.5 < self.beta1 < 1:
            raise ValueError("beta1 must lie in (1/2, 1)")
        if self.theta1 not in (-1, 0, 1):
            raise ValueError("theta1 must be -1, 0 or +1")

    @property
    def Q(self) -> float:
        return self.D_K * self.Qcal * self.n_K**self.n_K

    @property
    def log_Q(self) -> float:
        return math.log(self.Q)


def _log_QT(log_t: float, m: ErrorModel) -> float:
    """log(Q t^n_K), the analytic conductor at height t."""
    return m.log_Q + m.n_K * log_t


def _log_in_range(x: float, k: float, m: ErrorModel, caller: str) -> float:
    """log x over the range x >= Q^k of `caller`; not tested in logs, where
    x = Q^k itself could fall below by a rounding."""
    message = f"{caller} requires x >= Q^{k}"
    return checked_log(x, power_or_inf(m.Q, k), message, error=ConfigurationError)


def _two_term(logx: float, a: float, b: float, m: ErrorModel) -> float:
    """e^{-a log x / log Q} + e^{-sqrt(b log x / n_K)}."""
    return math.exp(-a * logx / m.log_Q) + math.exp(-math.sqrt(b * logx / m.n_K))


def delta_zfr(t: float, m: ErrorModel) -> float:
    """Classical zero-free-region width c_ZFR / log(Q t^n_K) at height t."""
    log_t = checked_log(t, 3, "delta_zfr requires t >= 3", "t")
    return m.c_ZFR / _log_QT(log_t, m)


def delta_repulsion(t: float, m: ErrorModel) -> float:
    """Repulsion width min{1/2, c_DH log(1/((1-b1) log(Q t^n)))/log(Q t^n)}."""
    if m.beta1 is None:
        raise ConfigurationError("delta_repulsion requires an exceptional zero beta1")
    log_t = checked_log(t, 3, "delta_repulsion requires t >= 3", "t")
    lam = B1(t, m)  # (1 - b1) log(Q t^n), capped at 1
    if lam >= 1:
        return 0.0
    return min(0.5, m.c_DH * math.log(1 / lam) / _log_QT(log_t, m))


def combined_delta(t: float, m: ErrorModel) -> float:
    base = delta_zfr(t, m)
    if m.beta1 is not None:
        return max(base, delta_repulsion(t, m))
    return base


def B1(T: float, m: ErrorModel) -> float:
    """Density-estimate factor min{1, (1 - beta1) log(Q T^n_K)}; 1 without
    an exceptional zero."""
    log_T = checked_log(T, 1, "B1 requires T >= 1", "T")
    if m.beta1 is None:
        return 1.0
    return min(1.0, (1 - m.beta1) * _log_QT(log_T, m))


def nu1(m: ErrorModel) -> float:
    """lambda1 = (1 - beta1) log Q; 1 without an exceptional zero."""
    if m.beta1 is None:
        return 1.0
    return (1 - m.beta1) * m.log_Q


def stark_floor(m: ErrorModel) -> float:
    """Effective floor c_Stark * Q^-2 for lambda1; warns when the supplied
    exceptional zero violates it."""
    floor = m.c_Stark * m.Q**-2
    if m.beta1 is not None and nu1(m) < floor:
        warnings.warn(
            f"supplied Siegel zero has lambda1 = {nu1(m):.3g} "
            f"below the effective floor {floor:.3g}",
            stacklevel=2,
        )
    return floor


def eta(x: float, m: ErrorModel) -> float:
    """inf over t >= 3 of [Delta(t) log x + log t] with the combined
    zero-free width: a 2000-point grid in log t, then golden-section search."""
    logx = checked_log(x, 2, "eta requires x >= 2")

    def phi(u: float) -> float:
        return combined_delta(math.exp(u), m) * logx + u

    u_lo = math.log(3.0)
    u_hi = max(u_lo + 1.0, 10.0 * math.sqrt(m.c_ZFR * logx / m.n_K))
    n = 2000
    us = [u_lo + (u_hi - u_lo) * i / n for i in range(n + 1)]
    vals = [phi(u) for u in us]
    i = min(range(n + 1), key=vals.__getitem__)
    a = us[max(i - 1, 0)]
    b = us[min(i + 1, n)]
    g = (math.sqrt(5) - 1) / 2
    best = vals[i]  # the grid's minimum, at most the ends vals[0] and vals[-1]
    while b - a > 1e-12:  # golden section: keep the side of the lower inner point
        c, d = b - g * (b - a), a + g * (b - a)
        fc, fd = phi(c), phi(d)
        best = min(best, fc, fd)
        a, b = (a, d) if fc < fd else (c, b)
    return best


def classical_error(x: float, m: ErrorModel) -> float:
    """Closed-form bound  e^{-c_ZFR log x / log Q} + e^{-sqrt(c_ZFR log x / n_K)};
    dominates e^{-eta(x)} when no repulsion is active."""
    logx = checked_log(x, 2, "classical_error requires x >= 2", error=ConfigurationError)
    return _two_term(logx, m.c_ZFR, m.c_ZFR, m)


def thm11_error(x: float, m: ErrorModel) -> float:
    """Relative error of the asymptotic theorem in its stated range
    x >= Q^c_1, with constants c_ZFR/4 and c_ZFR/8 inherited from the
    unsmoothing step."""
    logx = _log_in_range(x, m.c_1, m, "thm11_error")
    return _two_term(logx, m.c_ZFR / 4, m.c_ZFR / 8, m)


def siegel_error(x: float, m: ErrorModel) -> dict:
    """Evaluate the two Siegel-zero error regimes.

    regime 2 (lambda1 >= Q^{-20/n_K}):
        x^{-1/2} + lambda1^10 (e^{-c_DH log x/(2 log Q)} + e^{-c_SZ_err sqrt(log x/n_K)})
    regime 3 (lambda1 <  Q^{-20/n_K}):
        lambda1^10 replaced by e^{-10 sqrt(log(1/lambda1))}.

    Returns both values, the regime selected by the threshold, and the
    smallest C with e^{-eta(x)} <= C * selected value.
    """
    if m.beta1 is None:
        raise ConfigurationError("siegel_error requires an exceptional zero beta1")
    lam = nu1(m)
    if lam > m.c_SZ_lambda:
        raise ConfigurationError(
            f"lambda1 = {lam:.3g} exceeds the smallness threshold {m.c_SZ_lambda}"
        )
    logx = _log_in_range(x, m.c_SZ_size, m, "siegel_error")
    tail = math.exp(-m.c_DH * logx / (2 * m.log_Q)) + math.exp(
        -m.c_SZ_err * math.sqrt(logx / m.n_K)
    )
    value2 = x**-0.5 + lam**10 * tail
    value3 = x**-0.5 + math.exp(-10 * math.sqrt(math.log(1 / lam))) * tail
    threshold = m.Q ** (-20 / m.n_K)
    regime = 2 if lam >= threshold else 3
    selected = value2 if regime == 2 else value3
    ratio = math.exp(-eta(x, m)) / selected
    return {
        "lambda1": lam,
        "threshold": threshold,
        "regime": regime,
        "value_regime2": value2,
        "value_regime3": value3,
        "selected": selected,
        "smallest_C": ratio,
    }


def main_term_floor(x: float, m: ErrorModel) -> dict:
    """Three-case lower bound x - theta1 x^beta1/beta1 >> nu1 x in the
    range x >= Q^{36 c_ZDE}.

    The source inequality hides absolute constants; this evaluates the
    actual main term, the case-specific comparison quantity, and the
    implied constants, so a caller can assert they are bounded.
    """
    logx = _log_in_range(x, 36 * m.c_ZDE, m, "main_term_floor")
    floor = nu1(m) * x  # x itself with no zero, so both constants read 1.0
    b1 = m.beta1
    actual = x if b1 is None else x - m.theta1 * x**b1 / b1
    if b1 is None:
        case, bound = "no_zero", x
    elif m.theta1 != 1:
        case, bound = "negative_theta1", x
    elif (1 - b1) * logx < 1:
        case, bound = "small_lambda", (1 - b1) * x * (logx - 1)
    else:
        case, bound = "large_lambda", (1 - 2 / math.e) * x
    if actual <= 0:
        raise ConfigurationError("main term is not positive; hypotheses violated")
    return {
        "case": case,
        "actual": actual,
        "floor": floor,
        "case_bound": bound,
        "implied_constant": actual / bound,
        "floor_constant": actual / floor,
    }


def remainder_eps(d: int, x: float, m: ErrorModel) -> float:
    """eps_d(x) = exp(-vartheta log x / log|dD|) + exp(-sqrt(vartheta log x))."""
    message = "remainder_eps requires d >= 1 and x >= 3"
    if d < 1:
        raise ValueError(message)
    logx = checked_log(x, 3, message)
    log_dD = math.log(max(d * m.D_K * max(m.Qcal, 1.0), 3.0))
    return math.exp(-m.vartheta * logx / log_dD) + math.exp(
        -math.sqrt(m.vartheta * logx)
    )


def remainder_R(x: float, R: float, P: int, m: ErrorModel) -> float:
    """Sum over d | P with d < R^2 of (tau(d)/phi(d)) * eps_d(x)."""
    check_finite(x)  # remainder_eps checks it too, but no d may reach it
    check_finite(R, "R")
    if R < 0:  # d < R^2 would read R as |R|
        raise ValueError(f"R must be >= 0, got {R}")
    total = 0.0
    for d in divisors(P):
        if d >= R * R:
            continue
        total += tau(d) / euler_phi(d) * remainder_eps(d, x, m)
    return total


def level_of_distribution(z: float, m: ErrorModel) -> float:
    """R = z^{(1/sqrt(eta_thm)) log log z}."""
    log_z = checked_log(z, 3, "level_of_distribution requires log log z > 0", "z")
    return z ** (math.log(log_z) / math.sqrt(m.eta_thm))
