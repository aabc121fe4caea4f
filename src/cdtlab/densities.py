"""Local densities for the coprimality sieve on form coordinates.

The densities g', g'' live at primes of the sieving modulus P, the Euler
product delta_f(P) collects them, and the parity casework decides when a
form represents no odd prime with both coordinates odd.  All arithmetic
is exact rational; floats appear only when a caller converts the final
product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .arith import check_int, factorize, kronecker
from .quadforms import Form, check_primitive

__all__ = [
    "SievingModulus",
    "g_prime",
    "g_dprime",
    "delta_f",
    "represents_odd_primes_obstructed",
]


@dataclass(frozen=True)
class SievingModulus:
    """A squarefree modulus P together with its sifting level z, the
    largest prime factor of P (2 when P = 1)."""

    P: int
    z: float
    prime_factors: tuple[int, ...]

    @classmethod
    def from_int(cls, P: int) -> "SievingModulus":
        fac = factorize(check_int(P, 1, "sieving modulus P"))
        if any(e > 1 for _, e in fac):
            warnings.warn(
                f"P = {P} is not squarefree; replaced by its radical",
                stacklevel=2,
            )
        primes = tuple(p for p, _ in fac)
        return cls(P=math.prod(primes), z=float(max(primes, default=2)), prime_factors=primes)


def g_prime(p: int, f: Form, P: SievingModulus) -> Fraction:
    """Density of the condition p | u: 1/(p - (D/p)) when p | P and
    p does not divide c, else 0."""
    if p not in P.prime_factors or f.c % p == 0:
        return Fraction(0)
    return Fraction(1, p - kronecker(f.discriminant, p))


def g_dprime(p: int, f: Form, P: SievingModulus) -> Fraction:
    """Density of the condition p | v: g_prime of the swapped form
    f(v, u) = (c, b, a), which takes a in place of c."""
    return g_prime(p, Form(f.c, f.b, f.a), P)


def delta_f(f: Form, P: SievingModulus) -> Fraction:
    """Euler product over p | P of 1 - g'(p) - g''(p); always >= 0."""
    check_primitive(f, "delta_f")
    out = Fraction(1)
    for p in P.prime_factors:
        out *= 1 - g_prime(p, f, P) - g_dprime(p, f, P)
    assert out >= 0
    return out


def represents_odd_primes_obstructed(f: Form, P: SievingModulus) -> bool:
    """True exactly when 2 | P and parity forces the restricted sum empty:
    either D = 1 (mod 8) with a + b + c even, or 2 | D with a, c both odd.
    In these cases g'(2) + g''(2) = 1 and delta_f(P) = 0."""
    check_primitive(f, "represents_odd_primes_obstructed")
    if 2 not in P.prime_factors:
        return False
    D = f.discriminant
    if D % 8 == 1 and (f.a + f.b + f.c) % 2 == 0:
        return True
    if D % 2 == 0 and f.a % 2 == 1 and f.c % 2 == 1:
        return True
    return False
