"""Combinatorial beta-sieve weights and their reduced composition.

The weights follow the classical truncation rule: lambda_d = mu(d) on
squarefree d = p1 > p2 > ... > pr (primes in the support) whenever
p1 ... p_{m-1} * p_m^(beta+1) <= R at every odd prefix length m (upper
sieve) or every even one (lower sieve).  The composition machinery is
exact rational throughout, so the inversion identity and the composition
theorem bounds can be checked as literal (in)equalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .arith import check_finite, divisors, factorize, is_prime, power_or_inf

__all__ = [
    "SieveSpec",
    "SieveWeights",
    "DensityPair",
    "beta_sieve_weights",
    "theta_map",
    "reduced_composition",
    "invert_composition",
    "tilde_transforms",
    "composition_bounds_check",
    "CompositionReport",
]


@dataclass(frozen=True)
class SieveSpec:
    z: float
    R: float
    kind: str  # "upper" | "lower"
    kappa: float = 1.0
    K_const: float = 1.5
    support: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("upper", "lower"):
            raise ValueError(f"kind must be 'upper' or 'lower', got {self.kind!r}")
        if not self.z > 1:
            raise ValueError(f"sifting level z must exceed 1, got {self.z}")
        check_finite(self.R, "level R")
        for p in self.support:
            if not is_prime(p):
                raise ValueError(f"support entry {p} is not a prime")
        if len(set(self.support)) < len(self.support):
            raise ValueError(f"support primes must be distinct, got {self.support}")
        check_finite(self.kappa, "kappa")
        check_finite(self.K_const, "K_const")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if not math.isfinite(self.beta):
            raise ValueError(f"kappa = {self.kappa} puts 9 kappa + 1 past the float range")
        if self.s < 1:
            raise ValueError("need log R / log z >= 1")
        if any(p > self.z for p in self.support):
            raise ValueError("support primes must not exceed the sifting level z")

    @property
    def beta(self) -> float:
        return 9 * self.kappa + 1

    @property
    def s(self) -> float:
        return math.log(self.R) / math.log(self.z)


@dataclass(frozen=True)
class SieveWeights:
    """Map d -> lambda_d on squarefree d with prime factors in spec.support."""

    spec: SieveSpec
    lam: Mapping[int, int]

    def __post_init__(self):
        assert self.lam.get(1) == 1
        assert all(abs(v) <= 1 for v in self.lam.values())
        assert all(d < self.spec.R for d in self.lam)


def beta_sieve_weights(spec: SieveSpec) -> SieveWeights:
    """Construct the beta-sieve weight map for the given spec."""
    primes = sorted((p for p in spec.support if p < spec.z), reverse=True)
    parity = 1 if spec.kind == "upper" else 0  # m mod 2 at which truncation binds
    lam: dict[int, int] = {1: 1}

    def descend(idx: int, product: int, depth: int, sign: int) -> None:
        # product = p1...p_{depth}
        for i in range(idx, len(primes)):
            p = primes[i]
            d = product * p
            if d >= spec.R:
                continue
            m = depth + 1
            if m % 2 == parity and product * power_or_inf(p, spec.beta + 1) > spec.R:
                continue
            lam[d] = -sign
            descend(i + 1, d, m, -sign)

    descend(0, 1, 0, 1)
    return SieveWeights(spec=spec, lam=lam)


def theta_map(w: SieveWeights, ns) -> dict[int, int]:
    """theta_n = sum_{d | n} lambda_d for every n in `ns`."""
    return {n: sum(lam for d, lam in w.lam.items() if n % d == 0) for n in ns}


@dataclass(frozen=True)
class DensityPair:
    """Prime -> rational densities (g', g'') with 0 <= g < 1 and
    g'(p) + g''(p) < 1; extended multiplicatively to squarefree numbers,
    vanishing off the listed primes."""

    g1: Mapping[int, Fraction]
    g2: Mapping[int, Fraction]

    def __post_init__(self):
        for p in set(self.g1) | set(self.g2):
            a = self.g1.get(p, Fraction(0))
            b = self.g2.get(p, Fraction(0))
            if not (0 <= a < 1 and 0 <= b < 1 and a + b < 1):
                raise ValueError(f"density invariants violated at p = {p}")


def _eval_multiplicative(g: Mapping[int, Fraction], d: int) -> Fraction:
    """g(d) for squarefree d: the product of g(p) over p | d."""
    out = Fraction(1)
    for p, _ in factorize(d):
        out *= g.get(p, Fraction(0))
    return out


def reduced_composition(w1: SieveWeights, w2: SieveWeights, d: DensityPair) -> Fraction:
    """G = sum over coprime (d1, d2) of lambda'_{d1} lambda''_{d2}
    g'(d1) g''(d2), exact."""
    total = Fraction(0)
    for d1, l1 in w1.lam.items():
        gd1 = _eval_multiplicative(d.g1, d1)
        if gd1 == 0:
            continue
        for d2, l2 in w2.lam.items():
            if math.gcd(d1, d2) != 1:
                continue
            total += l1 * l2 * gd1 * _eval_multiplicative(d.g2, d2)
    return total


def invert_composition(w1: SieveWeights, w2: SieveWeights, d: DensityPair) -> Fraction:
    """The same G evaluated through theta = 1 * lambda:

        G = sum_{gcd(b1,b2)=1} theta'_{b1} theta''_{b2} g'(b1) g''(b2)
            * prod_{p in support, p ndvd b1 b2} (1 - g'(p) - g''(p)).

    With finite support this is an exact rational identity with
    reduced_composition.
    """
    support = tuple(sorted(set(w1.spec.support) | set(w2.spec.support)))
    divs = divisors(math.prod(support))
    th1 = theta_map(w1, divs)
    th2 = theta_map(w2, divs)
    total = Fraction(0)
    for b1 in divs:
        t1 = th1[b1]
        gb1 = _eval_multiplicative(d.g1, b1)
        if t1 == 0 or gb1 == 0:
            continue
        for b2 in divs:
            if math.gcd(b1, b2) != 1:
                continue
            t2 = th2[b2]
            gb2 = _eval_multiplicative(d.g2, b2)
            if t2 == 0 or gb2 == 0:
                continue
            rest = Fraction(1)
            for p in support:
                if b1 % p and b2 % p:
                    rest *= 1 - d.g1.get(p, Fraction(0)) - d.g2.get(p, Fraction(0))
            total += t1 * t2 * gb1 * gb2 * rest
    return total


def tilde_transforms(
    d: DensityPair,
) -> tuple[dict[int, Fraction], dict[int, Fraction], dict[int, Fraction], dict[int, Fraction]]:
    """(h~', h~'', g~', g~'') with h~'(p) = g'(p)/(1 - g'(p) - g''(p)) and
    g~'(p) = g'(p)/(1 - g''(p)); verifies h~' = g~'/(1 - g~') pointwise."""
    h1, h2, gt1, gt2 = {}, {}, {}, {}
    for p in sorted(set(d.g1) | set(d.g2)):
        a = d.g1.get(p, Fraction(0))
        b = d.g2.get(p, Fraction(0))
        denom = 1 - a - b
        h1[p] = a / denom
        h2[p] = b / denom
        gt1[p] = a / (1 - b)
        gt2[p] = b / (1 - a)
        assert h1[p] == gt1[p] / (1 - gt1[p])
        assert h2[p] == gt2[p] / (1 - gt2[p])
    return h1, h2, gt1, gt2


@dataclass
class CompositionReport:
    s: float
    kappa: float
    K_const: float
    smallest_K: float
    G: Fraction
    product: Fraction
    upper_bound: float | None
    lower_bound: float | None
    fundamental_sums: dict
    ok: bool


def composition_bounds_check(
    spec1: SieveSpec, spec2: SieveSpec, d: DensityPair
) -> CompositionReport:
    """Evaluate G exactly and test the composition-of-beta-sieves bounds.

    upper/upper:  G <= prod(1 - g' - g'') * (1 + e^{9k - s} K^10)^2
    lower/upper:  G >= prod(1 - g' - g'') * (1 - e^{9k - s} K^10)
    Also evaluates the Fundamental-Lemma sums sum_b theta_b h~(b).
    Both sieves sift by one support, and the hypotheses are checked over it.
    """
    kinds = (spec1.kind, spec2.kind)
    if kinds not in (("upper", "upper"), ("lower", "upper")):
        raise ValueError(f"unsupported kind combination {kinds}")
    if spec1.z != spec2.z or spec1.R != spec2.R:
        raise ValueError("both sieves must share z and R")
    if set(spec1.support) != set(spec2.support):
        raise ValueError(f"both sieves must share one support: {spec1.support}, {spec2.support}")
    s = spec1.s
    kappa = max(spec1.kappa, spec2.kappa)
    K = max(spec1.K_const, spec2.K_const)
    if not s > 9 * kappa + 1 + 10 * math.log(K):
        raise ValueError(
            f"hypothesis s > 9*kappa + 1 + 10*log K fails: s = {s:.3f}, "
            f"kappa = {kappa}, K = {K}"
        )
    support = tuple(sorted(spec1.support))
    h1, h2, _, _ = tilde_transforms(d)
    for p in support:
        if max(h1.get(p, 0), h2.get(p, 0)) >= 1:
            raise ValueError(
                f"h~(p) >= 1 at p = {p}: the sieve dimension condition needs "
                "2 g'(p) + g''(p) < 1 and g'(p) + 2 g''(p) < 1"
            )
    # smallest K with the sieve dimension condition for (kappa, z) at every
    # w in {2} union support, for both densities:
    #     prod_{w <= p < z} (1 - h~(p))^{-1} <= K (log z / log w)^kappa
    z = spec1.z
    smallest_K = 1.0
    checkpoints = sorted({2.0, *(float(p) for p in support if p < z)})
    for h in (h1, h2):
        for w in checkpoints:
            prod = 1.0
            for p in support:
                if w <= p < z:
                    prod /= 1.0 - float(h.get(p, Fraction(0)))
            ratio = prod / (math.log(z) / math.log(w)) ** kappa
            smallest_K = max(smallest_K, ratio)
    if smallest_K > K:
        raise ValueError(
            f"sieve dimension condition fails for K = {K}: needs K >= {smallest_K:.6f}"
        )

    w1 = beta_sieve_weights(spec1)
    w2 = beta_sieve_weights(spec2)
    G = reduced_composition(w1, w2, d)
    product = Fraction(1)
    for p in support:
        product *= 1 - d.g1.get(p, Fraction(0)) - d.g2.get(p, Fraction(0))
    err = math.exp(9 * kappa - s) * K**10

    divs = divisors(math.prod(support))
    th1 = theta_map(w1, divs)
    th2 = theta_map(w2, divs)
    fsum1 = sum((th1[b] * _eval_multiplicative(h1, b) for b in divs), Fraction(0))
    fsum2 = sum((th2[b] * _eval_multiplicative(h2, b) for b in divs), Fraction(0))

    if kinds == ("upper", "upper"):
        upper, lower = float(product) * (1 + err) ** 2, None
        ok = float(G) <= upper + 1e-15
    else:
        upper, lower = None, float(product) * (1 - err)
        ok = float(G) >= lower - 1e-15
    return CompositionReport(
        s=s,
        kappa=kappa,
        K_const=K,
        smallest_K=smallest_K,
        G=G,
        product=product,
        upper_bound=upper,
        lower_bound=lower,
        fundamental_sums={"theta1_h1": fsum1, "theta2_h2": fsum2},
        ok=ok,
    )
