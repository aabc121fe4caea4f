"""Self-contained invariant suites behind the `verify` subcommand.

The quick suite re-derives cheap invariants from scratch in under a
minute; the full suite adds the lattice counters and the
partial-summation bridge at moderate scale.  Each check returns a name,
a verdict, and a one-line detail string.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import arith, betasieve, chebotarev, densities, errorterms, quadforms, weights

Check = tuple[str, bool, str]

# class numbers h(D) for small fundamental discriminants, long known
_H_TABLE = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3,
    -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -47: 5, -71: 7,
    -163: 1,
}


def _check_arith(rng: random.Random) -> list[Check]:
    out: list[Check] = []
    ok = True
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13, 17, 101, 997])
        a = rng.randrange(1, p)
        euler = pow(a, (p - 1) // 2, p)
        sym = 1 if euler == 1 else -1
        ok &= arith.kronecker(4 * a, p) == sym  # (4a/p) = (a/p) for odd p
        # quadratic-residue test against Euler's criterion
        r = arith.sqrt_mod(a, p)
        ok &= (r is not None) == (sym == 1)
        if r is not None:
            ok &= r * r % p == a % p
    out.append(("kronecker and sqrt_mod vs Euler criterion", ok, "200 random residues"))
    ok = True
    for _ in range(100):
        n = rng.randrange(2, 10**6)
        m = 1
        for p, e in arith.factorize(n):
            ok &= arith.is_prime(p)
            m *= p**e
        ok &= m == n
    out.append(("factorize roundtrip", ok, "100 random n < 10^6"))
    table = arith.primes_up_to(10_000)
    ok = table.count() == 1229 and all(
        arith.is_prime(int(p)) for p in table.primes()[:100]
    )
    out.append(("sieve vs Miller-Rabin", ok, "pi(10^4) = 1229"))
    return out


def _check_quadforms(rng: random.Random) -> list[Check]:
    out: list[Check] = []
    ok = all(quadforms.class_number(D) == h for D, h in _H_TABLE.items())
    out.append(("class numbers vs table", ok, f"{len(_H_TABLE)} discriminants"))
    ok = True
    for _ in range(200):
        a = rng.randrange(1, 40)
        b = rng.randrange(-40, 40)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randrange(cmin, cmin + 40)
        f = quadforms.Form(a, b, c)
        r = quadforms.reduce_form(f)
        ok &= r == quadforms.reduce_form(r)
        ok &= r.discriminant == f.discriminant
        ok &= abs(r.b) <= r.a <= r.c
    out.append(("reduction idempotent and reduced", ok, "200 random forms"))
    D = -47
    cl = quadforms.class_representatives(D)
    e = quadforms.principal_form(D)
    ok = all(quadforms.compose(e, f) == f for f in cl.representatives)
    ok &= all(
        quadforms.compose(f, quadforms.inverse_form(f)) == quadforms.reduce_form(e)
        for f in cl.representatives
    )
    for _ in range(20):
        f, g, h = (rng.choice(cl.representatives) for _ in range(3))
        ok &= quadforms.compose(quadforms.compose(f, g), h) == quadforms.compose(
            f, quadforms.compose(g, h)
        )
    out.append(("composition group axioms at D=-47", ok, "identity/inverse/associativity"))
    ok = all(
        quadforms.class_number_order(D0, d) == quadforms.class_number(D0 * d * d)
        for D0 in (-3, -4, -7, -23)
        for d in (1, 2, 3, 5, 6)
    )
    out.append(("conductor formula vs direct count", ok, "D0 in {-3,-4,-7,-23}, d <= 6"))
    return out


def _check_densities() -> list[Check]:
    out: list[Check] = []
    P = densities.SievingModulus.from_int(2 * 3 * 5 * 7)
    ok = True
    for D in (-23, -4, -8, -20):
        for f in quadforms.class_representatives(D).representatives:
            d = densities.delta_f(f, P)
            ok &= d >= 0
            if densities.represents_odd_primes_obstructed(f, P):
                g2 = densities.g_prime(2, f, P) + densities.g_dprime(2, f, P)
                ok &= g2 == 1 and d == 0
    out.append(("delta_f sign and obstruction", ok, "even modulus, four discriminants"))
    return out


def _check_betasieve(rng: random.Random) -> list[Check]:
    ok = True
    for _ in range(25):
        support = tuple(sorted(rng.sample([2, 3, 5, 7, 11, 13], rng.randrange(2, 5))))
        g1 = {p: Fraction(1, rng.randrange(3, 9)) for p in support}
        g2 = {p: Fraction(1, rng.randrange(3, 9)) for p in support}
        d = betasieve.DensityPair(g1, g2)
        z = max(support) + 0.5
        R = z ** rng.uniform(1.5, 4.0)
        w1 = betasieve.beta_sieve_weights(
            betasieve.SieveSpec(z=z, R=R, kind=rng.choice(["upper", "lower"]), support=support)
        )
        w2 = betasieve.beta_sieve_weights(
            betasieve.SieveSpec(z=z, R=R, kind="upper", support=support)
        )
        ok &= betasieve.reduced_composition(w1, w2, d) == betasieve.invert_composition(
            w1, w2, d
        )
    return [("composition inversion identity", ok, "25 random sieve pairs")]


def _check_weights() -> list[Check]:
    p = weights.WeightParams(x=1e5, epsilon=0.05, ell=4)
    w = weights.WeightFunction(p)
    ok = abs(weights.laplace_F(0.0, p).real - w.mass()) < 1e-12
    # a polynomial of degree ell between the knots 1/2 - 2kA and 1 + 2kA, so
    # ell // 2 + 1 Gauss-Legendre nodes integrate each piece exactly
    nodes, gw = np.polynomial.legendre.leggauss(p.ell // 2 + 1)
    ks = range(p.ell + 1)
    knots = sorted({0.5 - 2 * k * p.A for k in ks} | {1 + 2 * k * p.A for k in ks})
    mass = sum((b - a) / 2 * np.dot(gw, [w((a + b + (b - a) * s) / 2) for s in nodes])
               for a, b in zip(knots, knots[1:]))
    ok &= abs(mass - w.mass()) < 1e-9
    rep = weights.verify_bounds(p)
    ok &= rep["ok"]
    return [("weight mass and transform bounds", ok, "x=1e5, ell=4")]


def _check_errorterms() -> list[Check]:
    ok = True
    for Q_cal, n_K in ((1.0, 2), (100.0, 2), (5.0, 4)):
        m = errorterms.ErrorModel(Qcal=Q_cal, n_K=n_K)
        for x in (1e6, 1e12, 1e30):
            ok &= math.exp(-errorterms.eta(x, m)) <= errorterms.classical_error(x, m) * (
                1 + 1e-9
            )
    return [("eta dominated by classical bound", ok, "3 models x 3 scales")]


def _check_chebotarev() -> list[Check]:
    out: list[Check] = []
    f = quadforms.class_representatives(-23).representatives[0]
    lattice = chebotarev.pi_class(f, 1e5)
    scan = chebotarev.pi_class_scan(f, 1e5)
    ok = lattice == scan
    out.append(("lattice vs prime-scan count", ok, f"D=-23, x=1e5: {lattice} vs {scan}"))
    rep = chebotarev.equidistribution_report(-23, 1e5)
    out.append(
        (
            "equidistribution at 1e5",
            rep["max_rel_error"] < 0.05,
            f"max rel err {rep['max_rel_error']:.4f}",
        )
    )
    br = chebotarev.bridge_check(f, 1e4)
    out.append(("bridge constant", br["smallest_C"] <= 5, f"C = {br['smallest_C']:.3f}"))
    # the bridge's pi_C leaves out the ramified primes that pi_class
    # counts, and adds the inert (p), p^2 <= x, to the principal class
    D, x = -23, 1e5
    principal = quadforms.reduce_form(quadforms.principal_form(D))
    inert = sum(
        arith.kronecker(D, p) == -1 for p in arith.primes_up_to(math.isqrt(int(x))).primes()
    )
    ramified = [quadforms.prime_to_class(p, D) for p, _ in arith.factorize(-D)]
    ok, pis = True, []
    for g in quadforms.class_representatives(D).representatives:
        pis.append(chebotarev.bridge_check(g, x)["pi"])
        ok &= pis[-1] == chebotarev.pi_class(g, x) - ramified.count(g) + inert * (g == principal)
    out.append(("bridge pi vs lattice pi_class", ok, f"D=-23, x=1e5: pi = {pis}"))
    ok = chebotarev.li_identity_check(1e6) <= 2 * math.sqrt(1e6) / math.log(1e6)
    out.append(("Li integration-by-parts identity", ok, "x=1e6, sigma=0.9"))
    return out


_SEED = 7  # the randomized checks draw the same cases on every run


def run_checks(full: bool = False) -> list[Check]:
    rng = random.Random(_SEED)
    checks = (
        _check_arith(rng)
        + _check_quadforms(rng)
        + _check_densities()
        + _check_betasieve(rng)
        + _check_weights()
        + _check_errorterms()
    )
    if full:
        checks += _check_chebotarev()
    return checks
