"""Acceptance gate: nine end-to-end criteria, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines alongside the pytest output.
"""

import math
import os
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from cdtlab import betasieve as bs
from cdtlab import chebotarev as ch
from cdtlab import densities as de
from cdtlab import errorterms as et
from cdtlab import quadforms as qf
from cdtlab import weights as wt
from cdtlab.arith import li

from test_weights import transform_by_quadrature


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_class_numbers():
    t0 = time.time()
    checked = 0
    worst = None
    for D0 in range(-3, -501, -1):
        if not qf.is_fundamental(D0):
            continue
        for d in range(1, 13):
            if qf.class_number_order(D0, d) != qf.class_number(D0 * d * d):
                worst = (D0, d)
            checked += 1
    elapsed = time.time() - t0
    ok = worst is None and elapsed < 30.0
    verdict(
        1,
        ok,
        f"conductor formula vs direct enumeration on {checked} orders "
        f"(D0 in [-500, -3], d <= 12) in {elapsed:.1f}s"
        + (f"; first mismatch {worst}" if worst else ""),
    )


def test_criterion_2_equidistribution():
    t0 = time.time()
    worst = 0.0
    for D in (-23, -47, -71):
        rep = ch.equidistribution_report(D, 1e7)
        worst = max(worst, rep["max_rel_error"])
    elapsed = time.time() - t0
    ok = worst < 0.03 and elapsed < 300.0
    verdict(
        2,
        ok,
        f"pi_C within {worst:.2%} of Li(x)/h across D in {{-23,-47,-71}} "
        f"at x = 1e7 (limit 3%), {elapsed:.1f}s",
    )


def test_criterion_3_congruence_sums():
    f = qf.Form(1, 0, 1)
    P = de.SievingModulus.from_int(15)
    x = 1e7
    worst = 0.0
    for d1, d2 in ((1, 1), (3, 1), (1, 3), (5, 1), (1, 5), (3, 5), (5, 3), (15, 1), (1, 15)):
        A = ch.congruence_sum_A(f, d1, d2, x)
        pred = ch.congruence_sum_predicted(f, d1, d2, x, P)["value"]
        worst = max(worst, abs(A - pred) / pred)
    ok = worst < 0.05
    verdict(
        3,
        ok,
        f"congruence sums for u^2+v^2 with d1*d2 in {{1,3,5,15}} within "
        f"{worst:.2%} of g'(d1)g''(d2)Li(x)/h at x = 1e7 (limit 5%)",
    )


def test_criterion_4_sifted_experiment():
    x = 1e7
    P = de.SievingModulus.from_int(3 * 5 * 7 * 11 * 13)
    rep = ch.theorem15_experiment(qf.Form(1, 0, 1), P, x)
    ok = (not rep.obstructed) and rep.rel_error is not None and rep.rel_error < 0.05
    # parity obstruction: restricted count must vanish identically
    P_even = de.SievingModulus.from_int(2 * 3 * 5)
    rep_ob = ch.theorem15_experiment(qf.Form(1, 0, 1), P_even, 1e6)
    ok = ok and rep_ob.obstructed and rep_ob.lhs == 0.0 and rep_ob.trivially_true
    verdict(
        4,
        ok,
        f"sifted count vs delta_f(P)Li(x)/h at P = 15015, x = 1e7: rel error "
        f"{rep.rel_error:.2%} (limit 5%); obstructed case exactly 0: {rep_ob.lhs == 0.0}",
    )


def test_criterion_5_sieve_identities():
    rng = random.Random(987)
    exact = 0
    for _ in range(100):
        support = tuple(
            sorted(rng.sample([2, 3, 5, 7, 11, 13, 17], rng.randrange(2, 6)))
        )
        dens = bs.DensityPair(
            {p: Fraction(1, rng.randrange(3, 12)) for p in support},
            {p: Fraction(1, rng.randrange(3, 12)) for p in support},
        )
        z = max(support) + 0.5
        R = z ** rng.uniform(1.2, 4.5)
        w1 = bs.beta_sieve_weights(
            bs.SieveSpec(z=z, R=R, kind=rng.choice(["upper", "lower"]), support=support)
        )
        w2 = bs.beta_sieve_weights(
            bs.SieveSpec(z=z, R=R, kind=rng.choice(["upper", "lower"]), support=support)
        )
        if bs.reduced_composition(w1, w2, dens) == bs.invert_composition(w1, w2, dens):
            exact += 1

    support = (2, 3, 5, 7, 11, 13)
    dens = bs.DensityPair(
        {p: Fraction(1, p + 1) for p in support},
        {p: Fraction(1, p + 2) for p in support},
    )
    z = 14.0
    mk = lambda kind: bs.SieveSpec(z=z, R=z**27, kind=kind, support=support, K_const=5.0)
    rep_uu = bs.composition_bounds_check(mk("upper"), mk("upper"), dens)
    rep_lu = bs.composition_bounds_check(mk("lower"), mk("upper"), dens)

    f = qf.Form(1, 1, 6)
    P = de.SievingModulus.from_int(105)
    w_up = bs.beta_sieve_weights(
        bs.SieveSpec(z=8.0, R=1e10, kind="upper", support=P.prime_factors)
    )
    orders = ch.sieved_sum_S(f, w_up, w_up, P, 3e4)  # raises if orders differ

    ok = exact == 100 and rep_uu.ok and rep_lu.ok and orders["S"] >= 0
    verdict(
        5,
        ok,
        f"inversion identity exact on {exact}/100 random instances; composition "
        f"bounds hold (upper/upper and lower/upper); lattice evaluation orders agree",
    )


def test_criterion_6_weight_transform():
    p = wt.WeightParams(x=1e5, epsilon=0.08, ell=3)
    rng = random.Random(5)
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-4, 25), rng.uniform(-25, 25))
        worst = max(worst, abs(wt.laplace_F(z, p) - transform_by_quadrature(z, p)))
    rep = wt.verify_bounds(p)
    f0_err = abs(rep["F0"] - rep["mass_expected"])
    ok = worst <= 1e-8 and rep["ok"] and f0_err <= 1e-10
    verdict(
        6,
        ok,
        f"transform vs quadrature at 20 complex points: max |diff| = {worst:.2e} "
        f"(limit 1e-8); decay/main-term bounds clean; |F(0) - (1/2 + eps/log x)| "
        f"= {f0_err:.1e} (limit 1e-10)",
    )


def test_criterion_7_error_calculus():
    ok = True
    notes = []
    for Q, n_K in ((1e3, 2), (1e6, 2), (1e4, 8)):
        m = et.ErrorModel(D_K=Q / n_K**n_K, n_K=n_K, Qcal=1.0, c_ZDE=1)
        # corollary regime: Q <= x^(1/A) with A = 2
        for mult in (1.0, 1e6, 1e40):
            x = m.Q**2 * mult
            e = et.eta(x, m)
            dominated = math.exp(-e) <= et.classical_error(x, m) * (1 + 1e-9)
            ok = ok and e > 0 and dominated
        # three-case main-term floor at x = Q^36
        x = m.Q**36
        cases = set()
        for siegel, theta in ((None, 0), (0.01, 1), (2.0, 1), (0.5, -1)):
            mm = m if siegel is None else replace(m, beta1=1 - siegel / math.log(x), theta1=theta)
            out = et.main_term_floor(x, mm)
            cases.add(out["case"])
            ok = ok and out["actual"] > 0 and 0.25 <= out["implied_constant"] <= 4.0
        ok = ok and cases == {"no_zero", "small_lambda", "large_lambda", "negative_theta1"}
        notes.append(f"(Q={Q:.0e}, n_K={n_K})")
    verdict(
        7,
        ok,
        "eta > 0 and e^-eta dominated by the closed form in the A = 2 regime; "
        f"main-term floor cases all exercised on grid {', '.join(notes)}",
    )


def test_criterion_8_bridge():
    ok = True
    worst_C = 0.0
    for x in (1e4, 1e5, 1e6):
        for f in qf.class_representatives(-23).representatives:
            C = ch.bridge_check(f, x)["smallest_C"]
            worst_C = max(worst_C, C)
        li_defect = ch.li_identity_check(x, 0.9)
        ok = ok and li_defect <= 2 * math.sqrt(x) / math.log(x)
    ok = ok and worst_C <= 5.0
    verdict(
        8,
        ok,
        f"partial-summation bridge for all classes of D = -23 at x in "
        f"{{1e4,1e5,1e6}}: worst C = {worst_C:.2f} (limit 5); Li identity at "
        f"sigma = 0.9 within 2*sqrt(x)/log x",
    )


def test_criterion_9_performance():
    f = qf.Form(1, 1, 6)
    x = 1e7
    ch.prime_table(int(x))  # shared table, not part of either timing
    t0 = time.time()
    single = ch.count_prime_points(f, x, workers=1)
    t_single = time.time() - t0
    t0 = time.time()
    quad_count = ch.count_prime_points(f, x, workers=4)
    t_four = time.time() - t0
    speedup = t_single / t_four if t_four > 0 else float("inf")
    ok = t_single < 60.0 and quad_count == single and speedup >= 3.0
    verdict(
        9,
        ok,
        f"1e7 count in {t_single:.2f}s single-threaded (limit 60s); totals "
        f"identical across worker counts: {quad_count == single}; 4-worker "
        f"speedup {speedup:.2f}x (requires >= 3x; this host exposes "
        f"{len(os.sched_getaffinity(0))} CPU(s) to this process)",
    )
