"""Each argument kind has one entry rule, stated once: a primitive form
passes quadforms.check_primitive, an integer argument passes
arith.check_int, and the bound x of a count or list up to x passes
arith.check_bound.  Every entry that takes such an argument applies its
rule under its own name, and no module spells a rule's message itself."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdtlab import arith
from cdtlab import chebotarev as ch
from cdtlab import densities as de
from cdtlab import errorterms as et
from cdtlab import quadforms as qf
from cdtlab import weights as wt
from cdtlab.betasieve import SieveSpec, beta_sieve_weights

ROOT = Path(__file__).resolve().parents[1]
P15 = de.SievingModulus.from_int(15)
W15 = beta_sieve_weights(SieveSpec(z=6.0, R=1e10, kind="upper", support=(3, 5)))

# entry -> a call that passes it the form f; `cdtlab count` is the
# thirteenth, in tests/test_cli.py.  psi_events takes any positive definite
# form, as its docstring says
FORM_ENTRIES = {
    "pi_class": lambda f: ch.pi_class(f, 1e4),
    "pi_class_scan": lambda f: ch.pi_class_scan(f, 1e4),
    "psi_class": lambda f: ch.psi_class(f, 1e4),
    "psi_class_smooth": lambda f: ch.psi_class_smooth(f, wt.WeightParams(1e4, 0.1, 3)),
    "bridge_check": lambda f: ch.bridge_check(f, 1e4),
    "congruence_sum_A": lambda f: ch.congruence_sum_A(f, 1, 1, 1e4),
    "congruence_sum_predicted": lambda f: ch.congruence_sum_predicted(f, 1, 1, 1e4, P15),
    "sieved_sum_S": lambda f: ch.sieved_sum_S(f, W15, W15, P15, 1e4),
    "theorem15_experiment": lambda f: ch.theorem15_experiment(f, P15, 1e4),
    "delta_f": lambda f: de.delta_f(f, P15),
    "represents_odd_primes_obstructed": lambda f: de.represents_odd_primes_obstructed(f, P15),
    "compose": lambda f: qf.compose(qf.Form(1, 0, 3), f),
}


@pytest.mark.parametrize("name", FORM_ENTRIES)
def test_form_entry_rejects_imprimitive(name):
    # (2, 2, 2) has D = -12, as (1, 0, 3) does, and takes only even values
    with pytest.raises(ValueError, match=rf"^{name} requires a primitive form, got \(2, 2, 2\)$"):
        FORM_ENTRIES[name](qf.Form(2, 2, 2))


# (site, name) -> (a call that passes it n, an admissible n)
INT_SITES = {
    ("congruence_sum_A", "d1"): (lambda n: ch.congruence_sum_A(qf.Form(1, 0, 1), n, 1, 1e3), 3),
    ("congruence_sum_A", "d2"): (lambda n: ch.congruence_sum_A(qf.Form(1, 0, 1), 1, n, 1e3), 5),
    ("congruence_sum_predicted", "d1"): (
        lambda n: ch.congruence_sum_predicted(qf.Form(1, 0, 1), n, 1, 1e4, P15), 3
    ),
    ("congruence_sum_predicted", "d2"): (
        lambda n: ch.congruence_sum_predicted(qf.Form(1, 0, 1), 1, n, 1e4, P15), 5
    ),
    ("class_number_order", "conductor"): (lambda n: qf.class_number_order(-4, n), 3),
    ("SievingModulus.from_int", "sieving modulus P"): (de.SievingModulus.from_int, 30),
    ("main_term", "h"): (lambda n: ch.main_term(1e6, n), 3),
    ("ErrorModel", "n_K"): (lambda n: et.ErrorModel(n_K=n), 4),
    ("ErrorModel", "c_ZDE"): (lambda n: et.ErrorModel(c_ZDE=n), 2),
    ("WeightParams", "ell"): (lambda n: wt.WeightParams(1e5, 0.05, n), 4),
    ("standard_choice", "n_K"): (lambda n: wt.WeightParams.standard_choice(1e160, n, 1), 2),
    ("standard_choice", "c_ZDE"): (lambda n: wt.WeightParams.standard_choice(1e160, 2, n), 1),
    ("remainder_eps", "d"): (lambda n: et.remainder_eps(n, 1e6, et.ErrorModel()), 6),
    ("factorize", "n"): (arith.factorize, 360),
    ("kronecker", "n"): (lambda n: arith.kronecker(-23, n), 6),
    ("count_prime_points", "workers"): (
        lambda n: ch.count_prime_points(qf.Form(1, 1, 6), 1e4, workers=n), 2
    ),
    ("pi_class", "workers"): (lambda n: ch.pi_class(qf.Form(2, 1, 3), 1e4, workers=n), 2),
    ("equidistribution_report", "workers"): (
        lambda n: ch.equidistribution_report(-23, 1e4, workers=n), 2
    ),
    ("theorem15_experiment", "workers"): (
        lambda n: ch.theorem15_experiment(qf.Form(1, 0, 1), P15, 1e4, workers=n), 2
    ),
}


@pytest.mark.parametrize("site", INT_SITES, ids="-".join)
@pytest.mark.parametrize("bad", [0, 2.5, 2.0])
def test_int_site_rejects(site, bad):
    call, _ = INT_SITES[site]
    with pytest.raises(ValueError, match=rf"^{site[1]} must be an integer >= 1, got {bad}$"):
        call(bad)


@pytest.mark.parametrize("site", INT_SITES, ids="-".join)
def test_int_site_takes_numpy_integers(site):
    call, n = INT_SITES[site]
    assert call(np.int64(n)) == call(n)


def test_check_int_returns_a_python_int():
    n = arith.check_int(np.int64(7), 1, "n")
    assert n == 7 and type(n) is int
    assert arith.check_int(0, 0, "n") == 0


F = qf.Form(1, 1, 6)

# (site, name) -> a call that passes it the bound v
BOUND_SITES = {
    ("represented_blocks", "x"): lambda v: next(qf.represented_blocks(F, v), None),
    ("count_prime_points", "x"): lambda v: ch.count_prime_points(F, v),
    ("pi_class_scan", "x"): lambda v: ch.pi_class_scan(F, v),
    ("psi_events", "x"): lambda v: ch.psi_events(F, v),
    ("prime_table", "limit"): ch.prime_table,
    ("primes_up_to", "x"): arith.primes_up_to,
    ("PrimeCache.primes", "upto"): lambda v: arith.primes_up_to(100).primes(v),
    ("li", "x"): arith.li,
    ("main_term", "x"): lambda v: ch.main_term(v, 1),
}


@pytest.mark.parametrize("site", BOUND_SITES, ids="-".join)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bound_site_rejects_non_finite(site, bad):
    with pytest.raises(ValueError, match=rf"^{site[1]} must be a finite number, got {bad}$"):
        BOUND_SITES[site](bad)


@pytest.mark.parametrize("site", BOUND_SITES, ids="-".join)
def test_bound_site_rejects_an_int_past_the_float_range(site):
    # math.isfinite(10**400) raises OverflowError: the rule turns it into
    # a short line that names the argument
    message = rf"^{site[1]} must be a finite number, got a number past the float range$"
    with pytest.raises(ValueError, match=message):
        BOUND_SITES[site](10**400)


def test_check_bound_floors_at_zero():
    assert [arith.check_bound(v) for v in (2.9, 2, 0.5, -0.5, -1e6)] == [2, 2, 0, 0, 0]
    assert type(arith.check_bound(np.float64(7.5))) is int


def peak_bytes(call):
    """(call(), the tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_negative_bound_reads_nothing_of_the_table():
    # a negative bound once sliced the table from its end and spread
    # nearly all of it: 13.5 MB and 15.0 MB here after a 1e7 table
    table = ch.prime_table(10**7)
    count, peak = peak_bytes(lambda: ch.pi_class_scan(F, -1e6))
    assert count == 0 and peak < 1 << 20
    primes, peak = peak_bytes(lambda: table.primes(-100))
    assert primes.tolist() == [] and peak < 1 << 20


@pytest.mark.parametrize("call", [ch.psi_events, ch.bridge_check], ids=lambda c: c.__name__)
def test_psi_mark_budget_is_checked_before_allocating(call):
    # x = 2^30 - 1 is the last bound whose event table is built
    message = rf"^psi_events up to {1 << 30} exceeds the event-table limit x < 2\^30$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            call(F, 1 << 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fractional_bound_counts_as_its_floor():
    x = 1e5
    assert ch.count_prime_points(F, x + 0.5) == ch.count_prime_points(F, x) == 6270
    assert ch.pi_class_scan(F, x + 0.5) == ch.pi_class_scan(F, x)
    assert ch.psi_events(F, x + 0.5).tolist() == ch.psi_events(F, x).tolist()


def rule_sites(marker: str) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function or None) for each string
    constant in the package source that holds `marker`, f-string parts
    included."""
    sites = []

    def visit(node, module, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                if marker in child.value:
                    sites.append((module, fn))
            visit(child, module, fn)

    for path in sorted((ROOT / "src" / "cdtlab").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


@pytest.mark.parametrize(
    "marker, site",
    [
        ("requires a primitive form", ("quadforms", "check_primitive")),
        ("must be an integer >=", ("arith", "check_int")),
        ("must be a finite number", ("arith", "check_finite")),
        ("is not a negative form discriminant", ("quadforms", "_check_discriminant")),
        ("exceeds the budget of 2^27 entries", ("chebotarev", "_theta_table")),
        ("read past the table's limit", ("arith", "primes")),
        ("is not a proven prime", ("arith", "factorize")),
        ("exceeds the event-table limit x < 2^30", ("chebotarev", "psi_events")),
        ("is past the proven range", ("arith", "is_prime")),
    ],
)
def test_each_rule_is_spelled_once(marker, site):
    assert rule_sites(marker) == [site]
