"""Prime counting in form classes of imaginary quadratic fields.

The plain count behind pi_C, the sifted count of Theorem 15 and both
evaluation orders of the sieved sum S are one weighted sum over the
lattice points with prime value, taken by a single kernel: they differ
only in residue tables built from gcds with the sieving modulus.  The
kernel walks half the plane against a cached sieve table, in numpy
blocks, in strips across forked worker processes when the estimated
number of points pays for the fork.  It owns a wheel mod 30 (210 for
sieving moduli divisible by 7): it builds only the points whose value is
prime to 30 and whose weight can be nonzero, and adds the values 2, 3
and 5 by a pass over the tiny ellipse f(u, v) <= 5.  Dividing by the
unit count turns a lattice total into a prime-ideal count.

The prime-power events behind the Chebyshev-style sums psi_C, their
smoothed variants and the partial-summation bridge back to pi_C follow
one rule: a split prime power p^j lies in the class of a form exactly
when the form properly represents it, f(u, v) = p^j with gcd(u, v) = 1,
since the only primitive ideals of norm p^j are the j-th powers of the
two ideals above p (Cox, Primes of the Form x^2+ny^2, 2-3 and
Theorem 7.7; Cohen, Computational Algebraic Number Theory, 5.2).  They
are read off one lattice pass over the class's own form, on the
kernel's wheel mod 30, into a mark table that also holds the powers of
the inert primes (p), all in the principal class; the powers of a split
2, 3 or 5, which the wheel skips, are placed by the class of the prime
and its composition powers.  One read-out gives every event in order.
pi_class_scan walks every prime p <= x, 2 and the ramified primes
included, as an independent slow count that equals the lattice count
exactly; it labels each prime by quadforms.prime_to_class, the class of
the forms that represent it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .arith import PrimeCache, check_finite, checked_log, kronecker, li, primes_up_to
from .betasieve import theta_map
from .densities import (
    SievingModulus,
    delta_f,
    g_dprime,
    g_prime,
    represents_odd_primes_obstructed,
)
from .errorterms import ErrorModel, remainder_R
from .quadforms import (
    Form,
    _u_bound,
    class_representatives,
    compose,
    induced_form,
    inverse_form,
    prime_to_class,
    principal_form,
    reduce_form,
    represented_blocks,
    stab_order,
)
from .weights import WeightFunction, WeightParams

__all__ = [
    "prime_table",
    "count_prime_points",
    "pi_class",
    "pi_class_scan",
    "equidistribution_report",
    "psi_events",
    "psi_class",
    "psi_class_smooth",
    "main_term",
    "congruence_sum_A",
    "congruence_sum_predicted",
    "sieved_sum_S",
    "theorem15_experiment",
    "ExperimentReport",
    "bridge_check",
    "li_identity_check",
]


# ---------------------------------------------------------------------------
# prime table, shared with forked workers

_TABLE: PrimeCache | None = None


def prime_table(limit: int) -> PrimeCache:
    """Primality flags up to at least `limit`, cached in memory and,
    when CDTLAB_CACHE_DIR is set, on disk as primes_<n>.pche.  The
    smallest file with n >= limit is loaded; a file that fails to load
    is rebuilt at its n and overwritten, with a warning naming it."""
    global _TABLE
    limit = int(limit)
    if _TABLE is not None and _TABLE.limit >= limit:
        return _TABLE
    cache_dir = os.environ.get("CDTLAB_CACHE_DIR")
    size, path = limit, None
    if cache_dir:
        names = (q.stem.removeprefix("primes_") for q in Path(cache_dir).glob("primes_*.pche"))
        size = min((int(n) for n in names if n.isdigit() and int(n) >= limit), default=limit)
        path = Path(cache_dir) / f"primes_{size}.pche"
    if path is not None and path.exists():
        try:
            _TABLE = PrimeCache.load(path)
        except ValueError as exc:
            # a damaged file is a miss: rebuild and overwrite it
            warnings.warn(f"rebuilding prime cache {path}: {exc}", stacklevel=2)
        else:
            if _TABLE.limit >= limit:
                return _TABLE
    _TABLE = primes_up_to(max(size, 1 << 10))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        _TABLE.save(path)
    return _TABLE


# ---------------------------------------------------------------------------
# the lattice kernel, serial or across forked workers
#
# _lattice_sum returns the sum of w_u[u % m] * w_v[v % m] over the pairs
# with f(u, v) = n a prime <= x and n_ok[n % k] nonzero.  Each table must
# depend on its residue only through the gcd with its modulus, so that
# (-u, -v) weighs the same as (u, v): the pass over u >= 1 is doubled and
# the row u = 0 added once.  The tables are read on the prime hits only.
#
# The kernel walks a wheel: it builds only the points whose residues
# _wheel(f) admits, gcd(f(u, v), 30) = 1 (true at (-u, -v) as at (u, v)),
# and a prime among them is 7 or more.  That keeps 7 to 11 percent of the
# ellipse for D = -23, -47 and -71 and 28 for u^2 + v^2; W = 6 would keep
# 11.1 against 10.7 for D = -23 and -47, and 44 for u^2 + v^2.  The points
# of value 2, 3 or 5 come from a second pass over the whole (tiny) ellipse
# f(u, v) <= min(x, 5), by the same tables.
#
# _admissible also drops the points the coordinate tables weigh 0.  Its
# wheel is mod W = lcm(30, gcd(m, 210)): 210 when 7 | m, else 30 (11 and
# 13 would need a 30030^2 table).  A row residue u0 mod W goes when w_u
# vanishes on every r = u0 (mod gcd(m, W)), a column v0 likewise by w_v.
# Only points of weight 0 go, whatever the tables hold, and tables that
# depend on their residue through a gcd keep the symmetry the doubling
# needs.  For (1, 0, 1) with P = 15015 the table keeps 1/2 * 1/2 * 36/49
# = 18.4 percent of the wheel's points; with m = 1 it equals _wheel(f).
#
# The pass over u >= 1 forks only when it pays.  With more than one
# worker its points are estimated before any is built: the half-ellipse
# has area pi x / sqrt|D|, and the table keeps the share of it that is
# true (698,739 for (1, 1, 6) at 1e7, against 698,783 built).
# The pool gets one process per _FORK_POINTS estimated points, at most
# `workers` and at most the CPUs this process may run on; with one, the
# pass is the serial walk.  A forked pass is cut into strips that depend
# on the form and x alone, and partial sums are exact integers, so the
# total is independent of the worker count.  A forked worker inherits
# the strip closure unpickled, as its initializer's argument, so the
# parent keeps no state of a pass.  Each worker starts on a CPU of its
# own: workers forked together wake on their parent's CPU, and on a
# 2-CPU x86-64 host the scheduler left both there for whole passes, most
# often in the first second after the process had been idle.  Such a
# pass took 0.34-0.39 s at 1e8 for (1, 1, 6), against 0.17-0.19 s with
# the workers apart.
#
# _FORK_POINTS is measured on a 2-CPU x86-64 host.  The serial kernel
# builds and gathers about 22M points/s.  A 2-process pool takes about
# 13 ms of wall time to create, feed and reap, and its two children
# spend about 17 ms of CPU and 2,400 minor faults beyond the serial
# pass's work.  Forced pools of two at x = 1e7, 2e7, 3e7, 5e7 and 1e8
# for (1, 1, 6) (0.7M to 7.0M estimated points) won 0, 0, 5, 9 and 9 of
# 9 alternated pairs against one worker: two processes break even near
# 2M points, which one process per 1M points puts them at.

_WHEEL = 30  # = 2 * 3 * 5
_FORK_POINTS = 1_000_000  # estimated points per forked process
_STRIP = None  # a pool worker's strip closure, set by _start_apart


@lru_cache(maxsize=256)
def _wheel(f: Form) -> np.ndarray:
    """[gcd(f(u0, v0), 30) = 1] for the residues u0 (rows) and v0 mod 30."""
    a, b, c = (k % _WHEEL for k in f)  # f(u0, v0) mod 30, free of overflow
    r = np.arange(_WHEEL, dtype=np.int64)
    u0 = r[:, None]
    table = np.gcd(a * u0 * u0 + b * u0 * r + c * r * r, _WHEEL) == 1
    table.setflags(write=False)
    return table


def _admissible(f: Form, w_u: np.ndarray, w_v: np.ndarray) -> np.ndarray:
    """_wheel(f) tiled mod W, less the residues that w_u or w_v weigh 0."""
    m = len(w_u)
    W = math.lcm(_WHEEL, math.gcd(m, 7 * _WHEEL))
    g = math.gcd(m, W)
    r = np.arange(W) % g
    rows = (w_u.reshape(-1, g) != 0).any(axis=0)[r]
    cols = (w_v.reshape(-1, g) != 0).any(axis=0)[r]
    return np.tile(_wheel(f), (W // _WHEEL, W // _WHEEL)) & rows[:, None] & cols


def _run_strip(u_lo: int, u_hi: int) -> int:
    return _STRIP(u_lo, u_hi)


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux; not macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_apart(strip) -> None:
    """Pool initializer: keep the pass's strip closure for _run_strip, and
    move the i-th worker to the i-th CPU this process may run on, then
    let it run on any of them again."""
    global _STRIP
    _STRIP = strip
    if not hasattr(os, "sched_setaffinity"):  # Linux; not macOS or Windows
        return
    cpus = os.sched_getaffinity(0)
    i = multiprocessing.current_process()._identity[-1]
    try:
        os.sched_setaffinity(0, {sorted(cpus)[i % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # the placement is a hint; the pass is right without it


def _lattice_sum(
    f: Form, x: float, n_ok: np.ndarray, w_u: np.ndarray, w_v: np.ndarray, workers: int = 1
) -> int:
    check_finite(x)
    if x < 2:
        return 0  # no prime is <= x
    x = int(x)
    flags = prime_table(x).flags
    k, m = len(n_ok), len(w_u)
    wheel = _admissible(f, w_u, w_v)

    def weigh(blocks) -> int:
        total = 0
        for U, V, N in blocks:
            hit = np.flatnonzero(flags[N])
            w = w_u[U[hit] % m] * n_ok[N[hit] % k]
            total += int(np.dot(w, w_v[V[hit] % m]))
        return total

    def strip(u_lo: int, u_hi: int) -> int:
        return weigh(represented_blocks(f, x, u_lo, u_hi, admissible=wheel))

    U = _u_bound(f, x)
    procs = workers
    if workers > 1:
        points = math.pi * x / math.sqrt(-f.discriminant) * wheel.mean()
        procs = min(workers, _cpus())
        if procs * _FORK_POINTS > points:
            procs = int(points // _FORK_POINTS)
    if procs <= 1:
        half = strip(1, U)
    else:
        chunk = max(1, U // 32)
        jobs = [(lo, min(lo + chunk - 1, U)) for lo in range(1, U + 1, chunk)]
        with multiprocessing.get_context("fork").Pool(procs, _start_apart, (strip,)) as pool:
            half = sum(pool.starmap(_run_strip, jobs))
    # the primes 2, 3 and 5 that the wheel skips, over the whole plane
    small = weigh(represented_blocks(f, min(x, 5)))
    return 2 * half + strip(0, 0) + small


def _coprime_residues(m: int) -> np.ndarray:
    """[gcd(r, m) = 1] for every residue r mod m."""
    return (np.gcd(np.arange(m), m) == 1).astype(np.int64)


def count_prime_points(f: Form, x: float, workers: int = 1) -> int:
    """Number of integer pairs (u, v) with f(u, v) a prime <= x."""
    one = np.ones(1, dtype=np.int64)
    return _lattice_sum(f, x, one, one, one, workers)


def pi_class(f: Form, x: float, workers: int = 1) -> float:
    """Prime-ideal count attached to the class of f: lattice points with
    prime value, divided by the number of units of the order."""
    f = reduce_form(f)
    return count_prime_points(f, x, workers) / stab_order(f.discriminant)


def pi_class_scan(target: Form, x: float) -> int:
    """Independent slow count of the prime ideals of degree one and norm
    p <= x in the class of `target`, walking every prime p.

    prime_to_class gives the class g of an ideal above p.  A split p
    has a second ideal in the class of g^-1, a ramified p (p | D) only
    the one.  This count equals pi_class exactly: the lattice path
    reaches the same ideals through the values of the form.
    """
    check_finite(x)
    target = reduce_form(target)
    D = target.discriminant
    flags = prime_table(int(x)).flags
    total = 0
    for p in np.flatnonzero(flags[: max(int(x), 0) + 1]).tolist():
        g = prime_to_class(p, D)
        if g is not None:
            total += (g == target) + (D % p != 0 and inverse_form(g) == target)
    return total


def _li_above_2(x: float) -> float:
    """Li(x) for a report that divides by it: x <= 2 is rejected."""
    check_finite(x)
    if x <= 2:
        raise ValueError(f"x must exceed 2, since Li(2) = 0; got x = {x}")
    return li(x)


def equidistribution_report(D: int, x: float, workers: int = 1) -> dict:
    """Per-class prime-ideal counts against the common target Li(x)/h.
    A class and its inverse share one lattice pass: f(u, -v) carries the
    values of (a, b, c) to those of (a, -b, c)."""
    cl = class_representatives(D)
    expected = _li_above_2(x) / cl.h
    rows = []
    worst = 0.0
    counts = {}
    for f in cl.representatives:
        count = counts.get(inverse_form(f))
        if count is None:
            count = counts[f] = pi_class(f, x, workers)
        rel = abs(count - expected) / expected
        worst = max(worst, rel)
        rows.append({"form": list(f), "count": count, "expected": expected, "rel_error": rel})
    return {"D": D, "x": x, "h": cl.h, "expected": expected, "rows": rows, "max_rel_error": worst}


# ---------------------------------------------------------------------------
# prime-power bookkeeping: psi_C and the bridge back to pi_C


def psi_events(target: Form, bound: float) -> np.ndarray:
    """The prime-power events of the class of `target` with norm <= bound,
    as a k x 2 int64 array of rows (n, q) sorted by n.  A row is the
    power of norm n of a prime ideal of norm q: it weighs log q and is a
    prime ideal exactly when n == q.

    Split p: the two conjugate ideals contribute their powers, q = p.
    The only primitive ideals of norm p^j are the j-th powers of the two
    ideals above p, and a form properly represents m exactly when its
    class holds a primitive ideal of norm m (Cox, Primes of the Form
    x^2+ny^2, 2-3 and Theorem 7.7; Cohen, Computational Algebraic Number
    Theory, 5.2).  So the split events of the class are the values
    f(u, v) = p^j of `target` with gcd(u, v) = 1.  Those with p >= 7 are
    read off one lattice pass over the kernel's wheel mod 30, which
    builds only the points with f(u, v) prime to 30.  The powers of a
    split 2, 3 or 5 are placed by the class g = prime_to_class(p, D):
    p^j is an event exactly when g^j or g^-j, built by compose, is the
    class of `target`.  When `target` is its own inverse both conjugate
    powers lie in its class and the row appears twice.  Inert p: the
    ideal (p) has norm q = p^2 and lies in the principal class; no form
    properly represents its powers.  Ramified primes and the primes
    dividing the conductor are left out; at the scales handled here
    their contribution is below every tolerance in use.
    """
    check_finite(bound)
    target = reduce_form(target)
    D = target.discriminant
    principal = target == reduce_form(principal_form(D))
    bound = max(int(bound), 0)
    flags = prime_table(bound).flags
    # mark 1: a prime p <= bound; 2: a power p^j <= bound, j >= 2, of a
    # prime ideal of norm base[n] = p; 3: in the principal class, a power
    # of an inert (p), base[n] = p^2; 4: a value p^j that `target`
    # properly represents
    mark = flags[: bound + 1].astype(np.uint8)
    base = {}
    for p in np.flatnonzero(flags[: math.isqrt(bound) + 1]).tolist():
        q, m = p, 2
        if kronecker(D, p) == -1:
            q, m = p * p, 3 if principal else 0
        n = p * p
        while n <= bound:
            mark[n], base[n] = m, q
            n *= q

    # f(-u, -v) = f(u, v), so the half-plane u >= 0 meets every value;
    # an inert power is never properly represented and keeps its mark 3.
    # gcd(u, v)^2 divides f(u, v), so only the powers need the gcd
    for U, V, N in represented_blocks(target, bound, 0, admissible=_wheel(target)):
        M = mark[N]
        mark[N[M == 1]] = 4
        hit = np.flatnonzero(M == 2)
        mark[N[hit[np.gcd(U[hit], V[hit]) == 1]]] = 4
    inverse = inverse_form(target)
    for p in (2, 3, 5):
        if D % p == 0 or (g := prime_to_class(p, D)) is None:
            continue
        n, gj = p, g
        while n <= bound:
            if gj in (target, inverse):
                mark[n] = 4
            n, gj = n * p, compose(gj, g)
    n = np.flatnonzero(mark >= 3)
    rows = np.column_stack((n, n))
    power = np.flatnonzero(~flags[n])
    rows[power, 1] = [base[k] for k in n[power].tolist()]
    rows = rows[D % rows[:, 1] != 0]
    twice = inverse == target
    return np.repeat(rows, 1 + (twice & (mark[rows[:, 0]] == 4)), axis=0)


def psi_class(target: Form, x: float) -> float:
    """psi_C(x): log q over the events (n, q) of the class of `target`
    with n <= x, summed exactly (math.fsum)."""
    return math.fsum(map(math.log, psi_events(target, x)[:, 1].tolist()))


def psi_class_smooth(target: Form, params: WeightParams) -> float:
    """psi_C weighted by f(log n / log x); support reaches slightly past x."""
    weight = WeightFunction(params)
    hi = math.exp(params.log_x * weight.support[1])
    events = psi_events(target, math.ceil(hi)).tolist()
    return math.fsum(math.log(q) * weight(math.log(n) / params.log_x) for n, q in events)


def main_term(x: float, h: int, model: ErrorModel | None = None) -> float:
    """(Li(x) - theta1 * Li(x^beta1)) / h; the exceptional-zero secondary
    term only appears when the model carries a zero beta1."""
    if h < 1:
        raise ValueError("class number must be >= 1")
    out = li(x)
    if model is not None and model.beta1 is not None:
        out -= model.theta1 * li(x**model.beta1)
    return out / h


def bridge_check(target: Form, x: float) -> dict:
    """Partial-summation bridge pi_C(x) ~ psi_C(x)/log x
    + int_sqrt(x)^x psi_C(t) dt/(t log^2 t).

    pi_C(x), psi_C(x) and the integral are all read off one event table
    psi_events(target, x): pi_C counts its rows with n == q, psi_C sums
    their weights log q, and the integral of the step function psi_C is
    a sum over the rows.  Unlike pi_class, this pi_C counts the inert
    prime ideals (p) with p^2 <= x, all in the principal class, and
    leaves out the ramified primes.  Reports the smallest C with
    |difference| <= C sqrt(x)/log x."""
    logx = checked_log(x, 100, "bridge_check requires x >= 100")
    events = psi_events(target, x)
    sqrtx = math.sqrt(x)
    n, q = events.T
    # math.log, not np.log, which is 1 ulp off on some weights; the
    # numpy operations below round each term as Python's would
    logs = list(map(math.log, q.tolist()))
    w = np.array(logs)
    # L = log max(sqrtx, n), which is the weight log q on a row n == q > sqrtx
    L = np.where(n > sqrtx, w, math.log(sqrtx))
    power = np.flatnonzero((n != q) & (n > sqrtx))
    L[power] = list(map(math.log, n[power].tolist()))
    pi_val = int(np.count_nonzero(n == q))
    psi_val = math.fsum(logs)
    integral = math.fsum((w * (1 / L - 1 / logx)).tolist())
    rhs = psi_val / logx + integral
    diff = abs(pi_val - rhs)
    return {
        "x": x,
        "pi": pi_val,
        "psi": psi_val,
        "integral": integral,
        "rhs": rhs,
        "difference": diff,
        "smallest_C": diff * logx / sqrtx,
    }


def li_identity_check(x: float, sigma: float = 0.9) -> float:
    """Defect of the integration-by-parts identity
    Li(x) - Li(x^sigma) = x/log x - x^sigma/log(x^sigma)
    + int_{x^sigma}^x dt/log^2 t; returns the absolute discrepancy."""
    if not 0 < sigma < 1 or x < 10:
        raise ValueError("need x >= 10 and sigma in (0, 1)")
    # quadrature, not li's series: in s = log t the tail is int e^s / s^2 ds,
    # by 32 Gauss-Legendre nodes (relative error below 1e-13 up to x = 1e300)
    y = x**sigma
    lhs = li(x) - li(y)
    nodes, gw = np.polynomial.legendre.leggauss(32)
    a, b = math.log(y), math.log(x)
    s = (a + b) / 2 + (b - a) / 2 * nodes
    tail = (b - a) / 2 * float(np.dot(gw, np.exp(s) / s**2))
    rhs = x / math.log(x) - y / math.log(y) + tail
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# congruence sums and the sieved experiment


def congruence_sum_A(f: Form, d1: int, d2: int, x: float) -> float:
    """A_{d1,d2}(x): prime values f(u, v) <= x with d1 | u and d2 | v,
    counted over the lattice and divided by the unit count of the order."""
    f = reduce_form(f)
    g = induced_form(f, d1, d2)
    return count_prime_points(g, x) / stab_order(f.discriminant)


def congruence_sum_predicted(
    f: Form,
    d1: int,
    d2: int,
    x: float,
    P: SievingModulus,
    model: ErrorModel | None = None,
) -> dict:
    """Predicted value g'(d1) g''(d2) Li(x)/h with an optional error
    budget from the remainder calculus."""
    if P.P % d1 or P.P % d2:
        raise ValueError(f"d1 = {d1} and d2 = {d2} must divide P = {P.P}")
    f = reduce_form(f)
    h = class_representatives(f.discriminant).h
    dens = Fraction(1)
    for d, g_fn in ((d1, g_prime), (d2, g_dprime)):
        for p in P.prime_factors:
            if d % p == 0:
                dens *= g_fn(p, f, P)
    value = float(dens) * li(x) / h
    budget = None
    if model is not None:
        budget = remainder_R(x, math.sqrt(d1 * d2) + 1, d1 * d2, model)
    return {"density": dens, "value": value, "budget": budget}


def _theta_table(w, P: int) -> np.ndarray:
    """theta(gcd(r, P)) for every residue r mod P, theta = 1 * lambda."""
    g = np.gcd(np.arange(P), P).tolist()
    theta = theta_map(w, set(g))
    return np.array([theta[d] for d in g], dtype=np.int64)


def sieved_sum_S(f: Form, w1, w2, P: SievingModulus, x: float) -> dict:
    """S = sum over coprime (d1, d2) of lambda'_{d1} lambda''_{d2}
    A_{d1,d2}(x), evaluated two ways.

    Unlike congruence_sum_A, A counts only prime values prime to 2P: for
    (1, 0, 1), P = 15, lambda = {1: 1} at 1e4, S = 1216 and A = 1219.

    The sum-of-A order runs the lattice once per weight pair; the
    per-point order folds theta factors theta'(gcd(u,P)) theta''(gcd(v,P))
    into a single pass.  Both are exact integers before the unit division
    and must agree exactly; non-coprime pairs vanish because a prime
    value forces gcd(u, v) = 1.
    """
    f = reduce_form(f)
    stab = stab_order(f.discriminant)
    for w in (w1, w2):
        if any(P.P % d for d in w.lam):
            raise ValueError("sieve weights must be supported on divisors of P")
    n_ok = _coprime_residues(2 * P.P)
    one = np.ones(1, dtype=np.int64)
    by_pairs = 0
    for d1, l1 in w1.lam.items():
        for d2, l2 in w2.lam.items():
            if math.gcd(d1, d2) != 1:
                continue
            g = induced_form(f, d1, d2)
            by_pairs += l1 * l2 * _lattice_sum(g, x, n_ok, one, one)
    by_points = _lattice_sum(f, x, n_ok, _theta_table(w1, P.P), _theta_table(w2, P.P))
    if by_pairs != by_points:
        raise AssertionError(
            f"evaluation orders disagree: {by_pairs} != {by_points}"
        )
    return {"S": by_points / stab, "lattice_total": by_points}


@dataclass
class ExperimentReport:
    config: dict
    lhs: float
    rhs: float
    rel_error: float | None
    budget: float | None
    obstructed: bool
    trivially_true: bool
    passed: bool
    density: float


def theorem15_experiment(
    f: Form,
    P: SievingModulus,
    x: float,
    workers: int = 1,
    tolerance: float = 0.05,
    model: ErrorModel | None = None,
) -> ExperimentReport:
    """Count odd primes f(u, v) <= x coprime to P with both coordinates
    coprime to P, against the prediction delta_f(P) Li(x) / h.

    When delta_f(P) vanishes, as under the parity obstruction, the left
    side must vanish exactly and the statement is trivially true.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance}")
    f = reduce_form(f)
    D = f.discriminant
    h = class_representatives(D).h
    coprime = _coprime_residues(P.P)
    count = _lattice_sum(f, x, _coprime_residues(2 * P.P), coprime, coprime, workers)
    lhs = count / stab_order(D)
    dens = float(delta_f(f, P))
    rhs = dens * _li_above_2(x) / h
    rel = None if dens == 0 else abs(lhs - rhs) / rhs
    passed = lhs == 0.0 if dens == 0 else rel <= tolerance
    return ExperimentReport(
        config={"form": list(f), "D": D, "P": P.P, "z": P.z, "x": x, "h": h},
        lhs=lhs,
        rhs=rhs,
        rel_error=rel,
        budget=None if model is None else remainder_R(x, math.sqrt(P.P) + 1, P.P, model),
        obstructed=represents_odd_primes_obstructed(f, P),
        trivially_true=dens == 0 and passed,
        passed=passed,
        density=dens,
    )
