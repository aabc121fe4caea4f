"""Prime counting in form classes of imaginary quadratic fields.

The plain count behind pi_C, the sifted count of Theorem 15 and both
evaluation orders of the sieved sum S are one weighted sum over the
lattice points with prime value, taken by a single kernel: they differ
only in residue tables theta = 1 * lambda mod the sieving modulus.  The
kernel walks half the plane against a cached sieve table of one bit per
odd integer (arith.PrimeCache), in grids of row runs whose values are
one broadcast quadratic each (quadforms.represented_blocks), in strips
across forked worker processes when the estimated number of points pays
for the fork.
It owns a wheel mod 30 (210 for sieving moduli divisible by 7): it
builds only the points whose value is prime to 30, and so odd, and whose
weight can be nonzero, and adds the values 2, 3 and 5 by a pass over the
tiny ellipse f(u, v) <= 5.  Dividing by the unit count turns a lattice
total into a prime-ideal count.

The prime-power events behind the Chebyshev-style sums psi_C, their
smoothed variants and the partial-summation bridge back to pi_C follow
one rule: a split prime power p^j lies in the class C exactly when g^j
or g^-j is C, g the class of an ideal above p: the only primitive ideals
of norm p^j are the j-th powers of the two ideals above p (Cox, Primes
of the Form x^2+ny^2, 2-3 and Theorem 7.7; Cohen, Computational
Algebraic Number Theory, 5.2).  psi_events reads the primes of a class
off a lattice pass over its form and places the other powers by compose.
pi_class_scan walks every prime p <= x, 2 and the ramified primes
included, as an independent slow count that equals the lattice count
exactly; it labels each prime by quadforms.prime_to_class, the class of
the forms that represent it.

Three prime counts of a class C up to x, read here for the principal
class of D = -23 at x = 1e6:
- pi_class (and pi_class_scan): the prime ideals of degree one and norm
  <= x in C, the ramified ones included: 26065.
- the bridge's pi: the prime ideals among psi_events' rows (n == q),
  which add the inert (p) with p^2 <= x and leave out the ramified
  primes: 26151 = 26065 - 1 + 87.
- the CDT count: every prime ideal of norm <= x whose Frobenius in the
  class field H/K is C, all unramified in H/K: 26152 = 26065 + 87.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .arith import PrimeCache, check_bound, check_finite, check_int, checked_log, kronecker
from .arith import factorize, li, primes_up_to
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
    check_primitive,
    class_representatives,
    compose,
    grid_points,
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
    """The prime table up to at least `limit`, cached in memory and,
    when CDTLAB_CACHE_DIR is set, on disk as primes_<n>.pche.  The
    smallest file with n >= limit is loaded; a file that fails to load
    is rebuilt at its n and overwritten, with a warning naming it."""
    global _TABLE
    limit = check_bound(limit, "limit")
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
# the row u = 0 added once.  _ONE does, and so does each _theta_table, a
# theta = 1 * lambda for mu (coprimality) or the beta-sieve's lambda (S).
# The tables are read on the prime hits only, and only those of more than
# one entry: a one-entry table, such as _ONE, weighs every point alike and
# is a factor of the sum, so a count with no other table takes
# count_nonzero of the block's prime read.
#
# A block is a grid (us, v0s, N) of represented_blocks: N holds the values
# of whole row runs, with 0 in the padding past a run's end, which the
# prime read takes for "not prime", so no mask is applied.  The grid
# holds no u or v per point; quadforms.grid_points recovers them for the
# hits alone, and only when w_u or w_v varies.  Padding is 1.9 percent of
# the slots for (1, 1, 6) at 1e7 and about 25 percent at 1e5.
#
# The kernel walks a wheel: it builds only the points with
# gcd(f(u, v), 30) = 1 (true at (-u, -v) as at (u, v)), and a prime among
# them is 7 or more.  That keeps 7 to 11 percent of the ellipse for
# D = -23, -47 and -71 and 28 for u^2 + v^2; W = 6 would keep 11.1
# against 10.7 for D = -23 and -47, and 44 for u^2 + v^2.  The points of
# value 2, 3 or 5 come from a second pass over the whole (tiny) ellipse
# f(u, v) <= min(x, 5), by the same tables; both passes read _WHEEL_PRIMES.
#
# The prime read is PrimeCache.is_prime, over a table that holds bit i
# of byte i >> 3 for the odd integer 2i + 1, x / 16 bytes in all (625 KB
# at x = 1e7): the value n reads (bits[n >> 4] >> ((n >> 1) & 7)) & 1,
# masked to 0 for an even n other than 2.
#
# _admissible builds that wheel from f's coefficients mod 30 and drops
# the points the coordinate tables weigh 0.  Its wheel is mod
# W = lcm(30, gcd(m, 210)): 210 when 7 | m, else 30 (11 and 13 would need
# a 30030^2 table).  A row residue u0 mod W goes when w_u vanishes on
# every r = u0 (mod gcd(m, W)), a column v0 likewise by w_v.
# Only points of weight 0 go, whatever the tables hold, and tables that
# depend on their residue through a gcd keep the symmetry the doubling
# needs.  For (1, 0, 1) with P = 15015 the table keeps 1/2 * 1/2 * 36/49
# = 18.4 percent of the wheel's points; with m = 1 it is the wheel mod 30.
# It is built per pass, uncached: about 25 us, against 12 ms or more a job.
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
# _FORK_POINTS is measured on a 2-CPU x86-64 host, where the serial
# kernel builds and gathers about 110M points/s (6.0-6.3 ms for (1, 1, 6)
# at 1e7; a forced pool of two took 17.6-18.3 ms there).  Forced pools of
# two at x = 1e7, 2e7, 3e7, 5e7 and 1e8 for (1, 1, 6) (0.7M to 7.0M
# estimated points) won 0, 0, 0-1, 4-7 and 8-9 of 9 alternated pairs
# against one worker over two rounds, and 1, 4 and 6 of 9 at 4e7, 6e7
# and 7e7.  Two processes break even near 4M points, which one process
# per 2M points puts them at.  The sifted pass of (1, 0, 1) with
# P = 15015 weighs each hit and breaks even sooner, near 2M points (at
# 3e7 the pool won 6 of 7 pairs), but a count loses more below 4M than
# the sifted pass gains.

_WHEEL_PRIMES = (2, 3, 5)  # the wheel's modulus is their product, 30
_FORK_POINTS = 2_000_000  # estimated points per forked process
_STRIP = None  # a pool worker's strip closure, set by _start_apart
_ONE = np.ones(1, dtype=np.int64)  # the table that weighs every residue 1
_ONE.setflags(write=False)


def _admissible(f: Form, w_u: np.ndarray, w_v: np.ndarray) -> np.ndarray:
    """[gcd(f(u0, v0), w) = 1], w the product of _WHEEL_PRIMES, for the
    residues u0 (rows) and v0 mod W, less the residues that w_u or w_v
    weigh 0."""
    m = len(w_u)
    w = math.prod(_WHEEL_PRIMES)
    W = math.lcm(w, math.gcd(m, 7 * w))
    g = math.gcd(m, W)
    a, b, c = (k % w for k in f)  # f(u0, v0) mod w, free of overflow
    r = np.arange(w)
    u0 = r[:, None]
    wheel = np.gcd(a * u0 * u0 + b * u0 * r + c * r * r, w) == 1
    r = np.arange(W) % g
    rows = (w_u.reshape(-1, g) != 0).any(axis=0)[r]
    cols = (w_v.reshape(-1, g) != 0).any(axis=0)[r]
    return np.tile(wheel, (W // w, W // w)) & rows[:, None] & cols


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
    workers = check_int(workers, 1, "workers")
    x = check_bound(x)
    if x < 2:
        return 0  # no prime is <= x
    table = prime_table(x)
    wheel = _admissible(f, w_u, w_v)
    # a one-entry table weighs every point alike: a factor of the sum
    scale = math.prod(int(t[0]) for t in (w_u, w_v, n_ok) if len(t) == 1)
    # (i, t): table t reads coordinate i of the hits (u, v, n)
    varying = [(i, t) for i, t in enumerate((w_u, w_v, n_ok)) if len(t) > 1]
    coords = len(w_u) > 1 or len(w_v) > 1

    def weigh(blocks, W: int) -> int:
        total = 0
        for block in blocks:
            if not varying:
                total += int(np.count_nonzero(table.is_prime(block[2])))
                continue
            hit = np.flatnonzero(table.is_prime(block[2]))
            u, v = grid_points(block, hit, W) if coords else (None, None)
            at = (u, v, block[2][hit])
            w = 1
            for i, t in varying:
                w = w * t[at[i] % len(t)]
            total += int(w.sum())
        return total * scale

    def strip(u_lo: int, u_hi: int) -> int:
        return weigh(represented_blocks(f, x, u_lo, u_hi, admissible=wheel), len(wheel))

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
    # the primes that the wheel skips, over the whole plane
    small = weigh(represented_blocks(f, min(x, max(_WHEEL_PRIMES))), 1)
    return 2 * half + strip(0, 0) + small


def _theta_table(lam: dict[int, int], m: int) -> np.ndarray:
    """theta = 1 * lambda at each residue r mod m, lambda_d summed over d | r; each d | m."""
    if m > 1 << 27:  # 1 GiB of int64
        raise ValueError(f"residue table mod m = {m} exceeds the budget of 2^27 entries (1 GiB)")
    theta = np.zeros(m, dtype=np.int64)
    for d, lam_d in lam.items():
        theta[::d] += lam_d
    return theta


def _coprime_residues(m: int) -> np.ndarray:
    """[gcd(r, m) = 1] for every residue r mod m: theta of lambda = mu."""
    mu = {1: 1}
    for p, _ in factorize(m):  # mu(d p) = -mu(d) for each squarefree d found so far
        mu |= {d * p: -sign for d, sign in mu.items()}
    return _theta_table(mu, m)


def count_prime_points(f: Form, x: float, workers: int = 1) -> int:
    """Number of integer pairs (u, v) with f(u, v) a prime <= x."""
    return _lattice_sum(f, x, _ONE, _ONE, _ONE, workers)


def pi_class(f: Form, x: float, workers: int = 1) -> float:
    """Prime-ideal count of the class of the primitive form f: lattice
    points with prime value, divided by the number of units of the order."""
    check_primitive(f, "pi_class")
    f = reduce_form(f)
    return count_prime_points(f, x, workers) / stab_order(f.discriminant)


def pi_class_scan(target: Form, x: float) -> int:
    """Independent slow count of the prime ideals of degree one and norm
    p <= x in the class of the primitive form `target`, by every prime.

    prime_to_class gives the class g of an ideal above p.  A split p
    has a second ideal in the class of g^-1, a ramified p (p | D) only
    the one.  This count equals pi_class exactly: the lattice path
    reaches the same ideals through the values of the form.
    """
    x = check_bound(x)
    check_primitive(target, "pi_class_scan")
    target = reduce_form(target)
    inverse = inverse_form(target)
    D = target.discriminant
    total = 0
    for p in prime_table(x).primes(x).tolist():
        g = prime_to_class(p, D)
        if g is not None:
            total += (g == target) + (D % p != 0 and g == inverse)
    return total


def equidistribution_report(D: int, x: float, workers: int = 1) -> dict:
    """Per-class prime-ideal counts against the common target Li(x)/h.
    A class and its inverse share one lattice pass: f(u, -v) carries the
    values of (a, b, c) to those of (a, -b, c)."""
    cl = class_representatives(D)
    expected = main_term(x, cl.h)
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
    The primes p >= 7 are the prime values of `target` on one lattice
    pass over the kernel's wheel mod 30: (u, v) and (-u, -v) share a
    value, so the rows u >= 1 and half the row u = 0 meet each ideal of
    norm p in the class w/2 = stab_order(D)/2 times, and every (w/2)-th
    sorted value is one ideal.  The other split events, the powers and
    the primes 2, 3 and 5 that the wheel skips, follow the rule of the
    module docstring: p^j is an event once for each of g^j and g^-j that
    is the class of `target`, g = prime_to_class(p, D), so a class that
    is its own inverse holds each split event twice.  Inert p: the ideal
    (p), of norm q = p^2, and its powers lie in the principal class.
    Ramified primes and the primes dividing the conductor are left out:
    the rows n == q count the bridge's pi.
    """
    bound = check_bound(bound)
    # near 2^30 the rows of (1, 0, 1) alone, pi(x) = 54M of them, take 870 MB
    if bound >= 1 << 30:
        raise ValueError(f"psi_events up to {bound} exceeds the event-table limit x < 2^30")
    target = reduce_form(target)
    D = target.discriminant
    table = prime_table(bound)
    wheel = _admissible(target, _ONE, _ONE)

    def prime_values(u_lo: int, u_hi: int | None = None) -> np.ndarray:
        blocks = represented_blocks(target, bound, u_lo, u_hi, admissible=wheel)
        found = [N[np.flatnonzero(table.is_prime(N))] for _, _, N in blocks]
        return np.concatenate([np.zeros(0, np.int64), *found])

    primes = np.concatenate((np.sort(prime_values(0, 0))[::2], prime_values(1)))
    primes = np.sort(primes)[:: stab_order(D) // 2]
    primes = primes[D % primes != 0]

    inverse = inverse_form(target)
    principal = target == principal_form(D)
    powers = []
    for q in table.primes(max(math.isqrt(bound), max(_WHEEL_PRIMES))).tolist():
        symbol = kronecker(D, q)
        if symbol == -1 and principal:
            n = 1
            while (n := n * q * q) <= bound:
                powers.append((n, q * q))
        elif symbol == 1:
            g = gj = prime_to_class(q, D)
            n = q
            while n <= bound:
                if n > q or q in _WHEEL_PRIMES:  # the lattice pass read the other primes
                    powers += [(n, q)] * ((gj == target) + (gj == inverse))
                n *= q
                if n <= bound:
                    gj = compose(gj, g)
    powers = np.array(powers, np.int64).reshape(-1, 2)
    rows = np.concatenate((np.column_stack((primes, primes)), powers))
    return rows[np.argsort(rows[:, 0], kind="stable")]


def psi_class(target: Form, x: float) -> float:
    """psi_C(x): log q over the events (n, q) of the class of `target`
    with n <= x, summed exactly (math.fsum)."""
    check_primitive(target, "psi_class")
    return math.fsum(map(math.log, psi_events(target, x)[:, 1].tolist()))


def psi_class_smooth(target: Form, params: WeightParams) -> float:
    """psi_C weighted by f(log n / log x); support reaches slightly past x."""
    check_primitive(target, "psi_class_smooth")
    weight = WeightFunction(params)
    hi = math.exp(params.log_x * weight.support[1])
    events = psi_events(target, math.ceil(hi)).tolist()
    return math.fsum(math.log(q) * weight(math.log(n) / params.log_x) for n, q in events)


def main_term(x: float, h: int, model: ErrorModel | None = None) -> float:
    """(Li(x) - theta1 * Li(x^beta1)) / h for x > 2 (Li(2) = 0); the
    exceptional-zero term only appears when the model carries a zero beta1."""
    check_int(h, 1, "h")
    check_finite(x)
    if x <= 2:
        raise ValueError(f"x must exceed 2, since Li(2) = 0; got x = {x}")
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
    a sum over the rows; pi_C is the bridge's pi of the module docstring.
    Reports the smallest C with |difference| <= C sqrt(x)/log x."""
    check_primitive(target, "bridge_check")
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
    counted over the lattice of the primitive form f as given, not of its
    reduced form, and divided by the unit count of the order; d1, d2 >= 1."""
    check_primitive(f, "congruence_sum_A")
    d1, d2 = check_int(d1, 1, "d1"), check_int(d2, 1, "d2")
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
    budget from the remainder calculus.  The densities read the primitive
    form f as given, not its reduced form; d1 and d2 divide P."""
    check_primitive(f, "congruence_sum_predicted")
    d1, d2 = check_int(d1, 1, "d1"), check_int(d2, 1, "d2")
    if P.P % d1 or P.P % d2:
        raise ValueError(f"d1 = {d1} and d2 = {d2} must divide P = {P.P}")
    h = class_representatives(f.discriminant).h
    dens = Fraction(1)
    for d, g_fn in ((d1, g_prime), (d2, g_dprime)):
        for p in P.prime_factors:
            if d % p == 0:
                dens *= g_fn(p, f, P)
    value = float(dens) * main_term(x, h)
    budget = None
    if model is not None:
        budget = remainder_R(x, math.sqrt(d1 * d2) + 1, d1 * d2, model)
    return {"density": dens, "value": value, "budget": budget}


def sieved_sum_S(f: Form, w1, w2, P: SievingModulus, x: float) -> dict:
    """S = sum over coprime (d1, d2) of lambda'_{d1} lambda''_{d2}
    A_{d1,d2}(x), evaluated two ways, over the lattice of the primitive
    form f as given, not of its reduced form.

    Unlike congruence_sum_A, A counts only prime values prime to 2P: for
    (1, 0, 1), P = 15, lambda = {1: 1} at 1e4, S = 1216 and A = 1219.

    The sum-of-A order runs the lattice once per weight pair; the
    per-point order folds theta factors theta'(gcd(u,P)) theta''(gcd(v,P))
    into a single pass.  Both are exact integers before the unit division
    and must agree exactly; non-coprime pairs vanish because a prime
    value forces gcd(u, v) = 1.
    """
    check_primitive(f, "sieved_sum_S")
    stab = stab_order(f.discriminant)
    for w in (w1, w2):
        if any(P.P % d for d in w.lam):
            raise ValueError("sieve weights must be supported on divisors of P")
    n_ok = _coprime_residues(2 * P.P)
    by_pairs = 0
    for d1, l1 in w1.lam.items():
        for d2, l2 in w2.lam.items():
            if math.gcd(d1, d2) != 1:
                continue
            g = induced_form(f, d1, d2)
            by_pairs += l1 * l2 * _lattice_sum(g, x, n_ok, _ONE, _ONE)
    by_points = _lattice_sum(f, x, n_ok, _theta_table(w1.lam, P.P), _theta_table(w2.lam, P.P))
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
    coprime to P, against the prediction delta_f(P) Li(x) / h.  Both
    sides read the primitive form f as given, not its reduced form.

    When delta_f(P) vanishes, as under the parity obstruction, the left
    side must vanish exactly and the statement is trivially true.
    """
    check_finite(tolerance, "tolerance")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    check_primitive(f, "theorem15_experiment")
    D = f.discriminant
    h = class_representatives(D).h
    coprime = _coprime_residues(P.P)
    count = _lattice_sum(f, x, _coprime_residues(2 * P.P), coprime, coprime, workers)
    lhs = count / stab_order(D)
    dens = float(delta_f(f, P))
    rhs = dens * main_term(x, h)
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
