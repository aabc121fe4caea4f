"""Binary quadratic form arithmetic.

Reduction, class enumeration, composition, class numbers of orders,
induced forms, and lattice-point enumeration of represented values.
Only positive definite (negative discriminant) forms are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .arith import check_bound, check_int, factorize, kronecker, sqrt_mod

__all__ = [
    "Form",
    "check_primitive",
    "ClassList",
    "reduce_form",
    "class_representatives",
    "class_number",
    "stab_order",
    "compose",
    "is_fundamental",
    "class_number_order",
    "induced_form",
    "represented_blocks",
    "grid_points",
    "prime_to_class",
]


@dataclass(frozen=True, order=True)
class Form:
    """The positive definite integral form a*u^2 + b*u*v + c*v^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def __call__(self, u: int, v: int) -> int:
        return self.a * u * u + self.b * u * v + self.c * v * v

    def __post_init__(self):
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError(f"form {tuple(self)} is not positive definite")

    def __iter__(self):
        yield self.a
        yield self.b
        yield self.c


def check_primitive(f: Form, name: str) -> None:
    """The one rule for a primitive-form argument: gcd(a, b, c) = 1, or
    ValueError naming `name` and f.  It checks and does not reduce."""
    if not f.is_primitive:
        raise ValueError(f"{name} requires a primitive form, got {tuple(f)}")


def reduce_form(f: Form) -> Form:
    """Unique reduced SL2-equivalent of f: |b| <= a <= c, with b >= 0
    whenever |b| = a or a = c.  Idempotent."""
    a, b, c = f.a, f.b, f.c
    D = f.discriminant
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b <= -a or b > a:
            # translate b into (-a, a]
            b = b % (2 * a)
            if b > a:
                b -= 2 * a
            c = (b * b - D) // (4 * a)
            continue
        break
    if b < 0 and (a == c or a == -b):
        b = -b
    return Form(a, b, c)


@dataclass(frozen=True)
class ClassList:
    """All reduced primitive forms of one negative discriminant."""

    representatives: tuple[Form, ...]

    @property
    def h(self) -> int:
        return len(self.representatives)


def _check_discriminant(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative form discriminant")


_MAX_ENUM = 10**10  # largest |D| whose reduced forms are enumerated


@lru_cache(maxsize=None)
def class_representatives(D: int) -> ClassList:
    """Enumerate all reduced primitive forms of discriminant D < 0.

    Loops b = D (mod 2) with 0 <= b <= sqrt(|D|/3) and splits
    (b^2 - D)/4 = a*c with b <= a <= c, applying the reduction tie rules.
    The work grows like |D|: |D| near _MAX_ENUM = 10^10 takes about 5 s
    and 40 MB on a 2-CPU x86-64 host, and a larger |D| is refused before
    anything is allocated.
    """
    _check_discriminant(D)
    if -D > _MAX_ENUM:
        raise ValueError(f"class enumeration of D = {D} exceeds the limit |D| <= {_MAX_ENUM}")
    reps: list[Form] = []
    bmax = math.isqrt(-D // 3)
    for b in range(abs(D) % 2, bmax + 1, 2):
        m = (b * b - D) // 4
        a = np.arange(max(b, 1), math.isqrt(m) + 1, dtype=np.int64)
        a = a[m % a == 0]
        if a.size == 0:
            continue
        c = m // a
        prim = np.gcd(np.gcd(a, b), c) == 1
        for ai, ci in zip(a[prim].tolist(), c[prim].tolist()):
            reps.append(Form(ai, b, ci))
            if 0 < b < ai < ci:
                reps.append(Form(ai, -b, ci))
    return ClassList(representatives=tuple(sorted(reps)))


def class_number(D: int) -> int:
    return class_representatives(D).h


def stab_order(D: int) -> int:
    """Order of the SL2 stabilizer of a primitive form of discriminant D."""
    _check_discriminant(D)
    if D == -3:
        return 6
    if D == -4:
        return 4
    return 2


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def compose(f1: Form, f2: Form) -> Form:
    """Reduced representative of the Gauss-composed class, by the closed
    form of Dirichlet composition (Cox, Primes of the Form x^2+ny^2, 3.A;
    Cohen, Computational Algebraic Number Theory, 5.4): with
    e = gcd(a1, a2, (b1+b2)/2) = u*a1 + v*a2 + w*(b1+b2)/2 the product
    is (a1*a2/e^2, B, .), B = (u*a1*b2 + v*a2*b1 + w*(b1*b2 + D)/2)/e.
    Identity is the principal form."""
    if f1.discriminant != f2.discriminant:
        raise ValueError("compose requires equal discriminants")
    check_primitive(f1, "compose")
    check_primitive(f2, "compose")
    D = f1.discriminant
    a1, b1, a2, b2 = f1.a, f1.b, f2.a, f2.b
    g, s, t = _extended_gcd(a1, a2)
    e, k, w = _extended_gcd(g, (b1 + b2) // 2)
    u, v = k * s, k * t
    A = a1 * a2 // (e * e)
    B = (u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + D) // 2) // e
    return reduce_form(Form(A, B, (B * B - D) // (4 * A)))


def principal_form(D: int) -> Form:
    """The reduced form of the identity class: (1, 0, -D/4) or
    (1, 1, (1 - D)/4), by the parity of D."""
    _check_discriminant(D)
    if D % 4 == 0:
        return Form(1, 0, -D // 4)
    return Form(1, 1, (1 - D) // 4)


def inverse_form(f: Form) -> Form:
    return reduce_form(Form(f.a, -f.b, f.c))


def is_fundamental(D: int) -> bool:
    if D >= 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return all(e == 1 for _, e in factorize(-D))
    m = D // 4
    if m % 4 not in (2, 3):
        return False
    return all(e == 1 for _, e in factorize(-m))


def class_number_order(D0: int, d: int) -> int:
    """h(D0 * d^2) from h(D0) by the conductor formula, in exact integer
    arithmetic:

        h(D0 d^2) = h(D0) * prod_{p^e || d} p^(e-1) * (p - (D0/p)) / [O^x : O_d^x]
    """
    if not is_fundamental(D0):
        raise ValueError(f"{D0} is not a fundamental discriminant")
    d = check_int(d, 1, "conductor")
    num = class_number(D0)
    for p, e in factorize(d):
        num *= p ** (e - 1) * (p - kronecker(D0, p))
    index = stab_order(D0) // stab_order(D0 * d * d)  # [O^x : O_d^x]
    if num % index != 0:
        raise ArithmeticError("class number formula did not divide evenly")
    return num // index


def induced_form(f: Form, d1: int, d2: int) -> Form:
    """The form f(d1*s, d2*t); its discriminant is D*(d1*d2)^2."""
    return Form(f.a * d1 * d1, f.b * d1 * d2, f.c * d2 * d2)


_BLOCK = 1 << 14  # grid slots per block of represented_blocks


def _u_bound(f: Form, x: int) -> int:
    return math.isqrt(4 * f.c * x // abs(f.discriminant)) + 1


def _grid_bound(f: Form, x: int, W: int) -> int:
    """A bound on every int64 that represented_blocks computes for f, x
    and a table of size W.

    Each slot (u, v) of a grid, padding included, has |u| <= U and
    |v| <= V = |b| U / 2c + 2 sqrt(x/c) + W + 8: a run starts within 2
    below and W + 2 above the lower end of its row's ellipse, and a
    grid's longest run spans at most 2 sqrt(x/c) + 2.  The products of
    the grid's arithmetic are then at most a U^2 + |b| U V + 2c V^2, and
    the rows' discriminants D u^2 + 4cx at most |D| U^2 and 4cx.
    """
    a, b, c = f.a, abs(f.b), f.c
    U = _u_bound(f, x)
    V = b * U // (2 * c) + 2 * math.isqrt(x // c) + W + 8
    return max(a * U * U + b * U * V + 2 * c * V * V, abs(f.discriminant) * U * U, 4 * c * x)


def represented_blocks(
    f: Form,
    x: float,
    u_lo: int | None = None,
    u_hi: int | None = None,
    *,
    admissible: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield grids (us, v0s, N) of runs that cover every integer pair with
    0 < f(u, v) <= x, admissible[u % W, v % W] true and u in [u_lo, u_hi],
    each pair exactly once, where W = len(admissible).

    Row k of a grid is the run v = v0s[k] + W j, j = 0 .. L - 1, of the
    row u = us[k], where L = N.size // us.size; N is the flat grid of the
    values f(u, v), whose slot k L + j holds 0 where the value lies
    outside (0, x], as in a run's padding past its last point and at
    f(0, 0).  grid_points turns slots into their (u, v).

    The u-range defaults to the full ellipse; disjoint u-ranges partition
    the solution set, which is what the parallel counters rely on.

    The default admissible = None is the 1 x 1 table [[True]]: every
    point.  A row u walks only the residues r mod W with
    admissible[u % W, r], stepping v by W from the first such v in the
    row's range (Pritchard, Acta Inf. 17, 1982; Atkin and Bernstein,
    Math. Comp. 73, 2004).  Rows with no such residue are never built.

    Along a run the value is the quadratic n0 + d1 j + c W^2 j^2, with
    n0 = f(u, v0) and d1 = (b u + 2 c v0) W, so a grid is one broadcast
    of it over (runs x L).  The runs of a chunk of rows go longest
    first, so that the runs of a grid differ little in length: padding
    is 1.9 percent of the slots for (1, 1, 6) at x = 1e7 on the wheel
    mod 30, and more at small x, where the ellipse's rows are few.

    A grid of _BLOCK slots is one int64 array of 128 KB, built in
    place, and a bool mask; a caller's prime read of it makes a few
    temporaries of the same length.  They stay within a core's L2
    cache, so a lattice pass is not bound by the memory bus that other
    processes share, and under the heap-trim threshold that glibc's
    malloc sets once the sieve has freed its 1 MB segments, past which
    each block's memory went back to the system and was faulted in
    again.  For (1, 1, 6) at 1e7, grids of 2^14 slots counted in
    4.8-5.0 ms, 2^15 in 5.0 ms, and 2^13 and 2^16 in 5.2-5.7 ms.  A
    run longer than _BLOCK slots, past x = 6e10 c on the wheel mod 30,
    is a grid of its own.
    """
    x = check_bound(x)
    table = np.ones((1, 1), dtype=bool) if admissible is None else admissible
    W = len(table)
    if x < 1:
        return
    if _grid_bound(f, x, W) > np.iinfo(np.int64).max:
        raise ValueError(f"form {tuple(f)} at x = {x:g} overflows int64 lattice arithmetic")
    a, b, c = f.a, f.b, f.c
    D = f.discriminant
    U = _u_bound(f, x)
    lo = -U if u_lo is None else max(u_lo, -U)
    hi = U if u_hi is None else min(u_hi, U)
    if lo > hi:
        return
    # a run holds at most (2 sqrt(x/c) + 2)/W + 1 points: chunks of rows
    # with the runs of about 64 full grids
    longest = int((2 * math.sqrt(x / c) + 2) / W) + 2
    span = max(1, 64 * _BLOCK // longest // max(1, int(table.sum(axis=1).max())))
    for start in range(lo, hi + 1, span):
        us = np.arange(start, min(start + span, hi + 1), dtype=np.int64)
        disc = D * us * us + 4 * c * x
        keep = disc >= 0
        us = us[keep]
        root = np.sqrt(disc[keep].astype(np.float64))
        vlo = np.ceil((-b * us - root) / (2 * c)).astype(np.int64) - 1
        vhi = np.floor((-b * us + root) / (2 * c)).astype(np.int64) + 1
        # one run per row u and admissible residue r, from the first
        # v = r (mod W) at or above vlo, longest first
        row, r = np.nonzero(table[us % W])
        us, vhi = us[row], vhi[row]
        v0s = vlo[row] + (r - vlo[row]) % W
        counts = (vhi - v0s) // W + 1
        j = np.arange(counts.max(initial=0), dtype=np.int64)
        cj = c * W * W * j
        order = np.argsort(-counts, kind="stable")
        order = order[counts[order] > 0]
        us, v0s, counts = us[order], v0s[order], counts[order]
        n0 = (a * us + b * v0s) * us + c * v0s * v0s
        d1 = (b * us + 2 * c * v0s) * W
        i = 0
        while i < us.size:
            L = int(counts[i])
            k = i + max(1, _BLOCK // L)
            N = np.add(d1[i:k, None], cj[:L])
            N *= j[:L]
            N += n0[i:k, None]
            N[N > x] = 0
            yield us[i:k], v0s[i:k], N.ravel()
            i = k


def grid_points(
    block: tuple[np.ndarray, np.ndarray, np.ndarray], k: np.ndarray, W: int
) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates (u, v) of the slots k of a grid (us, v0s, N) of
    represented_blocks over a table of size W."""
    us, v0s, N = block
    row, j = np.divmod(k, N.size // us.size)
    return us[row], v0s[row] + W * j


def prime_to_class(p: int, D: int) -> Form | None:
    """The reduced class of the primitive forms of discriminant D that
    represent the prime p, or None when no such form exists.

    A form (p, b, c) with b^2 = D (mod 4p) is the class of a prime ideal
    of norm p (Cohen, Computational Algebraic Number Theory, 5.2).  For a
    split p the conjugate ideal lies in the inverse class, and for a
    ramified p the class is its own inverse.  None means p is inert, or
    p divides the conductor of a non-fundamental D, where (p, b, c) is
    not primitive.
    """
    _check_discriminant(D)
    b = {0: 0, 1: 1, 4: 2}.get(D % 8) if p == 2 else sqrt_mod(D, p)
    if b is None:
        return None  # p is inert
    if (b - D) % 2:
        b = p - b  # the root of D's parity: b^2 = D (mod 4p)
    f = Form(p, b, (b * b - D) // (4 * p))
    return reduce_form(f) if f.is_primitive else None
