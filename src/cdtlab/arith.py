"""Integer and real arithmetic substrate.

Primality, prime generation, multiplicative functions, Kronecker-style
symbols, modular square roots, and the logarithmic integral.  Everything
here is pure and reentrant; a PrimeCache is immutable after construction
and safe to share across threads or forked workers.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PrimeCache",
    "is_prime",
    "primes_up_to",
    "kronecker",
    "sqrt_mod",
    "factorize",
    "mobius",
    "euler_phi",
    "tau",
    "divisors",
    "li",
]

# Deterministic Miller-Rabin witness set covering all n < _MR_LIMIT, the
# least strong pseudoprime to all 12 bases (about 3.2 * 10^23), in
# particular every 64-bit integer (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461  # = 399165290221 * 798330580441


def is_prime(n: int) -> bool:
    """Deterministic primality test for nonnegative integers up to 64 bits."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_CACHE_MAGIC = b"PCHE"
_CACHE_VERSION = 3
# set bits of each byte
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, dtype=np.uint8)


@dataclass(frozen=True)
class PrimeCache:
    """Primality of 0..limit inclusive, one bit per odd integer.

    Invariant: ``flags`` is a read-only uint8 array of limit // 16 + 1
    bytes whose bit i, LSB-first (bit i % 8 of byte i // 8), is set
    exactly when 2i + 1 is a prime <= limit; 2, the one even prime, is
    implicit.  The layout stays inside this class: read it through
    is_prime, primes and count.
    """

    limit: int
    flags: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.flags.dtype != np.uint8 or self.flags.shape != (self.limit // 16 + 1,):
            raise ValueError(
                f"prime table for limit {self.limit} needs {self.limit // 16 + 1} "
                f"uint8 bytes, got {self.flags.shape} {self.flags.dtype}"
            )
        self.flags.setflags(write=False)

    def is_prime(self, n: np.ndarray) -> np.ndarray:
        """[n is prime] for every integer 0 <= n <= limit of the int64
        array n, even n and 2 included."""
        # an even n would read the bit of n + 1, so the bit is masked by
        # n & 1; uint8 all through, so that it views as bool
        shift = ((n >> 1) & 7).astype(np.uint8)
        bit = (self.flags[n >> 4] >> shift) & (n & 1).astype(np.uint8)
        return bit.view(bool) | (n == 2)

    def count(self) -> int:
        """pi(limit)."""
        return 1 + int(_POPCOUNT[self.flags].sum())

    def primes(self, upto: int | None = None) -> np.ndarray:
        """The primes <= upto (default limit) in ascending order, as int64,
        from the table's prefix up to upto only."""
        upto = self.limit if upto is None else check_bound(upto, "upto")
        if upto > self.limit:
            raise ValueError(f"primes up to {upto} read past the table's limit {self.limit}")
        # bit i stands for 2i + 1; bool, as flatnonzero is slower on uint8
        bits = np.unpackbits(self.flags[: upto // 16 + 1], bitorder="little")
        odd = 2 * np.flatnonzero(bits[: (upto + 1) // 2].view(bool)) + 1
        return np.concatenate(([2], odd)) if upto >= 2 else odd

    def save(self, path) -> None:
        """Write the documented little-endian layout.

        Byte layout: 4-byte magic ``PCHE``, ``<I`` version (3), ``<Q``
        limit, ``<I`` zlib.crc32 of the limit's 8 bytes and the payload,
        then the payload: ``flags`` as held, limit // 16 + 1 bytes, bit i
        of the stream (LSB-first) set iff 2i + 1 is prime.
        """
        crc = zlib.crc32(self.flags, zlib.crc32(struct.pack("<Q", self.limit)))
        # a reader sees the old file or the whole new one, never a part
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_CACHE_MAGIC)
                fh.write(struct.pack("<IQI", _CACHE_VERSION, self.limit, crc))
                fh.write(self.flags.data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "PrimeCache":
        """Read a file written by save; a file of another version, or one
        whose sizes or checksum do not match, raises ValueError."""
        with open(path, "rb") as fh:
            header = fh.read(20)
            if len(header) < 20:
                raise ValueError(
                    f"truncated prime cache {path}: {len(header)}-byte header"
                )
            if header[:4] != _CACHE_MAGIC:
                raise ValueError(f"bad prime cache magic {header[:4]!r} in {path}")
            version, limit, crc = struct.unpack("<IQI", header[4:])
            if version != _CACHE_VERSION:
                raise ValueError(f"unsupported prime cache version {version} in {path}")
            payload = fh.read()
        if len(payload) < limit // 16 + 1:
            raise ValueError(
                f"truncated prime cache {path}: {len(payload)} payload bytes "
                f"for limit {limit}"
            )
        actual = zlib.crc32(payload, zlib.crc32(header[8:16]))
        if actual != crc:
            raise ValueError(
                f"corrupt prime cache {path}: checksum {actual:08x}, header says {crc:08x}"
            )
        return cls(limit=limit, flags=np.frombuffer(payload, dtype=np.uint8))


_SEGMENT = 1 << 20  # odd integers per numpy segment; a multiple of 8, so
# that each segment packs into whole bytes of the table


def primes_up_to(x: int) -> PrimeCache:
    """Segmented sieve of Eratosthenes over the odd integers (Bays and
    Hudson, BIT 17, 1977), each segment packed into a PrimeCache up to x."""
    x = check_bound(x)
    if x < 2:
        raise ValueError("primes_up_to requires x >= 2")
    # x // 16 bytes; refuse absurd requests before allocating.
    if x > 1 << 34:
        raise ValueError(
            f"prime cache up to x = {x:g} exceeds the memory budget of 2^34 integers (1 GiB)"
        )
    # the odd primes <= sqrt(x), from this same sieve
    root = math.isqrt(x)
    ps = primes_up_to(root).primes()[1:] if root >= 3 else np.zeros(0, dtype=np.int64)

    flags = np.zeros(x // 16 + 1, dtype=np.uint8)
    odds = (x + 1) // 2  # the odd integers 1, 3, ..., up to x
    for lo in range(0, odds, _SEGMENT):
        # seg[j] stands for the odd integer 2(lo + j) + 1; the odd multiples
        # of p sit at the indices i = p // 2 (mod p), from p^2 on
        seg = np.ones(min(_SEGMENT, odds - lo), dtype=bool)
        starts = np.maximum(ps * ps // 2, lo + (ps // 2 - lo) % ps) - lo
        for p, s in zip(ps.tolist(), starts.tolist()):
            seg[s::p] = False
        if lo == 0:
            seg[0] = False  # 1 is not prime
        packed = np.packbits(seg, bitorder="little")
        flags[lo // 8 : lo // 8 + len(packed)] = packed
    return PrimeCache(limit=x, flags=flags)


def kronecker(D: int, n: int) -> int:
    """Completely multiplicative symbol (D/n) for positive n.

    Agrees with the Legendre symbol at odd primes; at 2 it is 0 when
    2 | D, +1 when D = 1 (mod 8) and -1 when D = 5 (mod 8).  Values of D
    that are 3 (mod 4) are rejected when n is even, since they are not
    discriminants of quadratic forms.  Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 1.4.10.
    """
    n = check_int(n, 1, "n")
    result = 1
    if n % 2 == 0:
        if D % 2 == 0:
            return 0
        if D % 4 == 3:
            raise ValueError(
                f"symbol (D/2) undefined for D = {D}: discriminants satisfy D = 0, 1 (mod 4)"
            )
        while n % 2 == 0:
            n //= 2
            if D % 8 == 5:
                result = -result
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of a modulo an odd prime p, or None.

    Returns min(r, p - r) when a is a quadratic residue (0 for a = 0).
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks (Cohen, Alg. 1.5.1); p = 3 (mod 4) gives a^((p+1)/4)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


_TRIAL_LIMIT = 10**7  # the largest trial divisor of factorize


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division up to _TRIAL_LIMIT, as
    (prime, exponent) pairs.  A cofactor left past the limit is one factor
    when is_prime proves it prime (below _MR_LIMIT); else ValueError."""
    n = m = check_int(n, 1, "n")
    out = []
    for p in itertools.chain((2,), range(3, _TRIAL_LIMIT + 1, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    else:  # m has no prime factor up to the limit; below its square m is prime
        if m >= _TRIAL_LIMIT**2 and not (m < _MR_LIMIT and is_prime(m)):
            raise ValueError(
                f"cannot factorize n = {n}: its cofactor {m} has no prime factor "
                f"up to {_TRIAL_LIMIT} and is not a proven prime"
            )
    if m > 1:
        out.append((m, 1))
    return out


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def tau(n: int) -> int:
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


_EULER_GAMMA = 0.5772156649015329
_LI_2 = 1.0451637801174928  # li(2), the principal value from 0


def check_finite(x: float, name: str = "x") -> None:
    """Reject an argument that is NaN, infinite or past the float range,
    before any int(x)."""
    try:
        finite = math.isfinite(x)
    except OverflowError:  # an int or Fraction past the float range
        finite, x = False, "a number past the float range"
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {x}")


def check_bound(x: float, name: str = "x") -> int:
    """max(floor(x), 0): the one rule for the bound of a count or list up
    to x.  NaN and +-inf raise ValueError naming it; below 0 is up to 0."""
    check_finite(x, name)
    return max(math.floor(x), 0)


def check_int(n, lower: int, name: str) -> int:
    """operator.index(n) when it is >= lower: the one rule for an integer
    argument.  A float, even 2.0, or a smaller integer raises ValueError."""
    i = operator.index(n) if hasattr(n, "__index__") else None
    if i is None or i < lower:
        raise ValueError(f"{name} must be an integer >= {lower}, got {n}")
    return i


def checked_log(x: float, lower: float, message: str, name: str = "x", error=ValueError) -> float:
    """log x: the one domain rule for a real argument.  NaN and +-inf raise
    ValueError naming it, and an x below `lower` raises error(message)."""
    check_finite(x, name)
    if x < lower:
        raise error(message)
    return math.log(x)


def power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent, or inf past the float range, above every float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def li(x: float) -> float:
    """Logarithmic integral Li(x) = int_2^x dt/log t.

    Ramanujan's series for the principal value li(x) from 0,

        li(x) = gamma + log log x + sqrt(x) * sum_{n >= 1} (-1)^(n-1)
                (log x)^n / (n! 2^(n-1)) * sum_{k=0}^{(n-1)//2} 1/(2k+1),

    less li(2) (Berndt, Ramanujan's Notebooks, Part IV, Springer 1994).
    The terms are summed by math.fsum, up to the first n > log x whose
    term is below 1e-17 of the partial sum.  The absolute error is below
    1e-14 * max(1, Li(x)) for 2 <= x <= 1e15.
    """
    L = checked_log(x, 2, "li requires x >= 2")  # at inf the series would never stop
    if x == 2:
        return 0.0  # the bare series leaves -2e-16 here
    terms = []
    partial = inner = 0.0
    t = L  # (-1)^(n-1) L^n / (n! 2^(n-1)) at n = 1
    n = 1
    while True:
        if n % 2:
            inner += 1.0 / n
        term = t * inner
        terms.append(term)
        partial += term
        if n > L and abs(term) < 1e-17 * abs(partial):
            break
        n += 1
        t *= -L / (2 * n)
    return math.fsum([_EULER_GAMMA, math.log(L), math.sqrt(x) * math.fsum(terms), -_LI_2])
