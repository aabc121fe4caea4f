"""Integer and real arithmetic substrate.

Primality, prime generation, multiplicative functions, Kronecker-style
symbols, modular square roots, and the logarithmic integral.  Everything
here is pure and reentrant; a PrimeCache is immutable after construction
and safe to share across threads or forked workers.
"""

from __future__ import annotations

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

# Deterministic Miller-Rabin witness set covering all n < 3.3 * 10^24,
# in particular every 64-bit integer (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
_CACHE_VERSION = 2


@dataclass(frozen=True)
class PrimeCache:
    """Bit-set of primality flags for 0..limit inclusive.

    Invariant: ``flags[n]`` is True exactly when n is prime.
    """

    limit: int
    flags: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.flags.setflags(write=False)

    def count(self) -> int:
        return int(np.count_nonzero(self.flags))

    def primes(self) -> np.ndarray:
        return np.flatnonzero(self.flags)

    def save(self, path) -> None:
        """Write the documented little-endian layout.

        Byte layout: 4-byte magic ``PCHE``, ``<I`` version, ``<Q`` limit,
        ``<I`` zlib.crc32 of the limit's 8 bytes and the payload, then the
        payload: the bit-set packed LSB-first (bit n of the stream set iff
        n is prime).
        """
        packed = np.packbits(self.flags, bitorder="little")
        crc = zlib.crc32(packed, zlib.crc32(struct.pack("<Q", self.limit)))
        # a reader sees the old file or the whole new one, never a part
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_CACHE_MAGIC)
                fh.write(struct.pack("<IQI", _CACHE_VERSION, self.limit, crc))
                fh.write(packed.tobytes())
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
        if len(payload) * 8 < limit + 1:
            raise ValueError(
                f"truncated prime cache {path}: {len(payload) * 8} flag bits "
                f"for limit {limit}"
            )
        actual = zlib.crc32(payload, zlib.crc32(header[8:16]))
        if actual != crc:
            raise ValueError(
                f"corrupt prime cache {path}: checksum {actual:08x}, header says {crc:08x}"
            )
        packed = np.frombuffer(payload, dtype=np.uint8)
        flags = np.unpackbits(packed, bitorder="little")[: limit + 1].astype(bool)
        return cls(limit=limit, flags=flags)


_SEGMENT = 1 << 20  # integers sieved per numpy segment


def primes_up_to(x: int) -> PrimeCache:
    """Segmented sieve of Eratosthenes producing a PrimeCache up to x."""
    if x < 2:
        raise ValueError("primes_up_to requires x >= 2")
    # ~1 byte per integer; refuse absurd requests before allocating.
    if x > 1 << 33:
        raise ValueError(f"prime cache up to x = {x:g} exceeds the memory budget of 2^33 flags")
    x = int(x)
    root = math.isqrt(x)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    base_primes = np.flatnonzero(base)

    flags = np.zeros(x + 1, dtype=bool)
    flags[: root + 1] = base
    lo = root + 1
    while lo <= x:
        hi = min(lo + _SEGMENT, x + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base_primes:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            seg[start - lo :: p] = False
        flags[lo:hi] = seg
        lo = hi
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


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    n = check_int(n, 1, "n")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
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
    """Reject an argument that is NaN or infinite, before any int(x)."""
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {x}")


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
