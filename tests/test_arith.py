import ast
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtlab import arith

# pi(10^k), long established
PI_TABLE = {10**2: 25, 10**3: 168, 10**4: 1229, 10**5: 9592, 10**6: 78498}


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        for n in range(31):
            assert arith.is_prime(n) == (n in primes)

    def test_carmichael(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not arith.is_prime(n)

    def test_large(self):
        assert arith.is_prime(2**61 - 1)
        assert not arith.is_prime(2**62 - 1)

    @pytest.mark.parametrize("n", [arith._MR_LIMIT, arith._MR_LIMIT + 2, 2**89 - 1])
    def test_refuses_past_the_proven_range(self, n):
        # the composite _MR_LIMIT passes all 12 witnesses; below it they
        # decide, up to the last prime under it
        assert arith._MR_LIMIT == 399165290221 * 798330580441
        assert arith.is_prime(arith._MR_LIMIT - 20)
        assert not arith.is_prime(arith._MR_LIMIT - 1)
        message = rf"^is_prime\({n}\) is past the proven range n < {arith._MR_LIMIT}$"
        with pytest.raises(ValueError, match=message):
            arith.is_prime(n)


class TestPrimeCache:
    def test_counts(self):
        table = arith.primes_up_to(10**6)
        for x, cnt in PI_TABLE.items():
            assert len(table.primes(x)) == cnt
        assert table.count() == 78498

    def test_count_at_1e8(self):
        assert arith.primes_up_to(10**8).count() == 5761455

    @pytest.mark.parametrize("x", [1, 1.99, 0, -5])
    def test_below_two_rejected(self, x):
        with pytest.raises(ValueError, match=r"^primes_up_to requires x >= 2$"):
            arith.primes_up_to(x)

    def test_membership(self):
        table = arith.primes_up_to(10**4)
        assert table.is_prime(np.array([9973, 9999])).tolist() == [True, False]
        assert table.limit == 10**4

    @pytest.mark.parametrize("limit", [2, 3, 15, 16, 17, 31, 32, 33, 10**4])
    def test_reads_vs_miller_rabin(self, limit):
        # one bit per odd n: byte boundaries at n = 16k, and n = limit read
        # from a last byte that may hold only n's bit
        table = arith.primes_up_to(limit)
        n = np.arange(limit + 1)
        expected = [arith.is_prime(k) for k in range(limit + 1)]
        assert table.is_prime(n).tolist() == expected
        assert table.count() == sum(expected)
        assert table.primes().tolist() == [k for k in range(limit + 1) if expected[k]]
        assert table.flags.nbytes == limit // 16 + 1

    # x = 2 and 3 stop the recursion for the base primes (isqrt(x) < 3);
    # prime squares +- 1, where striking starts; the segments of 2^20 odd
    # integers end at 2^21 and 2^22
    @pytest.mark.parametrize(
        "limit",
        [2, 3, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 168, 169, 170]
        + [2**21 - 1, 2**21 + 1, 2**22 + 1],
    )
    def test_sieve_vs_miller_rabin_at_edges(self, limit):
        table = arith.primes_up_to(limit)
        edges = [limit] + [k << 21 for k in range(1, (limit >> 21) + 1)]
        for edge in edges:
            n = np.arange(max(edge - 3000, 0), min(edge + 3000, limit) + 1)
            expected = [arith.is_prime(k) for k in n.tolist()]
            assert table.is_prime(n).tolist() == expected, edge
        if limit < 3000:  # the one window holds every n
            assert table.count() == sum(expected)
        else:  # pi(2^21) = 155611 and pi(2^22) = 295947
            assert table.count() == {2**21 - 1: 155611, 2**21 + 1: 155611}.get(limit, 295947)

    @pytest.mark.parametrize("limit", [2, 33, 10**4])
    def test_primes_prefix(self, limit):
        table = arith.primes_up_to(limit)
        every = table.primes()
        for upto in {-1, 0, 1, 2, 3, 4, 15, 16, 17, limit // 2, limit - 1, limit}:
            if upto > limit:
                continue
            assert table.primes(upto).tolist() == every[every <= upto].tolist()
            # a bound below 0 reads as 0 (arith.check_bound)
            n = np.arange(max(upto, 0) + 1)
            assert table.primes(upto).tolist() == n[table.is_prime(n)].tolist()
        with pytest.raises(ValueError, match="past the table's limit"):
            table.primes(limit + 1)

    def test_primes_at_byte_and_segment_edges(self):
        # each table byte holds the odd n = 16k + 1, ..., 16k + 15; the
        # sieve's first segment of 2^20 odd integers ends at 2^21
        table = arith.primes_up_to(2**21 + 1)
        for upto in (-1, 0, 1, 2, 3, 15, 16, 17, 2**21 - 1, 2**21 + 1):
            primes = table.primes(upto)
            assert primes.dtype == np.int64, upto
            assert primes.tolist() == [k for k in range(upto + 1) if arith.is_prime(k)], upto

    def test_only_arith_reads_the_packed_layout(self):
        # the bit layout of PrimeCache.flags stays private to arith
        readers = []
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "cdtlab").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "flags"
                ):
                    readers.append(path.name)
        assert set(readers) == {"arith.py"}

    def test_roundtrip(self, tmp_path):
        table = arith.primes_up_to(10**4)
        path = tmp_path / "p.pche"
        table.save(path)
        back = arith.PrimeCache.load(path)
        assert back.limit == table.limit
        assert (back.flags == table.flags).all()

    def test_truncated(self, tmp_path):
        path = tmp_path / "p.pche"
        arith.primes_up_to(10**5).save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated prime cache .*p.pche"):
            arith.PrimeCache.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "p.pche"
        arith.primes_up_to(10**3).save(path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated prime cache .*p.pche"):
            arith.PrimeCache.load(path)

    def test_any_flipped_byte_or_truncation_rejected(self, tmp_path):
        path = tmp_path / "p.pche"
        arith.primes_up_to(10**3).save(path)
        data = path.read_bytes()

        @given(st.integers(0, len(data) - 1), st.integers(1, 255), st.booleans())
        @settings(max_examples=300, deadline=None)
        def check(i, flip, truncate):
            if truncate:
                damaged = data[:i]
            else:
                damaged = data[:i] + bytes([data[i] ^ flip]) + data[i + 1 :]
            path.write_bytes(damaged)
            with pytest.raises(ValueError):
                arith.PrimeCache.load(path)

        check()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.pche"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError):
            arith.PrimeCache.load(path)


class TestKronecker:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 997])
    def test_odd_primes_vs_legendre(self, p):
        for D in range(-60, 61):
            if D % 4 in (0, 1):
                assert arith.kronecker(D, p) == legendre(D, p)

    def test_at_two(self):
        assert arith.kronecker(-4, 2) == 0
        assert arith.kronecker(-8, 2) == 0
        assert arith.kronecker(-23, 2) == 1  # -23 = 1 mod 8
        assert arith.kronecker(-3, 2) == -1  # -3 = 5 mod 8
        assert arith.kronecker(-7, 2) == 1  # -7 = 1 mod 8
        with pytest.raises(ValueError):
            arith.kronecker(-1, 2)  # -1 = 3 mod 4: not a discriminant
        with pytest.raises(ValueError):
            arith.kronecker(3, 2)

    @given(
        st.integers(min_value=-400, max_value=400).filter(lambda D: D % 4 in (0, 1)),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative(self, D, m, n):
        if D % 4 == 3:
            return
        try:
            lhs = arith.kronecker(D, m * n)
            a = arith.kronecker(D, m)
            b = arith.kronecker(D, n)
        except ValueError:
            return
        assert lhs == a * b


class TestSqrtMod:
    @pytest.mark.parametrize("p", [3, 5, 13, 101, 10007])
    def test_all_residues(self, p):
        squares = {x * x % p for x in range(p)} if p < 2000 else None
        rng = random.Random(1)
        for a in (range(p) if p < 200 else (rng.randrange(p) for _ in range(100))):
            r = arith.sqrt_mod(a, p)
            if r is None:
                assert legendre(a, p) == -1
            else:
                assert r * r % p == a % p
                assert 0 <= r <= p // 2  # canonical branch
                if squares is not None:
                    assert a in squares


    def test_small_primes_vs_bruteforce(self):
        # every a mod every odd prime p < 600: the smaller of the two roots
        for p in range(3, 600, 2):
            if not arith.is_prime(p):
                continue
            least = {}
            for x in range(p // 2, -1, -1):
                least[x * x % p] = x
            assert [arith.sqrt_mod(a, p) for a in range(p)] == [least.get(a) for a in range(p)]

    # 10^9 + 7, 2^61 - 1 and 2^32 - 5 are 3 (mod 4); 998244353 is 1 (mod 4)
    @pytest.mark.parametrize("p", [1000000007, 998244353, 2**61 - 1, 4294967291])
    def test_large_primes(self, p):
        rng = random.Random(p)
        for _ in range(60):
            a = rng.randrange(p)
            r = arith.sqrt_mod(a, p)
            if r is None:
                assert legendre(a, p) == -1
            else:
                assert r * r % p == a and r <= p - r
            x = rng.randrange(1, p)
            assert arith.sqrt_mod(x * x % p, p) == min(x, p - x)


class TestMultiplicative:
    @given(st.integers(min_value=1, max_value=10**5))
    @settings(max_examples=150, deadline=None)
    def test_factorize_roundtrip(self, n):
        m = 1
        last = 1
        for p, e in arith.factorize(n):
            assert arith.is_prime(p)
            assert p > last
            last = p
            m *= p**e
        assert m == n

    def test_factorize_vs_every_divisor(self):
        def oracle(n):  # trial division by every d >= 2, prime or not
            out, d = [], 2
            while d * d <= n:
                e = 0
                while n % d == 0:
                    n, e = n // d, e + 1
                if e:
                    out.append((d, e))
                d += 1
            return out + [(n, 1)] * (n > 1)

        rng = random.Random(7)
        ns = [rng.randrange(1, 10**7) for _ in range(2000)]
        # 3 * 5 * 7 * 11 * 13, the primorial 23#, 10-digit primes, 99991^2
        ns += [1, 2, 4, 15015, 223092870, 1000000007, 9999999967, 99991**2]
        for n in ns:
            assert arith.factorize(n) == oracle(n), n

    def test_factorize_past_the_trial_limit(self):
        # trial division stops at 10^7: a prime cofactor past it is proven
        # by is_prime, here 2^61 - 1; 9999991^2 < 10^14 needs no proof
        assert arith.factorize(2**61 - 1) == [(2**61 - 1, 1)]
        assert arith.factorize(3 * (2**61 - 1)) == [(3, 1), (2**61 - 1, 1)]
        assert arith.factorize(9999991**2) == [(9999991, 2)]

    @pytest.mark.parametrize(
        "n",
        [
            (10**9 + 7) * (10**9 + 9),
            # the least strong pseudoprime to every witness of is_prime
            399165290221 * 798330580441,
            2**89 - 1,  # a prime, but past the witnesses' proven range
        ],
    )
    def test_factorize_refuses_what_it_cannot_split(self, n):
        with pytest.raises(ValueError, match=rf"^cannot factorize n = {n}: its cofactor {n} "):
            arith.factorize(n)

    def test_factorize_below_the_limit_squared_never_calls_is_prime(self, monkeypatch):
        # the two largest primes below 10^7: today's path, no is_prime call
        monkeypatch.setattr(arith, "is_prime", None)
        assert arith.factorize(9999991 * 9999973) == [(9999973, 1), (9999991, 1)]

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_phi_sum(self, n):
        assert sum(arith.euler_phi(d) for d in arith.divisors(n)) == n

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_mobius_sum(self, n):
        assert sum(arith.mobius(d) for d in arith.divisors(n)) == (1 if n == 1 else 0)

    def test_tau_divisors(self):
        for n in (1, 2, 12, 360, 2310):
            assert arith.tau(n) == len(arith.divisors(n))


class TestLi:
    @pytest.mark.parametrize("x", [10.0, 1e3, 1e5, 1e7])
    def test_vs_mpmath(self, x):
        oracle = float(mpmath.li(x) - mpmath.li(2))
        assert arith.li(x) == pytest.approx(oracle, rel=1e-6)

    def test_monotone(self):
        assert arith.li(2.0) == pytest.approx(0.0, abs=1e-9)
        assert arith.li(100.0) > arith.li(50.0) > 0

    def test_series_vs_mpmath_log_spaced(self):
        for i in range(50):
            x = 2.0 * (1e15 / 2.0) ** (i / 49)
            oracle = float(mpmath.li(x) - mpmath.li(2))
            assert abs(arith.li(x) - oracle) <= 1e-12 * max(1.0, oracle), x

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_rejected(self, x):
        # the series has no stopping point at NaN or infinity
        with pytest.raises(ValueError, match=f"^x must be a finite number, got {x}$"):
            arith.li(x)

    def test_exact_zero_and_monotone_near_two(self):
        vals = [arith.li(2.0 + i / 4000) for i in range(4001)]
        assert vals[0] == 0.0
        assert all(a < b for a, b in zip(vals, vals[1:]))
