import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtlab import quadforms as qf
from cdtlab.arith import is_prime

H_TABLE = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2,
    -23: 3, -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1,
    -47: 5, -56: 4, -67: 1, -71: 7, -84: 4, -163: 1, -227: 5,
}


def pos_def_forms():
    def build(a, b, cextra):
        c = (b * b) // (4 * a) + 1 + cextra
        return qf.Form(a, b, c)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=50),
    )


class TestReduce:
    @given(pos_def_forms())
    @settings(max_examples=300, deadline=None)
    def test_reduced_and_idempotent(self, f):
        r = qf.reduce_form(f)
        assert r.discriminant == f.discriminant
        assert abs(r.b) <= r.a <= r.c
        if abs(r.b) == r.a or r.a == r.c:
            assert r.b >= 0
        assert qf.reduce_form(r) == r

    @given(pos_def_forms(), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_translation_invariant(self, f, k, _):
        # (a, b, c) -> (a, b + 2ka, ...) is an SL2 change of variable
        g = qf.Form(f.a, f.b + 2 * k * f.a, f.a * k * k + f.b * k + f.c)
        assert qf.reduce_form(g) == qf.reduce_form(f)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            qf.reduce_form(qf.Form(1, 5, 1))

    def test_form_positive_definite_by_construction(self):
        with pytest.raises(ValueError, match=r"^form \(1, 5, 1\) is not positive definite$"):
            qf.Form(1, 5, 1)


class TestClassNumbers:
    def test_table(self):
        for D, h in H_TABLE.items():
            assert qf.class_number(D) == h, D

    def test_representatives_distinct_and_reduced(self):
        for D in (-23, -47, -71, -84, -500):
            if D % 4 not in (0, 1):
                continue
            cl = qf.class_representatives(D)
            assert len(set(cl.representatives)) == cl.h
            for f in cl.representatives:
                assert f.discriminant == D
                assert f.is_primitive
                assert qf.reduce_form(f) == f

    def test_fundamental(self):
        assert qf.is_fundamental(-3)
        assert qf.is_fundamental(-4)
        assert qf.is_fundamental(-23)
        assert not qf.is_fundamental(-12)  # -3 * 2^2
        assert not qf.is_fundamental(-9)
        assert not qf.is_fundamental(-16)

    @pytest.mark.parametrize("D", [-6, -5, 0, 4, 5])
    def test_non_discriminant_rejected(self, D):
        message = f"^{D} is not a negative form discriminant$"
        for entry in (qf.class_representatives, qf.principal_form):
            with pytest.raises(ValueError, match=message):
                entry(D)
        with pytest.raises(ValueError, match=message):
            qf.prime_to_class(3, D)


class TestPrincipalForm:
    def test_reduced_by_construction(self):
        for D in range(-3, -10**5 - 1, -1):
            if D % 4 in (0, 1):
                e = qf.principal_form(D)
                assert e == qf.reduce_form(e), D


class TestComposition:
    @pytest.mark.parametrize("D", [-23, -47, -71, -84, -120])
    def test_group_axioms(self, D):
        cl = qf.class_representatives(D)
        e = qf.principal_form(D)
        rng = random.Random(D)
        for f in cl.representatives:
            assert qf.compose(e, f) == f
            assert qf.compose(f, qf.inverse_form(f)) == e
        for _ in range(30):
            f, g, h = (rng.choice(cl.representatives) for _ in range(3))
            assert qf.compose(f, g) == qf.compose(g, f)
            assert qf.compose(qf.compose(f, g), h) == qf.compose(f, qf.compose(g, h))

    @pytest.mark.parametrize("D", [-23, -47, -71, -84, -200, -431])
    def test_prime_classes_compose_to_united_form(self, D):
        # (p, b_p, .) and (q, b_q, .) compose to (pq, B, .) with
        # B = b_p (mod 2p) and B = b_q (mod 2q): this fixes the orientation
        def lead_form(p):
            g = qf.prime_to_class(p, D)
            for b in range(D % 2, 2 * p, 2):
                if (b * b - D) % (4 * p) == 0:
                    f = qf.Form(p, b, (b * b - D) // (4 * p))
                    if qf.reduce_form(f) == g:
                        return f

        split = [
            p for p in range(2, 200)
            if is_prime(p) and D % p and qf.prime_to_class(p, D) is not None
        ]
        for p in split:
            for q in split:
                if p == q:
                    continue
                fp, fq = lead_form(p), lead_form(q)
                B = next(
                    B for B in range(2 * p * q)
                    if (B - fp.b) % (2 * p) == 0 and (B - fq.b) % (2 * q) == 0
                )
                united = qf.Form(p * q, B, (B * B - D) // (4 * p * q))
                got = qf.compose(qf.prime_to_class(p, D), qf.prime_to_class(q, D))
                assert got == qf.reduce_form(united), (p, q)

    def test_unequal_discriminants_rejected(self):
        with pytest.raises(ValueError, match=r"^compose requires equal discriminants$"):
            qf.compose(qf.Form(1, 0, 1), qf.Form(1, 1, 1))

    def test_element_orders_divide_h(self):
        for D in (-23, -47, -71):
            cl = qf.class_representatives(D)
            e = qf.principal_form(D)
            for f in cl.representatives:
                g = f
                order = 1
                while g != e:
                    g = qf.compose(g, f)
                    order += 1
                    assert order <= cl.h
                assert cl.h % order == 0


class TestOrders:
    def test_stab(self):
        assert qf.stab_order(-3) == 6
        assert qf.stab_order(-4) == 4
        assert qf.stab_order(-23) == 2
        # -5 and -6 are not discriminants: -5 = 3 and -6 = 2 (mod 4)
        for D in (0, 1, 5, -5, -6):
            with pytest.raises(ValueError, match=rf"^{D} is not a negative form discriminant$"):
                qf.stab_order(D)

    def test_conductor_formula_vs_enumeration(self):
        for D0 in (-3, -4, -7, -8, -23, -47):
            for d in range(1, 9):
                assert qf.class_number_order(D0, d) == qf.class_number(D0 * d * d)

    def test_requires_fundamental(self):
        with pytest.raises(ValueError):
            qf.class_number_order(-12, 2)


def points(blocks, W=1):
    """(u, v, n) for the nonzero slots of the grids (us, v0s, N), read
    through grid_points over a table of size W."""
    out = []
    for block in blocks:
        k = np.flatnonzero(block[2])
        u, v = qf.grid_points(block, k, W)
        out += zip(u.tolist(), v.tolist(), block[2][k].tolist())
    return out


class TestLattice:
    def brute(self, f, x):
        pts = set()
        bound = int(math.isqrt(int(4 * max(f.a, f.c) * x)) + 2)
        for u in range(-bound, bound + 1):
            for v in range(-bound, bound + 1):
                if 1 <= f(u, v) <= x:
                    pts.add((u, v))
        return pts

    @pytest.mark.parametrize(
        "f,x",
        [
            (qf.Form(1, 0, 1), 200),
            (qf.Form(1, 1, 6), 300),
            (qf.Form(2, 1, 3), 150),
            (qf.Form(3, 2, 5), 500),
        ],
    )
    def test_blocks_vs_bruteforce(self, f, x):
        got = set()
        for u, v, n in points(qf.represented_blocks(f, x)):
            assert f(u, v) == n
            assert (u, v) not in got
            got.add((u, v))
        assert got == self.brute(f, x)

    def test_strip_partition(self):
        f = qf.Form(1, 1, 6)
        x = 5000
        whole = sum(np.count_nonzero(N) for _, _, N in qf.represented_blocks(f, x))
        pieces = 0
        for lo in range(-80, 81, 7):
            pieces += sum(
                np.count_nonzero(N) for _, _, N in qf.represented_blocks(f, x, lo, lo + 6)
            )
        assert whole == pieces

    # admissible tables, each a predicate of (u mod W, v mod W): the value
    # wheels gcd(f(u, v), W) = 1 that the kernel walks, the coordinate
    # table gcd(u, 7) = gcd(v, 7) = 1 of a sifted count, and both mod 210
    ADMISSIBLE = {
        2: (2, lambda f, u, v: math.gcd(f(u, v), 2) == 1),
        6: (6, lambda f, u, v: math.gcd(f(u, v), 6) == 1),
        30: (30, lambda f, u, v: math.gcd(f(u, v), 30) == 1),
        "coord7": (7, lambda f, u, v: math.gcd(u * v, 7) == 1),
        "value30-coord7": (
            210,
            lambda f, u, v: math.gcd(f(u, v), 30) == 1 and math.gcd(u * v, 7) == 1,
        ),
    }

    def admissible(self, f, key):
        W, ok = self.ADMISSIBLE[key]
        return np.array([[ok(f, u, v) for v in range(W)] for u in range(W)])

    @pytest.mark.parametrize("key", [6, 30, "coord7", "value30-coord7"])
    def test_wheel_strip_partition(self, key):
        f = qf.Form(1, 1, 6)
        x = 5000
        table = self.admissible(f, key)
        whole = sum(
            np.count_nonzero(N) for _, _, N in qf.represented_blocks(f, x, admissible=table)
        )
        pieces = 0
        for lo in range(-80, 81, 7):
            pieces += sum(
                np.count_nonzero(N)
                for _, _, N in qf.represented_blocks(f, x, lo, lo + 6, admissible=table)
            )
        assert whole == pieces

    @pytest.mark.parametrize(
        "f,x",
        [
            (qf.Form(1, 0, 1), 200),
            (qf.Form(1, 1, 6), 300),
            (qf.Form(2, 1, 3), 150),
            (qf.Form(3, 2, 5), 500),
            (qf.Form(4, 3, 5), 700),
        ],
    )
    @pytest.mark.parametrize("key", list(ADMISSIBLE))
    def test_wheel_blocks_vs_bruteforce(self, f, x, key, monkeypatch):
        # small blocks, so that rows and residue runs span several blocks
        monkeypatch.setattr(qf, "_BLOCK", 64)
        got = []
        table = self.admissible(f, key)
        for u, v, n in points(qf.represented_blocks(f, x, admissible=table), len(table)):
            assert f(u, v) == n
            got.append((u, v))
        ok = self.ADMISSIBLE[key][1]
        want = {(u, v) for u, v in self.brute(f, x) if ok(f, u, v)}
        assert len(got) == len(set(got))
        assert set(got) == want

    def test_table_filters_every_point(self):
        # rows and columns past one period of W = 210: the table picks
        # exactly the points of the unfiltered walk that it admits
        f, x = qf.Form(1, 0, 1), 1e5
        table = self.admissible(f, "value30-coord7")
        W = len(table)

        def pairs(blocks, W=1):
            return sorted((u, v) for u, v, _ in points(blocks, W))

        every = pairs(qf.represented_blocks(f, x))
        want = [(u, v) for u, v in every if table[u % W, v % W]]
        assert pairs(qf.represented_blocks(f, x, admissible=table), W) == want

    # grids with padding: rows of unequal runs share a grid
    GRIDS = [
        (qf.Form(1, 0, 1), 1000, None),
        (qf.Form(1, 1, 6), 5000, 30),
        (qf.Form(3, 2, 5), 3000, "value30-coord7"),
        (qf.Form(4, 3, 5), 2000, 6),
    ]

    def slots(self, f, x, key):
        """Each grid of f up to x with the (u, v) of all its slots."""
        table = None if key is None else self.admissible(f, key)
        W = 1 if table is None else len(table)
        for block in qf.represented_blocks(f, x, admissible=table):
            u, v = qf.grid_points(block, np.arange(block[2].size), W)
            yield block, u, v

    @pytest.mark.parametrize("f,x,key", GRIDS)
    def test_padding_slots_hold_zero(self, f, x, key):
        padding = 0
        for (us, _, N), u, v in self.slots(f, x, key):
            assert N.size % us.size == 0
            value = f.a * u * u + f.b * u * v + f.c * v * v
            inside = (value >= 1) & (value <= x)
            assert (N[~inside] == 0).all()
            assert (N[inside] == value[inside]).all()
            assert ((N[N != 0] >= 1) & (N[N != 0] <= x)).all()
            padding += int(np.count_nonzero(~inside))
        assert padding > 0

    def test_padding_share_on_the_wheel(self):
        # the kernel's walk of (1, 1, 6) at 1e7: the half-plane u >= 1 on
        # the wheel mod 30
        f, x = qf.Form(1, 1, 6), 10**7
        table = self.admissible(f, 30)
        slots = points = 0
        for _, _, N in qf.represented_blocks(f, x, 1, qf._u_bound(f, x), admissible=table):
            slots += N.size
            points += int(np.count_nonzero(N))
        assert points == 698783
        assert slots <= 1.05 * points

    @pytest.mark.parametrize("f,x,key", GRIDS)
    def test_int64_guard_covers_padded_slots(self, f, x, key):
        # every product of the grid's arithmetic, at every slot, padding
        # included, lies within the bound that the guard keeps in int64
        W = 1 if key is None else self.ADMISSIBLE[key][0]
        bound = qf._grid_bound(f, x, W)
        a, b, c = f
        for _, u, v in self.slots(f, x, key):
            u, v = abs(u), abs(v)
            assert (a * u * u + abs(b) * u * v + 2 * c * v * v <= bound).all()
            assert (W * (abs(b) * u + 2 * c * v) <= bound).all()
            assert (abs(f.discriminant) * u * u <= bound).all()

    def test_int64_guard_threshold(self):
        # at x = 2^60, 4cx = 2^62 fits in int64 for u^2 + v^2, but a padded
        # slot may reach 5x; at 2^59 the bound, about 9x, fits
        f = qf.Form(1, 0, 1)
        assert qf._grid_bound(f, 2**60, 1) > np.iinfo(np.int64).max
        with pytest.raises(ValueError, match="overflows int64"):
            next(qf.represented_blocks(f, 2**60))
        U = qf._u_bound(f, 2**59)
        assert next(qf.represented_blocks(f, 2**59, U, U), None) is None

    def test_overflow_message_is_one_short_line(self):
        with pytest.raises(ValueError) as info:
            next(qf.represented_blocks(qf.Form(1, 1, 6), 1e300))
        assert str(info.value) == "form (1, 1, 6) at x = 1e+300 overflows int64 lattice arithmetic"

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, x):
        with pytest.raises(ValueError, match=f"^x must be a finite number, got {x}$"):
            next(qf.represented_blocks(qf.Form(1, 1, 6), x))


class TestPrimeToClass:
    # every prime p < 250, 2 and the ramified ones included; -12, -27 and
    # -60 have conductor 2, 3 and 2, a prime no primitive form represents
    @pytest.mark.parametrize("D", [-23, -47, -71, -3, -4, -12, -20, -27, -60, -92])
    def test_split_primes_represented(self, D):
        cl = qf.class_representatives(D)
        for p in filter(is_prime, range(2, 250)):
            g = qf.prime_to_class(p, D)
            # the class and its inverse, or nothing, are those representing p
            representing = set()
            for f in cl.representatives:
                ub = math.isqrt(4 * f.c * p // -D) + 1
                vb = math.isqrt(4 * f.a * p // -D) + 1
                if any(
                    f(u, v) == p
                    for u in range(-ub, ub + 1)
                    for v in range(-vb, vb + 1)
                ):
                    representing.add(f)
            assert representing == (set() if g is None else {g, qf.inverse_form(g)}), p
            assert g is None or g in cl.representatives

    @pytest.mark.parametrize("p", [1, 4, 9, 15])
    def test_rejects_composite(self, p):
        with pytest.raises(ValueError, match=f"^{p} is not an odd prime$"):
            qf.prime_to_class(p, -23)

    def test_induced(self):
        f = qf.Form(1, 0, 1)
        g = qf.induced_form(f, 3, 5)
        assert g.discriminant == f.discriminant * 15**2
        assert g(2, 1) == f(6, 5)
