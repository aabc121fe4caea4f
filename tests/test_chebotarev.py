import bisect
import functools
import json
import math
import struct
import tracemalloc
import zlib
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtlab import chebotarev as ch
from cdtlab import cli
from cdtlab import densities as de
from cdtlab import quadforms as qf
from cdtlab.arith import PrimeCache, is_prime, kronecker, li, primes_up_to
from cdtlab.betasieve import SieveSpec, beta_sieve_weights, theta_map
from cdtlab.errorterms import ErrorModel


def brute_prime_points(f, x, cond=None):
    total = 0
    bound = math.isqrt(int(4 * max(f.a, f.c) * x)) + 2
    for u in range(-bound, bound + 1):
        for v in range(-bound, bound + 1):
            n = f(u, v)
            if 1 <= n <= x and is_prime(n) and (cond is None or cond(u, v, n)):
                total += 1
    return total


@functools.lru_cache(maxsize=None)
def prime_values(f, x):
    """Sorted prime values f(u, v) <= x, one per pair (u, v), by brute
    force over |u| <= sqrt(4cx/|D|) and |v| <= sqrt(4ax/|D|)."""
    D = -f.discriminant
    ub = math.isqrt(4 * f.c * x // D) + 1
    vb = math.isqrt(4 * f.a * x // D) + 1
    values = (f(u, v) for u in range(-ub, ub + 1) for v in range(-vb, vb + 1))
    return sorted(n for n in values if n <= x and is_prime(n))


def reduced_forms(bound):
    """Every reduced form a u^2 + b uv + c v^2 with |D| <= bound,
    imprimitive ones too; |D| >= 3 a^2 bounds a."""
    return [
        qf.Form(a, b, c)
        for a in range(1, math.isqrt(bound // 3) + 1)
        for b in range(-a + 1, a + 1)
        for c in range(a, (bound + b * b) // (4 * a) + 1)
        if b * b - 4 * a * c >= -bound and not (a == c and b < 0)
    ]


REDUCED_200 = reduced_forms(200)


class TestWheel:
    # forms that represent 2, 3 or 5, the primes the wheel mod 30 skips
    FORMS = [
        qf.Form(1, 0, 1),
        qf.Form(1, 1, 1),
        qf.Form(2, 1, 3),
        qf.Form(3, 1, 4),
        qf.Form(1, 1, 6),
        qf.Form(2, 0, 3),
        qf.Form(3, 2, 3),
    ]

    @pytest.mark.parametrize("f", FORMS, ids=lambda f: "_".join(map(str, f)))
    @pytest.mark.parametrize("x", [2, 3, 4, 5, 6, 29, 30, 31, 1000])
    def test_small_values_vs_bruteforce(self, f, x):
        values = prime_values(f, 1000)
        assert ch.count_prime_points(f, x) == bisect.bisect_right(values, x)

    @given(st.sampled_from(REDUCED_200), st.integers(min_value=0, max_value=600))
    @settings(max_examples=300, deadline=None)
    def test_reduced_forms_vs_bruteforce(self, f, x):
        assert ch.count_prime_points(f, x) == len(prime_values(f, x))

    @pytest.mark.parametrize("f", FORMS + [qf.Form(7, 3, 11), qf.Form(2, 2, 2)])
    @pytest.mark.parametrize("m", [1, 2, 7, 14, 15, 30, 105, 210, 1155, 15015])
    def test_admissible_vs_gcd_table(self, f, m):
        # [gcd(f(u0, v0), 30) = 1 and w_u[r], w_v[r'] nonzero for some
        # r = u0, r' = v0 (mod gcd(m, W))], W = 210 when 7 | m, else 30
        W = 210 if m % 7 == 0 else 30
        g = math.gcd(m, W)
        coprime = (np.gcd(np.arange(m), m) == 1).astype(np.int64)
        # a table that vanishes on one whole class mod g, as well
        one_class = np.arange(m) % g != np.random.default_rng(m).integers(g)
        for w_u, w_v in ((coprime, coprime), (np.ones(m, np.int64), coprime * one_class)):
            table = ch._admissible(f, w_u, w_v)
            rows = [any(w_u[r] for r in range(u0 % g, m, g)) for u0 in range(W)]
            cols = [any(w_v[r] for r in range(v0 % g, m, g)) for v0 in range(W)]
            expected = [
                [math.gcd(f(u0, v0), 30) == 1 and rows[u0] and cols[v0] for v0 in range(W)]
                for u0 in range(W)
            ]
            assert table.tolist() == expected

    def test_wheel_primes_are_one_constant(self, monkeypatch):
        # a 7 in the wheel moves the value 7 to the kernel's small pass
        # and to psi_events' placed powers, and moves no count
        monkeypatch.setattr(ch, "_WHEEL_PRIMES", (2, 3, 5, 7))
        forms = qf.class_representatives(-47).representatives
        assert [ch.count_prime_points(f, 1e5) for f in forms] == [3754, 3824, 3824, 3856, 3856]
        for D in (-3, -47, -71):
            for f in qf.class_representatives(D).representatives:
                for x in (100, 1e5):
                    assert ch.psi_events(f, x).tolist() == walk_psi_events(f, x), (tuple(f), x)

    def test_one_entry_tables_are_factors(self):
        # a one-entry table weighs every point alike: the kernel takes it
        # out of the sum as a scalar, with or without a table that varies
        f = qf.Form(2, 1, 3)
        n_ok = ch._coprime_residues(30)
        two, three = np.array([2]), np.array([3])
        assert ch._lattice_sum(f, 1e4, three, two, two) == 12 * ch.count_prime_points(f, 1e4)
        assert ch._lattice_sum(f, 1e4, n_ok, two, three) == 6 * ch._lattice_sum(
            f, 1e4, n_ok, ch._ONE, ch._ONE
        )

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, x):
        f = qf.Form(1, 1, 6)
        with pytest.raises(ValueError, match=f"^x must be a finite number, got {x}$"):
            ch.count_prime_points(f, x)
        with pytest.raises(ValueError, match=f"^x must be a finite number, got {x}$"):
            ch.pi_class_scan(f, x)
        if not x < 100:  # bridge_check turns -inf away as below 100
            with pytest.raises(ValueError, match=f"^x must be a finite number, got {x}$"):
                ch.bridge_check(f, x)


class TestCounting:
    @pytest.mark.parametrize(
        "f,x",
        [(qf.Form(1, 0, 1), 300), (qf.Form(1, 1, 6), 500), (qf.Form(2, 1, 3), 400)],
    )
    def test_vs_bruteforce(self, f, x):
        assert ch.count_prime_points(f, x) == brute_prime_points(f, x)

    @staticmethod
    def check_worker_count_invariance():
        f = qf.Form(1, 1, 6)
        base = ch.count_prime_points(f, 1e5, workers=1)
        assert ch.count_prime_points(f, 1e5, workers=2) == base
        assert ch.count_prime_points(f, 1e5, workers=4) == base
        P = de.SievingModulus.from_int(105)
        for g in (f, qf.Form(1, 0, 1)):
            one = ch.theorem15_experiment(g, P, 1e5, workers=1).lhs
            assert ch.theorem15_experiment(g, P, 1e5, workers=2).lhs == one

    def test_worker_count_invariance(self):
        self.check_worker_count_invariance()

    def test_worker_count_invariance_forked(self, monkeypatch):
        # below the threshold nothing forks, so force the pool: a process
        # for every point, and four CPUs whatever the host has
        monkeypatch.setattr(ch, "_FORK_POINTS", 0)
        monkeypatch.setattr(ch, "_cpus", lambda: 4)
        self.check_worker_count_invariance()

    @staticmethod
    def forbid_fork(monkeypatch):
        def refuse(method=None):
            raise AssertionError("the kernel forked a pool")

        monkeypatch.setattr(ch.multiprocessing, "get_context", refuse)

    def test_small_x_never_forks(self, monkeypatch):
        # about 7,000 estimated points, far below _FORK_POINTS
        self.forbid_fork(monkeypatch)
        assert ch.count_prime_points(qf.Form(1, 1, 6), 1e5, workers=4) == 6270

    def test_one_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(ch, "_FORK_POINTS", 0)
        monkeypatch.setattr(ch, "_cpus", lambda: 1)
        self.forbid_fork(monkeypatch)
        assert ch.count_prime_points(qf.Form(1, 1, 6), 1e5, workers=4) == 6270

    def test_forks_without_affinity_calls(self, monkeypatch):
        # macOS and Windows have neither call: count os.cpu_count() CPUs
        # and start the workers wherever the scheduler puts them
        monkeypatch.delattr(ch.os, "sched_getaffinity")
        monkeypatch.delattr(ch.os, "sched_setaffinity")
        monkeypatch.setattr(ch, "_FORK_POINTS", 0)
        assert ch.count_prime_points(qf.Form(1, 1, 6), 1e5, workers=2) == 6270
        assert ch.count_prime_points(qf.Form(1, 1, 6), 1e5) == 6270

    def test_parent_keeps_no_strip(self, monkeypatch):
        # the strip closure goes to the workers as the initializer's
        # argument; the parent's module slot stays empty through the pass
        fork = ch.multiprocessing.get_context("fork")
        seen = []

        class Context:
            def Pool(self, *args):
                seen.append(ch._STRIP)
                return fork.Pool(*args)

        monkeypatch.setattr(ch.multiprocessing, "get_context", lambda method: Context())
        monkeypatch.setattr(ch, "_FORK_POINTS", 0)
        monkeypatch.setattr(ch, "_cpus", lambda: 2)
        assert ch.count_prime_points(qf.Form(1, 1, 6), 1e5, workers=2) == 6270
        assert seen == [None] and ch._STRIP is None

    @given(
        st.sampled_from(REDUCED_200),
        st.integers(min_value=10, max_value=10**6),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_forced_pool_matches_serial(self, f, x, procs):
        serial = ch.count_prime_points(f, x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ch, "_FORK_POINTS", 0)
            mp.setattr(ch, "_cpus", lambda: procs)
            assert ch.count_prime_points(f, x, workers=procs) == serial

    @pytest.mark.parametrize(
        "f",
        [
            f
            for D in (-3, -4, -15, -23, -31, -47, -71, -92)
            for f in qf.class_representatives(D).representatives
        ],
        ids=lambda f: "_".join(map(str, f)),
    )
    def test_pi_class_vs_scan(self, f):
        # 2 and the ramified primes count on both paths
        for x in (20, 100, 2e4):
            lattice = ch.count_prime_points(f, x)
            assert lattice == qf.stab_order(f.discriminant) * ch.pi_class_scan(f, x), x

    def test_imprimitive_rejected(self):
        # (2, 2, 2) takes only even values: the lattice holds 6 points of
        # value 2, but no prime ideal of the order of D = -12 lies in it
        f = qf.Form(2, 2, 2)
        assert ch.count_prime_points(f, 1e4) == 6
        for name in ("pi_class", "pi_class_scan"):
            with pytest.raises(
                ValueError, match=rf"^{name} requires a primitive form, got \(2, 2, 2\)$"
            ):
                getattr(ch, name)(f, 1e4)
        with pytest.raises(
            ValueError, match=r"^congruence_sum_A requires a primitive form, got \(2, 2, 2\)$"
        ):
            ch.congruence_sum_A(f, 1, 1, 1e4)

    def test_scan_reads_only_primes_up_to_x(self, monkeypatch):
        # a larger table already in memory must not be listed whole
        monkeypatch.setattr(ch, "_TABLE", primes_up_to(10**7))
        ch.pi_class_scan(qf.Form(2, 1, 3), 100)  # warm the class caches
        tracemalloc.start()
        try:
            count = ch.pi_class_scan(qf.Form(2, 1, 3), 1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 408
        assert peak < 1 << 20

    def test_equidistribution_report(self):
        assert ch.equidistribution_report(-23, 1e6)["expected"] == ch.main_term(1e6, 3)
        rep = ch.equidistribution_report(-23, 1e5)
        assert rep["h"] == 3
        assert rep["max_rel_error"] < 0.05
        assert sum(r["count"] for r in rep["rows"]) == pytest.approx(
            li(1e5), rel=0.02
        )

    @pytest.mark.parametrize("D, passes", [(-23, 2), (-47, 3)])
    def test_equidistribution_one_pass_per_inverse_pair(self, monkeypatch, D, passes):
        # (a, b, c) and (a, -b, c) count the same points: (h + r)/2 passes,
        # r the classes of order at most 2, with every row as per class
        forms = qf.class_representatives(D).representatives
        expected = [ch.pi_class(f, 1e5) for f in forms]
        calls = []
        count = ch.count_prime_points
        monkeypatch.setattr(ch, "count_prime_points", lambda *a: calls.append(a) or count(*a))
        rep = ch.equidistribution_report(D, 1e5)
        assert len(calls) == passes
        assert [r["form"] for r in rep["rows"]] == [list(f) for f in forms]
        assert [r["count"] for r in rep["rows"]] == expected


# the reference walk revisits the same primes for every form and bound
prime_class = functools.lru_cache(maxsize=None)(qf.prime_to_class)


def walk_psi_events(target, bound):
    """Reference for psi_events: every prime p <= bound walked one by one,
    split primes placed in their class by prime_to_class and their powers
    by compose, an independent route to the same (n, q) rows."""
    target = qf.reduce_form(target)
    D = target.discriminant
    bound = int(bound)
    principal = qf.principal_form(D)
    events = []

    def split_events(p, g):
        ginv = qf.inverse_form(g)
        cur, curinv = g, ginv
        n = p
        while n <= bound:
            if cur == target:
                events.append([n, p])
            if curinv == target:
                events.append([n, p])
            n *= p
            if n <= bound:
                cur = qf.compose(cur, g)
                curinv = qf.compose(curinv, ginv)

    for p in primes_up_to(max(bound, 2)).primes().tolist():
        if p == 2:
            if D % 8 == 1:
                split_events(2, qf.reduce_form(qf.Form(2, 1, (1 - D) // 8)))
            elif D % 2 == 1 and principal == target:
                n = 4
                while n <= bound:
                    events.append([n, 4])
                    n *= 4
            continue
        if D % p == 0:
            continue
        g = prime_class(p, D)
        if g is not None:
            split_events(p, g)
        elif principal == target:
            n = p * p
            while n <= bound:
                events.append([n, p * p])
                n *= p * p
    return sorted(events)


class TestPsi:
    # D = -71 at x = 20: (4, +-3, 5) meets the prime 5 only at u = 0;
    # the second row is non-fundamental, with primes dividing the conductor;
    # x = -5 has no event
    @pytest.mark.parametrize(
        "D",
        [-3, -4, -15, -23, -31, -47, -71, -92]
        + [-12, -16, -27, -28, -63, -75, -99, -100],
    )
    def test_events_equal_walk(self, D):
        for f in qf.class_representatives(D).representatives:
            for x in (-5, 20, 100, 1000, 12345, 1e5):
                events = ch.psi_events(f, x)
                assert events.dtype == np.int64 and events.shape == (len(events), 2)
                assert (np.diff(events[:, 0]) >= 0).all()
                assert events.tolist() == walk_psi_events(f, x), (tuple(f), x)
            assert ch.psi_class(f, -5) == 0.0

    @given(st.sampled_from(reduced_forms(300)), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_reduced_forms_equal_walk(self, f, x):
        assert ch.psi_events(f, x).tolist() == walk_psi_events(f, x)

    # 2, 3 or 5 split into a class g of order >= 3, so that the powers
    # p^j, which the wheel skips, spread over the classes g^j; D = -44
    # is non-fundamental
    @pytest.mark.parametrize("D", [-71, -119, -44, -104])
    def test_small_split_primes_of_high_order(self, D):
        principal = qf.principal_form(D)

        def order(g):
            power, k = g, 1
            while power != principal:
                power, k = qf.compose(power, g), k + 1
            return k

        classes = [qf.prime_to_class(p, D) for p in (2, 3, 5) if D % p]
        assert max(order(g) for g in classes if g is not None) >= 3
        for f in qf.class_representatives(D).representatives:
            for x in (200, 1e5):
                assert ch.psi_events(f, x).tolist() == walk_psi_events(f, x), (tuple(f), x)

    def test_powers_of_two_at_D_71(self):
        # the class g = (2, 1, 9) of 2 has order 7 and g^j, g^-j share the
        # values of their forms: (4, 3, 5) = g^2 holds 2^2 and 2^5, the
        # principal class g^7 holds 2^7 twice
        assert qf.prime_to_class(2, -71) == qf.Form(2, 1, 9)
        twos = {(1, 18): [128, 128], (2, 9): [2, 64], (3, 6): [8, 16], (4, 5): [4, 32]}
        for f in qf.class_representatives(-71).representatives:
            events = ch.psi_events(f, 200).tolist()
            assert [n for n, q in events if q == 2] == twos[f.a, f.c], tuple(f)

    def test_lattice_pass_walks_the_wheel(self, monkeypatch):
        f = qf.Form(2, 1, 3)
        built = []

        def counted(*args, **kwargs):
            for us, v0s, N in qf.represented_blocks(*args, **kwargs):
                built.append(np.count_nonzero(N))
                yield us, v0s, N

        monkeypatch.setattr(ch, "represented_blocks", counted)
        ch.psi_events(f, 1e5)
        half = sum(np.count_nonzero(N) for _, _, N in qf.represented_blocks(f, 1e5, 0))
        assert 0 < sum(built) <= 0.12 * half

    def test_principal_gauss_oracle(self):
        # independent bookkeeping for D = -4 via the splitting of
        # rational primes in the Gaussian field
        x = 30000
        target = qf.Form(1, 0, 1)
        oracle = 0.0
        for p in range(3, x + 1):
            if not is_prime(p):
                continue
            if p % 4 == 1:
                n = p
                while n <= x:
                    oracle += 2 * math.log(p)
                    n *= p
            else:
                n = p * p
                while n <= x:
                    oracle += 2 * math.log(p)
                    n *= p * p
        assert ch.psi_class(target, x) == pytest.approx(oracle, abs=1e-9)

    def test_total_psi_near_x(self):
        # summed over all classes, psi tracks x (prime ideal theorem)
        x = 200000
        total = sum(
            ch.psi_class(f, x) for f in qf.class_representatives(-23).representatives
        )
        assert total == pytest.approx(x, rel=0.02)

    def test_split_prime_membership(self):
        # events at j = 1 match brute-force representability
        D = -23
        x = 2000
        cl = qf.class_representatives(D)
        events = {f: ch.psi_events(f, x).tolist() for f in cl.representatives}
        for p in range(3, x):
            if not is_prime(p) or D % p == 0:
                continue
            g = qf.prime_to_class(p, D)
            if g is None:
                continue
            for f in cl.representatives:
                hits = events[f].count([p, p])
                expected = (g == f) + (qf.inverse_form(g) == f)
                assert hits == expected, (p, tuple(f))

    def test_inert_to_principal(self):
        D = -23
        principal = qf.Form(1, 1, 6)
        other = qf.Form(2, 1, 3)
        # 5 is inert in Q(sqrt(-23)); 25 must appear only for the
        # principal class, as the prime ideal (5) of norm 25, weight 2 log 5
        ev_p = [e for e in ch.psi_events(principal, 100).tolist() if e[0] == 25]
        ev_o = [e for e in ch.psi_events(other, 100).tolist() if e[0] == 25]
        assert ev_p == [[25, 25]]
        assert ev_o == []

    def test_smooth_bracket(self):
        p_target = qf.Form(1, 0, 1)
        from cdtlab.weights import WeightParams

        params = WeightParams(x=1e5, epsilon=0.1, ell=3)
        smooth = ch.psi_class_smooth(p_target, params)
        lo, hi = 1e5**0.5, 1e5
        inner = ch.psi_class(p_target, hi) - ch.psi_class(p_target, lo)
        w = 0.1 / math.log(1e5)
        outer = ch.psi_class(p_target, 1e5 ** (1 + w)) - ch.psi_class(
            p_target, 1e5 ** (0.5 - w) - 1
        )
        assert inner - 1e-9 <= smooth <= outer + 1e-9


class TestMainTermAndBridge:
    def test_main_term(self):
        assert ch.main_term(1e6, 3) == pytest.approx(li(1e6) / 3)
        m = ErrorModel(beta1=0.95, theta1=1)
        assert ch.main_term(1e6, 3, m) == pytest.approx(
            (li(1e6) - li(1e6**0.95)) / 3
        )
        with pytest.raises(ValueError):
            ch.main_term(1e6, 0)

    def test_bridge_small_C(self):
        for f in qf.class_representatives(-23).representatives:
            out = ch.bridge_check(f, 1e5)
            assert out["smallest_C"] <= 5.0, tuple(f)

    @pytest.mark.parametrize("x", [1e4, 1e6])
    def test_bridge_pi_vs_pi_class(self, x):
        # the bridge's pi_C adds the inert (p), p^2 <= x, to the principal
        # class and leaves out the ramified primes that pi_class counts
        D = -23
        principal = qf.principal_form(D)
        inert = sum(
            1 for p in range(2, math.isqrt(int(x)) + 1) if is_prime(p) and kronecker(D, p) == -1
        )
        pis = {}
        for f in qf.class_representatives(D).representatives:
            ramified = int(qf.prime_to_class(23, D) == f)
            pis[f] = ch.bridge_check(f, x)["pi"]
            assert pis[f] == ch.pi_class(f, x) - ramified + inert * (f == principal)
        assert pis[principal] == {1e4: 400, 1e6: 26151}[x]
        assert (ch.pi_class(principal, x), inert) == {1e4: (387, 14), 1e6: (26065, 87)}[x]

    @pytest.mark.parametrize(
        "f,x",
        [(f, x) for f in qf.class_representatives(-23).representatives for x in (1e4, 1e6)]
        + [(qf.Form(1, 0, 1), 1e5)],
        ids=lambda v: "_".join(map(str, v)) if isinstance(v, qf.Form) else f"{v:g}",
    )
    def test_bridge_bits_equal_per_row_formula(self, f, x):
        # the per-row formula of the bridge, math.log on each row
        events = ch.psi_events(f, x)
        logx, sqrtx = math.log(x), math.sqrt(x)
        n, q = events.T.tolist()
        w = list(map(math.log, q))
        psi = math.fsum(w)
        integral = math.fsum(
            wk * (1 / math.log(max(sqrtx, nk)) - 1 / logx) for nk, wk in zip(n, w)
        )
        rhs = psi / logx + integral
        pi = sum(nk == qk for nk, qk in zip(n, q))
        out = ch.bridge_check(f, x)
        assert (out["pi"], out["psi"], out["integral"], out["rhs"]) == (pi, psi, integral, rhs)
        assert out["smallest_C"] == abs(pi - rhs) * logx / sqrtx

    def test_li_identity(self):
        for x in (1e4, 1e6):
            assert ch.li_identity_check(x, 0.9) <= 2 * math.sqrt(x) / math.log(x)

    @pytest.mark.parametrize("x, sigma", [(5, 0.9), (1e4, 0), (1e4, 1)])
    def test_li_identity_domain(self, x, sigma):
        with pytest.raises(ValueError, match=r"^need x >= 10 and sigma in \(0, 1\)$"):
            ch.li_identity_check(x, sigma)


class TestCongruence:
    def test_A_vs_bruteforce(self):
        f = qf.Form(1, 0, 1)
        x = 400
        for d1, d2 in ((1, 1), (3, 1), (1, 5), (3, 5)):
            brute = brute_prime_points(
                f, x, cond=lambda u, v, n: u % d1 == 0 and v % d2 == 0
            )
            assert ch.congruence_sum_A(f, d1, d2, x) == brute / 4

    def test_predicted_density(self):
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(15)
        from fractions import Fraction

        out = ch.congruence_sum_predicted(f, 3, 5, 1e6, P)
        assert out["density"] == Fraction(1, 4) * Fraction(1, 4)
        assert out["value"] == pytest.approx(li(1e6) / 16)
        out = ch.congruence_sum_predicted(f, 3, 5, 1e6, P, model=ErrorModel())
        assert out["budget"] is not None and out["budget"] > 0

    @pytest.mark.parametrize("d1,d2", [(0, 1), (1, 0), (-1, 1), (3, -5)])
    def test_A_rejects_d_below_one(self, d1, d2):
        name, d = ("d1", d1) if d1 < 1 else ("d2", d2)
        message = f"^{name} must be an integer >= 1, got {d}$"
        with pytest.raises(ValueError, match=message):
            ch.congruence_sum_A(qf.Form(1, 0, 1), d1, d2, 1e4)

    @pytest.mark.parametrize("d1", [7, 9])
    def test_predicted_rejects_d_off_P(self, d1):
        # 7 is off P = 15, and 9 divides no squarefree P: neither has a density
        P = de.SievingModulus.from_int(15)
        with pytest.raises(ValueError, match=f"^d1 = {d1} and d2 = 1 must divide P = 15$"):
            ch.congruence_sum_predicted(qf.Form(1, 0, 1), d1, 1, 1e6, P)
        with pytest.raises(ValueError, match=f"^d1 = 1 and d2 = {d1} must divide P = 15$"):
            ch.congruence_sum_predicted(qf.Form(1, 0, 1), 1, d1, 1e6, P)


def ellipse_prime_points(f, x):
    """Every (u, v, n) with n = f(u, v) a prime <= x, by brute force over
    |u| <= sqrt(4cx/|D|) and |v| <= sqrt(4ax/|D|); f need not be reduced."""
    D = -f.discriminant
    ub = math.isqrt(4 * f.c * x // D) + 1
    vb = math.isqrt(4 * f.a * x // D) + 1
    points = ((u, v, f(u, v)) for u in range(-ub, ub + 1) for v in range(-vb, vb + 1))
    return [(u, v, n) for u, v, n in points if 1 <= n <= x and is_prime(n)]


class TestFormAsGiven:
    """The coordinate sums count the form they are given, not its reduced
    equivalent: the conditions on u and v move under a change of basis."""

    # not reduced: (1, 2, 7) ~ (1, 0, 6), (3, 5, 4) ~ (2, 1, 3) and
    # (6, 1, 1) ~ (1, 1, 6)
    CASES = [(qf.Form(1, 2, 7), 3), (qf.Form(3, 5, 4), 15), (qf.Form(6, 1, 1), 15)]
    X = 10**4

    def test_A_of_1_2_7(self):
        # (1, 0, 6) has no prime value with 3 | u, since 3 | 6 u'^2 + 6 v^2
        points = ellipse_prime_points(qf.Form(1, 2, 7), self.X)
        brute = sum(u % 3 == 0 for u, _, _ in points)
        assert ch.congruence_sum_A(qf.Form(1, 2, 7), 3, 1, self.X) == brute / 2 == 204.0

    @pytest.mark.parametrize("f, Pn", CASES, ids=["1_2_7", "3_5_4", "6_1_1"])
    def test_A_vs_bruteforce(self, f, Pn):
        points = ellipse_prime_points(f, self.X)
        for d1 in (1, 3, 5):
            for d2 in (1, 3, 5):
                brute = sum(u % d1 == 0 and v % d2 == 0 for u, v, _ in points)
                assert ch.congruence_sum_A(f, d1, d2, self.X) == brute / 2, (d1, d2)

    @pytest.mark.parametrize("f, Pn", CASES, ids=["1_2_7", "3_5_4", "6_1_1"])
    def test_experiment_vs_bruteforce(self, f, Pn):
        P = de.SievingModulus.from_int(Pn)
        brute = sum(
            1
            for u, v, n in ellipse_prime_points(f, self.X)
            if math.gcd(n, 2 * Pn) == 1 and math.gcd(u, Pn) == 1 and math.gcd(v, Pn) == 1
        )
        rep = ch.theorem15_experiment(f, P, self.X)
        assert rep.lhs * 2 == brute
        assert rep.config["form"] == list(f)
        assert rep.density == float(de.delta_f(f, P)) == 1 / 3

    @pytest.mark.parametrize("f, Pn", CASES, ids=["1_2_7", "3_5_4", "6_1_1"])
    def test_sieved_sum_vs_bruteforce(self, f, Pn):
        P = de.SievingModulus.from_int(Pn)
        full = beta_sieve_weights(
            SieveSpec(z=max(P.prime_factors) + 1.0, R=1e10, kind="upper", support=P.prime_factors)
        )
        brute = sum(
            brute_theta(full, u) * brute_theta(full, v)
            for u, v, n in ellipse_prime_points(f, self.X)
            if math.gcd(n, 2 * Pn) == 1
        )
        out = ch.sieved_sum_S(f, full, full, P, self.X)
        assert out["lattice_total"] == brute
        # full Moebius weights on both axes give the sifted count exactly
        assert out["S"] == ch.theorem15_experiment(f, P, self.X).lhs

    def test_predicted_density_of_1_2_7(self):
        # g'(3) = 1/(3 - (-24/3)) = 1/3 for (1, 2, 7); (1, 0, 6) has 3 | c,
        # so its g'(3) is 0
        P = de.SievingModulus.from_int(3)
        out = ch.congruence_sum_predicted(qf.Form(1, 2, 7), 3, 1, 1e6, P)
        assert out["density"] == Fraction(1, 3)
        assert out["value"] == Fraction(1, 3) * ch.main_term(1e6, 2)


class TestSievedSum:
    def test_orders_agree_and_bracket(self):
        f = qf.Form(1, 1, 6)
        P = de.SievingModulus.from_int(105)
        x = 3e4
        # R beyond 7^11 so the upper weights are full Moebius on {3,5,7}
        w_up = beta_sieve_weights(
            SieveSpec(z=8.0, R=1e10, kind="upper", support=P.prime_factors)
        )
        w_low = beta_sieve_weights(
            SieveSpec(z=8.0, R=50.0, kind="lower", support=P.prime_factors)
        )
        assert len(w_up.lam) == 8
        assert w_low.lam == {1: 1, 3: -1, 5: -1, 7: -1}
        up = ch.sieved_sum_S(f, w_up, w_up, P, x)  # internal exact equality
        low = ch.sieved_sum_S(f, w_low, w_low, P, x)
        sifted = ch.theorem15_experiment(f, P, x).lhs
        # full Moebius weights on both axes give the sifted count exactly
        assert up["S"] == sifted

    def test_order_disagreement_raises(self, monkeypatch):
        f = qf.Form(1, 1, 6)
        P = de.SievingModulus.from_int(105)
        w = beta_sieve_weights(
            SieveSpec(z=8.0, R=1e10, kind="upper", support=P.prime_factors)
        )
        lattice_sum = ch._lattice_sum

        def skewed(g, x, n_ok, w_u, w_v, workers=1):
            # the sum-of-A calls weigh u and v by the one-entry table
            return lattice_sum(g, x, n_ok, w_u, w_v, workers) + (len(w_u) == 1)

        # full Moebius on both axes: sum of mu(d1) mu(d2) over coprime pairs is -1
        monkeypatch.setattr(ch, "_lattice_sum", skewed)
        with pytest.raises(AssertionError, match=r"^evaluation orders disagree: "):
            ch.sieved_sum_S(f, w, w, P, 3e3)

    def test_support_mismatch_rejected(self):
        f = qf.Form(1, 1, 6)
        P = de.SievingModulus.from_int(15)
        w = beta_sieve_weights(
            SieveSpec(z=8.0, R=1e10, kind="upper", support=(3, 7))
        )
        assert 7 in w.lam
        with pytest.raises(ValueError):
            ch.sieved_sum_S(f, w, w, P, 1e3)


class TestResidueTables:
    # every table the kernel reads is theta = 1 * lambda, built by strides;
    # the definition reads theta off each residue's gcd with the modulus
    @pytest.mark.parametrize("m", [1, 2, 30, 60, 105, 210, 1155, 15015, 30030])
    def test_coprime_residues_by_gcd(self, m):
        expected = (np.gcd(np.arange(m), m) == 1).astype(np.int64)
        table = ch._coprime_residues(m)
        assert table.dtype == np.int64 and table.tolist() == expected.tolist()

    @pytest.mark.parametrize("Pn", [105, 1155, 15015])
    @pytest.mark.parametrize("kind", ["upper", "lower"])
    def test_theta_table_by_gcd(self, Pn, kind):
        P = de.SievingModulus.from_int(Pn)
        w = beta_sieve_weights(
            SieveSpec(z=P.z + 1, R=1e8, kind=kind, support=P.prime_factors)
        )
        assert 1 < len(w.lam) < 2 ** len(P.prime_factors)  # a truncated sieve
        g = np.gcd(np.arange(Pn), Pn).tolist()
        theta = theta_map(w, set(g))
        assert ch._theta_table(w.lam, Pn).tolist() == [theta[d] for d in g]

    BIG = [6469693230, 3234846615]  # 2 * 3 * ... * 29, and its odd part

    @pytest.mark.parametrize("Pn", BIG)
    def test_table_past_the_budget_rejected(self, Pn):
        P = de.SievingModulus.from_int(Pn)
        message = rf"^residue table mod m = {Pn} exceeds the budget of 2\^27 entries \(1 GiB\)$"
        with pytest.raises(ValueError, match=message):
            ch.theorem15_experiment(qf.Form(1, 0, 1), P, 1e5)
        w = beta_sieve_weights(SieveSpec(z=8.0, R=1e10, kind="upper", support=(3, 5, 7)))
        with pytest.raises(ValueError, match=rf"^residue table mod m = {2 * Pn} exceeds"):
            ch.sieved_sum_S(qf.Form(1, 0, 1), w, w, P, 1e5)
        # the density builds no table; 2 | P obstructs (1, 0, 1)
        assert de.delta_f(qf.Form(1, 0, 1), P) == (0 if Pn % 2 == 0 else Fraction(715, 8192))


@functools.lru_cache(maxsize=None)
def prime_points(f, x):
    """Every (u, v, n) with n = f(u, v) a prime <= x, by brute force."""
    bound = math.isqrt(int(4 * max(f.a, f.c) * x)) + 2
    return [
        (u, v, f(u, v))
        for u in range(-bound, bound + 1)
        for v in range(-bound, bound + 1)
        if 1 <= f(u, v) <= x and is_prime(f(u, v))
    ]


def brute_theta(w, n):
    return sum(l for d, l in w.lam.items() if n % d == 0)


class TestTablesVsBruteforce:
    # prime c (forms (2,1,3) and (4,3,5)) puts prime points on the row u = 0;
    # (1,1,1) and (2,0,3) represent 3, and the latter 2 and 5 too
    FORMS = [
        qf.Form(1, 0, 1),
        qf.Form(2, 1, 3),
        qf.Form(4, 3, 5),
        qf.Form(1, 1, 6),
        qf.Form(1, 1, 1),
        qf.Form(2, 0, 3),
    ]
    X = 1000

    # even moduli, a modulus without 7, and W = 210 with 11 and 13 left
    # to the gather
    MODULI = [7, 15, 105, 2, 14, 30, 210, 1155, 15015]

    @pytest.mark.parametrize("f", FORMS)
    @pytest.mark.parametrize("Pn", MODULI)
    def test_coprime_count(self, f, Pn):
        P = de.SievingModulus.from_int(Pn)
        brute = sum(
            1
            for u, v, n in prime_points(f, self.X)
            if math.gcd(n, 2 * Pn) == 1 and math.gcd(u, Pn) == 1 and math.gcd(v, Pn) == 1
        )
        rep = ch.theorem15_experiment(f, P, self.X)
        assert rep.lhs * qf.stab_order(f.discriminant) == brute

    @pytest.mark.parametrize("f", FORMS)
    @pytest.mark.parametrize("Pn", MODULI)
    def test_theta_weighted_sum(self, f, Pn):
        P = de.SievingModulus.from_int(Pn)
        z = max(P.prime_factors) + 1.0

        def weights(kind, R):
            return beta_sieve_weights(
                SieveSpec(z=z, R=R, kind=kind, support=P.prime_factors)
            )

        full, trunc, low = weights("upper", 1e10), weights("upper", 50.0), weights("lower", 50.0)
        for w1, w2 in ((full, low), (trunc, full), (low, trunc)):
            brute = sum(
                brute_theta(w1, u) * brute_theta(w2, v)
                for u, v, n in prime_points(f, self.X)
                if math.gcd(n, 2 * Pn) == 1
            )
            assert ch.sieved_sum_S(f, w1, w2, P, self.X)["lattice_total"] == brute

    def test_sifted_table(self, monkeypatch):
        # the table the kernel walks for (1,0,1), P = 15015: mod 210, the
        # wheel's points with u and v prime to 3, 5 and 7, 1/2 * 1/2 * 36/49
        # of them, and the same at (-u0, -v0); a plain count walks the
        # wheel mod 30
        f = qf.Form(1, 0, 1)
        one = np.ones(1, dtype=np.int64)
        walked = []

        def spy(*args, admissible=None):
            walked.append(admissible)
            return qf.represented_blocks(*args, admissible=admissible)

        monkeypatch.setattr(ch, "represented_blocks", spy)
        ch.theorem15_experiment(f, de.SievingModulus.from_int(15015), 1e4)
        table = walked[0]
        wheel = np.tile(ch._admissible(f, one, one), (7, 7))
        assert table.shape == (210, 210) and not (table & ~wheel).any()
        assert Fraction(int(table.sum()), int(wheel.sum())) == Fraction(9, 49)
        neg = -np.arange(210) % 210
        assert (table == table[np.ix_(neg, neg)]).all()
        walked.clear()
        ch.count_prime_points(f, 1e4)
        assert (walked[0] == ch._admissible(f, one, one)).all()

    def test_sifted_forked_pass(self, monkeypatch, capsys):
        # about 4.1M estimated points over the mod-210 table: two workers
        argv = ["experiment", "1", "0", "1", "--modulus", "15015", "--x", "5e7"]

        def lhs(*extra):
            assert cli.main([*argv, *extra]) == 0
            return json.loads(capsys.readouterr().out)["lhs"]

        serial = lhs()
        forks = []
        fork = ch.multiprocessing.get_context("fork")
        monkeypatch.setattr(ch, "_cpus", lambda: 2)
        monkeypatch.setattr(
            ch.multiprocessing, "get_context", lambda method: forks.append(method) or fork
        )
        assert lhs("--workers", "2") == serial
        assert forks == ["fork"]


class TestPrimeTableCache:
    @pytest.mark.parametrize("size", [6000, 10])
    def test_truncated_file_is_rebuilt(self, tmp_path, monkeypatch, size):
        limit = 10**5
        path = tmp_path / f"primes_{limit}.pche"
        primes_up_to(limit).save(path)
        path.write_bytes(path.read_bytes()[:size])
        monkeypatch.setenv("CDTLAB_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(ch, "_TABLE", None)
        with pytest.warns(UserWarning, match=f"rebuilding prime cache .*{path.name}"):
            table = ch.prime_table(limit)
        assert table.count() == 9592
        assert PrimeCache.load(path).count() == 9592
        assert [q.name for q in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("damage", ["flipped-byte", "version-1", "version-2"])
    def test_damaged_or_old_file_is_rebuilt(self, tmp_path, monkeypatch, damage):
        limit = 10**5
        path = tmp_path / f"primes_{limit}.pche"
        table = primes_up_to(limit)
        reason = "corrupt prime cache"
        if damage == "flipped-byte":
            table.save(path)
            data = bytearray(path.read_bytes())
            data[5000] ^= 0x10
            path.write_bytes(bytes(data))
        else:
            # versions 1 and 2 held one bit per integer 0..limit, LSB-first;
            # version 2 added the CRC-32 of the limit's 8 bytes and the bits
            flags = np.zeros(limit + 1, dtype=bool)
            flags[table.primes()] = True
            packed = np.packbits(flags, bitorder="little").tobytes()
            if damage == "version-1":
                header = struct.pack("<IQ", 1, limit)
            else:
                crc = zlib.crc32(packed, zlib.crc32(struct.pack("<Q", limit)))
                header = struct.pack("<IQI", 2, limit, crc)
            path.write_bytes(b"PCHE" + header + packed)
            reason = f"unsupported prime cache version {damage[-1]}"
        monkeypatch.setenv("CDTLAB_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(ch, "_TABLE", None)
        with pytest.warns(UserWarning, match=f"rebuilding prime cache .*{path.name}: {reason}"):
            assert ch.prime_table(limit).count() == 9592
        assert PrimeCache.load(path).count() == 9592

    def test_larger_file_is_reused(self, tmp_path, monkeypatch):
        primes_up_to(10**5).save(tmp_path / "primes_100000.pche")
        primes_up_to(10**6).save(tmp_path / "primes_1000000.pche")
        (tmp_path / "primes_20000.pche").write_bytes(b"too small to be read")
        before = {q.name: q.stat().st_mtime_ns for q in tmp_path.iterdir()}
        monkeypatch.setenv("CDTLAB_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(ch, "_TABLE", None)

        def no_sieve(*args, **kwargs):
            raise AssertionError("the cached table should have been loaded")

        monkeypatch.setattr(ch, "primes_up_to", no_sieve)
        table = ch.prime_table(5 * 10**4)
        assert table.limit == 10**5 and table.count() == 9592
        assert {q.name: q.stat().st_mtime_ns for q in tmp_path.iterdir()} == before

    def test_damaged_larger_file_is_rebuilt_at_its_limit(self, tmp_path, monkeypatch):
        path = tmp_path / "primes_100000.pche"
        primes_up_to(10**5).save(path)
        path.write_bytes(path.read_bytes()[:6000])
        monkeypatch.setenv("CDTLAB_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(ch, "_TABLE", None)
        with pytest.warns(UserWarning, match=f"rebuilding prime cache .*{path.name}"):
            assert ch.prime_table(5 * 10**4).limit == 10**5
        assert PrimeCache.load(path).count() == 9592
        assert [q.name for q in tmp_path.iterdir()] == [path.name]


class TestExperiment:
    def test_plain(self):
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(15)
        rep = ch.theorem15_experiment(f, P, 1e6)
        assert not rep.obstructed
        assert rep.rel_error < 0.02
        assert rep.passed
        assert asdict(rep)["config"]["P"] == 15

    def test_obstructed(self):
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(2 * 3 * 5)
        rep = ch.theorem15_experiment(f, P, 1e5)
        assert rep.obstructed and rep.trivially_true and rep.passed
        assert rep.lhs == 0.0

    def test_budget(self):
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(15)
        rep = ch.theorem15_experiment(f, P, 1e5, model=ErrorModel(D_K=4.0))
        assert rep.budget is not None and rep.budget > 0

    def test_density_and_flags(self):
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(15)
        rep = ch.theorem15_experiment(f, P, 1e5)
        assert rep.density == float(de.delta_f(f, P)) == 0.25  # (1 - 2/4)^2
        assert not rep.trivially_true
        assert rep.rhs == rep.density * li(1e5)
        # h = 3: dens * (Li/h), not (dens * Li)/h, which is 1 ulp off here
        rep = ch.theorem15_experiment(qf.Form(1, 1, 6), P, 1e5)
        assert rep.rhs == rep.density * ch.main_term(1e5, 3) == 1069.8626485856316

    def test_vanishing_density_without_obstruction(self):
        # (4, 3, 5), D = -71 = 1 (mod 3): 3 splits and divides neither a nor
        # c, so g'(3) + g''(3) = 1 although P is odd
        f = qf.Form(4, 3, 5)
        P = de.SievingModulus.from_int(3)
        rep = ch.theorem15_experiment(f, P, 1e5)
        assert not rep.obstructed
        assert rep.density == 0.0 and rep.rhs == 0.0 and rep.rel_error is None
        assert rep.lhs == 0.0 and rep.trivially_true and rep.passed

    @pytest.mark.parametrize("x", [2, 1.5])
    def test_x_at_most_two_rejected(self, x):
        # Li(2) = 0, and every report divides by Li(x) through main_term
        message = f"^x must exceed 2, since Li\\(2\\) = 0; got x = {x}$"
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(15)
        with pytest.raises(ValueError, match=message):
            ch.theorem15_experiment(f, P, x)
        with pytest.raises(ValueError, match=message):
            ch.equidistribution_report(-4, x)
        with pytest.raises(ValueError, match=message):
            ch.congruence_sum_predicted(f, 3, 5, x, P)
        with pytest.raises(ValueError, match=message):
            ch.main_term(x, 1)
