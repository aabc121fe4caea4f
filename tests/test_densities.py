from fractions import Fraction

import pytest

from cdtlab import densities as de
from cdtlab import quadforms as qf
from cdtlab.arith import kronecker


class TestSievingModulus:
    def test_from_int(self):
        P = de.SievingModulus.from_int(15015)
        assert P.P == 15015
        assert P.prime_factors == (3, 5, 7, 11, 13)
        assert P.z == 13.0

    def test_radical_warning(self):
        with pytest.warns(UserWarning):
            P = de.SievingModulus.from_int(12)
        assert P.P == 6


class TestLocalDensities:
    def test_off_support(self):
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(15)
        assert de.g_prime(7, f, P) == 0
        assert de.g_dprime(7, f, P) == 0

    def test_coefficient_vanishing(self):
        # p | c kills g', p | a kills g''
        f = qf.Form(3, 1, 5)  # D = -59
        P = de.SievingModulus.from_int(15)
        assert de.g_prime(5, f, P) == 0
        assert de.g_dprime(3, f, P) == 0
        assert de.g_dprime(5, f, P) == Fraction(1, 5 - 1)  # (-59/5) = 1

    def test_principal_gauss_form(self):
        # f = u^2 + v^2, D = -4: (D/3) = -1, (D/5) = 1
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(15)
        assert de.g_prime(3, f, P) == Fraction(1, 4)
        assert de.g_prime(5, f, P) == Fraction(1, 4)
        assert de.g_prime(3, f, P) == de.g_dprime(3, f, P)

    def test_dprime_vs_formula(self):
        # g''(p) = 1/(p - (D/p)) when p | P and p does not divide a, else 0
        moduli = [de.SievingModulus.from_int(n) for n in (1, 2, 15, 30, 77, 15015, 30030)]
        for D in range(-3, -400, -1):
            if D % 4 not in (0, 1):
                continue
            for f in qf.class_representatives(D).representatives:
                for P in moduli:
                    for p in (2, 3, 5, 7, 11, 13, 17):
                        on = p in P.prime_factors and f.a % p
                        expected = Fraction(1, p - kronecker(D, p)) if on else 0
                        assert de.g_dprime(p, f, P) == expected, (tuple(f), P.P, p)


class TestDelta:
    def test_hand_value(self):
        # p = 3,5,7,11,13 with D = -4: factors 1/2, 1/2, 3/4, 5/6, 5/6
        f = qf.Form(1, 0, 1)
        P = de.SievingModulus.from_int(15015)
        assert de.delta_f(f, P) == Fraction(25, 192)

    def test_divisible_coefficient(self):
        # 3 | a: only the g' factor at 3 survives removal
        f = qf.Form(3, 2, 5)
        P = de.SievingModulus.from_int(3)
        D = f.discriminant  # -56
        from cdtlab.arith import kronecker

        assert de.delta_f(f, P) == 1 - Fraction(1, 3 - kronecker(D, 3))

    def test_nonnegative_many(self):
        P = de.SievingModulus.from_int(2 * 3 * 5 * 7)
        for D in (-23, -4, -8, -20, -84):
            for f in qf.class_representatives(D).representatives:
                assert de.delta_f(f, P) >= 0

    def test_requires_primitive(self):
        with pytest.raises(ValueError):
            de.delta_f(qf.Form(2, 0, 2), de.SievingModulus.from_int(3))


class TestObstruction:
    def test_odd_modulus_never(self):
        P = de.SievingModulus.from_int(105)
        for f in qf.class_representatives(-23).representatives:
            assert not de.represents_odd_primes_obstructed(f, P)

    def test_one_mod_eight(self):
        P = de.SievingModulus.from_int(2 * 3)
        # D = -23 = 1 mod 8; (1,1,6) has even a+b+c, (2,1,3) too
        assert de.represents_odd_primes_obstructed(qf.Form(1, 1, 6), P)
        assert de.represents_odd_primes_obstructed(qf.Form(2, 1, 3), P)
        # D = -15 = 1 mod 8; (2,1,2) has a+b+c odd
        assert not de.represents_odd_primes_obstructed(qf.Form(2, 1, 2), P)

    def test_even_discriminant(self):
        P = de.SievingModulus.from_int(2 * 3)
        assert de.represents_odd_primes_obstructed(qf.Form(1, 0, 1), P)  # a, c odd
        assert not de.represents_odd_primes_obstructed(qf.Form(1, 0, 2), P)

    def test_obstruction_forces_zero_density(self):
        P = de.SievingModulus.from_int(2 * 3 * 5)
        for D in (-23, -4, -8, -20):
            for f in qf.class_representatives(D).representatives:
                if de.represents_odd_primes_obstructed(f, P):
                    assert de.g_prime(2, f, P) + de.g_dprime(2, f, P) == 1
                    assert de.delta_f(f, P) == 0

    def test_obstruction_exactly_when_densities_fill_two(self):
        # the converse of the casework: every reduced form with |D| < 2000
        moduli = [de.SievingModulus.from_int(n) for n in (2, 3, 6, 30, 105, 210)]
        cases = 0
        for D in range(-3, -2000, -1):
            if D % 4 not in (0, 1):
                continue
            for f in qf.class_representatives(D).representatives:
                for P in moduli:
                    full = de.g_prime(2, f, P) + de.g_dprime(2, f, P) == 1
                    assert de.represents_odd_primes_obstructed(f, P) == (
                        2 in P.prime_factors and full
                    ), (f, P.P)
                    cases += 1
        assert cases == 76074

    def test_obstruction_matches_bruteforce(self):
        # no odd prime coprime to P arises with both coordinates odd
        P = de.SievingModulus.from_int(2 * 3 * 5)
        from cdtlab.arith import is_prime

        for D in (-23, -4, -8):
            for f in qf.class_representatives(D).representatives:
                found = False
                for u in range(-60, 61):
                    for v in range(-60, 61):
                        if u % 2 == 0 or v % 2 == 0:
                            continue
                        n = f(u, v)
                        if n % 2 and n % 3 and n % 5 and is_prime(n):
                            found = True
                if de.represents_odd_primes_obstructed(f, P):
                    assert not found
