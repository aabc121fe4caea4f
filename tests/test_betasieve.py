import dataclasses
import math
import random
from fractions import Fraction

import pytest

from cdtlab import betasieve as bs
from cdtlab.arith import mobius


def random_instance(rng):
    support = tuple(sorted(rng.sample([2, 3, 5, 7, 11, 13, 17], rng.randrange(2, 6))))
    g1 = {p: Fraction(1, rng.randrange(3, 12)) for p in support}
    g2 = {p: Fraction(1, rng.randrange(3, 12)) for p in support}
    dens = bs.DensityPair(g1, g2)
    z = max(support) + 0.5
    R = z ** rng.uniform(1.2, 4.5)
    w1 = bs.beta_sieve_weights(
        bs.SieveSpec(z=z, R=R, kind=rng.choice(["upper", "lower"]), support=support)
    )
    w2 = bs.beta_sieve_weights(
        bs.SieveSpec(z=z, R=R, kind=rng.choice(["upper", "lower"]), support=support)
    )
    return w1, w2, dens


class TestSpec:
    def test_beta_default(self):
        spec = bs.SieveSpec(z=10.0, R=1e4, kind="upper", kappa=2.0)
        assert spec.beta == 19.0
        assert spec.s == pytest.approx(4.0)

    def test_rejects(self):
        with pytest.raises(ValueError):
            bs.SieveSpec(z=10.0, R=1e4, kind="sideways")
        with pytest.raises(ValueError):
            bs.SieveSpec(z=100.0, R=10.0, kind="upper")
        with pytest.raises(ValueError):
            bs.SieveSpec(z=5.0, R=100.0, kind="upper", support=(2, 3, 7))

    @pytest.mark.parametrize("n", [1, 4, 6, 9])
    def test_rejects_non_prime_support(self, n):
        with pytest.raises(ValueError, match=f"^support entry {n} is not a prime$"):
            bs.SieveSpec(z=10.0, R=1e4, kind="upper", support=(3, n))

    def test_rejects_repeated_support_prime(self):
        # a repeated 3 would give the non-squarefree 9 a weight
        message = r"^support primes must be distinct, got \(3, 3, 5\)$"
        with pytest.raises(ValueError, match=message):
            bs.SieveSpec(z=8.0, R=1e10, kind="upper", support=(3, 3, 5))

    @pytest.mark.parametrize("z", [1.0, 0.5, -2.0])
    def test_rejects_z_at_most_one(self, z):
        # log z <= 0 would make s = log R / log z meaningless
        with pytest.raises(ValueError, match=f"^sifting level z must exceed 1, got {z}$"):
            bs.SieveSpec(z=z, R=1e4, kind="upper")

    @pytest.mark.parametrize("R", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_R(self, R):
        # an infinite R gives s = inf, which JSON cannot carry
        with pytest.raises(ValueError, match=f"^level R must be a finite number, got {R}$"):
            bs.SieveSpec(z=8.0, R=R, kind="upper", support=(3,))

    def test_rejects_kappa_past_float_range(self):
        # beta = 9 kappa + 1 would be inf, which JSON cannot carry
        message = r"^kappa = 1e\+308 puts 9 kappa \+ 1 past the float range$"
        with pytest.raises(ValueError, match=message):
            bs.SieveSpec(z=8.0, R=1e10, kind="upper", kappa=1e308, support=(3,))


class TestWeights:
    @pytest.mark.parametrize(
        "kind, lam",
        [("upper", {1: 1}), ("lower", {1: 1, 3: -1, 5: -1, 7: -1})],
    )
    def test_power_past_float_range_truncates(self, kind, lam):
        # p^(beta + 1) is past the float range at kappa = 200, so above R:
        # the truncation binds at the first prime it tests, as at kappa = 40
        for kappa in (40.0, 200.0):
            spec = bs.SieveSpec(z=8.0, R=1e10, kind=kind, kappa=kappa, support=(3, 5, 7))
            assert bs.beta_sieve_weights(spec).lam == lam

    def test_lambda_is_mobius(self):
        spec = bs.SieveSpec(z=20.0, R=1e6, kind="upper", support=(2, 3, 5, 7, 11, 13, 17, 19))
        w = bs.beta_sieve_weights(spec)
        for d, lam in w.lam.items():
            assert lam == mobius(d)
            assert d < spec.R

    def test_untruncated_equals_full_mobius(self):
        # R beyond p_max^(beta+1), so every squarefree product survives
        support = (2, 3, 5, 7)
        spec = bs.SieveSpec(z=8.0, R=1e11, kind="upper", support=support)
        w = bs.beta_sieve_weights(spec)
        assert len(w.lam) == 2 ** len(support)

    def test_theta_bounding_property(self):
        # upper: theta_n >= [gcd(n, P) = 1]; lower: theta_n <= [gcd(n, P) = 1]
        support = (2, 3, 5, 7, 11)
        P = 2 * 3 * 5 * 7 * 11
        for kind, cmp in (("upper", lambda t, i: t >= i), ("lower", lambda t, i: t <= i)):
            for R in (20.0, 100.0, 1000.0):
                spec = bs.SieveSpec(z=12.0, R=R, kind=kind, support=support)
                w = bs.beta_sieve_weights(spec)
                theta = bs.theta_map(w, range(1, 2001))
                for n in range(1, 2001):
                    assert cmp(theta[n], int(math.gcd(n, P) == 1)), (kind, R, n)


class TestCompositionIdentity:
    def test_exact_on_100_random_instances(self):
        rng = random.Random(20260824)
        for _ in range(100):
            w1, w2, dens = random_instance(rng)
            lhs = bs.reduced_composition(w1, w2, dens)
            rhs = bs.invert_composition(w1, w2, dens)
            assert lhs == rhs  # exact rational identity

    def test_density_invariants(self):
        with pytest.raises(ValueError):
            bs.DensityPair({3: Fraction(2, 3)}, {3: Fraction(1, 3)})


class TestTilde:
    def test_pointwise_relations(self):
        dens = bs.DensityPair(
            {3: Fraction(1, 4), 5: Fraction(1, 6)},
            {3: Fraction(1, 5), 5: Fraction(1, 6)},
        )
        h1, h2, g1, g2 = bs.tilde_transforms(dens)
        assert h1[3] == Fraction(1, 4) / (1 - Fraction(1, 4) - Fraction(1, 5))
        assert g1[3] == Fraction(1, 4) / (1 - Fraction(1, 5))
        for p in (3, 5):
            assert h1[p] == g1[p] / (1 - g1[p])
            assert h2[p] == g2[p] / (1 - g2[p])


class TestCompositionBounds:
    def make(self, kind1, kind2):
        support = (2, 3, 5, 7, 11, 13)
        g1 = {p: Fraction(1, p + 1) for p in support}
        g2 = {p: Fraction(1, p + 2) for p in support}
        dens = bs.DensityPair(g1, g2)
        z = 14.0
        R = z**27  # s = 27 > 9*kappa + 1 + 10*log(K) for K = 5
        spec1 = bs.SieveSpec(z=z, R=R, kind=kind1, support=support, K_const=5.0)
        spec2 = bs.SieveSpec(z=z, R=R, kind=kind2, support=support, K_const=5.0)
        return spec1, spec2, dens

    def test_upper_upper(self):
        spec1, spec2, dens = self.make("upper", "upper")
        rep = bs.composition_bounds_check(spec1, spec2, dens)
        assert rep.ok
        assert rep.upper_bound is not None
        assert float(rep.G) <= rep.upper_bound

    def test_lower_upper(self):
        spec1, spec2, dens = self.make("lower", "upper")
        rep = bs.composition_bounds_check(spec1, spec2, dens)
        assert rep.ok
        assert rep.lower_bound is not None
        assert float(rep.G) >= rep.lower_bound

    def test_fundamental_sums_bracket_one(self):
        spec1, spec2, dens = self.make("lower", "upper")
        rep = bs.composition_bounds_check(spec1, spec2, dens)
        err = math.exp(9 * rep.kappa - rep.s) * rep.K_const**10
        assert float(rep.fundamental_sums["theta1_h1"]) >= 1 - err
        assert float(rep.fundamental_sums["theta2_h2"]) <= 1 + err

    def test_hypothesis_violation_raises(self):
        support = (2, 3, 5)
        dens = bs.DensityPair(
            {p: Fraction(1, p + 1) for p in support},
            {p: Fraction(1, p + 2) for p in support},
        )
        spec = bs.SieveSpec(z=6.0, R=6.0**3, kind="upper", support=support)
        with pytest.raises(ValueError):
            bs.composition_bounds_check(spec, spec, dens)

    @pytest.mark.parametrize(
        "g1, g2",
        [
            (Fraction(1, 3), Fraction(1, 3)),  # h~ = 1: the factor divided by zero
            (Fraction(2, 5), Fraction(1, 4)),  # h~' = 8/7: the factor was negative
            (Fraction(1, 4), Fraction(2, 5)),  # h~'' = 8/7
        ],
        ids=["h_one", "h1_above_one", "h2_above_one"],
    )
    def test_tilde_density_at_least_one_rejected(self, g1, g2):
        spec = bs.SieveSpec(z=4, R=4**30, kind="upper", support=(3,), K_const=3.0)
        dens = bs.DensityPair({3: g1}, {3: g2})
        with pytest.raises(ValueError, match=r"^h~\(p\) >= 1 at p = 3: "):
            bs.composition_bounds_check(spec, spec, dens)

    @staticmethod
    def mixed_supports(K):
        # g', g'' on the larger support; the smaller one leaves 7, 11, 13 out
        small, big = (2, 3, 5), (2, 3, 5, 7, 11, 13)
        dens = bs.DensityPair(
            {p: Fraction(1, p + 1) for p in big}, {p: Fraction(1, p + 2) for p in big}
        )
        z = 14.0
        spec_small, spec_big = (
            bs.SieveSpec(z=z, R=z**27, kind="upper", support=s, K_const=K)
            for s in (small, big)
        )
        return spec_small, spec_big, dens

    def test_dimension_condition_over_both_supports(self):
        # the theorem sifts both sieves by one set of primes
        spec_small, spec_big, dens = self.mixed_supports(5.0)
        for pair in ((spec_small, spec_big), (spec_big, spec_small)):
            with pytest.raises(ValueError, match=r"^both sieves must share one support: "):
                bs.composition_bounds_check(*pair, dens)
        rep = bs.composition_bounds_check(spec_big, spec_big, dens)
        assert rep.smallest_K == 4.593333995895476
        _, spec_big, dens = self.mixed_supports(4.0)
        with pytest.raises(ValueError, match=r"^sieve dimension condition fails for K = 4\.0"):
            bs.composition_bounds_check(spec_big, spec_big, dens)

    @pytest.mark.parametrize("field", ["z", "R"])
    def test_z_and_R_shared(self, field):
        spec1, spec2, dens = self.make("upper", "upper")
        spec2 = dataclasses.replace(spec2, **{field: getattr(spec2, field) * 1.5})
        for pair in ((spec1, spec2), (spec2, spec1)):
            with pytest.raises(ValueError, match=r"^both sieves must share z and R$"):
                bs.composition_bounds_check(*pair, dens)

    def test_unsupported_kinds_rejected_first(self, monkeypatch):
        spec1, spec2, dens = self.make("upper", "lower")

        def unreachable(spec):
            raise AssertionError("weights built before the kind check")

        monkeypatch.setattr(bs, "beta_sieve_weights", unreachable)
        match = r"^unsupported kind combination \('upper', 'lower'\)$"
        with pytest.raises(ValueError, match=match):
            bs.composition_bounds_check(spec1, spec2, dens)

    def test_report_json(self):
        spec1, spec2, dens = self.make("upper", "upper")
        rep = bs.composition_bounds_check(spec1, spec2, dens)
        assert rep.ok is True
        assert rep.s == pytest.approx(27.0)
