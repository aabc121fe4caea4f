import math
import re
from dataclasses import replace

import numpy as np
import pytest

from cdtlab import errorterms as et


def model_with_Q(Q: float, n_K: int, **kw) -> et.ErrorModel:
    # Q = D_K * Qcal * n_K^n_K; steer D_K to hit the requested Q
    return et.ErrorModel(D_K=Q / n_K**n_K, n_K=n_K, Qcal=1.0, **kw)


class TestModel:
    def test_Q(self):
        m = et.ErrorModel(D_K=23.0, Qcal=2.0, n_K=2)
        assert m.Q == pytest.approx(23 * 2 * 4)

    def test_zero_validation(self):
        for beta1, theta1, message in (
            (0.9, 0, "theta1 = 0 exactly when beta1 is absent"),
            (None, 1, "theta1 = 0 exactly when beta1 is absent"),
            (0.4, 1, "beta1 must lie in (1/2, 1)"),
            (0.9, 2, "theta1 must be -1, 0 or +1"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                et.ErrorModel(beta1=beta1, theta1=theta1)

    def test_zero_fields(self):
        m = et.ErrorModel(beta1=0.99, theta1=-1)
        assert (m.beta1, m.theta1) == (0.99, -1)
        assert replace(m, beta1=None, theta1=0) == et.ErrorModel()


class TestWidths:
    def test_delta_zfr_decreasing(self):
        m = model_with_Q(1e3, 2)
        vals = [et.delta_zfr(t, m) for t in (3, 10, 100, 1e6)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError):
            et.delta_zfr(2.0, m)

    def test_repulsion(self):
        m = model_with_Q(1e3, 2, beta1=1 - 1e-6, theta1=1)
        t = 10.0
        logQt = m.log_Q + 2 * math.log(t)
        expect = min(0.5, math.log(1 / (1e-6 * logQt)) / logQt)
        assert et.delta_repulsion(t, m) == pytest.approx(expect)
        # wide zero: no repulsion gain
        m2 = model_with_Q(1e3, 2, beta1=0.51, theta1=1)
        assert et.delta_repulsion(1e6, m2) == 0.0

    def test_repulsion_needs_a_zero(self):
        with pytest.raises(et.ConfigurationError, match="requires an exceptional zero"):
            et.delta_repulsion(10.0, model_with_Q(1e3, 2))

    def test_combined(self):
        m = model_with_Q(1e3, 2, beta1=1 - 1e-9, theta1=1)
        assert et.combined_delta(10.0, m) >= et.delta_zfr(10.0, m)


class TestFactors:
    def test_B1(self):
        m = model_with_Q(1e3, 2)
        assert et.B1(100.0, m) == 1.0
        m = replace(m, beta1=1 - 1e-6, theta1=1)
        assert et.B1(3.0, m) == pytest.approx(1e-6 * (m.log_Q + 2 * math.log(3.0)))
        # a wide zero saturates the minimum at 1
        wide = model_with_Q(1e3, 2, beta1=0.6, theta1=1)
        assert et.B1(100.0, wide) == 1.0

    def test_nu1(self):
        m = model_with_Q(1e3, 2)
        assert et.nu1(m) == 1.0
        m = replace(m, beta1=0.999, theta1=1)
        assert et.nu1(m) == pytest.approx(0.001 * m.log_Q)

    def test_lambda1_via_nu1(self):
        # lambda1 = (1 - beta1) log Q, here with log Q = 10
        lam = et.ErrorModel(D_K=math.e**10 / 4, beta1=0.999, theta1=-1)
        assert et.nu1(lam) == pytest.approx(0.01)

    def test_stark_floor_warns(self):
        m = model_with_Q(1e3, 2)
        assert et.stark_floor(m) == pytest.approx(1e-6)
        bad = replace(m, beta1=1 - 1e-9, theta1=1)  # lambda1 ~ 7e-9 < 1e-6
        with pytest.warns(UserWarning):
            et.stark_floor(bad)


class TestEta:
    def test_brute_grid_oracle(self):
        m = model_with_Q(1e4, 2)
        for x in (1e3, 1e8, 1e20):
            logx = math.log(x)
            oracle = min(
                et.delta_zfr(t, m) * logx + math.log(t)
                for t in [3.0 * 1.01**k for k in range(4000)]
            )
            assert et.eta(x, m) <= oracle + 1e-9

    @pytest.mark.parametrize("x, c_ZFR", [(1e12, 1000.0), (1e300, 50.0)])
    def test_grid_past_float_range(self, x, c_ZFR):
        # the grid's t reaches e^1175 and e^1314, past the float range
        m = et.ErrorModel(c_ZFR=c_ZFR)
        logx = math.log(x)
        u = np.linspace(math.log(3.0), 1500.0, 400_001)  # u = log t
        grid = float(np.min(c_ZFR / (m.log_Q + m.n_K * u) * logx + u))
        assert et.eta(x, m) == pytest.approx(grid, rel=1e-9)

    def test_positive_and_growing(self):
        m = model_with_Q(1e3, 2)
        vals = [et.eta(x, m) for x in (1e2, 1e6, 1e12, 1e24)]
        assert all(v > 0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestClosedForms:
    @pytest.mark.parametrize("Q,n_K", [(1e3, 2), (1e6, 2), (1e4, 8)])
    def test_classical_dominates_eta(self, Q, n_K):
        m = model_with_Q(Q, n_K)
        for x in (1e4, 1e8, 1e16, 1e40, 1e100):
            assert math.exp(-et.eta(x, m)) <= et.classical_error(x, m) * (1 + 1e-9)

    def test_thm11_range(self):
        m = model_with_Q(1e3, 2, c_1=4.0)
        with pytest.raises(et.ConfigurationError):
            et.thm11_error(1e10, m)
        a, b = et.thm11_error(1e13, m), et.thm11_error(1e40, m)
        assert a > b > 0
        # weaker constants than the one-shot classical bound
        assert a >= et.classical_error(1e13, m)

    def test_siegel_regimes(self):
        # small Q keeps the regime threshold Q^(-20/n_K) above machine
        # precision and x >= Q^36 representable
        m = model_with_Q(30.0, 2)
        x = 1e60
        # lambda1 above the threshold Q^(-10): regime 2
        m2 = replace(m, beta1=1 - 0.001 / m.log_Q, theta1=1)
        out2 = et.siegel_error(x, m2)
        assert out2["regime"] == 2
        assert out2["selected"] == out2["value_regime2"]
        # lambda1 below the threshold: regime 3
        beta_tiny = 1 - 4.5e-16
        m3 = replace(m, beta1=beta_tiny, theta1=1)
        assert et.nu1(m3) < out2["threshold"]
        out3 = et.siegel_error(x, m3)
        assert out3["regime"] == 3
        assert out3["selected"] == out3["value_regime3"]
        for out in (out2, out3):
            assert out["smallest_C"] >= 0
            assert out["selected"] > 0

    def test_siegel_hypotheses(self):
        m = model_with_Q(1e3, 2)
        with pytest.raises(et.ConfigurationError):
            et.siegel_error(1e40, m)  # no data
        big = replace(m, beta1=0.9, theta1=1)  # lambda1 too large
        with pytest.raises(et.ConfigurationError):
            et.siegel_error(1e40, big)
        small_x = replace(m, beta1=1 - 0.001 / m.log_Q, theta1=1)
        # Q = 1e3 > x^(1/36)
        with pytest.raises(et.ConfigurationError, match=r"^siegel_error requires x >= Q\^36\.0$"):
            et.siegel_error(1e40, small_x)


class TestMainTermFloor:
    def make(self, **kw):
        return model_with_Q(1e3, 2, c_ZDE=1, **kw)

    def test_three_cases(self):
        m = self.make()
        x = m.Q**40
        # no exceptional zero
        out = et.main_term_floor(x, m)
        assert out["case"] == "no_zero" and out["actual"] == x
        # actual = case bound = floor = x
        assert out["implied_constant"] == out["floor_constant"] == 1.0
        # theta1 = +1, lambda(x) < 1: tight case, implied constant near 1
        m1 = replace(m, beta1=1 - 0.01 / math.log(x), theta1=1)
        out1 = et.main_term_floor(x, m1)
        assert out1["case"] == "small_lambda"
        assert 0.5 <= out1["implied_constant"] <= 2.0
        assert out1["floor"] == pytest.approx(et.nu1(m1) * x)
        # theta1 = +1, lambda(x) >= 1
        m2 = replace(m, beta1=1 - 2.0 / math.log(x), theta1=1)
        out2 = et.main_term_floor(x, m2)
        assert out2["case"] == "large_lambda"
        assert out2["implied_constant"] >= 1.0
        # theta1 = -1: main term enlarged beyond x
        m3 = replace(m, beta1=1 - 0.5 / math.log(x), theta1=-1)
        out3 = et.main_term_floor(x, m3)
        assert out3["case"] == "negative_theta1"
        assert out3["actual"] > x
        assert out3["implied_constant"] >= 1.0

    def test_range(self):
        m = self.make()
        with pytest.raises(et.ConfigurationError):
            et.main_term_floor(1e10, m)

    def test_range_past_float(self):
        # Q^(36 c_ZDE) = 12^360 is no float: it lies above every float x
        with pytest.raises(et.ConfigurationError, match=r"^main_term_floor requires x >= Q\^360$"):
            et.main_term_floor(1e300, et.ErrorModel())


# each function with the name of its real argument and a call putting v there
REAL_ARGUMENT = {
    "delta_zfr": ("t", et.delta_zfr),
    "delta_repulsion": ("t", et.delta_repulsion),
    "combined_delta": ("t", et.combined_delta),
    "B1": ("T", et.B1),
    "eta": ("x", et.eta),
    "classical_error": ("x", et.classical_error),
    "thm11_error": ("x", et.thm11_error),
    "siegel_error": ("x", et.siegel_error),
    "main_term_floor": ("x", et.main_term_floor),
    "remainder_eps": ("x", lambda v, m: et.remainder_eps(1, v, m)),
    "remainder_R": ("x", lambda v, m: et.remainder_R(v, 1.0, 30, m)),
    "level_of_distribution": ("z", et.level_of_distribution),
}

# the explicit constants of ErrorModel: each must be a finite number > 0
CONSTANTS = ["c_ZFR", "c_DH", "c_Stark", "vartheta", "eta_thm", "c_1", "c_SZ_err",
             "c_SZ_size", "c_SZ_lambda"]


class TestDomain:
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("function", sorted(REAL_ARGUMENT))
    def test_non_finite_argument_rejected(self, function, v):
        # an exceptional zero small enough for the Siegel regimes
        m = model_with_Q(30.0, 2, beta1=1 - 0.001 / math.log(30.0), theta1=1)
        name, call = REAL_ARGUMENT[function]
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {v}$"):
            call(v, m)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_level_rejected(self, R):
        with pytest.raises(ValueError, match=f"^R must be a finite number, got {R}$"):
            et.remainder_R(1e10, R, 30, model_with_Q(1e3, 2))

    def test_negative_level_rejected(self):
        # d < R^2 read R = -3 as 3 (0.0544...)
        with pytest.raises(ValueError, match=r"^R must be >= 0, got -3.0$"):
            et.remainder_R(1e10, -3.0, 30, et.ErrorModel())
        assert et.remainder_R(1e10, 0.0, 30, et.ErrorModel()) == 0.0

    @pytest.mark.parametrize("v", [math.nan, math.inf, 0.0, -1.0], ids=str)
    @pytest.mark.parametrize("field", CONSTANTS)
    def test_constant_rejected(self, field, v):
        rule = "be > 0" if math.isfinite(v) else "be a finite number"
        message = f"{field} must {rule}, got {v}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            et.ErrorModel(**{field: v})

    @pytest.mark.parametrize(
        "D_K, n_K", [(1e308, 2), (1.0, 200)], ids=["float-product", "int-power"]
    )
    def test_Q_past_float_range_rejected(self, D_K, n_K):
        with pytest.raises(ValueError, match="^Q must be a finite number, got inf$"):
            et.ErrorModel(D_K=D_K, n_K=n_K, Qcal=10.0)


class TestRemainders:
    def test_eps_shape(self):
        m = model_with_Q(1e3, 2, vartheta=0.5)
        x = 1e12
        v = et.remainder_eps(1, x, m)
        logx = math.log(x)
        log_dD = math.log(m.D_K)
        assert v == pytest.approx(
            math.exp(-0.5 * logx / log_dD) + math.exp(-math.sqrt(0.5 * logx))
        )
        # larger modulus weakens the first factor
        assert et.remainder_eps(10**6, x, m) > v

    def test_remainder_R_hand_sum(self):
        from cdtlab.arith import divisors, euler_phi, tau

        m = model_with_Q(1e3, 2)
        x, R, P = 1e10, 4.0, 30
        hand = sum(
            tau(d) / euler_phi(d) * et.remainder_eps(d, x, m)
            for d in divisors(P)
            if d < R * R
        )
        assert et.remainder_R(x, R, P, m) == pytest.approx(hand)

    def test_level_of_distribution(self):
        m = model_with_Q(1e3, 2, eta_thm=1.0)
        z = 100.0
        assert et.level_of_distribution(z, m) == pytest.approx(
            z ** math.log(math.log(z))
        )
        m4 = model_with_Q(1e3, 2, eta_thm=4.0)
        assert et.level_of_distribution(z, m4) < et.level_of_distribution(z, m)

    def test_level_past_float_range(self):
        # z^(log log z) at z = 1e300 is about 10^1982: above every d
        assert et.level_of_distribution(1e300, et.ErrorModel()) == math.inf
