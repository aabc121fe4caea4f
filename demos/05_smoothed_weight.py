"""The smoothed counting weight and its Laplace transform.

The weight is a box convolved with ell uniform ramps, so its transform
is entire with an explicit product formula.  We spot-check the closed
form against direct quadrature and the normalization at 0.
"""

import cmath
import math

from scipy.integrate import quad

from cdtlab import WeightFunction, WeightParams, laplace_F, verify_bounds

p = WeightParams(x=1e5, epsilon=0.05, ell=4)
w = WeightFunction(p)
lo, hi = w.support
print(f"x = {p.x:.0e}, epsilon = {p.epsilon}, ell = {p.ell}")
print(f"support [{lo:.4f}, {hi:.4f}], mass = {w.mass():.10f}")
print(f"expected mass 1/2 + eps/log x = {0.5 + p.epsilon / p.log_x:.10f}")
print()


def transform_direct(z: complex) -> complex:
    re, _ = quad(lambda t: (w(t) * cmath.exp(-z * t)).real, lo, hi)
    im, _ = quad(lambda t: (w(t) * cmath.exp(-z * t)).imag, lo, hi)
    return complex(re, im)


for z in (0.0, 1.0, 2 + 3j, -1 + 10j):
    closed = laplace_F(z, p)
    diff = abs(closed - transform_direct(complex(z)))
    print(f"F({z}) = {closed:.8f}, quadrature diff {diff:.2e}")
print()

rep = verify_bounds(p)
print("decay and main-term bounds:", "clean" if rep["ok"] else rep["violations"])
