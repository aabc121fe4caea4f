"""A walk through the explicit error-bound calculus.

The model collects the field data (degree, discriminant, conductor) and
the bound constants; from it we get the zero-free-region width, the
eta(x) saddle, the classical error shape, and the Siegel-regime split.
"""

import math
from dataclasses import replace

from cdtlab import ErrorModel, classical_error, eta
from cdtlab.errorterms import B1, main_term_floor, nu1, siegel_error

m = ErrorModel(D_K=1e4 / 4, n_K=2, Qcal=1.0, c_ZDE=1)
print(f"Q = {m.Q:.0f}, n_K = {m.n_K}")
for x in (m.Q**2, m.Q**4, m.Q**8):
    e = eta(x, m)
    print(
        f"x = {x:.1e}: eta = {e:.4f}, e^-eta = {math.exp(-e):.3e}, "
        f"classical bound = {classical_error(x, m):.3e}"
    )
print()

# a real exceptional zero shrinks the main term by nu1 and splits the
# error into small- and large-lambda regimes
x = m.Q**40
lam = 0.01
ms = replace(m, beta1=1 - lam / math.log(x), theta1=1)
print(f"exceptional zero with lambda_1 = {lam}:")
print(f"  B1 = {B1(math.sqrt(x), ms):.4f}, nu1 = {nu1(ms):.4f}")
se = siegel_error(x, ms)
print(f"  regime: {se['regime']} (threshold {se['threshold']:.1e}), "
      f"error shape = {se['selected']:.3e}")
fl = main_term_floor(x, ms)
print(
    f"  main-term floor case '{fl['case']}': actual/bound = "
    f"{fl['implied_constant']:.3f}"
)
