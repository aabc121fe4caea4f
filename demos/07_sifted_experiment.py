"""The sifted counting experiment end to end.

Count odd primes u^2 + v^2 <= x with both coordinates coprime to P and
compare against the local prediction delta_f(P) Li(x) / h.  An even
modulus triggers the parity obstruction and the count vanishes exactly.
"""

from cdtlab import Form, SievingModulus, theorem15_experiment

f = Form(1, 0, 1)

rep = theorem15_experiment(f, SievingModulus.from_int(15), 1e6)
print(f"P = 15, x = 1e6: count = {rep.lhs:.1f}, predicted = {rep.rhs:.1f}")
print(f"  density = {rep.density:.6f}, rel error = {rep.rel_error:.3%}")
print()

rep = theorem15_experiment(f, SievingModulus.from_int(3 * 5 * 7 * 11), 1e6)
print(f"P = 1155, x = 1e6: count = {rep.lhs:.1f}, predicted = {rep.rhs:.1f}")
print(f"  rel error = {rep.rel_error:.3%}, passed = {rep.passed}")
print()

rep = theorem15_experiment(f, SievingModulus.from_int(30), 1e6)
print(f"P = 30 (parity obstruction): count = {rep.lhs}, "
      f"trivially true = {rep.trivially_true}")
