"""From psi_C back to pi_C by partial summation.

psi_C weights every prime-ideal power by log p; undoing the weight with
the exact event list recovers the prime count up to O(sqrt(x)/log x).
"""

import math

from cdtlab import Form, bridge_check, psi_class, psi_events
from cdtlab.chebotarev import li_identity_check

f = Form(1, 1, 6)  # the principal class of D = -23
x = 1e5

events = psi_events(f, x)
print(f"class {tuple(f)}: {len(events)} prime-power events up to {x:.0e}")
print(f"psi_C(x) = {psi_class(f, x):.2f}, x/h = {x / 3:.2f}")
print()

br = bridge_check(f, x)
print(f"pi_C(x) = {br['pi']}, bridge rhs = {br['rhs']:.2f}")
print(f"difference = {br['difference']:.2f} = "
      f"{br['smallest_C']:.3f} * sqrt(x)/log x")
print()

defect = li_identity_check(x, 0.9)
print(f"Li integration-by-parts identity defect at x = {x:.0e}: {defect:.2e}")
print(f"  (allowed drift {2 * math.sqrt(x) / math.log(x):.1f})")
