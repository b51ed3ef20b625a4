"""
Rate bounds at a glance
=======================

Evaluates the second-sender rate bounds at the fully loaded point r1 = 1,
then sweeps r1 over [0.9, 1.0] and writes the curve to a CSV next to this
script.
"""

import os

from adderbound.bounds import (
    curve,
    main_bound,
    simple_bound,
    ul_bound,
    weldon_bound,
)

# the classic point of interest: the first sender at full rate
r1 = 1.0
print(f"bounds on r2 at r1 = {r1}")
print(f"  simple   {simple_bound(r1):.6f}   (time-sharing cap)")
print(f"  weldon   {weldon_bound(r1):.6f}   (systematic construction cap)")
print(f"  ul       {ul_bound(r1):.6f}   (mixture-entropy argument)")
print(f"  main     {main_bound(r1):.6f}   (conditional-envelope argument)")

# a quick sweep; each row is (r1, simple, ul, main), already sorted
bc = curve(0.9, 1.0, 21)

print("\n  r1       simple   ul       main")
for row in bc.rows[::5]:
    print("  " + "  ".join(f"{v:.5f}" for v in row))

out = os.path.join(os.path.dirname(__file__), "curve.csv")
with open(out, "w") as fh:
    fh.write(bc.to_csv())
print(f"\nwrote {len(bc.rows)} rows to {out}")
