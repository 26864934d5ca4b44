"""Numerical cross-verification: quadrature, Monte Carlo, reproducibility.

Run:  python3 demos/integration_crosscheck.py
"""

import math
from fractions import Fraction

from arczeta import HCParameter, classify_theta
from arczeta.verify import verify_formal_degree, verify_S, verify_T, verify_zeta
from arczeta.weights import admissible_sweep

F = Fraction

print("=" * 72)
print("1. The scalar domain integral, deterministic Gauss-Jacobi quadrature")
print("=" * 72)
for args in ((1, 1, 0, 0, 3), (1, 1, -2, 0, 0), (1, 1, -1, 2, F(5, 2)),
             (3, 3, (0, 0, 0), (2, 1, 0), 9)):
    rep = verify_S(*args)
    print(f"  (p,q)=({args[0]},{args[1]}) kappa={args[2]} iota={args[3]} s={args[4]}: "
          f"estimate={rep.estimate.value:.12e} closed={float(rep.closed):.12e} "
          f"nodes/axis={rep.details['nodes']}  {rep.verdict}")

print()
print("=" * 72)
print("2. Monte Carlo over the (2,1), (1,2) and (3,3) balls")
print("=" * 72)
for args in ((2, 1, (-1, -1), (2,), 2), (1, 2, (-1,), (2, 1), 3), (3, 3, (0, 0, 0), (2, 1, 0), 9)):
    rep = verify_S(*args, method="mc", samples=200_000, seed=12)
    print(f"  (p,q)=({args[0]},{args[1]}): estimate={rep.estimate.value.real:.8f} "
          f"+- {rep.estimate.stderr:.1e}, closed={float(rep.closed):.8f}  {rep.verdict}")

print()
print("=" * 72)
print("3. End-to-end group integral for two parameters")
print("=" * 72)
for text, target in (("3/2,1/2", "1/pi"), ("5/2,3/2,1/2", "2/pi^2")):
    lam = HCParameter.parse(text)
    rep = verify_zeta(lam, samples=300_000, seed=42)
    print(f"  lambda=({text}): estimate={rep.estimate.value.real:.8f}  "
          f"target {target} = "
          f"{(1 / math.pi if target == '1/pi' else 2 / math.pi ** 2):.8f}  {rep.verdict}")

print()
print("=" * 72)
print("4. Reproducibility: (seed, workers) pins the estimate bit for bit")
print("=" * 72)
lam = HCParameter.parse("7/2,3/2,1/2")
a = verify_zeta(lam, samples=50_000, seed=9, workers=3)
b = verify_zeta(lam, samples=50_000, seed=9, workers=3)
c = verify_zeta(lam, samples=50_000, seed=9, workers=4)
print(f"  run 1: {a.estimate.value.real:.15f}")
print(f"  run 2: {b.estimate.value.real:.15f}  (identical: {a.estimate.value == b.estimate.value})")
print(f"  4 workers: {c.estimate.value.real:.15f}  (different partition, different stream)")

print()
print("=" * 72)
print("5. Formal-degree proportionality, exact")
print("=" * 72)
rep = verify_formal_degree(admissible_sweep(2, F(9, 2)))
print(f"  {len(rep.details['rows'])} parameters at n=2, shared ratio "
      f"{rep.closed}: {rep.verdict}")
rep = verify_T(classify_theta(HCParameter.parse('5/2,3/2,1/2')), F(3, 2))
print(f"  endomorphism scalar at s=3/2: {rep.estimate.value:.12f} vs "
      f"{float(rep.closed):.12f}  {rep.verdict}")
