"""The holomorphic polynomial model, exact arithmetic included.

Run:  python3 demos/fock_model_identities.py
"""

from fractions import Fraction

import numpy as np

from arczeta import HCParameter, classify_theta
from arczeta.exact import rational_hyperbolic
from arczeta.fock import (
    FockPoly,
    bargmann_inner,
    harmonic_hwv,
    highest_weight_check,
    omega_at,
    omega_matcoef,
    omega_matcoef_transform_route,
    weil_transform_bruteforce,
)
from arczeta.group import CoverElement, haar_unitary

F = Fraction

print("=" * 72)
print("1. Joint highest-weight vectors are explicit minor products")
print("=" * 72)
for text in ("3/2,1/2", "5/2,3/2,1/2", "1/2,-3/2", "-3/2,-5/2,-7/2"):
    theta = classify_theta(HCParameter.parse(text))
    phi = harmonic_hwv(theta)
    norm = bargmann_inner(phi, phi)
    print(f"  lambda={text:>15}  phi has {len(phi.terms)} monomials, degree "
          f"{phi.degree()}, ||phi||^2 = {norm}")

print()
print("=" * 72)
print("2. Weight and raising checks")
print("=" * 72)
theta = classify_theta(HCParameter.parse("5/2,3/2,1/2"))
rep = highest_weight_check(harmonic_hwv(theta), theta)
print("  row-side weight   ", rep.row_weight, "expected", rep.row_expected)
print("  column-side weight", rep.col_weight, "expected", rep.col_expected)
print("  failed raising directions:", rep.failed_raising or "none")

print()
print("=" * 72)
print("3. The hyperbolic action: closed transform vs kernel brute force")
print("=" * 72)
ch, sh = rational_hyperbolic(F(1, 2))
print(f"  exact hyperbolic pair: cosh = {ch}, sinh = {sh}")
f = FockPoly(1, {(2, 1, 0, 1): 1})
a = omega_at((ch, sh), f)
b = weil_transform_bruteforce((ch, sh), f)
print("  transform  :", sorted(e for e, _ in a.poly.items()))
print("  brute force:", sorted(e for e, _ in b.poly.items()))
print("  identical polynomials:", a.poly == b.poly, "| identical prefactors:",
      a.prefactor == b.prefactor)

print()
print("=" * 72)
print("4. Two routes to the same matrix coefficient")
print("=" * 72)
theta = classify_theta(HCParameter.parse("5/2,3/2,1/2"))
phi = harmonic_hwv(theta)  # integer coefficients: one vector for both rings
kI = CoverElement(np.eye(2, dtype=object), 1, 1)  # an object block: the exact ring
exact_sub = omega_matcoef(kI, (ch, sh), kI, theta, phi)
exact_tra = omega_matcoef_transform_route(kI, (ch, sh), kI, theta, phi)
print("  substitution route (exact):", exact_sub)
print("  transform route   (exact):", exact_tra)
print("  equal:", exact_sub == exact_tra)

rng = np.random.default_rng(1)
k = CoverElement.from_blocks(haar_unitary(2, rng), np.exp(2j * np.pi * rng.uniform()))
kp = CoverElement.from_blocks(haar_unitary(2, rng), np.exp(2j * np.pi * rng.uniform()))
v1 = omega_matcoef(kp, 0.7, k, theta, phi)
v2 = omega_matcoef_transform_route(kp, 0.7, k, theta, phi)
print(f"  random unitaries (float): |route1 - route2| / |route1| = "
      f"{abs(v1 - v2) / abs(v1):.2e}")
