"""Walk through the weight-pair classification and the closed forms.

Run:  python3 demos/classification_walkthrough.py
"""

from fractions import Fraction

from arczeta import (
    HCParameter,
    admissible_sweep,
    c_squared,
    classify_theta,
    closed_S,
    closed_T,
    formal_degree_product,
    zeta_closed,
)
from arczeta.weights import dual_S_arguments

F = Fraction

print("=" * 72)
print("1. A rank-one example: lambda = (3/2, 1/2)")
print("=" * 72)
lam = HCParameter.parse("3/2,1/2")
theta = classify_theta(lam)
print(theta)
print("  Lambda      =", theta.Lambda)
print("  LambdaDual  =", theta.LambdaDual)
print("  LambdaPrime =", theta.LambdaPrime)
print("  dim sigma   =", theta.dim_sigma)
print("  zeta value  =", zeta_closed(lam), "=", float(zeta_closed(lam)))
print("  c^2         =", c_squared(lam))

print()
print("=" * 72)
print("2. The exact identity behind the projection constant")
print("=" * 72)
print("c^2 * S(dual weight, 0) == T((n+1)/2), in exact rational-pi arithmetic:")
for text in ("3/2,1/2", "5/2,3/2,1/2", "7/2,3/2,1/2", "1/2,-3/2", "-1/2,-5/2"):
    lam = HCParameter.parse(text)
    theta = classify_theta(lam)
    lhs = closed_S(*dual_S_arguments(theta), 0) * c_squared(theta)
    rhs = closed_T(theta, F(theta.n + 1, 2))
    print(f"  lambda={str(lam):>16}  lhs={lhs}  rhs={rhs}  equal={lhs == rhs}")

print()
print("=" * 72)
print("3. A sweep: every admissible parameter with n = 2, entries <= 7/2")
print("=" * 72)
header = f"{'lambda':>18} {'case':>4} {'(p,q)':>6} {'c^2':>6} {'zeta':>12} {'dim':>4} {'fd':>4}"
print(header)
for lam in admissible_sweep(2, F(7, 2)):
    theta = classify_theta(lam)
    print(
        f"{str(lam):>18} {theta.case.value:>4} {str((theta.p, theta.q)):>6} "
        f"{str(c_squared(theta)):>6} {str(zeta_closed(theta)):>12} "
        f"{theta.dim_sigma:>4} {str(formal_degree_product(lam)):>4}"
    )
print()
print("Definite-partner parameters (p = 0) have c^2 = 1 exactly; all others")
print("sit strictly inside (0, 1).")
