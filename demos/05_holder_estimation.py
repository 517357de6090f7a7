"""Empirical Hoelder analysis on sampled functions.

Semi-norm estimation on |x|^(1/2) and the Cantor staircase, the sharpened
Malgrange inequality checker (in 2D against the closed-form gradient
semi-norm of the paraboloid), the control field that drives the
decomposition, and its slow-variation property.
"""

import math

from halfsquares import check_slow_variation, control_field, estimate_seminorm
from halfsquares.checks import check_derivative_control, check_malgrange
from halfsquares.fixtures import build_fixture

sqrt_abs = build_fixture("power_alpha", alpha=0.5)
print("[|x|^(1/2)]_(1/2) ~", round(estimate_seminorm(sqrt_abs, 0.5), 6), "(exactly 1 analytically)")

cantor = build_fixture("cantor")
alpha32 = math.log(2) / math.log(3)
print("[cantor]_(log3 2) ~", round(estimate_seminorm(cantor, alpha32), 6), "(<= 1 analytically)")

print("\nMalgrange checker, |grad f| <= ((a+1)/a^(a/(1+a))) [grad f]_a^(1/(1+a)) f^(a/(1+a)):")
for name in ("parabola", "bony", "smooth_bump"):
    for alpha in (0.5, 1.0):
        report = check_malgrange(build_fixture(name), alpha)
        print(f"  {name:12s} alpha={alpha}: worst ratio {report.max_ratio:.4f}")

paraboloid = build_fixture("paraboloid", points=41)
report = check_malgrange(paraboloid, 0.5)
# grad(x^2 + y^2) = 2 (x, y); the gradient is sampled one cell in from each edge
diagonal = math.hypot(*((s - 3) * paraboloid.spacing for s in paraboloid.shape))
print(f"  paraboloid-41^2 alpha=0.5: [grad f]_a ~ {report.seminorm:.6f}, "
      f"2 d^(1-a) = {2 * diagonal ** 0.5:.6f} with d the interior diagonal")

parabola = build_fixture("parabola", points=2001)
cf = control_field(parabola, 2, 1.0)
i = int(round(2.0 / parabola.spacing))
print("\ncontrol field of x^2 (k=2, alpha=1) at the origin:", round(float(cf.values[i]), 6))
print("slow variation at nu=0.2:", check_slow_variation(cf, 0.2).ok)

print("\nderivative control |f'| vs even-order data for the oscillating flat example:")
report = check_derivative_control(build_fixture("bony", points=2001), 3, 1.0, 1)
print("  empirical constant:", round(report.constant, 4))
