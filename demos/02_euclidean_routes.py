"""Three independent routes to log(-Lap) and (-Lap)^s on R^n.

Route 1 multiplies Fourier modes on a periodic grid, route 2 evaluates the
singular integral with the explicit constants c_n and rho_n, route 3
integrates the heat-semigroup deficit over time. The torus route acts on
the periodization with the mean removed; `log_periodization_shift` is the
exact difference between that operator and the whole-space one, so after
subtracting it all three numbers agree to quadrature accuracy.
"""

import math

import numpy as np

from loglap import euclid
from loglap.specfun import digamma, gamma

L, N = 24.0, 2048
bump = euclid.registry()["bump"]
grid = euclid.PeriodicGridFunction.from_function(bump, 1, L, N)
mult = euclid.log_multiplier(grid)

print("log(-Lap) of the smooth bump on R^1, three routes, five points")
print(f"{'x':>9} {'pointwise':>14} {'heat route':>14} {'spectral-shift':>15}")
for x1 in (0.0, 0.1875, -0.28125, 0.375, 0.46875):
    ptw = euclid.log_pointwise(bump, [x1])
    boch = euclid.log_bochner_point(bump, [x1])
    spec = mult.value_at([x1]) - euclid.log_periodization_shift(bump, L, [x1])
    print(f"{x1:9.5f} {ptw:14.8f} {boch:14.8f} {spec:15.8f}")

print()
print("Gaussian closed forms at the origin (chi-square moments):")
for n in (1, 2):
    gauss = euclid.registry()["gaussian"]
    x0 = np.zeros(n)
    log_target = digamma(0.5 * n) + math.log(2.0)
    print(f"  n={n}: log route gives {euclid.log_pointwise(gauss, x0):+.8f}, "
          f"expected psi(n/2) + log 2 = {log_target:+.8f}")
    s = 0.5
    frac_target = 2.0 ** s * gamma(0.5 * n + s) / gamma(0.5 * n)
    print(f"  n={n}: (-Lap)^0.5 gives  {euclid.frac_pointwise(gauss, x0, s):+.8f}, "
          f"expected 2^s Gamma(n/2+s)/Gamma(n/2) = {frac_target:+.8f}")

print()
print("The kernel constant c_(n,s) recovered from the heat semigroup:")
for n, s in [(1, 0.25), (2, 0.5), (3, 0.75)]:
    formula = euclid.frac_constant(n, s).c_ns
    numeric = euclid.bochner_prefactor_numeric(n, s)
    print(f"  n={n} s={s}: formula {formula:.12f}, time quadrature {numeric:.12f}")

print()
print("Small-s limits on the torus (mean-zero bump):")
mz = grid.with_samples(grid.samples - grid.mean())
rep = euclid.limits_report(mz, [0.2, 0.1, 0.05, 0.02])
print(f"{'s':>6} {'||(-Lap)^s f - f||':>20} {'||q(s)/s - log route||':>24}")
for s, e0, _, qv in rep.table():
    print(f"{s:6.2f} {e0:20.8f} {qv / s:24.8f}")
print("the first column decreases; the second stabilizes at a constant")
