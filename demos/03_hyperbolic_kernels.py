"""Heat, fractional, and logarithmic kernels on hyperbolic space.

Odd dimensions come from the exact closed form sum_j c_j(r) t^(-q_j)
exp(-a t - r^2/4t); even dimensions integrate the singular formula after
an exact endpoint substitution. The fractional
kernel then has two fully independent evaluations: time quadrature of the
heat kernel and a closed Bessel form.
"""

import math

import numpy as np

from loglap import hyperbolic as hy
from loglap.quadrature import QuadratureConfig

print("Heat kernel sanity on H^n:")
for n in (2, 3, 4, 5):
    mass = hy.heat_mass(n, 1.0)
    print(f"  n={n}: total mass at t=1 is {mass:.12f}")
print(f"  Chapman-Kolmogorov residual on H^3 at d=1: "
      f"{hy.chapman_kolmogorov_residual(0.5, 0.5, 1.0):.2e}")

print()
print("Two-sided envelope (no normalizing constant), 30x30 grid:")
for n in (2, 3):
    lo, hi = hy.dm_ratio_scan(n, np.linspace(0, 10, 30), np.geomspace(0.01, 10, 30))
    print(f"  n={n}: kernel/envelope in [{lo:.4f}, {hi:.4f}], spread {hi / lo:.2f}")

print()
print("Fractional kernel, two routes, n=3, s=0.5:")
print(f"{'r':>6} {'time quadrature':>18} {'Bessel form':>18}")
for r in (0.5, 1.0, 2.0, 4.0):
    a = hy.frac_kernel(3, 0.5, r, route="time_quadrature")
    b = hy.frac_kernel(3, 0.5, r, route="bessel_closed_form")
    print(f"{r:6.1f} {a:18.10e} {b:18.10e}")

print()
print("Kernel asymptotics by log-space regression:")
rel = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10, max_subdivisions=4000)
small = hy.build_kernel_table(3, "frac", np.geomspace(0.01, 0.25, 8), s=0.5, cfg=rel)
fit = hy.asympt_fit(small, "small_r", "power")
print(f"  fractional kernel small-r slope: {fit.coefficients['log_r']:+.4f} "
      f"(exact -(n+2s) = -4)")
large = hy.build_kernel_table(3, "frac", np.linspace(28, 64, 10), s=0.5, cfg=rel)
fit = hy.asympt_fit(large, "large_r", "power_exp", (28.0, 64.0))
print(f"  fractional kernel decay rate:    {fit.coefficients['r']:+.4f} "
      f"(exact -(n-1) = -2)")
k1 = hy.build_kernel_table(3, "log1", np.linspace(5, 12, 10), cfg=rel)
fit = hy.asympt_fit(k1, "large_r", "gaussian_tail", (5.0, 12.0))
print(f"  short-time log kernel r^2 coeff: {fit.coefficients['r2']:+.4f} "
      f"(exact -1/4)")

print()
print("K2 integrability dichotomy (truncated norms over balls B_R):")
for p in (2.0, 1.0):
    rep = hy.kernel_norms(3, p, [13.3, 20.0, 30.0])
    label = "stabilizes" if p > 1 else "grows like c log R"
    print(f"  p={p}: norms {['%.8f' % v for v in rep.truncated_norms]}  ({label})")
