"""Verification suites: every advertised identity, constant, and asymptotic
estimate checked at a pinned tolerance.

Each suite returns a VerifyReport; `run_suite` dispatches by name. The same
functions back the command-line `verify` subcommand and the acceptance test
module, so a green suite here is the package's exit criterion.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import euclid, hyperbolic, spectral
from .quadrature import (
    QuadratureConfig,
    frullani_log,
    verify_scalar_identities,
)
from .reporting import VerifyReport
from .specfun import (
    EULER_GAMMA,
    bessel_k,
    digamma,
    erf,
    euler_gamma_harmonic,
    exp_integral_e1,
    gamma,
    gamma_ln,
    upper_gamma,
)

SUITES = ("specfun", "identities", "euclid", "hyperbolic", "spectral")

# relative-error time quadrature, the check route of the transforms
REL_CFG = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10, max_subdivisions=4000)
# the exact time transforms of the heat kernel, for the asymptotic fits
TRANSFORM = "bessel_closed_form"
DUAL_ROUTE_RADII = (0.5, 1.0, 2.0, 4.0)

LARGE_R_WINDOW = (28.0, 64.0)
K1_GAUSS_WINDOW = (5.0, 12.0)


def _timed(fn):
    start = time.perf_counter()
    report = fn()
    report.wall_time_ms = int(1000 * (time.perf_counter() - start))
    return report


def suite_specfun() -> VerifyReport:
    rep = VerifyReport("specfun")
    rep.add(
        "gamma-const",
        "stored Euler-Mascheroni constant matches the accelerated-sum oracle",
        abs(EULER_GAMMA - euler_gamma_harmonic()),
        1e-12,
        statement="gamma = lim (H_N - log N), Richardson accelerated",
    )
    rep.add(
        "gamma-ln-factorial",
        "log Gamma(5) = log 24",
        abs(gamma_ln(5.0) - math.log(24.0)),
        1e-13,
        statement="Gamma(n) = (n-1)!",
    )
    rep.add(
        "gamma-ln-half",
        "log Gamma(1/2) = log sqrt(pi)",
        abs(gamma_ln(0.5) - 0.5 * math.log(math.pi)),
        1e-13,
        statement="Gamma(1/2) = sqrt(pi)",
    )
    rep.add(
        "digamma-one",
        "psi(1) = -gamma",
        abs(digamma(1.0) + EULER_GAMMA),
        1e-12,
        statement="psi(1) = -gamma",
    )
    rng = np.random.default_rng(7)
    a = rng.uniform(0.1, 50.0, 1000)
    worst = max(abs(digamma(float(v) + 1.0) - digamma(float(v)) - 1.0 / v) for v in a)
    rep.add(
        "digamma-recurrence",
        "psi(a+1) - psi(a) = 1/a on 1000 random a",
        worst,
        1e-11,
        statement="digamma recurrence",
    )
    worst = 0.0
    for _ in range(50):
        av = float(rng.uniform(0.3, 8.0))
        xv = float(rng.uniform(0.0, 20.0))
        lhs = upper_gamma(av + 1.0, xv)
        rhs = av * upper_gamma(av, xv) + math.exp(av * math.log(xv) - xv) if xv > 0 else gamma(av + 1.0)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    rep.add(
        "upper-gamma-recurrence",
        "Gamma(a+1,x) = a Gamma(a,x) + x^a e^-x on random samples",
        worst,
        1e-10,
        statement="incomplete gamma recurrence",
    )
    rep.add(
        "bessel-half",
        "K_(1/2)(1) = sqrt(pi/2) e^-1",
        abs(bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2.0) / math.e),
        1e-12,
        statement="half-integer closed form",
    )
    lhs = bessel_k(2.0, 2.0)
    rhs = bessel_k(0.0, 2.0) + (2.0 * 1.0 / 2.0) * bessel_k(1.0, 2.0)
    rep.add(
        "bessel-recurrence",
        "K_2(2) = K_0(2) + (2/2) K_1(2)",
        abs(lhs - rhs) / rhs,
        1e-10,
        statement="three-term recurrence in the order",
    )
    rep.add(
        "e1-decay",
        "E1(50) <= e^-50 / 50",
        exp_integral_e1(50.0) - math.exp(-50.0) / 50.0,
        0.0,
        statement="integrand bound for the exponential integral",
    )
    rep.add(
        "erf-odd",
        "erf(-1.3) + erf(1.3) = 0",
        abs(erf(-1.3) + erf(1.3)),
        1e-15,
        statement="odd symmetry",
    )
    return rep


def suite_identities() -> VerifyReport:
    rep = VerifyReport("identities")
    lams = np.geomspace(1e-3, 1e3, 13)
    worst = max(abs(frullani_log(float(l)) - math.log(float(l))) for l in lams)
    rep.add(
        "frullani",
        "scalar integral equals log(lambda), 13 log-spaced points",
        worst,
        1e-9,
        statement="int_0^inf (e^-t - e^-lam t)/t dt = log lam",
    )
    rep.extend(verify_scalar_identities([1, 2, 3, 4, 5, 6]))
    return rep


def _euclid_points(n: int, spacing: float) -> list[np.ndarray]:
    if n == 1:
        steps = [0, 16, -24, 32, 40]
        return [np.array([k * spacing]) for k in steps]
    steps = [(0, 0), (2, 0), (-3, 1), (4, 2), (5, -4)]
    return [np.array([i * spacing, j * spacing]) for i, j in steps]


def suite_euclid() -> VerifyReport:
    rep = VerifyReport("euclid")
    length = 24.0
    grid_points = {1: 2048, 2: 512}
    reg = euclid.registry()

    # route equivalence on the bump (criterion: both gaps <= 2e-3 relative)
    bump = reg["bump"]
    for n in (1, 2):
        grid = euclid.PeriodicGridFunction.from_function(bump, n, length, grid_points[n])
        mult = euclid.log_multiplier(grid)
        worst_pm = 0.0
        worst_bm = 0.0
        for x in _euclid_points(n, grid.spacing):
            reference = mult.value_at(x) - euclid.log_periodization_shift(
                bump, length, x
            )
            scale = max(abs(reference), 1e-2)
            ptw = euclid.log_pointwise(bump, x)
            worst_pm = max(worst_pm, abs(ptw - reference) / scale)
            boch = euclid.log_bochner_point(bump, x)
            worst_bm = max(worst_bm, abs(boch - reference) / scale)
        rep.add(
            f"log-route-pointwise-n{n}",
            f"pointwise vs periodization-corrected multiplier, bump, n={n}",
            worst_pm,
            2e-3,
            statement="pointwise singular integral equals the spectral "
            "multiplier on the mean-zero periodization",
        )
        rep.add(
            f"log-route-bochner-n{n}",
            f"heat-quadrature vs corrected multiplier, bump, n={n}",
            worst_bm,
            2e-3,
            statement="time integral of the heat deficit equals the "
            "spectral multiplier",
        )

    # Gaussian closed form: log(-Lap) f(0) = psi(n/2) + log 2 for f = e^(-|x|^2/2)
    gauss = reg["gaussian"]
    for n in (1, 2):
        target = digamma(0.5 * n) + math.log(2.0)
        x0 = np.zeros(n)
        rep.add(
            f"log-gauss-pointwise-n{n}",
            f"pointwise log value at 0 matches the log chi-square moment, n={n}",
            abs(euclid.log_pointwise(gauss, x0) - target),
            1e-3,
            statement="log(-Lap) of the unit Gaussian at 0 equals "
            "psi(n/2) + log 2",
        )
        rep.add(
            f"log-gauss-bochner-n{n}",
            f"heat-quadrature log value at 0, n={n}",
            abs(euclid.log_bochner_point(gauss, x0) - target),
            1e-3,
            statement="same moment via the Bochner route",
        )
        grid = euclid.PeriodicGridFunction.from_function(
            gauss, n, length, grid_points[n]
        )
        mult = euclid.log_multiplier(grid).value_at(x0)
        shift = euclid.log_periodization_shift(gauss, length, x0)
        rep.add(
            f"log-gauss-multiplier-n{n}",
            f"L=24 torus multiplier after the exact periodization shift, n={n}",
            abs(mult - shift - target),
            1e-4,
            statement="same moment via the spectral route",
        )

    # fractional constant without literature lookup
    worst = 0.0
    for n in (1, 2, 3):
        for s in (0.25, 0.5, 0.75):
            formula = euclid.frac_constant(n, s).c_ns
            quad = euclid.bochner_prefactor_numeric(n, s, r=1.0)
            worst = max(worst, abs(quad - formula) / formula)
    rep.add(
        "frac-constant",
        "kernel prefactor formula vs heat-quadrature, 9 (n, s) pairs",
        worst,
        1e-8,
        statement="c_{n,s} = s 4^s Gamma(n/2+s)/(pi^(n/2) Gamma(1-s)) from "
        "the Gaussian time integral",
    )
    worst = 0.0
    for n in (1, 2):
        for s in (0.25, 0.5, 0.75):
            target = 2.0 ** s * gamma(0.5 * n + s) / gamma(0.5 * n)
            val = euclid.frac_pointwise(gauss, np.zeros(n), s)
            worst = max(worst, abs(val - target))
    rep.add(
        "frac-gauss-moment",
        "(-Lap)^s Gaussian at 0 equals the chi-square moment, n in {1,2}",
        worst,
        1e-3,
        statement="(-Lap)^s e^(-|x|^2/2) (0) = 2^s Gamma(n/2+s)/Gamma(n/2)",
    )

    # s-limits on the n=1 torus with the mean-zero bump
    grid = euclid.PeriodicGridFunction.from_function(bump, 1, length, 512)
    mz = grid.with_samples(grid.samples - grid.mean())
    lim = euclid.limits_report(mz, [0.2, 0.1, 0.05, 0.02])
    e0_monotone = all(
        lim.e0[i] > lim.e0[i + 1] for i in range(len(lim.e0) - 1)
    )
    rep.add(
        "limit-s-to-0",
        "||(-Lap)^s f - f|| decreases along s = 0.2, 0.1, 0.05, 0.02",
        0.0 if e0_monotone else 1.0,
        0.0,
        statement="small-s strong convergence on the mean-zero complement",
    )
    lim1 = euclid.limits_report(mz, [1e-4])
    rep.add(
        "limit-s-to-1",
        "||(-Lap)^(1-1e-4) f + Lap f|| <= 1e-3 ||Lap f||",
        lim1.e1[0],
        1e-3 * lim1.laplacian_norm,
        statement="s -> 1 strong convergence on H^2",
    )
    limq = euclid.limits_report(mz, [0.1, 0.05, 0.01])
    qs = [q / s for q, s in zip(limq.quotient, limq.s_grid)]
    ratio_worst = max(
        max(qs[i + 1] / qs[i], qs[i] / qs[i + 1]) for i in range(len(qs) - 1)
    )
    rep.add(
        "limit-quotient",
        "((-Lap)^s - I)/s -> log(-Lap): q(s)/s stable within a factor 3",
        ratio_worst,
        3.0,
        statement="first-order Taylor rate of lambda^s at s = 0",
    )
    return rep


def suite_hyperbolic() -> VerifyReport:
    rep = VerifyReport("hyperbolic")

    # the c_j(r) t^(-q_j) form of heat_kernel vs the explicit H^3 formula
    def p3_closed(r, t):
        return (
            (4.0 * math.pi * t) ** -1.5
            * (r / math.sinh(r))
            * math.exp(-t - r * r / (4.0 * t))
        )

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        r = float(rng.uniform(0.1, 5.0))
        t = float(rng.uniform(0.05, 5.0))
        a = hyperbolic.heat_kernel(3, r, t)
        b = p3_closed(r, t)
        worst = max(worst, abs(a - b) / b)
    rep.add(
        "heat3-closed-form",
        "odd-n heat kernel matches the explicit H^3 formula, 10 points",
        worst,
        1e-12,
        statement="p_3(r,t) = (4 pi t)^(-3/2) (r/sinh r) e^(-t - r^2/4t)",
    )
    worst = max(abs(hyperbolic.heat_mass(3, t) - 1.0) for t in (0.1, 1.0, 10.0))
    rep.add(
        "heat3-mass",
        "total heat mass equals 1 at t in {0.1, 1, 10}",
        worst,
        1e-8,
        statement="stochastic completeness of H^3",
    )
    for n in (2, 4, 5):
        worst = max(abs(hyperbolic.heat_mass(n, t) - 1.0) for t in (0.1, 1.0, 10.0))
        rep.add(
            f"heat{n}-mass",
            f"total heat mass equals 1 at t in {{0.1, 1, 10}}, n={n}",
            worst,
            1e-8,
            statement=f"stochastic completeness of H^{n}",
        )
    worst = max(
        hyperbolic.chapman_kolmogorov_residual(0.5, 0.5, d) for d in (0.0, 1.0, 2.0)
    )
    rep.add(
        "heat3-semigroup",
        "Chapman-Kolmogorov at (t,s) = (0.5, 0.5), d in {0, 1, 2}",
        worst,
        1e-6,
        statement="p_t * p_s = p_(t+s) under the volume measure",
    )

    # comparison envelope: two-sided constant over the (r, t) rectangle
    for n in (2, 3):
        lo, hi = hyperbolic.dm_ratio_scan(
            n, np.linspace(0.0, 10.0, 30), np.geomspace(0.01, 10.0, 30)
        )
        rep.add(
            f"envelope-n{n}",
            f"kernel/envelope spread max/min over a 30x30 grid, n={n} "
            "(the envelope carries no normalizing constant)",
            hi / lo,
            10.0,
            statement="uniform two-sided heat-kernel comparison",
        )

    # fractional kernel asymptotics, on the exact transforms
    for n in (2, 3):
        for s in (0.25, 0.5, 0.75):
            small = hyperbolic.build_kernel_table(
                n, "frac", np.geomspace(0.01, 0.25, 8), s=s, route=TRANSFORM
            )
            fit = hyperbolic.asympt_fit(small, "small_r", "power")
            tgt = -(n + 2.0 * s)
            rep.add(
                f"frac-small-n{n}-s{s}",
                f"short-distance slope of the fractional kernel, n={n}, s={s}",
                abs(fit.coefficients["log_r"] - tgt) / abs(tgt),
                0.02,
                statement="kernel ~ r^-(n+2s) as r -> 0",
            )
            large = hyperbolic.build_kernel_table(
                n, "frac", np.linspace(*LARGE_R_WINDOW, 10), s=s, route=TRANSFORM
            )
            fit = hyperbolic.asympt_fit(large, "large_r", "power_exp", LARGE_R_WINDOW)
            rep.add(
                f"frac-rate-n{n}-s{s}",
                f"long-distance exponential rate, n={n}, s={s}",
                abs(fit.coefficients["r"] + (n - 1.0)) / (n - 1.0),
                0.02,
                statement="kernel ~ r^-(1+s) e^(-(n-1)r) as r -> inf",
            )
            rep.add(
                f"frac-power-n{n}-s{s}",
                f"long-distance power, n={n}, s={s}",
                abs(fit.coefficients["log_r"] + (1.0 + s)) / (1.0 + s),
                0.10,
                statement="same asymptotic, power factor",
            )

    # log kernel asymptotics
    for n in (2, 3):
        small = hyperbolic.build_kernel_table(
            n, "log1", np.geomspace(0.01, 0.25, 8), route=TRANSFORM
        )
        fit = hyperbolic.asympt_fit(small, "small_r", "power")
        rep.add(
            f"k1-small-n{n}",
            f"short-time log kernel slope at the diagonal, n={n}",
            abs(fit.coefficients["log_r"] + n) / n,
            0.02,
            statement="K1 ~ r^-n as r -> 0",
        )
        k1tab = hyperbolic.build_kernel_table(
            n, "log1", np.linspace(*K1_GAUSS_WINDOW, 10), route=TRANSFORM
        )
        fit = hyperbolic.asympt_fit(k1tab, "large_r", "gaussian_tail", K1_GAUSS_WINDOW)
        rep.add(
            f"k1-gauss-n{n}",
            f"short-time log kernel Gaussian coefficient, n={n}",
            abs(fit.coefficients["r2"] + 0.25) / 0.25,
            0.02,
            statement="K1 ~ r^((n-5)/2) e^(-(n-1)r/2) e^(-r^2/4) for large r",
        )
        k2tab = hyperbolic.build_kernel_table(
            n, "log2", np.linspace(*LARGE_R_WINDOW, 10), route=TRANSFORM
        )
        fit = hyperbolic.asympt_fit(k2tab, "large_r", "power_exp", LARGE_R_WINDOW)
        rep.add(
            f"k2-rate-n{n}",
            f"long-time log kernel exponential rate, n={n}",
            abs(fit.coefficients["r"] + (n - 1.0)) / (n - 1.0),
            0.02,
            statement="K2 ~ r^-1 e^(-(n-1)r) for large r",
        )
        rep.add(
            f"k2-power-n{n}",
            f"long-time log kernel power, n={n}",
            abs(fit.coefficients["log_r"] + 1.0),
            0.15,
            statement="same asymptotic, power factor",
        )
        k2near = hyperbolic.build_kernel_table(
            n, "log2", np.linspace(0.01, 0.1, 7), route=TRANSFORM
        ).values
        rep.add(
            f"k2-const-n{n}",
            f"long-time log kernel flat near the diagonal, n={n}",
            float((k2near.max() - k2near.min()) / k2near.min()),
            0.10,
            statement="K2 ~ const for r <= 1",
        )

    # K2 integrability: stabilization for p > 1, log growth at p = 1
    for p in (1.5, 2.0):
        norms = hyperbolic.kernel_norms(3, p, [20.0, 30.0]).truncated_norms
        rep.add(
            f"k2-lp-stable-p{p}",
            f"truncated L^{p} norm of K2 stabilizes between R=20 and 30",
            abs(norms[1] - norms[0]) / norms[0],
            1e-6,
            statement="K2 lies in L^p exactly when p > 1",
        )
    rates = hyperbolic.kernel_norms(3, 1.0, [13.3, 20.0, 30.0]).log_growth_rates
    rep.add(
        "k2-l1-log-growth",
        "L^1 mass of K2 grows like c log R with stable c",
        abs(rates[1] / rates[0] - 1.0),
        0.20,
        statement="borderline divergence of the K2 integral at p = 1",
    )

    # split identity and the remainder energy bound on H^3
    bump = hyperbolic.hyper_registry()["bump"]
    worst = 0.0
    for xd in (0.0, 1.0):
        sp = hyperbolic.split_check(3, bump, xd)
        worst = max(worst, sp.identity_residual / (1.0 + abs(sp.direct)))
    rep.add(
        "split-identity",
        "near + far + remainder reproduces the pointwise value, x in {0, 1}",
        worst,
        1e-8,
        statement="refined three-term splitting of the log operator",
    )
    norm_rep = hyperbolic.kernel_norms(3, 2.0, [20.0], f=bump, energy_pq=(2.0, 1.0))
    rep.add(
        "remainder-energy",
        "energy pairing of the remainder bounded by the Young-type estimate",
        norm_rep.energy_lhs,
        norm_rep.energy_rhs,
        statement="int |R(f;x)| |f(x)| <= ||chi K2||_q ||f||_p^2 + "
        "||K1 far||_q ||f||_p^2 + |rho| ||f||_2^2",
    )
    pointwise = hyperbolic.log_pointwise_h(3, bump, 0.0)
    rep.add(
        "log-bochner-agreement",
        "pointwise vs heat-quadrature log operator on H^3, bump at x=0",
        abs(pointwise - hyperbolic.log_bochner_h(3, bump, 0.0)) / abs(pointwise),
        1e-3,
        statement="two independent routes to log(-Lap) on H^3",
    )

    # dual-route kernels: time quadrature against the exact transforms
    def dual_route(n, kind, s=None, cfg=hyperbolic.DEFAULT_CONFIG):
        a, b = (
            hyperbolic.build_kernel_table(n, kind, DUAL_ROUTE_RADII, s=s, route=route, cfg=cfg)
            .values
            for route in ("time_quadrature", TRANSFORM)
        )
        return float(np.max(np.abs(a - b) / b))

    rep.add(
        "frac-dual-route",
        "time quadrature vs Bessel closed form on the (n, s, r) grid",
        max(dual_route(n, "frac", s) for n in (3, 5) for s in (0.25, 0.5, 0.75)),
        1e-7,
        statement="both evaluations of the fractional kernel agree",
    )
    for n in (2, 4):
        rep.add(
            f"frac-dual-route-n{n}",
            f"Bessel transform of the descent vs time quadrature, s in {{0.25, 0.75}}, n={n}",
            max(dual_route(n, "frac", s, REL_CFG) for s in (0.25, 0.75)),
            1e-9,
            statement="the u-rule sum of Bessel K_(q_j+s) equals the fractional kernel",
        )
    for n in (2, 3, 4, 5):
        rep.add(
            f"log-dual-route-n{n}",
            f"closed-form K1 and K2 vs time quadrature, n={n}",
            max(dual_route(n, kind, cfg=REL_CFG) for kind in ("log1", "log2")),
            1e-9,
            statement="the erfc and Bessel K transforms equal the log kernels",
        )
    return rep


def suite_spectral() -> VerifyReport:
    rep = VerifyReport("spectral")
    vs = [spectral.massloss_vs(1.0, s) for s in (0.2, 0.1, 0.05, 0.02)]
    rep.add(
        "massloss-monotone",
        "V_s(1) increases toward 1 along s = 0.2, 0.1, 0.05, 0.02",
        0.0 if all(vs[i] < vs[i + 1] for i in range(3)) else 1.0,
        0.0,
        statement="small-s limit of the mass-loss potential",
    )
    extrap = (0.05 * vs[3] - 0.02 * vs[2]) / 0.03
    rep.add(
        "massloss-limit",
        "Richardson extrapolation of V_s(1) lands at 1 - H = 1",
        abs(extrap - 1.0),
        1e-2,
        statement="lim V_s = 1 - H with H = 0 on the killed half line",
    )

    def bump(y):
        y = np.asarray(y, dtype=float)
        inside = (y > 1.0) & (y < 2.0)
        arg = np.where(inside, (y - 1.0) * (2.0 - y), 1.0)
        return np.where(inside, np.exp(-1.0 / arg), 0.0)

    disc = spectral.frac_discrepancy_halfline(bump, (1.0, 2.0), 0.5, 1.5)
    rep.add(
        "discrepancy-identity",
        "deficit route minus difference route equals V_s(x) f(x), s=0.5",
        disc.identity_residual,
        1e-6 * (1.0 + abs(disc.deficit_form)),
        statement="spectral vs heat-kernel fractional operators differ by "
        "the mass-loss potential",
    )
    disc9 = spectral.frac_discrepancy_halfline(bump, (1.0, 2.0), 0.9, 1.5)
    rep.add(
        "discrepancy-identity-s09",
        "same identity at s = 0.9",
        disc9.identity_residual,
        1e-5 * (1.0 + abs(disc9.deficit_form)),
        statement="identity persists near s = 1",
    )

    rows = spectral.embedding_counterexample(0.25, [1000, 1000000])
    f_diff = rows[1][1] - rows[0][1]
    g_diff = rows[1][2] - rows[0][2]
    rep.add(
        "embedding-g-diverges",
        "log-weighted sum grows by at least 6 from N=1e3 to N=1e6",
        6.0 - g_diff,
        0.0,
        statement="harmonic divergence of the log-energy sum under "
        "spectral accumulation at zero",
    )
    rep.add(
        "embedding-f-converges",
        "power-weighted sum moves by at most 1e-3 over the same range",
        f_diff,
        1e-3,
        statement="convergence of the eps-energy sum for the same vector",
    )
    return rep


def run_suite(name: str) -> VerifyReport:
    table = {
        "specfun": suite_specfun,
        "identities": suite_identities,
        "euclid": suite_euclid,
        "hyperbolic": suite_hyperbolic,
        "spectral": suite_spectral,
    }
    if name == "all":
        total = VerifyReport("all")
        start = time.perf_counter()
        for key in SUITES:
            report = _timed(table[key])
            total.extend(report)
            total.suites[key] = report.wall_time_ms
        total.wall_time_ms = int(1000 * (time.perf_counter() - start))
        return total
    if name not in table:
        raise ValueError(f"unknown suite {name!r}")
    return _timed(table[name])
