"""Heat, fractional, and logarithmic kernels on real hyperbolic space H^n.

Every kernel is a time transform of one form of the heat kernel,
p_n(r, t) = sum_j A_j t^(-q_j) exp(-a t - x^2/4t) with a = ((n-1)/2)^2 and
half-integer q_j. Odd dimensions are a finite sum, x = r and A_j = c_j(r),
coefficients written through e^-r so that they neither overflow nor lose
accuracy at any r >= 0. Even dimensions are the descent from the odd
dimension above: an integral over x = r + u^2, which removes the
(cosh x - cosh r)^(-1/2) endpoint of the descent formula exactly, with
amplitudes A_j(r, u) built from the coefficients of n + 1, on one u-rule
that resolves every r down to the axis.

The heat kernel is that form at given t. The logarithmic kernels K1 and K2
(the integrals of p_n dt/t over (0, 1] and (1, inf)) replace t^(-q_j)
e^(-a t - x^2/4t) by its time integrals, closed forms of erfc and
half-integer Bessel K, in `log_kernel_values`; `log_kernels` and the log
tables integrate the heat kernel in time adaptively, or take those closed
forms on the transform route. The fractional kernel comes from time
quadrature of the heat kernel or, in every dimension, from the whole-line
transform, one Bessel K_(q_j+s) per amplitude A_j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import reporting
from .quadrature import (
    BUMP,
    DEFAULT_CONFIG,
    NonConvergenceError,
    QuadratureConfig,
    QuadResult,
    RadialFunction,
    integrate,
    integrate_rows,
    integrate_semiinfinite,
    integrate_semiinfinite_rows,
    sphere_area,
    sphere_mean,
)
from .specfun import EULER_GAMMA, _horner, bessel_k, erfcx

__all__ = [
    "heat_kernel",
    "dm_envelope",
    "dm_ratio_scan",
    "frac_kernel",
    "log_kernels",
    "log_kernel_values",
    "KernelTable",
    "build_kernel_table",
    "asympt_fit",
    "FitReport",
    "IllConditionedError",
    "hyper_registry",
    "log_pointwise_h",
    "log_bochner_h",
    "split_check",
    "kernel_norms",
    "heat_mass",
    "chapman_kolmogorov_residual",
]


# ---------------------------------------------------------------------------
# odd dimensions: p_n(r, t) = sum_j c_j(r) t^(-q_j) e^(-a t - r^2/4t) with
# c_j = d_j (r / sinh r): d = pref on H^3, and on H^5 d_j = pref_j (r / sinh r)
# h_j with h_2 = 1 and h_1 = (r cosh r - sinh r) / (r^2 sinh r), whose
# difference cancels below r = 1, where h_1 = (r / sinh r) sum_(k>=1) 2k
# r^(2k-2) / (2k+1)!. _Q holds the q_j of every dimension; H^2 and H^4 have
# those of H^3 and H^5

_Q = {2: (1.5,), 3: (1.5,), 4: (1.5, 2.5), 5: (1.5, 2.5)}
_ODD_PREF = (4.0 * math.pi) ** -1.5  # pref on H^3; pref_j = pref / (2 pi j) on H^5
_H1_SERIES = np.array([2.0 * k / math.factorial(2 * k + 1) for k in range(1, 11)])


def _odd_heat_coefficients(n: int, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r / sinh r, d_j(r)) with c_j = d_j r / sinh r, the d_j stacked along
    a new first axis, one per q_j, without overflow at any r >= 0: with
    e = e^-r, r / sinh r = 2 r e / (1 - e^2) (1 at r = 0) and r coth r =
    r (1 + e^2) / (1 - e^2)."""
    e = np.exp(-r)
    one_minus = np.where(r > 0.0, -np.expm1(-2.0 * r), 1.0)
    rcsch = np.where(r > 0.0, 2.0 * r * e / one_minus, 1.0)
    if n == 3:
        return rcsch, np.full((1,) + (1,) * np.ndim(r), _ODD_PREF)
    # past r = 1e100, where e and so every c_j is 0, h1 is taken at 1e100 so
    # that r^2 does not overflow
    rh = np.minimum(r, 1e100)
    h1 = (rh * (1.0 + e * e) / one_minus - 1.0) / np.maximum(rh * rh, 1.0)
    small = r < 1.0
    if small.any():
        h1[small] = rcsch[small] * _horner(r[small] ** 2, _H1_SERIES)
    d2 = _ODD_PREF / (4.0 * math.pi) * rcsch
    return rcsch, np.array([2.0 * d2 * h1, d2])


def _time_factors(n: int, r: np.ndarray, t: np.ndarray, scaled: bool) -> list[np.ndarray]:
    """t^(-q_j) (t^(1/2-q_j) on even n, whose u-rule sum is of order sqrt t),
    times e^(-a t - r^2/4t) unless scaled, one per q_j. Unscaled, the
    exponent goes inside the power, as (e^(-(a t + r^2/4t)/q) / t)^q at the
    first q, and each next q_j = q_(j-1) + 1 divides by t once more; so where
    t^(-q_j) overflows but r^2/4t is large the factor is 0, and where the
    factor itself overflows, OverflowError names the pair; so it does where
    a scaled factor t^(-q_j) overflows."""
    qs = _Q[n] if n % 2 else [q - 0.5 for q in _Q[n]]
    with np.errstate(over="ignore"):
        if scaled:
            factors = [t ** -q for q in qs]
        else:
            expo = 0.25 * (n - 1) ** 2 * t + r * r / (4.0 * t)
            factors = [(np.exp(-expo / qs[0]) / t) ** qs[0]]
            for _ in qs[1:]:
                factors.append(factors[-1] / t)
    # the last factor is the largest wherever t < 1, and all are <= 1 where not
    bad = ~np.isfinite(factors[-1])
    if bad.any():
        shape = np.broadcast_shapes(np.shape(r), np.shape(t))
        bad = np.broadcast_to(bad, shape)
        rb, tb = (float(np.broadcast_to(v, shape)[bad][0]) for v in (r, t))
        raise OverflowError(f"heat_kernel(n={n}) overflows double precision at r={rb}, t={tb}")
    return factors


def _heat_odd(n: int, r: np.ndarray, t: np.ndarray, scaled: bool) -> np.ndarray:
    """Heat kernel for n in {3, 5} at r and t broadcast against each other;
    the coefficients c_j are computed once per entry of r."""
    rcsch, d = _odd_heat_coefficients(n, r)
    return sum(dj * rcsch * fj for dj, fj in zip(d, _time_factors(n, r, t, scaled)))


# even dimensions descend from the odd one above (Davies-Mandouvalos):
# p_n(r, t) = sqrt 2 e^((2n-1)t/4) int_r^inf p_(n+1)(x, t) sinh x (cosh x -
# cosh r)^(-1/2) dx. With x = r + u^2 the endpoint singularity becomes the
# Abel weight w = 2u / sqrt(sinh(u^2/2) sinh y), y = r + u^2/2, analytic and
# even in u, and p_n = int_0^inf sum_j A_j t^(-q_j) e^(-a t - x^2/4t) du with
# A_j = d_j(x) x w, the coefficients of n + 1. Every even-n integral over u
# is the midpoint rule in w for u = c sinh w at one fixed step, which
# converges geometrically since the integrand is even and analytic in w;
# c^2 follows the smaller of the scales r (the peak of 1/sinh y) and g (the
# Gaussian's u^2 scale, 1 for the time transforms), floored at 1e-12 g for
# the heat kernel, which has no peak to follow there, and at 1e-150 for the
# transforms, whose t^(-q_j) singularity makes one at u ~ sqrt r on every r.
# Each pair takes the nodes up to its own wmax = arsinh(umax / c), umax the
# u where the Gaussian has fallen to e^-46, or 8 (where the amplitudes and
# G_q have fallen below e^-32), and sums them with a running sum, so that
# its value does not depend on the other pairs of its block
def _midpoint_rule(step: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(step, sinh w_k, cosh w_k) at w_k = (k + 1/2) step up to the largest
    wmax, arsinh(8e75)."""
    w = (np.arange(math.ceil(math.asinh(8e75) / step) + 1) + 0.5) * step
    return step, np.sinh(w), np.cosh(w)


_U_RULE = _midpoint_rule(0.07)
_EVEN_CHUNK = 1 << 12  # (pair, u) elements per temporary array
_C2_FLOOR = 1e-150  # u^4 stays normal where r and g are smaller still


def _u_blocks(r: np.ndarray, g, umax, floor):
    """(pairs, u, weights) for blocks of the pairs with radii r, Gaussian
    scales g, cutoffs umax and floors of c^2, each at least _C2_FLOOR; the
    weights past a pair's own wmax are 0."""
    step, sinh_w, cosh_w = _U_RULE
    c = np.sqrt(np.maximum(np.minimum(r, g), floor))
    count = np.ceil(np.arcsinh(umax / c) / step).clip(1, sinh_w.size).astype(int)
    size = max(1, _EVEN_CHUNK // int(count.max(initial=1)))
    for lo in range(0, r.size, size):
        pairs = slice(lo, lo + size)
        k = np.arange(count[pairs].max())
        cc = c[pairs, None]
        weight = np.where(k < count[pairs, None], step * cc * cosh_w[k], 0.0)
        yield pairs, cc * sinh_w[k], weight


def _abel_amplitudes(n: int, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A_j(r, u) = d_j(x) x w, stacked along a new first axis, one per q_j,
    for n in {2, 4} and r >= 0, u > 0 broadcast against each other; w goes
    through e^-x/2, e^-u^2 and e^-2y = e^-(r+x) so that nothing overflows."""
    u2 = u * u
    x = r + u2
    w = 4.0 * u * np.exp(-0.5 * x) / np.sqrt(np.expm1(-u2) * np.expm1(-r - x))
    return _odd_heat_coefficients(n + 1, x)[1] * (x * w)


def _heat_even(n: int, r: np.ndarray, t: np.ndarray, scaled: bool) -> np.ndarray:
    """Heat kernel for n in {2, 4} at matching 1-d arrays r, t. The pair
    factors carry e^(-r^2/4t) and the nodes e^-(x^2 - r^2)/4t; the sum, of
    order sqrt t, is divided by sqrt t last, so nothing overflows before it."""
    g = np.minimum(1.0, 4.0 * t / (np.sqrt(r * r + 4.0 * t) + r))
    umax = np.minimum(8.0, np.sqrt(184.0 * t / (np.sqrt(r * r + 184.0 * t) + r)))
    factors = _time_factors(n, r, t, scaled)
    out = np.empty(r.shape)
    floor = np.maximum(1e-12 * g, _C2_FLOOR)
    for pairs, u, weight in _u_blocks(r, g, umax, floor):
        rc, u2 = r[pairs, None], u * u
        with np.errstate(over="ignore"):
            gauss = np.exp(-u2 * (2.0 * rc + u2) / (4.0 * t[pairs, None]))
        amp = _abel_amplitudes(n, rc, u)
        vals = sum(aj * fj[pairs, None] for aj, fj in zip(amp, factors))
        out[pairs] = np.cumsum(vals * gauss * weight, axis=-1)[:, -1]
    return out / np.sqrt(t)


def heat_kernel(n: int, r, t, scaled: bool = False) -> float | np.ndarray:
    """Heat kernel p_n(r, t) on H^n for n in {2, 3, 4, 5}.

    r and t broadcast against each other; two scalars give a float. With
    scaled=True the value is multiplied by exp(r^2/4t + (n-1)^2 t/4), which
    cancels the shared Gaussian and spectral-gap decay and so never
    underflows.

    Odd n is the closed form sum_j c_j(r) t^(-q_j) e^(-a t - r^2/4t), exact
    at every r including the axis. Even n is the descent from n + 1 on the
    u-rule above, at every r including the axis; each value depends on its
    own (r, t) alone, whatever else the call holds. Raises OverflowError
    where its largest time factor, t^(-q_j) e^(-a t - r^2/4t) (t^(1/2-q_j)
    times the exponential on even n), exceeds double precision: near r = 0
    for t below 5.2e-309, 3.0e-206, 7.4e-155 and 4.7e-124 on H^2..H^5. The
    value is that factor times a constant, 1/(4 pi) on H^2. With scaled=True
    the factor is t^(-q_j) alone (t^(1/2-q_j) on even n), and it raises where
    that factor overflows, at every r.
    """
    if n not in (2, 3, 4, 5):
        raise ValueError(f"dimension must be in 2..5, got {n}")
    r_arr, t_arr = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
    shape = np.broadcast(r_arr, t_arr).shape
    if not np.all(t_arr > 0):
        raise ValueError("t must be positive")
    if not np.all(r_arr >= 0):
        raise ValueError("r must be nonnegative")
    if n % 2:
        # at least 1-d, so that scalars take the same array loops as arrays
        out = _heat_odd(n, np.atleast_1d(r_arr), np.atleast_1d(t_arr), scaled).reshape(shape)
    else:
        rf = np.broadcast_to(r_arr, shape).ravel()
        tf = np.broadcast_to(t_arr, shape).ravel()
        out = _heat_even(n, rf, tf, scaled).reshape(shape)
    if np.ndim(r) == 0 and np.ndim(t) == 0:
        return float(out)
    return out


def dm_envelope(n: int, r, t) -> np.ndarray | float:
    """Two-sided comparison envelope for p_n(r, t), without normalization:

    t^(-n/2) exp(-(n-1)^2 t/4 - r^2/4t - (n-1) r/2) (1 + r + t)^((n-3)/2) (1 + r).
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    val = (
        t ** (-0.5 * n)
        * np.exp(-((n - 1) ** 2) * t / 4.0 - r * r / (4.0 * t) - (n - 1) * r / 2.0)
        * (1.0 + r + t) ** (0.5 * (n - 3))
        * (1.0 + r)
    )
    return val if val.ndim else float(val)


def dm_ratio_scan(n: int, r_grid, t_grid) -> tuple[float, float]:
    """(min, max) of heat_kernel / dm_envelope over the grid.

    The shared exponential exp(-r^2/4t - (n-1)^2 t/4) is cancelled
    analytically, so the scan is underflow-free even deep in the tails.
    """
    t = np.asarray(t_grid, dtype=float)
    r = np.asarray(r_grid, dtype=float)[:, None]
    p_scaled = heat_kernel(n, r, t, scaled=True)
    env_scaled = (
        t ** (-0.5 * n)
        * np.exp(-(n - 1) * r / 2.0)
        * (1.0 + r + t) ** (0.5 * (n - 3))
        * (1.0 + r)
    )
    ratios = p_scaled / env_scaled
    if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0):
        raise ValueError("ratio scan produced nonpositive or nonfinite values")
    return float(ratios.min()), float(ratios.max())


# ---------------------------------------------------------------------------
# fractional kernel


def frac_kernel(
    n: int,
    s: float,
    r: float,
    route: str = "time_quadrature",
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Fractional kernel int_0^inf p_n(r, t) t^(-1-s) dt on H^n.

    route="time_quadrature" splits at t = 1 with the short-time substitution
    u = r^2/4t; route="bessel_closed_form" evaluates the exact time
    transform, one Bessel K_(q_j+s) per heat-kernel amplitude: per
    coefficient c_j on odd n, summed over the u-rule of the descent on even
    n. The value is the row of r in any `frac` table with the same arguments.
    """
    return float(_frac_values(n, s, np.array([r], dtype=float), route, cfg)[0])


def _frac_values(
    n: int, s: float, r: np.ndarray, route: str, cfg: QuadratureConfig
) -> np.ndarray:
    if s is None or not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    _check_radii(r)
    if route == "bessel_closed_form":
        # near the axis the kernel exceeds double precision (r = 1e-100 on H^3)
        with np.errstate(over="ignore"):
            (total,) = _transform(n, r, lambda x, amp: (_bessel_transform(n, s, x, amp),))
    elif route == "time_quadrature":
        head = _time_integral(n, r, s, 1, cfg)
        tail = _time_integral(n, r, s, 2, cfg)
        bad = np.flatnonzero(~(head.converged & tail.converged))
        if bad.size:
            raise NonConvergenceError(f"frac_kernel(n={n}, s={s}, r={float(r[bad[0]])})")
        # near the axis the kernel exceeds double precision (r = 1e-100 on H^3)
        with np.errstate(over="ignore"):
            total = (4.0 / (r * r)) ** s * head.value + tail.value
    else:
        raise ValueError(f"unknown route {route!r}")
    return _finite(total, r, f"frac_kernel(n={n}, s={s})")


def _bessel_transform(n: int, s: float, x: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """sum_j A_j 2 (2 sqrt(a) / x)^p K_p(sqrt(a) x), p = q_j + s: the time
    integral of A_j t^(-q_j-1-s) e^(-a t - x^2/4t) over (0, inf), for A_j
    stacked along the first axis of amp, one per q_j of n. On H^3 that is
    2^nu / (2 pi^(3/2)) r^-nu csch r K_(nu+1)(r) with nu = s + 1/2."""
    sa = 0.5 * (n - 1)
    return sum(
        aj * 2.0 * (2.0 * sa / x) ** (q + s) * bessel_k(q + s, sa * x)
        for aj, q in zip(amp, _Q[n])
    )


def _check_radii(r: np.ndarray) -> None:
    if not np.all(r > 0.0):
        raise ValueError(f"r must be positive, got {r[~(r > 0.0)][0]}")


def _finite(values: np.ndarray, r: np.ndarray, what: str) -> np.ndarray:
    """values, or OverflowError naming the first radius whose value is not
    finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise OverflowError(f"{what} overflows double precision at r={float(r[bad][0])}")
    return values


def _time_integral(
    n: int, r: np.ndarray, s: float, part: int, cfg: QuadratureConfig
) -> QuadResult:
    """Row i: int p_n(r_i, t) t^(-1-s) dt over t in (0, 1] in u = r_i^2/4t,
    without the factor (4/r_i^2)^s (part 1), or over t in (1, inf) (part 2).

    One independent adaptive integral per radius, all in lockstep; each
    step's nodes of all live rows reach `heat_kernel` in one call, whose
    values each depend on their own (r_i, t) alone.
    """
    if part == 1:
        rr = r * r

        def f(i, u):
            return heat_kernel(n, r[i, None], rr[i, None] / (4.0 * u)) * u ** (s - 1.0)

        return integrate_semiinfinite_rows(f, 0.25 * rr, cfg)

    def f(i, t):
        return heat_kernel(n, r[i, None], t) * t ** (-1.0 - s)

    return integrate_semiinfinite_rows(f, np.ones(r.shape), cfg)


# ---------------------------------------------------------------------------
# logarithmic kernels K1 (short time) and K2 (long time)


def _log_values(
    n: int, r: np.ndarray, part: int, route: str, cfg: QuadratureConfig
) -> np.ndarray:
    """K1 (part 1, short time) or K2 (part 2, long time) at each radius; on
    the transform route K2 is finite even where K1's transform overflows."""
    _check_radii(r)
    if route == "bessel_closed_form":
        return _finite(_log_transform_values(n, r)[part - 1], r, f"K{part}(n={n})")
    if route != "time_quadrature":
        raise ValueError(f"unknown route {route!r}")
    res = _time_integral(n, r, 0.0, part, cfg)
    bad = np.flatnonzero(~res.converged)
    if bad.size:
        raise NonConvergenceError(f"log_kernels(n={n}, r={float(r[bad[0]])}): K{part}")
    return res.value


def log_kernels(
    n: int, r: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """(K1, K2) = (int_0^1, int_1^inf) of p_n(r, t) dt/t, adaptively; the
    rows of r in `log1` and `log2` tables."""
    r = np.array([r], dtype=float)
    return tuple(float(_log_values(n, r, part, "time_quadrature", cfg)[0]) for part in (1, 2))


# K1 = sum_j A_j F_(q_j) and K2 = sum_j A_j G_(q_j), where F_q and G_q integrate
# t^(-q-1) e^(-a t - b/t), b = x^2/4, over (0, 1] and (1, inf)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)


def _g_series(n: int) -> np.ndarray:
    """Coefficients in b of G_q = sum_k (-b)^k / k! E_(q+1+k)(a), 18 terms
    for b < 1, one column per q_j, with E_p(a) = int_1^inf t^-p e^(-a t) dt
    from E_(1/2) = sqrt(pi/a) erfc(sqrt a) and E_(p+1) = (e^-a - a E_p) / p."""
    a = 0.25 * (n - 1) ** 2
    e = [math.sqrt(math.pi / a) * math.erfc(math.sqrt(a))]
    while len(e) < 21:
        e.append((math.exp(-a) - a * e[-1]) / (len(e) - 0.5))
    return np.array(
        [
            [(-1) ** k * e[int(q + 0.5) + k] / math.factorial(k) for q in _Q[n]]
            for k in range(18)
        ]
    )


_G_SERIES = {n: _g_series(n) for n in _Q}


def _log_transforms(n: int, sb: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_j A_j F_(q_j), sum_j A_j G_(q_j)) at b = sb^2, for A_j stacked
    along the first axis of amp, one per q_j of n, and sb of the rest."""
    qs = _Q[n]
    a = 0.25 * (n - 1) ** 2
    sa = math.sqrt(a)
    b = sb * sb
    # e^(a+b) F_q at q = -1/2 and 1/2 from erfcx, then upward by b F_q =
    # e^(-a-b) + (q-1) F_(q-1) + a F_(q-2), whose terms are all positive
    lo, hi = erfcx(np.concatenate([sb - sa, sb + sa])).reshape(2, *sb.shape)
    fs = [_HALF_SQRT_PI / sa * (lo - hi), _HALF_SQRT_PI / sb * (lo + hi)]
    for q in qs:
        fs.append((1.0 + (q - 1.0) * fs[-1] + a * fs[-2]) / b)
    f = np.exp(-a - b) * np.array(fs[2:])
    # G_q: the series in b below b = 1; above it, the whole-line integral
    # 2 (a/b)^(q/2) K_q(2 sqrt(ab)) less F_q, where K_q of half-integer order
    # is sqrt(pi/2x) e^-x P_q(1/x) with P_(-1/2) = P_(1/2) = 1 and P_q =
    # P_(q-2) + 2(q-1) P_(q-1) / x
    g = _horner(np.minimum(b, 1.0), _G_SERIES[n]) if np.any(b < 1.0) else 0.0
    if np.any(b >= 1.0):
        sb_far = np.maximum(sb, 1.0)
        x = 2.0 * sa * sb_far
        polys = [1.0, 1.0]
        for q in qs:
            polys.append(polys[-2] + 2.0 * (q - 1.0) * polys[-1] / x)
        whole = np.sqrt(2.0 * math.pi / x) * np.exp(-x)
        bessel = np.array([whole * (sa / sb_far) ** q * p for q, p in zip(qs, polys[2:])])
        g = np.where(b < 1.0, g, bessel - f)
    return np.sum(amp * f, axis=0), np.sum(amp * g, axis=0)


def _transform(n: int, r: np.ndarray, kernel, outputs: int = 1) -> tuple[np.ndarray, ...]:
    """The time transforms kernel(x, amp) of the heat kernel's form at each
    radius: x = r and amp the coefficients c_j(r) on odd n; on even n
    summed over the u-rule (g = 1), x = r + u^2 and amp the amplitudes
    A_j(r, u) times the rule's weights. kernel returns `outputs` arrays,
    each summed over j."""
    if n not in _Q:
        raise ValueError(f"dimension must be in 2..5, got {n}")
    if n % 2:
        rcsch, d = _odd_heat_coefficients(n, r)
        return kernel(r, d * rcsch)
    out = np.empty((outputs,) + r.shape)
    for pairs, u, weight in _u_blocks(r, 1.0, 8.0, _C2_FLOOR):
        rc = r[pairs, None]
        amp = _abel_amplitudes(n, rc, u) * weight
        for o, v in zip(out, kernel(rc + u * u, amp)):
            o[pairs] = np.cumsum(v, axis=-1)[:, -1]
    return tuple(out)


def log_kernel_values(n: int, r_values) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (K1, K2) over an array of positive radii, without error
    estimates; used inside pointwise operators and norm integrals, where the
    kernels are needed at many quadrature nodes, and the rows of `log1` and
    `log2` tables on the transform route.

    Both are time transforms of the heat kernel's form, summed over the
    coefficients c_j on odd n and over the u-rule of the heat kernel on even
    n. Against mpmath they are within 1e-13 (relative) for r in [1e-3, 16]
    (K1) and [1e-3, 30] (K2) on odd n, and at r = 1e-3, 1e-4 and 1e-5 on
    even n; 0 where they underflow. Even n is within 1e-14 of tight time
    quadrature over [0.05, 16], and the u-rule follows the K1 peak down to
    r = 1e-150. Raises OverflowError naming the radius where K1's transform
    exceeds double precision, near the axis: below r = 3.7e-103 (H^2),
    4.8e-103 (H^3), 7.4e-62 (H^4) and 1.1e-61 (H^5).
    """
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    _check_radii(r)
    what = f"log_kernel_values(n={n})"
    return tuple(_finite(k, r, what) for k in _log_transform_values(n, r))


def _log_transform_values(n: int, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K1, K2) at positive radii, with inf or nan where K1's transform
    overflows; the recurrence for F_q runs through inf and 0 * inf there."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _transform(n, r, lambda x, amp: _log_transforms(n, 0.5 * x, amp), 2)


# ---------------------------------------------------------------------------
# kernel tables and asymptotic fits


@dataclass
class KernelTable:
    n: int
    parameter: float | None
    r_grid: np.ndarray
    values: np.ndarray
    route: str
    cfg: QuadratureConfig = DEFAULT_CONFIG
    kind: str = "frac"

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if not (np.all(np.isfinite(self.r_grid)) and np.all(np.isfinite(self.values))):
            raise ValueError("r_grid and kernel values must be finite")
        if np.any(np.diff(self.r_grid) <= 0):
            raise ValueError("r_grid must be strictly increasing")
        if np.any(self.values <= 0):
            i = int(np.argmax(self.values <= 0))
            raise ValueError(
                f"kernel values must be positive, got {self.values[i]} at r={self.r_grid[i]}"
            )
        if np.any(np.diff(self.values) >= 0):
            raise ValueError("kernel values must be strictly decreasing in r")

    def to_csv(self, csv_path, json_path=None) -> None:
        reporting.write_csv(csv_path, ["r", "value"], zip(self.r_grid, self.values))
        if json_path is None:
            json_path = str(csv_path) + ".json"
        payload = {
            "n": self.n,
            "route": self.route,
            "abs_tol": self.cfg.abs_tol,
            "rel_tol": self.cfg.rel_tol,
        }
        if self.parameter is not None:
            payload["t" if self.kind == "heat" else "s"] = self.parameter
        reporting.write_json(json_path, payload)


def build_kernel_table(
    n: int,
    kind: str,
    r_grid,
    s: float | None = None,
    t: float | None = None,
    route: str = "time_quadrature",
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> KernelTable:
    """Tabulate a radial kernel over r_grid.

    kind: "frac" (needs s), "log1"/"log2", or "heat" (needs t). Heat
    tables and, for the other kinds, route="bessel_closed_form" (the exact
    time transforms of `frac_kernel` and `log_kernel_values`) are one array
    evaluation; route="time_quadrature" runs one independent adaptive
    integral per radius, all rows in lockstep. Either way every row equals
    its one-point table bit for bit. Heat tables have no route but the
    default, which their sidecar records.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if kind == "heat":
        if route != "time_quadrature":
            raise ValueError(f"heat tables have no route {route!r}")
        values = heat_kernel(n, r_grid, t)
    elif kind == "frac":
        values = _frac_values(n, s, r_grid, route, cfg)
    elif kind in ("log1", "log2"):
        values = _log_values(n, r_grid, 1 if kind == "log1" else 2, route, cfg)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    parameter = s if kind == "frac" else t if kind == "heat" else None
    return KernelTable(n, parameter, r_grid, values, route, cfg, kind)


class IllConditionedError(ValueError):
    """Regression design matrix is rank deficient."""


@dataclass
class FitReport:
    regime: str
    model: str
    coefficients: dict[str, float]
    residual_rms: float

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "model": self.model,
            "coefficients": self.coefficients,
            "residual": self.residual_rms,
        }


_MODEL_COLUMNS = {
    "power": ("const", "log_r"),
    "power_exp": ("const", "log_r", "r"),
    "gaussian_tail": ("const", "log_r", "r", "r2"),
}


def asympt_fit(
    table: KernelTable,
    regime: str,
    model: str,
    window: tuple[float, float] | None = None,
) -> FitReport:
    """Least-squares fit of log(value) against the model columns.

    regime selects the default window (small_r: r <= 0.3, large_r: r >= 3);
    an explicit (lo, hi) window overrides it. Requires >= 6 points.
    """
    if model not in _MODEL_COLUMNS:
        raise ValueError(f"unknown model {model!r}")
    if window is None:
        window = (0.0, 0.3) if regime == "small_r" else (3.0, math.inf)
    mask = (table.r_grid >= window[0]) & (table.r_grid <= window[1])
    r = table.r_grid[mask]
    v = table.values[mask]
    if r.size < 6:
        raise ValueError(f"need >= 6 points in the {regime} window, have {r.size}")
    cols = {"const": np.ones_like(r), "log_r": np.log(r), "r": r, "r2": r * r}
    names = _MODEL_COLUMNS[model]
    design = np.stack([cols[c] for c in names], axis=1)
    y = np.log(v)
    sol, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise IllConditionedError(f"rank {rank} < {design.shape[1]} columns")
    resid = y - design @ sol
    coeffs = {name: float(c) for name, c in zip(names, sol)}
    return FitReport(regime, model, coeffs, float(np.sqrt(np.mean(resid ** 2))))


# ---------------------------------------------------------------------------
# radial functions, pointwise logarithmic Laplacian, split identity


def hyper_registry() -> dict[str, RadialFunction]:
    """The standard radial functions on H^n: the smooth bump and the Lipschitz tent."""
    return {
        "bump": BUMP,
        "tent": RadialFunction(
            "tent", lambda rho: np.maximum(0.0, 1.0 - np.asarray(rho, dtype=float)), 1.0, 1.0
        ),
    }


def _geodesic_dist(q: np.ndarray) -> np.ndarray:
    """d from q = cosh d - 1, without arccosh's cancellation near d = 0."""
    return 2.0 * np.arcsinh(np.sqrt(0.5 * np.maximum(q, 0.0)))


def _geodesic_average(profile, n: int, x_dist: float, r, breaks=()) -> np.ndarray:
    """Average of profile(d(y, o)) over the geodesic spheres of radius r
    about a point at distance x_dist from o, split at the radii `breaks`:
    cosh d - 1 = 2 sinh^2((x_dist - r)/2) + sinh x_dist sinh r (1 - cos theta)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    b = math.sinh(x_dist) * np.sinh(r)
    a = 2.0 * np.sinh(0.5 * (x_dist - r)) ** 2 + b
    cuts = 2.0 * np.sinh(0.5 * np.asarray(breaks, dtype=float)) ** 2
    return sphere_mean(profile, n, a, b, _geodesic_dist, cuts)


_R_INFINITY = 16.0  # K1 * volume growth is ~ e^(-r^2/4 + (n-1)r/2): dead by 16

POINTWISE_H_CFG = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8, max_subdivisions=500)


def _shell(n: int, g, lo: float, hi: float, cfg: QuadratureConfig, what: str) -> float:
    """|S^(n-1)| int_lo^hi g(r) sinh^(n-1) r dr: the integral over the shell
    lo < d(o, y) < hi of H^n of the radial function g(d(o, y)); an
    unconverged integral raises NonConvergenceError naming `what`."""
    res = integrate(lambda r: g(r) * np.sinh(r) ** (n - 1), lo, hi, cfg=cfg)
    return sphere_area(n) * res.checked(what)


def _log_weighted(n: int, f: RadialFunction, x_dist: float, weight):
    """r -> weight(K1(r), K2(r), avg f(r)), avg f the mean of f over the
    geodesic sphere of radius r about the point at distance x_dist."""

    def g(r):
        k1, k2 = log_kernel_values(n, r)
        return weight(k1, k2, _geodesic_average(f.profile, n, x_dist, r, f.breaks))

    return g


def _log_power(n: int, part: int, power: float = 1.0):
    """r -> K1(r)^power (part 1) or K2(r)^power (part 2)."""
    return lambda r: log_kernel_values(n, r)[part - 1] ** power


@functools.cache
def _k1_tail_constant(n: int) -> float:
    """rho_n^H = |S^(n-1)| int_1^inf K1(r) sinh^(n-1) r dr + Gamma'(1)."""
    what = f"K1 tail constant (n={n})"
    return _shell(n, _log_power(n, 1), 1.0, _R_INFINITY, POINTWISE_H_CFG, what) - EULER_GAMMA


def log_pointwise_h(
    n: int,
    f: RadialFunction,
    x_dist: float,
    cfg: QuadratureConfig = POINTWISE_H_CFG,
) -> float:
    """Pointwise logarithmic Laplacian on H^n at geodesic distance x_dist
    from the center of the radial function f:

    int K1(d)(f(x) - f(y)) dvol - int K2(d) f(y) dvol + Gamma'(1) f(x).
    """
    if x_dist < 0:
        raise ValueError("x_dist must be nonnegative")
    fx = float(f.profile(np.array([x_dist]))[0])
    route = f"log_pointwise_h(n={n}, {f.id}, x={x_dist!r})"
    if x_dist > f.support_radius + 0.5:
        # support is disjoint from the unit ball around x: the value reduces
        # to -int (K1 + K2)(d(x, y)) f(y) dvol, integrated around the center
        # of f where the support subtends order-one angles
        def k_sum(d):
            k1, k2 = log_kernel_values(n, d.ravel())
            return (k1 + k2).reshape(d.shape)

        def far_form(rho):
            return f.profile(rho) * _geodesic_average(k_sum, n, x_dist, rho)

        return -_shell(n, far_form, 0.0, f.support_radius, cfg, f"{route}: far form")
    r_active = x_dist + f.support_radius
    core = _log_weighted(n, f, x_dist, lambda k1, k2, avg: k1 * (fx - avg) - k2 * avg)
    value = _shell(n, core, 0.0, r_active, cfg, f"{route}: core")
    if fx != 0.0:
        what = f"{route}: K1 tail"
        value += fx * _shell(n, _log_power(n, 1), r_active, _R_INFINITY, cfg, what)
    return value - EULER_GAMMA * fx


def log_bochner_h(
    n: int,
    f: RadialFunction,
    x_dist: float,
    cfg: QuadratureConfig = POINTWISE_H_CFG,
) -> float:
    """Independent time-quadrature route: int (e^-t f(x) - P_t f(x)) / t dt."""
    area = sphere_area(n)
    fx = float(f.profile(np.array([x_dist]))[0])
    r_active = x_dist + f.support_radius
    route = f"log_bochner_h(n={n}, x={x_dist})"

    # the geodesic average of f is flat but not analytic at the radii where
    # the sphere about x touches the support's boundary; the pieces between
    # them are smooth in every row
    edges = sorted({abs(x_dist - f.support_radius), r_active} - {0.0})

    def radial(t: np.ndarray, r_hi: np.ndarray, weight) -> np.ndarray:
        """|S^(n-1)| / t int_0^r_hi p(r, t) weight(avg f) sinh^(n-1) r dr at
        each t, the radial term of the time integrand, so that the
        tolerances bound what the time rule sums. On each piece between the
        edges it is one independent row per t, refined where its own heat
        kernel needs it; each row is also cut at r = 8 sqrt(t), so that its
        first piece holds the heat kernel's peak of width sqrt(t)."""
        total = np.zeros(t.shape)
        lo = np.zeros(t.shape)
        cuts = [np.full(t.shape, edge) for edge in (*edges, math.inf)]
        for edge in np.sort(np.stack([*cuts, 8.0 * np.sqrt(t)], axis=-1), axis=-1).T:
            hi = np.minimum(r_hi, edge)
            live = np.flatnonzero(hi > lo)
            if not live.size:  # hi == lo in every row
                continue

            def g(rows, r, t_live=t[live]):
                tr = t_live[rows, None]
                avg = _geodesic_average(f.profile, n, x_dist, r, f.breaks)
                p = heat_kernel(n, r, tr) * (area / tr)
                return p * weight(avg) * np.sinh(r) ** (n - 1)

            res = integrate_rows(g, lo[live], hi[live], cfg)
            total[live] += res.checked(f"{route}: radial")
            lo = hi
        return total

    def head(t):
        # f(x) - P_t f(x) = int p(r, t) (f(x) - avg f) dvol by mass 1
        rmax = np.minimum(np.maximum(r_active + 2.0, 14.0 * np.sqrt(t) + (n - 1) * t), 60.0)
        return np.expm1(-t) * fx / t + radial(t, rmax, lambda avg: fx - avg)

    def tail(t):
        return np.exp(-t) * fx / t - radial(t, np.full(t.shape, r_active), lambda avg: avg)

    head_part = integrate(head, 0.0, 1.0, cfg=cfg).checked(f"{route}: short-time")
    tail_part = integrate_semiinfinite(tail, 1.0, cfg=cfg).checked(f"{route}: long-time")
    return head_part + tail_part


@dataclass
class SplitReport:
    near: float
    far: float
    remainder: float
    tail_constant: float
    total: float
    direct: float

    @property
    def identity_residual(self) -> float:
        return abs(self.near + self.far + self.remainder - self.direct)


def _remainder(n: int, f: RadialFunction, x_dist: float, cfg: QuadratureConfig) -> float:
    """The remainder of the split at x: -int_{B_1} K2 f(y) dvol -
    int_{complement} K1 f(y) dvol + rho_n^H f(x)."""
    fx = float(f.profile(np.array([x_dist]))[0])
    r_active = x_dist + f.support_radius
    route = f"split_check(n={n}, {f.id}, x={x_dist!r})"
    k1_outer = 0.0
    if r_active > 1.0:
        k1_avg = _log_weighted(n, f, x_dist, lambda k1, k2, avg: k1 * avg)
        k1_outer = _shell(n, k1_avg, 1.0, r_active, cfg, f"{route}: (1.0, {r_active})")
    inner = min(1.0, r_active)
    k2_avg = _log_weighted(n, f, x_dist, lambda k1, k2, avg: k2 * avg)
    k2_inner = _shell(n, k2_avg, 0.0, inner, cfg, f"{route}: (0.0, {inner})")
    return -k2_inner - k1_outer + _k1_tail_constant(n) * fx


def split_check(
    n: int,
    f: RadialFunction,
    x_dist: float,
    cfg: QuadratureConfig = POINTWISE_H_CFG,
) -> SplitReport:
    """Near/far/remainder decomposition of the pointwise value.

    near = int_{B_1} K1 (f(x) - f(y)), far = -int_{complement} K2 f(y) and
    the remainder collects -int_{B_1} K2 f, -int_{complement} K1 f and the
    tail constant rho_n^H f(x); their sum must reproduce the direct value.
    """
    fx = float(f.profile(np.array([x_dist]))[0])
    r_active = x_dist + f.support_radius
    route = f"split_check(n={n}, {f.id}, x={x_dist!r})"
    near_form = _log_weighted(n, f, x_dist, lambda k1, k2, avg: k1 * (fx - avg))
    near = _shell(n, near_form, 0.0, 1.0, cfg, f"{route}: (0.0, 1.0)")
    far = 0.0
    if r_active > 1.0:
        k2_avg = _log_weighted(n, f, x_dist, lambda k1, k2, avg: k2 * avg)
        far = -_shell(n, k2_avg, 1.0, r_active, cfg, f"{route}: (1.0, {r_active})")
    remainder = _remainder(n, f, x_dist, cfg)
    rho_h = _k1_tail_constant(n)
    direct = log_pointwise_h(n, f, x_dist, cfg=cfg)
    return SplitReport(near, far, remainder, rho_h, near + far + remainder, direct)


def heat_mass(n: int, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Total heat-kernel mass |S^(n-1)| int p_n(r, t) sinh^(n-1) r dr."""
    rmax = (n - 1) * t + 14.0 * math.sqrt(t) + 12.0
    return _shell(n, lambda r: heat_kernel(n, r, t), 0.0, rmax, cfg, f"heat_mass(n={n}, t={t})")


def chapman_kolmogorov_residual(t: float, s: float, dist: float) -> float:
    """|int p_t(x, y) p_s(y, z) dvol(y) - p_{t+s}(d(x,z))| on H^3."""
    n = 3

    def g(r):
        inner = _geodesic_average(lambda d: heat_kernel(n, d, s), n, dist, r)
        return heat_kernel(n, r, t) * inner

    what = f"chapman_kolmogorov_residual(t={t}, s={s}, d={dist})"
    return abs(_shell(n, g, 0.0, 14.0, DEFAULT_CONFIG, what) - heat_kernel(n, dist, t + s))


# ---------------------------------------------------------------------------
# kernel norms, weighted integrability, energy inequality


@dataclass
class KernelNormReport:
    p: float
    radii: list[float]
    truncated_norms: list[float]
    log_growth_rates: list[float]
    weighted_l1: float | None = None
    energy_lhs: float | None = None
    energy_rhs: float | None = None


def kernel_norms(
    n: int,
    p: float,
    r_trunc_list,
    f: RadialFunction | None = None,
    energy_pq: tuple[float, float] | None = None,
    cfg: QuadratureConfig = POINTWISE_H_CFG,
) -> KernelNormReport:
    """Truncated L^p norms of K2, the weighted-L1 functional, and both sides
    of the remainder energy inequality for a supplied f.

    For p > 1 the truncated norms stabilize; for p = 1 successive increments
    grow like c log(R_{i+1}/R_i). energy_pq = (p, q) must satisfy
    1/q + 2/p = 2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    radii = [float(r) for r in r_trunc_list]
    if sorted(radii) != radii:
        raise ValueError("truncation radii must increase")
    k2_pow = _log_power(n, 2, p)
    norms = []
    acc = 0.0
    prev = 0.0
    for rt in radii:
        acc += _shell(n, k2_pow, prev, rt, cfg, f"kernel_norms(n={n}, p={p}): ({prev}, {rt})")
        prev = rt
        norms.append(acc ** (1.0 / p))
    steps = zip(norms, norms[1:], radii, radii[1:])
    rates = [(b - a) / math.log(rb / ra) for a, b, ra, rb in steps] if p == 1.0 else []
    report = KernelNormReport(p, radii, norms, rates)
    if f is not None:
        def weighted(r):
            return np.abs(f.profile(r)) * np.exp(-(n - 1) * r) / (1.0 + r)

        what = f"kernel_norms(n={n}): weighted L1 of {f.id}"
        report.weighted_l1 = _shell(n, weighted, 0.0, f.support_radius, cfg, what)
    if f is not None and energy_pq is not None:
        pe, qe = energy_pq
        if abs(1.0 / qe + 2.0 / pe - 2.0) > 1e-12:
            raise ValueError("energy exponents must satisfy 1/q + 2/p = 2")
        report.energy_lhs, report.energy_rhs = _energy_inequality(n, f, pe, qe, cfg)
    return report


def _lp_norm_radial(f: RadialFunction, n: int, p: float) -> float:
    def g(r):
        return np.abs(f.profile(r)) ** p

    what = f"L^{p} norm of {f.id}"
    return _shell(n, g, 0.0, f.support_radius, DEFAULT_CONFIG, what) ** (1.0 / p)


def _energy_inequality(
    n: int, f: RadialFunction, p: float, q: float, cfg: QuadratureConfig
) -> tuple[float, float]:
    """LHS = int |R_n(f; x)| |f(x)| dvol against the Young-type bound."""
    rho_h = _k1_tail_constant(n)
    # |remainder(x)| |f(x)| is smooth on the support; a short Gauss rule
    # suffices and each node costs two radial integrals
    gx, gw = np.polynomial.legendre.leggauss(10)
    xs = 0.5 * f.support_radius * (gx + 1.0)
    ws = 0.5 * f.support_radius * gw
    lhs_vals = [abs(_remainder(n, f, float(xd), cfg)) for xd in xs]
    fx = np.abs(f.profile(xs))
    lhs = sphere_area(n) * float(ws @ (np.array(lhs_vals) * fx * np.sinh(xs) ** (n - 1)))

    what = f"energy inequality (n={n}, q={q})"
    k2_q = _shell(n, _log_power(n, 2, q), 0.0, 1.0, cfg, f"{what}: K2") ** (1.0 / q)
    k1_q = _shell(n, _log_power(n, 1, q), 1.0, _R_INFINITY, cfg, f"{what}: K1") ** (1.0 / q)
    fp = _lp_norm_radial(f, n, p)
    f2 = _lp_norm_radial(f, n, 2.0)
    rhs = k2_q * fp ** 2 + k1_q * fp ** 2 + abs(rho_h) * f2 ** 2
    return lhs, rhs
