"""Heat, fractional, and logarithmic kernels on real hyperbolic space H^n.

Odd dimensions evaluate the heat kernel in closed form,
p_n = sum_j c_j(r) t^(-q_j) exp(-a t - r^2/4t) with a = ((n-1)/2)^2 and
half-integer q_j, from coefficients c_j written through e^-r so that they
neither overflow nor lose accuracy at any r >= 0; even dimensions evaluate
the singular integral formula after the substitution x = r + u^2, which
removes the (cosh x - cosh r)^(-1/2) endpoint exactly.

The fractional kernel comes either from time quadrature of the heat kernel
or, in dimensions 3 and 5, from a closed Bessel-function form: the time
integral of each c_j term is a modified Bessel function K_(q_j+s); the two
routes are compared in the tests.

The logarithmic kernels K1 and K2 (the time integrals of p_n dt/t over
(0, 1] and (1, inf)) come from adaptive time quadrature in `log_kernels` and
the log tables. `log_kernel_values`, their array form for the integrands of
the pointwise operator and kernel norms, is a closed form of erfc and
half-integer Bessel K terms in dimensions 3 and 5, and a fixed time rule in
dimensions 2 and 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import reporting
from .quadrature import (
    DEFAULT_CONFIG,
    NonConvergenceError,
    QuadratureConfig,
    QuadResult,
    edge_breaks,
    integrate,
    integrate_rows,
    integrate_semiinfinite,
    integrate_semiinfinite_rows,
    sphere_area,
    sphere_mean,
)
from .specfun import EULER_GAMMA, bessel_k, erfcx

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
    "HyperRadialFunction",
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
# a = ((n-1)/2)^2 and half-integer q_j; c = pref r / sinh r on H^3, and on
# H^5 c_j = pref_j (r / sinh r)^2 h_j with h_2 = 1 and h_1 = (r cosh r -
# sinh r) / (r^2 sinh r), whose difference cancels below r = 1, where h_1 =
# (r / sinh r) sum_(k>=1) 2k r^(2k-2) / (2k+1)!

_ODD_Q = {3: (1.5,), 5: (1.5, 2.5)}
_ODD_PREF = (4.0 * math.pi) ** -1.5  # pref on H^3; pref_j = pref / (2 pi j) on H^5
_H1_SERIES = np.array([2.0 * k / math.factorial(2 * k + 1) for k in range(1, 11)])


def _power_series(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] x^k at each x, for coef of shape (terms,) or (terms, m)."""
    return np.vander(x, len(coef), increasing=True) @ coef


def _odd_heat_coefficients(n: int, r: np.ndarray) -> np.ndarray:
    """c_j(r), stacked along a new first axis, one per q_j, without overflow
    at any r >= 0: with e = e^-r, r / sinh r = 2 r e / (1 - e^2) (1 at r = 0)
    and r coth r = r (1 + e^2) / (1 - e^2)."""
    e = np.exp(-r)
    one_minus = np.where(r > 0.0, -np.expm1(-2.0 * r), 1.0)
    rcsch = np.where(r > 0.0, 2.0 * r * e / one_minus, 1.0)
    if n == 3:
        return _ODD_PREF * rcsch[None]
    h1 = (r * (1.0 + e * e) / one_minus - 1.0) / np.maximum(r * r, 1.0)
    if np.any(r < 1.0):
        rs = np.minimum(r, 1.0).ravel()
        series = _power_series(rs * rs, _H1_SERIES).reshape(r.shape)
        h1 = np.where(r < 1.0, rcsch * series, h1)
    c2 = _ODD_PREF / (4.0 * math.pi) * rcsch * rcsch
    return np.array([2.0 * c2 * h1, c2])


def _heat_odd(n: int, r: np.ndarray, t: np.ndarray, scaled: bool) -> np.ndarray:
    """Heat kernel for n in {3, 5} at r and t broadcast against each other;
    the coefficients c_j are computed once per entry of r."""
    c = _odd_heat_coefficients(n, r)
    vals = sum(cj * t ** -q for cj, q in zip(c, _ODD_Q[n]))
    if scaled:
        return vals
    return vals * np.exp(-0.25 * (n - 1) ** 2 * t - r * r / (4.0 * t))


_K_GL_N, _K_GL_W = np.polynomial.legendre.leggauss(24)


def _panels(edges, gl_nodes=_K_GL_N, gl_weights=_K_GL_W):
    """Composite Gauss-Legendre nodes and weights on consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (lo + half * (gl_nodes + 1.0)).ravel(), (half * gl_weights).ravel()


# even dimensions: singular-integral formula with x = r + u^2, on a u-rule
# over [0, 1] that each (r, t) scales by its own umax: 24-point Gauss-Legendre
# panels on edges graded by power 3, 4 of them (96 nodes) for n = 2 and 5
# (120 nodes) for n = 4. The grading resolves the peak at u ~ sqrt(r) down to
# the smallest axis anchor, r = 1e-3, even at large t
_EVEN_RULES = {n: _panels(np.linspace(0.0, 1.0, p + 1) ** 3) for n, p in ((2, 4), (4, 5))}
_EVEN_CHUNK = 1 << 12  # (r, t, u) elements per temporary array
_ANCHOR_MAX = 0.02  # below this radius values come from the axis extension


def _stable_u_over_sqrt_sinh(u: np.ndarray) -> np.ndarray:
    """u / sqrt(sinh(u^2/2)), a smooth even function of u."""
    w = 0.5 * u * u
    small = w < 1e-6
    ws = np.where(small, 0.0, w)
    out = np.where(
        small,
        math.sqrt(2.0) * (1.0 - w * w / 24.0),
        u / np.sqrt(np.where(small, 1.0, np.sinh(ws))),
    )
    return out


def _heat_even(n: int, r: np.ndarray, t: np.ndarray, scaled: bool) -> np.ndarray:
    """Heat kernel for n in {2, 4} at matching 1-d arrays r, t."""
    m = (n - 2) // 2
    pref = (-1.0) ** m / (2.0 ** (m + 2.5) * math.pi ** (m + 1.5))
    lam = (2 * m + 1) ** 2 / 4.0
    rule_u, rule_w = _EVEN_RULES[n]
    out = np.empty(r.shape)
    step = max(1, _EVEN_CHUNK // rule_u.size)
    for lo in range(0, r.size, step):
        rc, tc = r[lo : lo + step, None], t[lo : lo + step, None]
        umax = np.sqrt(np.maximum(-rc + np.sqrt(rc * rc + 200.0 * tc), 1e-8)) + 0.7
        u = umax * rule_u
        u2 = u * u
        x = rc + u2
        # scaled: x^2 - r^2 = 2 r u^2 + u^4 leaves out the factor exp(-r^2/4t)
        expo = 2.0 * rc * u2 + u2 * u2 if scaled else x * x
        base = _stable_u_over_sqrt_sinh(u) * np.exp(-expo / (4.0 * tc))
        y = rc + 0.5 * u2
        vals = math.sqrt(2.0) * base / np.sqrt(np.sinh(y))
        if n == 2:
            vals *= x
        else:
            # one application of (1/sinh r) d/dr under the integral sign
            vals *= (1.0 - x * x / (2.0 * tc) - 0.5 * x / np.tanh(y)) / np.sinh(rc)
        total = np.sum(vals * rule_w, axis=-1) * umax[:, 0]
        tv = t[lo : lo + step]
        out[lo : lo + step] = pref * tv ** -1.5 * (1.0 if scaled else np.exp(-lam * tv)) * total
    return out


def _axis_anchors(r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the radii that lie below their anchor, and those anchors."""
    idx = np.flatnonzero(r < _ANCHOR_MAX)
    if idx.size == 0:
        return idx, np.empty(0)
    radii, group = np.unique(r[idx], return_inverse=True)
    tmin = np.full(radii.size, np.inf)
    np.minimum.at(tmin, group, t[idx])
    anchor = np.clip(0.1 * np.sqrt(tmin), 1e-3, _ANCHOR_MAX)[group]
    keep = r[idx] < anchor
    return idx[keep], anchor[keep]


def heat_kernel(n: int, r, t, scaled: bool = False) -> float | np.ndarray:
    """Heat kernel p_n(r, t) on H^n for n in {2, 3, 4, 5}.

    r and t broadcast against each other; two scalars give a float. With
    scaled=True the value is multiplied by exp(r^2/4t + (n-1)^2 t/4), which
    cancels the shared Gaussian and spectral-gap decay and so never
    underflows.

    Odd n is the closed form sum_j c_j(r) t^(-q_j) e^(-a t - r^2/4t), exact
    at every r including the axis. On even n, values at r below 0.02 use an
    even-quadratic extension from anchors at a and 2a, which the u-rule
    resolves; a = 0.1 sqrt(t_min) clipped to
    [1e-3, 0.02], with t_min the smallest t paired with that same r.
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
        out = _heat_odd(n, r_arr, t_arr, scaled)
    else:
        rf = np.broadcast_to(r_arr, shape).ravel()
        tf = np.broadcast_to(t_arr, shape).ravel()
        # radii below their anchor are evaluated at the anchor a (in place)
        # and at 2a (appended), then extended evenly: p(r) = p0 + p2 r^2
        axis, anchor = _axis_anchors(rf, tf)
        r_eval = np.concatenate([rf, 2.0 * anchor])
        r_eval[axis] = anchor
        vals = _heat_even(n, r_eval, np.concatenate([tf, tf[axis]]), scaled)
        out = vals[: rf.size]
        if axis.size:
            v1, v2 = out[axis], vals[rf.size :]
            p0 = (4.0 * v1 - v2) / 3.0
            p2 = (v1 - p0) / anchor ** 2
            out[axis] = p0 + p2 * rf[axis] * rf[axis]
        out = out.reshape(shape)
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
    u = r^2/4t; route="bessel_closed_form" (n in {3, 5}) evaluates the exact
    Bessel-function form, one K_(q_j+s) per heat-kernel coefficient c_j. The
    value is the row of r in any `frac` table with the same arguments.
    """
    return float(_frac_values(n, s, np.array([r], dtype=float), route, cfg)[0])


def _frac_values(
    n: int, s: float, r: np.ndarray, route: str, cfg: QuadratureConfig
) -> np.ndarray:
    if s is None or not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    _check_radii(r)
    if route == "bessel_closed_form":
        if n not in (3, 5):
            raise ValueError("closed Bessel form available for n in {3, 5} only")
        # the time integral of c_j t^(-q_j-1-s) e^(-a t - r^2/4t) over (0, inf)
        # is c_j 2 (2 sqrt(a) / r)^p K_p(sqrt(a) r) with p = q_j + s; with
        # nu = s + 1/2 that is 2^nu / (2 pi^(3/2)) r^-nu csch r K_(nu+1)(r) on
        # H^3 and 4^nu / (4 pi^(5/2)) 2 r^-nu csch^2 r [2 K_(nu+2)(2r) +
        # (coth r - 1/r) K_(nu+1)(2r)] on H^5
        sa = 0.5 * (n - 1)
        x = sa * r
        total = np.zeros(r.shape)
        for cj, q in zip(_odd_heat_coefficients(n, r), _ODD_Q[n]):
            k = np.array([bessel_k(q + s, float(v)) for v in x])
            total += cj * 2.0 * (2.0 * sa / r) ** (q + s) * k
        return total
    if route != "time_quadrature":
        raise ValueError(f"unknown route {route!r}")
    head = _time_integral(n, r, s, 1, cfg)
    tail = _time_integral(n, r, s, 2, cfg)
    bad = np.flatnonzero(~(head.converged & tail.converged))
    if bad.size:
        raise NonConvergenceError(f"frac_kernel(n={n}, s={s}, r={float(r[bad[0]])})")
    return (4.0 / (r * r)) ** s * head.value + tail.value


def _check_radii(r: np.ndarray) -> None:
    if not np.all(r > 0.0):
        raise ValueError(f"r must be positive, got {r[~(r > 0.0)][0]}")


def _time_integral(
    n: int, r: np.ndarray, s: float, part: int, cfg: QuadratureConfig
) -> QuadResult:
    """Row i: int p_n(r_i, t) t^(-1-s) dt over t in (0, 1] in u = r_i^2/4t,
    without the factor (4/r_i^2)^s (part 1), or over t in (1, inf) (part 2).

    One independent adaptive integral per radius, all in lockstep; each
    step's nodes of row i reach `heat_kernel` in one call, paired with r_i
    alone, so on even n its axis anchor sees the same t whatever the other
    rows are.
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


def _log_values(n: int, r: np.ndarray, part: int, cfg: QuadratureConfig) -> np.ndarray:
    """K1 (part 1, short time) or K2 (part 2, long time) at each radius."""
    _check_radii(r)
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
    return float(_log_values(n, r, 1, cfg)[0]), float(_log_values(n, r, 2, cfg)[0])


# odd n: K1 = sum_j c_j F_(q_j) and K2 = sum_j c_j G_(q_j), where F_q and
# G_q integrate t^(-q-1) e^(-a t - b/t), b = r^2/4, over (0, 1] and (1, inf)
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
            [(-1) ** k * e[int(q + 0.5) + k] / math.factorial(k) for q in _ODD_Q[n]]
            for k in range(18)
        ]
    )


_G_SERIES = {n: _g_series(n) for n in _ODD_Q}


def _log_closed_form(n: int, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K1, K2) on H^n, n in {3, 5}, from half-integer F_q and G_q."""
    qs = _ODD_Q[n]
    a = 0.25 * (n - 1) ** 2
    sa, sb = math.sqrt(a), 0.5 * r
    b = sb * sb
    # e^(a+b) F_q at q = -1/2 and 1/2 from erfcx, then upward by b F_q =
    # e^(-a-b) + (q-1) F_(q-1) + a F_(q-2), whose terms are all positive
    lo, hi = erfcx(np.concatenate([sb - sa, sb + sa])).reshape(2, -1)
    fs = [_HALF_SQRT_PI / sa * (lo - hi), _HALF_SQRT_PI / sb * (lo + hi)]
    for q in qs:
        fs.append((1.0 + (q - 1.0) * fs[-1] + a * fs[-2]) / b)
    f = np.exp(-a - b) * np.array(fs[2:])
    # G_q: the series in b below b = 1; above it, the whole-line integral
    # 2 (a/b)^(q/2) K_q(2 sqrt(ab)) less F_q, where K_q of half-integer order
    # is sqrt(pi/2x) e^-x P_q(1/x) with P_(-1/2) = P_(1/2) = 1 and P_q =
    # P_(q-2) + 2(q-1) P_(q-1) / x
    g = _power_series(np.minimum(b, 1.0), _G_SERIES[n]).T
    if np.any(b >= 1.0):
        sb_far = np.maximum(sb, 1.0)
        x = 2.0 * sa * sb_far
        polys = [1.0, 1.0]
        for q in qs:
            polys.append(polys[-2] + 2.0 * (q - 1.0) * polys[-1] / x)
        whole = np.sqrt(2.0 * math.pi / x) * np.exp(-x)
        bessel = np.array([whole * (sa / sb_far) ** q * p for q, p in zip(qs, polys[2:])])
        g = np.where(b < 1.0, g, bessel - f)
    c = _odd_heat_coefficients(n, r)
    return np.sum(c * f, axis=0), np.sum(c * g, axis=0)


# fixed composite rules of log_kernel_values on even n: K1 in u = r^2/4t on
# a + edges, K2 in v = 1/t on (0, 1]
_K1_U, _K1_W = _panels([0.0, 1.0, 3.0, 7.0, 14.0, 26.0, 45.0, 75.0])
_K2_V, _K2_W = _panels(np.linspace(1e-9, 1.0, 9))


def log_kernel_values(n: int, r_values) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (K1, K2) over an array of positive radii, without error
    estimates; used inside pointwise operators and norm integrals, where the
    kernels are needed at many quadrature nodes.

    Odd n is the closed form: within 1e-13 (relative) of the integrals for
    r in [1e-3, 16] (K1) and [1e-3, 30] (K2), and 0 where they underflow.
    Even n sums the heat kernel on fixed composite time rules (168 + 192
    nodes). Against `log_kernels` at rel_tol 1e-13 for r in [0.05, 16],
    their K1 error grows as r falls, to 7.3e-5 at r = 0.05 on H^2 and 1.8e-7
    on H^4; K2 is within 6.8e-12 on H^2 for r <= 8 (1.3e-9 at r = 16) and
    4e-15 on H^4.
    """
    if n not in (2, 3, 4, 5):
        raise ValueError(f"dimension must be in 2..5, got {n}")
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    _check_radii(r)
    if n % 2:
        return _log_closed_form(n, r)
    r = r[:, None]
    a = 0.25 * r * r
    # K1: int_a^inf p(r, a/u) du/u, integrand decays like e^-u
    u = a + _K1_U
    k1 = np.sum(heat_kernel(n, r, a / u) / u * _K1_W, axis=-1)
    # K2: int_1^inf p/t dt with w = 1/t
    k2 = np.sum(heat_kernel(n, r, 1.0 / _K2_V) / _K2_V * _K2_W, axis=-1)
    return k1, k2


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

    kind: "frac" (needs s), "log1"/"log2", or "heat" (needs t). Heat and
    Bessel closed-form tables are one array evaluation; the time-quadrature
    kinds run one independent adaptive integral per radius, all rows in
    lockstep, so every row equals its one-point table bit for bit.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if kind == "heat":
        values = heat_kernel(n, r_grid, t)
    elif kind == "frac":
        values = _frac_values(n, s, r_grid, route, cfg)
    elif kind in ("log1", "log2"):
        values = _log_values(n, r_grid, 1 if kind == "log1" else 2, cfg)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    parameter = s if kind == "frac" else t if kind == "heat" else None
    table_route = route if kind == "frac" else "time_quadrature"
    return KernelTable(n, parameter, r_grid, values, table_route, cfg, kind)


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


@dataclass(frozen=True)
class HyperRadialFunction:
    """Radial profile supported in a geodesic ball of radius support_radius;
    `breaks` are the radii, ascending, where it is not analytic, the last
    (by default the only) one the support edge."""

    id: str
    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    smoothness: str = "smooth"  # "smooth" | "holder"
    holder_alpha: float | None = None
    breaks: tuple[float, ...] = ()

    def __post_init__(self):
        if self.smoothness == "holder" and not (
            self.holder_alpha and self.holder_alpha > 0
        ):
            raise ValueError("holder class requires a positive exponent")
        breaks = edge_breaks(self.id, self.breaks, self.support_radius)
        object.__setattr__(self, "breaks", breaks)


def _hyper_bump(rho):
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - rho[inside] ** 2))
    return out


def hyper_registry() -> dict[str, HyperRadialFunction]:
    return {
        "bump": HyperRadialFunction("bump", _hyper_bump, 1.0, "smooth", breaks=(0.9, 1.0)),
        "tent": HyperRadialFunction(
            "tent",
            lambda rho: np.maximum(0.0, 1.0 - np.asarray(rho, dtype=float)),
            1.0,
            "holder",
            1.0,
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


@functools.cache
def _k1_tail_constant(n: int) -> float:
    """rho_n^H = |S^(n-1)| int_1^inf K1(r) sinh^(n-1) r dr + Gamma'(1)."""
    area = sphere_area(n)

    def g(r):
        k1, _ = log_kernel_values(n, r)
        return k1 * np.sinh(r) ** (n - 1)

    res = integrate(g, 1.0, _R_INFINITY, cfg=POINTWISE_H_CFG)
    return area * res.checked(f"K1 tail constant (n={n})") - EULER_GAMMA


def log_pointwise_h(
    n: int,
    f: HyperRadialFunction,
    x_dist: float,
    cfg: QuadratureConfig = POINTWISE_H_CFG,
) -> float:
    """Pointwise logarithmic Laplacian on H^n at geodesic distance x_dist
    from the center of the radial function f:

    int K1(d)(f(x) - f(y)) dvol - int K2(d) f(y) dvol + Gamma'(1) f(x).
    """
    if f.smoothness == "holder" and (f.holder_alpha or 0) <= 0:
        raise ValueError("f must be smooth or positively Holder continuous")
    if x_dist < 0:
        raise ValueError("x_dist must be nonnegative")
    area = sphere_area(n)
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
            ksum = _geodesic_average(k_sum, n, x_dist, rho)
            return f.profile(rho) * ksum * np.sinh(rho) ** (n - 1)

        far = integrate(far_form, 0.0, f.support_radius, cfg=cfg)
        return -area * far.checked(f"{route}: far form")
    r_active = x_dist + f.support_radius

    def core(r):
        k1, k2 = log_kernel_values(n, r)
        avg = _geodesic_average(f.profile, n, x_dist, r, f.breaks)
        return (k1 * (fx - avg) - k2 * avg) * np.sinh(r) ** (n - 1)

    def k1_only(r):
        k1, _ = log_kernel_values(n, r)
        return k1 * np.sinh(r) ** (n - 1)

    value = area * integrate(core, 0.0, r_active, cfg=cfg).checked(f"{route}: core")
    if fx != 0.0:
        tail = integrate(k1_only, r_active, _R_INFINITY, cfg=cfg)
        value += fx * area * tail.checked(f"{route}: K1 tail")
    return value - EULER_GAMMA * fx


def log_bochner_h(
    n: int,
    f: HyperRadialFunction,
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
        kernel needs it."""
        total = np.zeros(t.shape)
        lo = np.zeros(t.shape)
        for edge in [*edges, math.inf]:
            hi = np.minimum(r_hi, edge)
            live = np.flatnonzero(hi > lo)
            if not live.size:
                break

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


def split_check(
    n: int,
    f: HyperRadialFunction,
    x_dist: float,
    cfg: QuadratureConfig = POINTWISE_H_CFG,
) -> SplitReport:
    """Near/far/remainder decomposition of the pointwise value.

    near = int_{B_1} K1 (f(x) - f(y)), far = -int_{complement} K2 f(y) and
    the remainder collects -int_{B_1} K2 f, -int_{complement} K1 f and the
    tail constant rho_n^H f(x); their sum must reproduce the direct value.
    """
    area = sphere_area(n)
    fx = float(f.profile(np.array([x_dist]))[0])
    r_active = x_dist + f.support_radius
    route = f"split_check(n={n}, {f.id}, x={x_dist!r})"

    def radial(weight, lo: float, hi: float) -> float:
        """|S^(n-1)| int_lo^hi weight(K1, K2, avg f) sinh^(n-1) r dr."""

        def g(r):
            k1, k2 = log_kernel_values(n, r)
            avg = _geodesic_average(f.profile, n, x_dist, r, f.breaks)
            return weight(k1, k2, avg) * np.sinh(r) ** (n - 1)

        return area * integrate(g, lo, hi, cfg=cfg).checked(f"{route}: ({lo}, {hi})")

    near = radial(lambda k1, k2, avg: k1 * (fx - avg), 0.0, 1.0)
    far = k1_outer = 0.0
    if r_active > 1.0:
        far = -radial(lambda k1, k2, avg: k2 * avg, 1.0, r_active)
        k1_outer = radial(lambda k1, k2, avg: k1 * avg, 1.0, r_active)
    k2_inner = radial(lambda k1, k2, avg: k2 * avg, 0.0, min(1.0, r_active))
    rho_h = _k1_tail_constant(n)
    remainder = -k2_inner - k1_outer + rho_h * fx
    direct = log_pointwise_h(n, f, x_dist, cfg=cfg)
    return SplitReport(near, far, remainder, rho_h, near + far + remainder, direct)


def heat_mass(n: int, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Total heat-kernel mass |S^(n-1)| int p_n(r, t) sinh^(n-1) r dr."""
    area = sphere_area(n)
    rmax = (n - 1) * t + 14.0 * math.sqrt(t) + 12.0

    def g(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return heat_kernel(n, r, t) * np.sinh(r) ** (n - 1)

    return area * integrate(g, 0.0, rmax, cfg=cfg).checked(f"heat_mass(n={n}, t={t})")


_CK_R, _CK_W = _panels(np.linspace(0.0, 14.0, 29))


def chapman_kolmogorov_residual(t: float, s: float, dist: float) -> float:
    """|int p_t(x, y) p_s(y, z) dvol(y) - p_{t+s}(d(x,z))| on H^3."""
    n = 3
    rr, wr = _CK_R, _CK_W
    inner = _geodesic_average(lambda d: heat_kernel(n, d, s), n, dist, rr)
    total = 4.0 * math.pi * float((wr * heat_kernel(n, rr, t) * np.sinh(rr) ** 2) @ inner)
    return abs(total - heat_kernel(n, dist, t + s))


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
    f: HyperRadialFunction | None = None,
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
    area = sphere_area(n)

    def k2_pow(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        _, k2 = log_kernel_values(n, r)
        return k2 ** p * np.sinh(r) ** (n - 1)

    norms = []
    acc = 0.0
    prev = 0.0
    for rt in radii:
        acc += integrate(k2_pow, prev, rt, cfg=cfg).checked(
            f"kernel_norms(n={n}, p={p}): ({prev}, {rt})"
        )
        prev = rt
        norms.append((area * acc) ** (1.0 / p))
    rates = []
    for i in range(1, len(radii)):
        inc = norms[i] ** p - norms[i - 1] ** p if p == 1.0 else 0.0
        if p == 1.0:
            rates.append(inc / math.log(radii[i] / radii[i - 1]))
    report = KernelNormReport(p, radii, norms, rates)
    if f is not None:
        def weighted(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            return (
                np.abs(f.profile(r))
                * np.exp(-(n - 1) * r)
                / (1.0 + r)
                * np.sinh(r) ** (n - 1)
            )

        report.weighted_l1 = area * integrate(
            weighted, 0.0, f.support_radius, cfg=cfg
        ).checked(f"kernel_norms(n={n}): weighted L1 of {f.id}")
    if f is not None and energy_pq is not None:
        pe, qe = energy_pq
        if abs(1.0 / qe + 2.0 / pe - 2.0) > 1e-12:
            raise ValueError("energy exponents must satisfy 1/q + 2/p = 2")
        report.energy_lhs, report.energy_rhs = _energy_inequality(
            n, f, pe, qe, cfg
        )
    return report


def _lp_norm_radial(f: HyperRadialFunction, n: int, p: float) -> float:
    area = sphere_area(n)
    res = integrate(
        lambda r: np.abs(f.profile(np.atleast_1d(r))) ** p
        * np.sinh(np.atleast_1d(r)) ** (n - 1),
        0.0,
        f.support_radius,
    )
    return (area * res.checked(f"L^{p} norm of {f.id}")) ** (1.0 / p)


def _energy_inequality(
    n: int, f: HyperRadialFunction, p: float, q: float, cfg: QuadratureConfig
) -> tuple[float, float]:
    """LHS = int |R_n(f; x)| |f(x)| dvol against the Young-type bound."""
    area = sphere_area(n)
    rho_h = _k1_tail_constant(n)
    # |remainder(x)| |f(x)| is smooth on the support; a short Gauss rule
    # suffices and each node costs a full split evaluation
    gx, gw = np.polynomial.legendre.leggauss(10)
    xs = 0.5 * f.support_radius * (gx + 1.0)
    ws = 0.5 * f.support_radius * gw
    lhs_vals = []
    for xd in xs:
        rep = split_check(n, f, float(xd), cfg=cfg)
        lhs_vals.append(abs(rep.remainder))
    fx = np.abs(f.profile(xs))
    lhs = area * float(ws @ (np.array(lhs_vals) * fx * np.sinh(xs) ** (n - 1)))

    def k2_ball(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        _, k2 = log_kernel_values(n, r)
        return k2 ** q * np.sinh(r) ** (n - 1)

    def k1_outside(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        k1, _ = log_kernel_values(n, r)
        return k1 ** q * np.sinh(r) ** (n - 1)

    what = f"energy inequality (n={n}, q={q})"
    k2_q = (area * integrate(k2_ball, 0.0, 1.0, cfg=cfg).checked(f"{what}: K2")) ** (1.0 / q)
    k1_q = (
        area * integrate(k1_outside, 1.0, _R_INFINITY, cfg=cfg).checked(f"{what}: K1")
    ) ** (1.0 / q)
    fp = _lp_norm_radial(f, n, p)
    f2 = _lp_norm_radial(f, n, 2.0)
    rhs = k2_q * fp ** 2 + k1_q * fp ** 2 + abs(rho_h) * f2 ** 2
    return lhs, rhs
