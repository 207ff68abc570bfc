"""Reference values for loglap's outputs, computed without importing loglap.

Hyperbolic space H^n:

* odd n: p_1(r, t) = (4 pi t)^(-1/2) exp(-r^2/4t) and the recursion
  p_(k+2) = -(exp(-k t) / (2 pi sinh r)) d/dr p_k, carried out symbolically
  (sympy).  p_n is then a finite sum  sum_j c_j(r) t^(-q_j) exp(-a t - r^2/4t)
  with a = ((n-1)/2)^2.
* even n: the descent formula
  p_n(r, t) = sqrt(2) exp((2n-1) t/4) int_r^inf p_(n+1)(rho, t) sinh(rho)
  / sqrt(cosh rho - cosh r) d rho, which for n = 2 is McKean's integral.
* time moments: int_0^inf t^(v-1) exp(-a t - b/t) dt = 2 (b/a)^(v/2) K_v(2 sqrt(ab)),
  so the fractional kernel int_0^inf p_n t^(-1-s) dt (and K1 + K2, its
  s = 0 case) is a finite sum of modified Bessel functions for odd n and a
  single radial integral of them for even n.  The split log kernels K1 / K2
  (t in (0, 1) and (1, inf)) use incomplete moments integrated by scipy.
* mpmath versions of the even-n heat kernel: McKean's integral for n = 2 and
  its recursion p_4 = -(exp(-2t) / (2 pi sinh r)) d/dr p_2, differentiated
  by mpmath, for n = 4.

Euclidean space, for the Gaussian f(x) = exp(-|x|^2/2):

* the semigroup is (1 + 2t)^(-n/2) exp(-|x|^2 / (2(1 + 2t))), and the log and
  fractional Laplacians are scipy time integrals of it;
* on the torus of side L the multiplier route is the Fourier series
  L^-n sum_k m(xi_k) F(|xi_k|) exp(i xi_k . x) with F the analytic transform
  (numerical radial transform for the bump).
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
import sympy as sp
from scipy import integrate, special
from scipy.interpolate import CubicSpline

# ---------------------------------------------------------------------------
# hyperbolic space: odd-dimensional closed forms


@lru_cache(maxsize=None)
def _odd_terms(n: int):
    """([(c numpy, c mpmath, q)], a) with p_n = sum c(r) t^-q exp(-a t - r^2/4t)."""
    if n % 2 == 0 or n < 3:
        raise ValueError(f"odd n >= 3 required, got {n}")
    r, t = sp.symbols("r t", positive=True)
    p = (4 * sp.pi * t) ** sp.Rational(-1, 2) * sp.exp(-r**2 / (4 * t))
    for k in range(1, n - 1, 2):
        p = -sp.exp(-k * t) / (2 * sp.pi * sp.sinh(r)) * sp.diff(p, r)
    a = sp.Rational((n - 1) ** 2, 4)
    reduced = sp.expand(sp.simplify(p * sp.exp(a * t + r**2 / (4 * t))))
    terms = []
    for power, coeff in sp.collect(reduced, t, evaluate=False).items():
        base, exponent = power.as_base_exp()
        if base != t:
            raise ValueError(f"unexpected factor {power} in p_{n}")
        coeff = sp.simplify(coeff)
        terms.append((sp.lambdify(r, coeff, "numpy"), sp.lambdify(r, coeff, "mpmath"), float(-exponent)))
    return terms, float(a)


def heat_odd(n: int, r, t):
    """p_n(r, t) for odd n >= 3, broadcasting over r and t."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    terms, a = _odd_terms(n)
    total = sum(c(r) * t ** (-q) for c, _, q in terms)
    return total * np.exp(-a * t - r * r / (4.0 * t))


def _moment(n_odd: int, a: float, r, s: float):
    """int_0^inf sum c(r) t^-q exp(-a t - r^2/4t) t^(-1-s) dt over the terms of p_(n_odd).

    With a = ((n_odd - 1)/2)^2 this is the fractional kernel of H^(n_odd); the
    even-n descent uses the same terms with a = (n_odd - 2)^2 / 4.
    """
    r = np.asarray(r, dtype=float)
    terms, _ = _odd_terms(n_odd)
    sa = math.sqrt(a)
    out = 0.0
    for c, _, q in terms:
        v = -q - s
        out = out + c(r) * 2.0 * (r / (2.0 * sa)) ** v * special.kv(v, sa * r)
    return out


def frac_odd(n: int, s: float, r):
    """int_0^inf p_n(r, t) t^(-1-s) dt for odd n, in modified Bessel functions."""
    return _moment(n, ((n - 1) / 2.0) ** 2, r, s)


def log_total_h3(r):
    """K1 + K2 on H^3: 2 (4 pi)^(-3/2) (r / sinh r) (r/2)^(-3/2) K_(3/2)(r)."""
    r = np.asarray(r, dtype=float)
    return (
        2.0 * (4.0 * math.pi) ** -1.5 * (r / np.sinh(r)) * (0.5 * r) ** -1.5
        * special.kv(1.5, r)
    )


def _incomplete(q: float, a: float, b: float, part: str) -> float:
    """int t^(-q-1) exp(-a t - b/t) dt over (0, 1) ("short") or (1, inf) ("long")."""
    with warnings.catch_warnings():
        # far-tail integrals are ~1e-300 and quad reports their roundoff
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if part == "short":
            # t = b/u: b^-q int_b^inf u^(q-1) exp(-u - a b/u) du
            f = lambda u: u ** (q - 1.0) * math.exp(-u - a * b / u)
            val = integrate.quad(f, b, b + 40.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            return b ** (-q) * val
        f = lambda t: t ** (-q - 1.0) * math.exp(-a * t - b / t)
        return integrate.quad(f, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _log_odd_terms(n_odd: int, a: float, rho: float, part: str) -> float:
    terms, _ = _odd_terms(n_odd)
    b = 0.25 * rho * rho
    return sum(float(c(rho)) * _incomplete(q, a, b, part) for c, _, q in terms)


def _descent(r: float, inner) -> float:
    """sqrt(2) int_r^inf inner(rho) sinh(rho) / sqrt(cosh rho - cosh r) d rho.

    With rho = r + v^2 the endpoint singularity becomes the smooth factor
    v / sqrt(sinh(v^2 / 2)) (cosh rho - cosh r = 2 sinh(r + v^2/2) sinh(v^2/2)).
    """

    def f(v):
        rho = r + v * v
        w = 0.5 * v * v
        v_over = math.sqrt(2.0) * (1.0 - w * w / 24.0) if w < 1e-6 else v / math.sqrt(math.sinh(w))
        return 2.0 * math.sinh(rho) * v_over / math.sqrt(2.0 * math.sinh(r + w)) * inner(rho)

    # past rho = r + 80 every integrand used here is below 1e-30 of its peak
    val = integrate.quad(f, 0.0, math.sqrt(80.0), epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return math.sqrt(2.0) * val


def heat_even(n: int, r: float, t: float) -> float:
    """p_n(r, t) for n in {2, 4} by descent from the closed form of p_(n+1)."""
    lift = math.exp((2 * n - 1) * t / 4.0)
    return _descent(r, lambda rho: lift * float(heat_odd(n + 1, rho, t)))


def frac_even(n: int, s: float, r: float) -> float:
    """int_0^inf p_n(r, t) t^(-1-s) dt for n in {2, 4}: descent of Bessel moments."""
    a = (n - 1) ** 2 / 4.0
    return _descent(r, lambda rho: float(_moment(n + 1, a, rho, s)))


def log_kernel(n: int, part: str, r: float) -> float:
    """K1 (part "short", t in (0, 1)) or K2 ("long", t > 1) of int p_n(r, t) dt/t."""
    if n % 2:
        return _log_odd_terms(n, ((n - 1) / 2.0) ** 2, r, part)
    a = (n - 1) ** 2 / 4.0
    return _descent(r, lambda rho: _log_odd_terms(n + 1, a, rho, part))


def frac_kernel(n: int, s: float, r: float) -> float:
    return float(frac_odd(n, s, r)) if n % 2 else frac_even(n, s, r)


def mckean_p2_mp(r, t):
    """McKean: p_2 = sqrt(2) e^(-t/4) (4 pi t)^(-3/2) int_r^inf rho e^(-rho^2/4t) / sqrt(cosh rho - cosh r)."""
    r, t = mp.mpf(r), mp.mpf(t)

    def f(v):
        # rho = r + v^2; the factor exp(-r^2/4t) is taken out, since mp.quad's
        # error target is absolute
        rho = r + v * v
        return 2 * v * rho * mp.exp(-(2 * r + v * v) * v * v / (4 * t)) / mp.sqrt(
            2 * mp.sinh(r + v * v / 2) * mp.sinh(v * v / 2)
        )

    # the integrand falls off like exp(-r v^2 / 2t): break at multiples of that width
    w = mp.sqrt(t / max(r, 1))
    integral = mp.quad(f, [0, w, 3 * w, 10 * w, mp.inf]) * mp.exp(-r * r / (4 * t))
    return mp.sqrt(2) * mp.exp(-t / 4) * (4 * mp.pi * t) ** mp.mpf(-1.5) * integral


def heat_even_mp(n: int, r, t):
    """p_2 by McKean's integral, p_4 by -(e^(-2t) / (2 pi sinh r)) d/dr p_2, in mpmath."""
    if n not in (2, 4):
        raise ValueError(f"n must be 2 or 4, got {n}")
    with mp.workdps(25):
        r, t = mp.mpf(r), mp.mpf(t)
        if n == 2:
            return +mckean_p2_mp(r, t)
        dp2 = mp.diff(lambda rr: mckean_p2_mp(rr, t), r)
        return -mp.exp(-2 * t) / (2 * mp.pi * mp.sinh(r)) * dp2


def heat_odd_mp(n: int, r, t):
    """p_n(r, t) for odd n >= 3 in mpmath."""
    r, t = mp.mpf(r), mp.mpf(t)
    terms, a = _odd_terms(n)
    return sum(c(r) * t ** (-q) for _, c, q in terms) * mp.exp(-a * t - r * r / (4 * t))


def log_kernels_mp(n: int, r) -> tuple:
    """(K1, K2) on odd n by mpmath quadrature of the closed-form heat kernel over t."""
    p = lambda t: heat_odd_mp(n, r, t) / t
    return mp.quad(p, [0, r * r / 8, 1]), mp.quad(p, [1, 10, mp.inf])


# ---------------------------------------------------------------------------
# Euclidean space


def _gauss_gap(n: int, x2: float, t: float) -> float:
    """log of S_t f(x) / f(x) for the Gaussian: -(n/2) log(1+2t) + |x|^2 t / (1+2t)."""
    return -0.5 * n * math.log1p(2.0 * t) + x2 * t / (1.0 + 2.0 * t)


def euclid_gaussian(op: str, n: int, x, s: float | None = None) -> float:
    """log(-Laplace) f(x) or (-Laplace)^s f(x) for f = exp(-|x|^2/2) on R^n."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = float(x @ x)
    fx = math.exp(-0.5 * x2)
    opts = dict(epsabs=1e-15, epsrel=1e-12, limit=400)
    if op == "log":
        # (e^-t f - S_t f)/t = -f e^-t expm1(g + t) / t, free of cancellation as t -> 0
        head = lambda t: -fx * math.exp(-t) * math.expm1(_gauss_gap(n, x2, t) + t) / t
        tail = lambda t: fx * (math.exp(-t) - math.exp(_gauss_gap(n, x2, t))) / t
        return integrate.quad(head, 0.0, 1.0, **opts)[0] + integrate.quad(tail, 1.0, np.inf, **opts)[0]
    if op != "frac":
        raise ValueError(op)
    # f - S_t f = -f expm1(g); the head is integrated against the weight t^-s
    head = integrate.quad(
        lambda t: -fx * (math.expm1(_gauss_gap(n, x2, t)) / t if t > 0.0 else x2 - n),
        0.0, 1.0, weight="alg", wvar=(-s, 0.0), **opts,
    )[0]
    tail = integrate.quad(
        lambda t: fx * (1.0 - math.exp(_gauss_gap(n, x2, t))) * t ** (-1.0 - s),
        1.0, np.inf, **opts,
    )[0]
    return s / math.gamma(1.0 - s) * (head + tail)


def bump_profile(rho):
    rho = np.asarray(rho, dtype=float)
    inside = rho < 1.0
    return np.where(inside, np.exp(-1.0 / (1.0 - np.where(inside, rho * rho, 0.0))), 0.0)


_GL = np.polynomial.legendre.leggauss(400)


def _radial_transform(fn: str, n: int, xi: np.ndarray) -> np.ndarray:
    """Fourier transform int f(y) e^(-i xi.y) dy of the radial test function."""
    if fn == "gaussian":
        return (2.0 * math.pi) ** (0.5 * n) * np.exp(-0.5 * xi * xi)
    rho = 0.5 * (_GL[0] + 1.0)
    w = 0.5 * _GL[1] * bump_profile(rho)
    out = np.empty_like(xi)
    for lo in range(0, xi.size, 4096):
        chunk = xi[lo : lo + 4096, None] * rho[None, :]
        if n == 1:
            out[lo : lo + 4096] = 2.0 * (np.cos(chunk) @ w)
        else:
            out[lo : lo + 4096] = 2.0 * math.pi * (special.j0(chunk) @ (w * rho))
    return out


@lru_cache(maxsize=None)
def _torus_modes(fn: str, n: int, length: float, points: int, aliases: int):
    """(mode grids, |xi_k|^2, c_k) with c_k = L^-n sum_j F(xi_k + j 2 pi / h).

    Sampling on the grid folds the modes 2 pi / h apart onto each other
    (Poisson summation); `aliases` is how many of those images per side are kept.
    """
    k = np.fft.fftfreq(points, d=1.0 / points)
    xi_axis = 2.0 * math.pi * k / length
    grids = [g.ravel() for g in np.meshgrid(*([xi_axis] * n), indexing="ij")]
    shift = 2.0 * math.pi * points / length
    transform = lambda xi: _radial_transform(fn, n, xi)
    if n > 1:
        # a cubic spline on a 0.02 step reproduces the transform to 1e-11
        knots = np.arange(0.0, math.sqrt(n) * (np.max(xi_axis) + aliases * shift + 1.0), 0.02)
        transform = CubicSpline(knots, _radial_transform(fn, n, knots))
    coeff = np.zeros(grids[0].size)
    for offsets in np.ndindex(*([2 * aliases + 1] * n)):
        coeff += transform(np.sqrt(sum((g + (o - aliases) * shift) ** 2 for g, o in zip(grids, offsets))))
    return grids, sum(g * g for g in grids), coeff / length**n


def torus_multiplier(fn, op, n, x, length, points, s=None, aliases=0) -> float:
    """The multiplier route at grid node x: sum_k m(xi_k) c_k cos(xi_k . x)."""
    grids, q, coeff = _torus_modes(fn, n, float(length), int(points), int(aliases))
    if op == "log":
        mult = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
    else:
        mult = q**s
    phase = sum(g * xc for g, xc in zip(grids, np.atleast_1d(x)))
    return float(np.sum(mult * coeff * np.cos(phase)))
