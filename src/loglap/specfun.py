"""Self-contained special functions used throughout the package.

Most of it is scalar float64 arithmetic with no external dependencies:
log-gamma and digamma via Stirling series with argument shifting, the upper
incomplete gamma via series / continued fraction, the exponential integral
E1 and the error function. The rest maps numpy arrays elementwise: the
modified Bessel K_nu (a trapezoid rule on its integral over cosh), the
exponentially scaled Bessel I_0, the complementary error function and its
scaled form e^(x^2) erfc(x).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "euler_gamma_harmonic",
    "gamma_ln",
    "digamma",
    "gamma",
    "upper_gamma",
    "exp_integral_e1",
    "bessel_k",
    "bessel_i0e",
    "erf",
    "erfc",
    "erfcx",
]

_EPS = 2.220446049250313e-16

# Computed once by euler_gamma_harmonic (see tests); stored so hot paths do
# not re-run the accelerated sum.
EULER_GAMMA = 0.5772156649015329


def euler_gamma_harmonic(n0: int = 16, levels: int = 12) -> float:
    """Euler-Mascheroni constant from H_N - log N, Richardson-accelerated.

    The raw sequence converges like 1/(2N); extrapolating over N = n0 * 2^j
    removes successive powers of 1/N and reaches ~2e-16 with the defaults.
    """
    table = []
    for j in range(levels + 1):
        n = n0 * 2 ** j
        # the terms smallest first; numpy's pairwise sum keeps the rounding
        # near one ulp
        h = float(np.sum(1.0 / np.arange(n, 0, -1.0)))
        table.append(h - math.log(n))
    for k in range(1, levels + 1):
        fac = 2.0 ** k
        table = [
            (fac * table[j] - table[j - 1]) / (fac - 1.0)
            for j in range(1, len(table))
        ]
    return table[0]


# Stirling series coefficients B_{2k} / (2k (2k-1)) for log Gamma.
_LNGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def gamma_ln(a: float) -> float:
    """log Gamma(a) for a > 0, relative error below 1e-13.

    Shifts the argument above 12 by the recurrence and applies the Stirling
    series with seven Bernoulli correction terms.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"gamma_ln requires a > 0 finite, got {a!r}")
    shift = 0.0
    x = a
    while x < 12.0:
        shift += math.log(x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    p = inv
    for c in _LNGAMMA_COEF:
        series += c * p
        p *= inv2
    return (x - 0.5) * math.log(x) - x + _HALF_LOG_2PI + series - shift


def gamma(a: float) -> float:
    """Gamma(a) = exp(gamma_ln(a))."""
    return math.exp(gamma_ln(a))


# Asymptotic coefficients -B_{2k}/(2k) for digamma.
_DIGAMMA_COEF = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(a: float) -> float:
    """psi(a) = Gamma'(a)/Gamma(a) for a > 0, absolute error below 1e-12."""
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"digamma requires a > 0 finite, got {a!r}")
    shift = 0.0
    x = a
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    p = inv2
    for c in _DIGAMMA_COEF:
        series += c * p
        p *= inv2
    return math.log(x) - 0.5 / x + series - shift


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized-style series for the lower incomplete gamma, x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(500):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    # gamma_lower(a, x) = x^a e^-x * sum
    return math.exp(a * math.log(x) - x) * total


def _upper_gamma_cf(a: float, x: float) -> float:
    """Lentz continued fraction for Gamma(a,x), x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(a * math.log(x) - x) * h


def upper_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) = int_x^inf t^{a-1} e^-t dt."""
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"upper_gamma requires a > 0, got a={a!r}")
    if x < 0.0 or not math.isfinite(x):
        raise ValueError(f"upper_gamma requires x >= 0, got x={x!r}")
    if x == 0.0:
        return gamma(a)
    if x < a + 1.0:
        return gamma(a) - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^-u / u du, x > 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"exp_integral_e1 requires x > 0, got {x!r}")
    if x <= 1.0:
        # E1(x) = -gamma - log x + sum_{k>=1} (-1)^{k+1} x^k / (k k!)
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 80):
            term *= -x / k
            total -= term / k
            if abs(term) < 1e-18 * max(1.0, abs(total)):
                break
        return total
    # continued fraction E1(x) = e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        an = -float(i * i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x) * h


def _arccosh1p(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """arccosh(1 + c/x) = 2 arsinh(sqrt(c/2x)), without overflow for tiny x."""
    return 2.0 * np.arcsinh(np.sqrt(0.5 * c) / np.sqrt(x))


_LOG_MAX = math.log(np.finfo(float).max)


# e^x K_nu(x) = int_0^inf e^(-x (cosh u - 1)) cosh(nu u) du has an even,
# analytic integrand, so the trapezoid rule from u = 0 converges
# geometrically in 1/h. Its log peaks at u*, sinh u* = nu/x; the step is
# h = min(1/4, 1/(2 sqrt(x cosh u* + nu))), rounded down to a power of 2 so
# that nu u is exact for orders with few mantissa bits, and the rule stops
# at x (cosh u - 1) = 45 + nu max(u*, arccosh(1 + 45/x)). The terms are
# summed relative to the largest exponent, so nothing overflows before the
# result does
def bessel_k(nu, x):
    """Modified Bessel function of the second kind K_nu(x), nu >= 0, x > 0,
    elementwise over nu and x broadcast against each other; two scalars
    give a float. Within 1e-14 (relative) of mpmath for nu in [0, 10] and
    x in [1e-4, 700]. Raises OverflowError when a value exceeds double
    precision.
    """
    nu_arr, x_arr = np.asarray(nu, dtype=float), np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & np.isfinite(x_arr)):
        raise ValueError(f"bessel_k requires x > 0, got x={x!r}")
    if not np.all((nu_arr >= 0.0) & np.isfinite(nu_arr)):
        raise ValueError(f"bessel_k requires nu >= 0, got nu={nu!r}")
    shape = np.broadcast(nu_arr, x_arr).shape
    v = np.broadcast_to(nu_arr, shape).reshape(-1, 1)
    z = np.broadcast_to(x_arr, shape).reshape(-1, 1)
    peak = np.log(v + np.hypot(v, z)) - np.log(z)  # arsinh(nu/x), for any x > 0
    h = np.exp2(np.floor(np.log2(np.minimum(0.25, 0.5 / np.sqrt(np.hypot(z, v) + v)))))
    top = _arccosh1p(45.0 + v * np.maximum(peak, _arccosh1p(45.0, z)), z)
    k = np.arange(int(np.max(np.ceil(top / h))) + 1)
    u = np.minimum(k * h, top)
    # x (cosh u - 1), as x e^u / 2 where cosh u - 1 would overflow
    drop = 2.0 * z * np.sinh(0.5 * np.minimum(u, 40.0)) ** 2
    if np.max(top) >= 40.0:
        big = np.exp(np.minimum(np.maximum(u, 40.0) + np.log(z) - math.log(2.0), 700.0))
        drop = np.where(u < 40.0, drop, big)
    vu = v * u
    c = np.max(vu - drop, axis=-1, keepdims=True)
    terms = np.exp(vu - c - drop) * (0.5 + 0.5 * np.exp(-2.0 * vu))
    terms[:, 0] *= 0.5
    # a running sum, so that the zero terms past an element's own rule, which
    # depend on the other elements, leave its value bit for bit the same
    total = h[:, 0] * np.cumsum(terms * (k * h <= top), axis=-1)[:, -1]
    c, z = c[:, 0], z[:, 0]
    log_k = c - z + np.log(total)
    if np.any(log_k > _LOG_MAX):
        i = int(np.argmax(log_k))
        raise OverflowError(f"bessel_k({v[i, 0]}, {z[i]}) overflows double precision")
    # e^c e^-x keeps the relative accuracy that e^(c - x) loses for large x
    near = np.exp(np.minimum(c, 700.0)) * np.exp(-z) * total
    out = np.where(c > 700.0, np.exp(np.minimum(log_k, _LOG_MAX)), near).reshape(shape)
    return float(out) if out.ndim == 0 else out


# I_0(z) = sum_k (z^2/4)^k / (k!)^2 (A&S 9.6.10) up to z = 22, and past it
# the Hankel expansion I_0(z) ~ e^z / sqrt(2 pi z) sum_k ((2k-1)!!)^2 /
# (k! (8z)^k) (A&S 9.7.1); every term of both is positive. Each piece of the
# z-axis takes the fewest terms whose truncation stays below 1e-16 of the
# sum there: 12 and 36 series terms up to z = 2 and 22, 20 and 10 Hankel
# terms up to z = 100 and beyond.
_I0_SERIES = np.array([1.0 / math.factorial(k) ** 2 for k in range(36)])
_I0_HANKEL = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 20)])
_I0_EDGES = np.array([2.0, 22.0, 100.0])
_I0_TERMS = (12, 36, 20, 10)


def _horner(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] x^k at each x, for coef of shape (terms,), or of shape
    (terms, m) for m sums stacked along a new first axis; unlike a matrix
    product, each element depends on its own x alone."""
    if coef.ndim > 1:
        return np.array([_horner(x, column) for column in coef.T])
    acc = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc


def bessel_i0e(z) -> np.ndarray:
    """e^(-z) I_0(z) for an array of z >= 0, elementwise, within 2e-15
    (relative) of the exact value; each element depends on its own z alone."""
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0.0):
        raise ValueError("bessel_i0e requires z >= 0")
    out = np.empty_like(z)
    piece = np.searchsorted(_I0_EDGES, z)
    for i, terms in enumerate(_I0_TERMS):
        on = piece == i
        zi = z[on]
        if not zi.size:
            continue
        if i < 2:
            out[on] = _horner(0.25 * zi * zi, _I0_SERIES[:terms]) * np.exp(-zi)
        else:
            out[on] = _horner(1.0 / zi, _I0_HANKEL[:terms]) / np.sqrt(2.0 * math.pi * zi)
    return out


def erf(x: float) -> float:
    """Error function; delegates to the C library implementation."""
    if not math.isfinite(x):
        raise ValueError(f"erf requires finite x, got {x!r}")
    return math.erf(x)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def erfc(x) -> np.ndarray:
    """1 - erf(x) elementwise through the C library, which keeps the relative
    accuracy that 1 - erf(x) loses once erf(x) rounds to 1."""
    return np.asarray(_erfc(np.asarray(x, dtype=float)), dtype=float)


# erfcx(x) = e^(x^2) erfc(x) is that product up to x = 25, where erfc(x) is
# still 8e-274. There x^2 = h^2 + (x - h)(x + h) with h = x rounded to 1/16,
# so h^2 is exact and e^(x^2) does not lose the up to 625 ulp that rounding
# x^2 would cost. Beyond x = 25 it is the asymptotic series 1/(x sqrt(pi))
# sum_k (-1)^k (2k-1)!! / (2x^2)^k (A&S 7.1.23), whose eighth term is below
# 1e-18 of the sum
_ERFCX_FAR = 25.0
_ERFCX_SERIES = np.cumprod([1.0] + [-(2 * k - 1) / 2.0 for k in range(1, 8)])


def erfcx(x) -> np.ndarray:
    """e^(x^2) erfc(x) elementwise, for an array of x > -26 (below, e^(x^2)
    overflows); it decays like 1/(x sqrt(pi)) where erfc(x) underflows."""
    x = np.asarray(x, dtype=float)
    xn = np.minimum(x, _ERFCX_FAR)
    h = np.rint(16.0 * xn) / 16.0
    out = np.exp(h * h) * np.exp((xn - h) * (xn + h)) * erfc(xn)
    far = x > _ERFCX_FAR
    if far.any():
        xf = np.maximum(x, _ERFCX_FAR)
        series = _horner(1.0 / (xf * xf), _ERFCX_SERIES) / (math.sqrt(math.pi) * xf)
        out = np.where(far, series, out)
    return out
