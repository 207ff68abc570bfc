"""Self-contained special functions used throughout the package.

Everything here is scalar float64 arithmetic with no external dependencies:
log-gamma and digamma via Stirling series with argument shifting, the upper
incomplete gamma via series / continued fraction, the exponential integral
E1, modified Bessel K_nu (Temme series for small argument, Thompson-Barnett
continued fraction for large), and the error function. The exceptions map
numpy arrays elementwise: the exponentially scaled Bessel I_0, the
complementary error function and its scaled form e^(x^2) erfc(x).
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

ZETA2 = math.pi ** 2 / 6.0
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi ** 4 / 90.0
ZETA5 = 1.0369277551433699263


def euler_gamma_harmonic(n0: int = 16, levels: int = 12) -> float:
    """Euler-Mascheroni constant from H_N - log N, Richardson-accelerated.

    The raw sequence converges like 1/(2N); extrapolating over N = n0 * 2^j
    removes successive powers of 1/N and reaches ~1e-13 with the defaults.
    """
    table = []
    for j in range(levels + 1):
        n = n0 * 2 ** j
        # sum smallest terms first to control rounding
        h = 0.0
        for k in range(n, 0, -1):
            h += 1.0 / k
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


def _bessel_gam12(xmu: float) -> tuple[float, float, float, float]:
    """Temme's auxiliary gamma combinations for |xmu| <= 1/2.

    Returns (gam1, gam2, gampl, gammi) with
      gampl = 1/Gamma(1+xmu), gammi = 1/Gamma(1-xmu),
      gam1 = (gammi - gampl) / (2 xmu)   (limit -euler_gamma at 0),
      gam2 = (gammi + gampl) / 2.
    """
    gampl = math.exp(-gamma_ln(1.0 + xmu))
    gammi = math.exp(-gamma_ln(1.0 - xmu))
    if abs(xmu) >= 0.02:
        gam1 = (gammi - gampl) / (2.0 * xmu)
    else:
        # odd Taylor coefficients of 1/Gamma(1+y): the direct difference
        # cancels catastrophically for small orders
        g1 = EULER_GAMMA
        g2 = -ZETA2 / 2.0
        g3 = ZETA3 / 3.0
        g4 = -ZETA4 / 4.0
        g5 = ZETA5 / 5.0
        a1 = g1
        a3 = g3 + g1 * g2 + g1 ** 3 / 6.0
        a5 = (
            g5
            + g1 * g4
            + g2 * g3
            + g1 ** 2 * g3 / 2.0
            + g1 * g2 ** 2 / 2.0
            + g1 ** 3 * g2 / 6.0
            + g1 ** 5 / 120.0
        )
        x2 = xmu * xmu
        gam1 = -(a1 + a3 * x2 + a5 * x2 * x2)
    gam2 = 0.5 * (gammi + gampl)
    return gam1, gam2, gampl, gammi


def _bessel_k_half_integer(m: int, x: float) -> float:
    """Closed form K_{m+1/2}(x) = sqrt(pi/2x) e^-x sum_k (m+k)!/(k!(m-k)!(2x)^k)."""
    total = 0.0
    term = 1.0  # k = 0 coefficient
    total = term
    for k in range(1, m + 1):
        # ratio of consecutive coefficients: (m+k)! / (k! (m-k)! (2x)^k)
        term *= (m + k) * (m - k + 1) / (k * 2.0 * x)
        total += term
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * total


def _bessel_k_pair(xmu: float, x: float) -> tuple[float, float]:
    """(K_xmu, K_{xmu+1}) for |xmu| <= 1/2; series below x=2, CF2 above."""
    xmu2 = xmu * xmu
    if x <= 2.0:
        x2 = 0.5 * x
        pimu = math.pi * xmu
        fact = 1.0 if abs(pimu) < 1e-14 else pimu / math.sin(pimu)
        d = -math.log(x2)
        e = xmu * d
        fact2 = 1.0 if abs(e) < 1e-14 else math.sinh(e) / e
        gam1, gam2, gampl, gammi = _bessel_gam12(xmu)
        ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
        total = ff
        e = math.exp(e)
        p = 0.5 * e / gampl
        q = 0.5 / (e * gammi)
        c = 1.0
        d2 = x2 * x2
        total1 = p
        for i in range(1, 2000):
            ff = (i * ff + p + q) / (i * i - xmu2)
            c *= d2 / i
            p /= i - xmu
            q /= i + xmu
            delta = c * ff
            total += delta
            delta1 = c * (p - i * ff)
            total1 += delta1
            if abs(delta) < abs(total) * 1e-17:
                break
        return total, total1 * (2.0 / x)
    # Thompson-Barnett CF2 evaluated the Temme way
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1 = 0.0
    q2 = 1.0
    a1c = 0.25 - xmu2
    q = c = a1c
    a = -a1c
    s = 1.0 + q * delh
    for i in range(2, 8000):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < abs(s) * 1e-16:
            break
    h = a1c * h
    rkmu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    rk1 = rkmu * (xmu + x + 0.5 - h) / x
    return rkmu, rk1


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), nu >= 0, x > 0.

    Half-odd-integer orders take the exact finite-sum path; otherwise Temme's
    series (x <= 2) or the continued fraction (x > 2) seeds the stable upward
    recurrence in the order.
    """
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"bessel_k requires x > 0, got x={x!r}")
    if nu < 0.0 or not math.isfinite(nu):
        raise ValueError(f"bessel_k requires nu >= 0, got nu={nu!r}")
    two_nu = 2.0 * nu
    if abs(two_nu - round(two_nu)) < 1e-12 and round(two_nu) % 2 == 1:
        result = _bessel_k_half_integer(int(round(nu - 0.5)), x)
    else:
        nl = int(nu + 0.5)
        xmu = nu - nl
        rkmu, rk1 = _bessel_k_pair(xmu, x)
        for j in range(1, nl + 1):
            rknew = rkmu + (2.0 * (xmu + j) / x) * rk1
            rkmu = rk1
            rk1 = rknew
        result = rkmu
    if not math.isfinite(result):
        raise OverflowError(f"bessel_k({nu}, {x}) overflows double precision")
    return result


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
