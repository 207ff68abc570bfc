"""The oracles against high-precision mpmath at a few points."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import oracles

mp.mp.dps = 30


def close(a, b, rtol):
    assert abs(float(a) - float(b)) <= rtol * abs(float(b)), (float(a), float(b))


def p3_mp(r, t):
    return (4 * mp.pi * t) ** mp.mpf(-1.5) * r / mp.sinh(r) * mp.exp(-t - r * r / (4 * t))


@pytest.mark.parametrize("r,t", [(0.2, 0.1), (1.5, 1.0), (6.0, 3.5)])
def test_odd_heat_kernels(r, t):
    r, t = mp.mpf(r), mp.mpf(t)
    close(oracles.heat_odd(3, float(r), float(t)), p3_mp(r, t), 1e-14)
    # p_5 = -(e^(-3t) / (2 pi sinh r)) d/dr p_3
    p5 = -mp.exp(-3 * t) / (2 * mp.pi * mp.sinh(r)) * mp.diff(lambda x: p3_mp(x, t), r)
    close(oracles.heat_odd(5, float(r), float(t)), p5, 1e-13)


@pytest.mark.parametrize("n,r,t", [(2, 0.3, 0.2), (2, 4.0, 2.0), (4, 0.3, 0.2), (4, 2.5, 1.0)])
def test_descent_matches_mckean_and_its_recursion(n, r, t):
    close(oracles.heat_even(n, r, t), oracles.heat_even_mp(n, r, t), 1e-12)


@pytest.mark.parametrize("n", [2, 4])
def test_even_heat_kernel_has_unit_mass(n):
    # int p_n(r, t) |S^(n-1)| sinh^(n-1) r dr = 1 on H^n
    area = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    f = lambda r: oracles.heat_even(n, r, 0.5) * area * math.sinh(r) ** (n - 1)
    mass = sum(integrate.quad(f, a, b, epsrel=1e-13)[0] for a, b in ((1e-9, 1), (1, 4), (4, 14)))
    close(mass, 1.0, 1e-10)


@pytest.mark.parametrize("n", [3, 5])
def test_odd_log_kernels(n):
    for r in (0.2, 2.0):
        k1, k2 = oracles.log_kernels_mp(n, mp.mpf(r))
        close(oracles.log_kernel(n, "short", r), k1, 1e-11)
        close(oracles.log_kernel(n, "long", r), k2, 1e-11)


def test_h3_log_total_closed_form():
    for r in (0.3, 3.0):
        k1, k2 = oracles.log_kernels_mp(3, mp.mpf(r))
        close(oracles.log_total_h3(r), k1 + k2, 1e-13)


@pytest.mark.parametrize("n,s,r", [(3, 0.3, 0.5), (5, 0.7, 2.0)])
def test_odd_frac_kernel(n, s, r):
    s, r = mp.mpf(s), mp.mpf(r)
    ref = mp.quad(lambda t: oracles.heat_odd_mp(n, r, t) * t ** (-1 - s), [0, r * r / 8, 1, mp.inf])
    close(oracles.frac_kernel(n, float(s), float(r)), ref, 1e-12)


def test_even_kernels_against_nested_mpmath():
    mp.mp.dps = 12
    try:
        r, s = 1.5, 0.4
        p2 = lambda t: oracles.mckean_p2_mp(r, t)
        k2 = mp.quad(lambda t: p2(t) / t, [1, 4, mp.inf])
        frac = mp.quad(lambda t: p2(t) * t ** (-1 - s), [0, 0.5, 1, 4, mp.inf])
    finally:
        mp.mp.dps = 30
    close(oracles.log_kernel(2, "long", r), k2, 1e-9)
    close(oracles.frac_kernel(2, s, r), frac, 1e-9)


@pytest.mark.parametrize("op,n,x", [("log", 1, [0.4]), ("frac", 2, [0.5, -1.0])])
def test_euclid_gaussian(op, n, x):
    s = mp.mpf("0.6")
    x2 = sum(mp.mpf(c) ** 2 for c in x)
    fx = mp.exp(-x2 / 2)
    gap = lambda t: -mp.mpf(n) / 2 * mp.log1p(2 * t) + x2 * t / (1 + 2 * t)
    if op == "log":
        f = lambda t: -fx * mp.exp(-t) * mp.expm1(gap(t) + t) / t
        ref = mp.quad(f, [0, 1, 10, mp.inf])
    else:
        f = lambda t: -fx * mp.expm1(gap(t)) * t ** (-1 - s)
        ref = s / mp.gamma(1 - s) * mp.quad(f, [0, 1e-6, 1e-2, 1, 10, mp.inf])
    close(oracles.euclid_gaussian(op, n, x, float(s)), ref, 1e-11)


def test_bump_transform():
    xi = np.array([0.0, 3.0, 20.0])
    bump = lambda r: mp.exp(-1 / (1 - r * r)) if r < 1 else mp.mpf(0)
    for n, kernel in ((1, lambda k, r: 2 * mp.cos(k * r)), (2, lambda k, r: 2 * mp.pi * r * mp.besselj(0, k * r))):
        got = oracles._radial_transform("bump", n, xi)
        for g, k in zip(got, xi):
            ref = mp.quad(lambda r: bump(r) * kernel(k, r), mp.linspace(0, 1, 9))
            assert abs(g - float(ref)) < 1e-13


def test_gaussian_torus_series():
    # L^-1 sum_k log(xi_k^2) sqrt(2 pi) e^(-xi_k^2/2) cos(xi_k x), the mean mode excluded
    length, x = 24.0, 0.375
    xi = lambda k: 2 * mp.pi * k / length
    ref = sum(
        2 * mp.log(xi(k) ** 2) * mp.sqrt(2 * mp.pi) * mp.exp(-xi(k) ** 2 / 2) * mp.cos(xi(k) * x) / length
        for k in range(1, 200)
    )
    close(oracles.torus_multiplier("gaussian", "log", 1, [x], length, 512), ref, 1e-12)
