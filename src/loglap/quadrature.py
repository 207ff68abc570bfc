"""Adaptive 1-D quadrature, the radial functions of R^n and H^n
(`RadialFunction`) and their mean over spheres (`sphere_mean`), and the
scalar integral identities built on them.

One engine integrates everything: a vectorized Gauss-Kronrod 7-15 pair with
worst-panel-first subdivision (QUADPACK, Piessens et al. 1983) over R rows
of m components each (`_adaptive_rows`). Every row has its own interval,
panel heap (keyed by a panel's largest component error), totals and
subdivision budget, and is converged once every component meets
max(abs_tol, rel_tol |I|). The rows advance in lockstep: each step pops the
worst panel of every open row and evaluates the children of all of them in
one integrand call. A row's result does not depend on the other rows, bit
for bit, as long as the integrand's value at a row's nodes depends on that
row alone. The entry points are its special cases:

- scalar: `integrate` and `integrate_semiinfinite` with an integrand that
  maps (k,) nodes to (k,) values are one row of one component;
- shared panels: the same entry points with an integrand that returns an
  (m, k) batch are one row of m components, as in scipy.integrate.quad_vec,
  and QuadResult.value and error_estimate are (m,) arrays. Use it when the
  components need refinement in the same places (the inner level of an
  iterated integral);
- independent rows: `integrate_rows` (finite intervals) and
  `integrate_semiinfinite_rows` run m rows of one component. Use them when
  the rows refine in different places (one kernel-table row per radius, one
  radial integral per time node).

A one-row integrand sees the 15 nodes of the whole interval first, then the
30 nodes of both halves of the panel split at each step.

Semi-infinite ranges are folded to (0, 1] by u = 1/(1 + t - a), which
behaves well for both exponential and Gaussian tails. Endpoint
singularities of inverse-square-root or logarithmic type are removed
analytically by the substitution u^2 = x - a before subdividing; both maps
pass (m, k) values through.

Inside loglap the inner levels of iterated integrals call `_adaptive` (a
shared-panel batch) or the rows entry points, so `integrate` and
`integrate_semiinfinite` see scalar integrands only: the benchmark's traced
runs (perfbench/spans.py) wrap those two names and read each result's value
as a float.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .reporting import VerifyReport
from .specfun import EULER_GAMMA, digamma, gamma, upper_gamma

__all__ = [
    "QuadratureConfig",
    "QuadResult",
    "SingularityHint",
    "NO_SINGULARITY",
    "NonFiniteIntegrandError",
    "integrate",
    "integrate_semiinfinite",
    "integrate_rows",
    "integrate_semiinfinite_rows",
    "SmoothnessTooLowError",
    "RadialFunction",
    "BUMP",
    "sphere_area",
    "sphere_mean",
    "frullani_log",
    "verify_scalar_identities",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Kronrod-15 nodes on [-1, 1] (positive half mirrored) and weights, with the
# embedded Gauss-7 weights on the odd-indexed nodes.
_XK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])  # ascending, 15 nodes
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:15:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
_WKG = np.array((_WK, _WG))


class NonFiniteIntegrandError(ValueError):
    """Integrand produced NaN or infinity at an interior node."""


class NonConvergenceError(RuntimeError):
    """Subdivision budget exhausted before the tolerance was met.

    The engine itself never raises this; it returns the best estimate with
    converged=False. Callers that cannot carry the flag raise it instead,
    through QuadResult.checked.
    """


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadResult:
    """An integral with its error estimate; value and error_estimate are
    floats for a (k,) integrand and (m,) arrays for an (m, k) one or for m
    independent rows, whose `converged` is an (m,) bool array, row by row
    (the engine's own (R, m) arrays for R rows of m components)."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    converged: bool | np.ndarray = True

    def __post_init__(self):
        err = self.error_estimate
        if (err.min() if isinstance(err, np.ndarray) else err) < 0:
            raise ValueError("error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")

    def checked(self, what: str) -> float | np.ndarray:
        """The value, or NonConvergenceError naming `what` when the result
        (any row of it) is unconverged."""
        if not np.all(self.converged):
            raise NonConvergenceError(f"{what}: integral did not converge")
        return self.value

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            self.value + other.value,
            self.error_estimate + other.error_estimate,
            self.evaluations + other.evaluations,
            self.converged & other.converged,
        )


@dataclass(frozen=True)
class SingularityHint:
    """The endpoint of an inverse-square-root or logarithmic singularity."""

    endpoint: str = "none"  # lower | upper | none

    def __post_init__(self):
        if self.endpoint not in ("lower", "upper", "none"):
            raise ValueError(f"bad endpoint {self.endpoint!r}")


NO_SINGULARITY = SingularityHint()


def _rows_rule(f, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Kronrod-15 estimates with embedded Gauss-7 errors (QUADPACK's qk15)
    of the panels (lo[j], hi[j]) of rows[j], lo < hi, as a (2, m, p) array
    of values [0] and errors [1] of the m components.

    Panel j's numbers depend on its own node values alone, whatever the
    batch: einsum sums every component of every panel the same way, where
    BLAS gemv (`fv @ w`) would round a panel differently depending on the
    other panels of the batch.
    """
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
    # contiguous, so that einsum's sums run along the nodes whatever f returns
    fv = np.ascontiguousarray(f(rows, x))
    finite = np.isfinite(fv)
    if not finite.all():
        bad = x[~finite.all(axis=0)][0]
        raise NonFiniteIntegrandError(f"integrand not finite near x={bad!r}")
    # the sums on [-1, 1], where f's mean is sk/2; the panel's are h times them
    sk, sg = np.einsum("...k,wk->w...", fv, _WKG)
    dev = np.abs(np.array((fv, fv - 0.5 * sk[..., None])))
    sabs, sasc = np.einsum("a...k,k->a...", dev, _WK)
    err = np.abs(sk - sg)
    # err -> sasc min(1, 200 err/sasc)^1.5; sasc = 0 only where f is constant
    # on the nodes, where err is below the 50 eps sabs floor either way
    ratio = np.minimum(200.0 * err, sasc) / np.maximum(sasc, _TINY)
    err = np.maximum(sasc * ratio ** 1.5, 50.0 * _EPS * sabs)
    return h * np.array((sk, err))


def _adaptive_rows(f, a, b, cfg: QuadratureConfig) -> QuadResult:
    """R independent integrals, row i over (a[i], b[i]), subdivided in lockstep.

    f(rows, x) maps row indices (p,) and their panels' nodes (p, 15) to the
    values (m, p, 15): m components per row. Each row runs worst-panel-first
    subdivision on its own heap, keyed by a panel's largest component error,
    with its own totals and subdivision budget, and is converged once every
    component meets max(abs_tol, rel_tol |I|), in the manner of QUADPACK and
    scipy.integrate.quad_vec. Each step pops the worst panel of every open
    row and evaluates all their children in one call to f. The result's
    value and error_estimate are (R, m) arrays, `converged` is (R,).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    first = _rows_rule(f, np.arange(a.size), a, b).transpose(2, 0, 1)  # (R, 2, m)
    keys = first[:, 1].max(axis=1).tolist()
    heaps = [[(-k, 0, lo, hi, p)] for k, lo, hi, p in zip(keys, a.tolist(), b.tolist(), first)]
    totals = first.copy()  # (R, 2, m): value and error of each row
    counter = 1
    splits = [0] * a.size
    converged = [True] * a.size
    evals = 15 * a.size
    value, err = totals[:, 0], totals[:, 1]
    while True:
        open_ = (err > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))).any(axis=1)
        moved = False
        rows, lo, mids, hi, parents = [], [], [], [], []  # the panels to halve
        for i in open_.nonzero()[0].tolist():
            if splits[i] >= cfg.max_subdivisions:
                converged[i] = False
                continue
            moved = True
            _, _, pa, pb, panel = heapq.heappop(heaps[i])
            mid = 0.5 * (pa + pb)
            if mid <= pa or mid >= pb:
                # interval at floating-point resolution; accept as is
                err[i] -= panel[1]
                panel[1] = 0.0
                heapq.heappush(heaps[i], (0.0, counter, pa, pb, panel))
                counter += 1
                continue
            splits[i] += 1
            rows.append(i)
            lo.append(pa)
            mids.append(mid)
            hi.append(pb)
            parents.append(panel)
        if not moved:
            break
        if not rows:
            continue
        q = len(rows)
        # the left halves, then the right ones
        ends = np.array((lo + mids, mids + hi))
        halves = _rows_rule(f, np.array(rows + rows), ends[0], ends[1]).transpose(2, 0, 1)
        keys = halves[:, 1].max(axis=1).tolist()
        totals[rows] += halves[:q] + halves[q:] - np.array(parents)
        evals += 30 * q
        for i, pa, mid, pb, kl, kr, left, right in zip(
            rows, lo, mids, hi, keys[:q], keys[q:], halves[:q], halves[q:]
        ):
            heapq.heappush(heaps[i], (-kl, counter, pa, mid, left))
            heapq.heappush(heaps[i], (-kr, counter + 1, mid, pb, right))
            counter += 2
    return QuadResult(value, err, evals, np.array(converged))


def _adaptive(f, a: float, b: float, cfg: QuadratureConfig) -> QuadResult:
    """(a, b) as one row of `_adaptive_rows`.

    f maps (k,) nodes to (k,) values, and the result is a float, or to an
    (m, k) batch of m integrals on shared panels, and the result's value and
    error_estimate are (m,) arrays. f sees the 15 nodes of the whole interval
    first, then the 30 nodes of both halves of each panel that is split.
    """
    shape = None  # () or (m,), set by the first call

    def row(rows, x):
        nonlocal shape
        fv = np.asarray(f(x.reshape(-1)), dtype=float)
        if shape is None and fv.ndim in (1, 2) and fv.size:
            shape = fv.shape[:-1]
        if shape is None or fv.shape != (*shape, x.size):
            raise ValueError(
                "integrand must return (k,) or (m, k) values for (k,) nodes, "
                f"got {fv.shape} for {(x.size,)}"
            )
        return fv.reshape(-1, *x.shape)

    res = _adaptive_rows(row, [a], [b], cfg)
    value, err = res.value[0], res.error_estimate[0]
    if not shape:
        value, err = float(value[0]), float(err[0])
    return QuadResult(value, err, res.evaluations, bool(res.converged[0]))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    hint: SingularityHint = NO_SINGULARITY,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadResult:
    """Integrate f over the finite interval (a, b).

    With an endpoint hint the substitution u^2 = x - a (resp. b - x) is
    applied first, which turns x^-1/2 factors into polynomials and log
    factors into u log u.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"need finite a < b, got {a!r}, {b!r}")
    if hint.endpoint == "none":
        return _adaptive(f, a, b, cfg)
    width = b - a
    umax = math.sqrt(width)
    if hint.endpoint == "lower":
        g = lambda u: 2.0 * u * np.asarray(f(a + u * u), dtype=float)
    else:
        g = lambda u: 2.0 * u * np.asarray(f(b - u * u), dtype=float)
    return _adaptive(g, 0.0, umax, cfg)


def integrate_semiinfinite(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadResult:
    """Integrate f over (a, infinity) via u = 1/(1 + t - a)."""
    if not math.isfinite(a):
        raise ValueError(f"lower endpoint must be finite, got {a!r}")

    def g(u):
        u = np.asarray(u, dtype=float)
        return _folded(f, a - 1.0 + 1.0 / u, u)

    return _adaptive(g, 0.0, 1.0, cfg)


def integrate_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    b,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadResult:
    """Row i: the integral of f over the finite interval (a[i], b[i]).

    f(rows, x) receives row indices (p,) and nodes (p, k), one row of x per
    index, and returns (p, k) values. The rows are independent integrals
    subdivided in lockstep (see the module docstring): value,
    error_estimate and converged are (m,) arrays.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.size < 1 or a.shape != b.shape or not np.all(
        np.isfinite(a) & np.isfinite(b) & (a < b)
    ):
        raise ValueError(f"need nonempty 1-d arrays of finite a < b, got {a!r}, {b!r}")

    def g(rows, x):
        fv = np.asarray(f(rows, x), dtype=float)
        if fv.shape != x.shape:
            raise ValueError(
                f"integrand must return {x.shape} values for {x.shape} nodes, got {fv.shape}"
            )
        return fv[None]

    res = _adaptive_rows(g, a, b, cfg)
    return QuadResult(res.value[:, 0], res.error_estimate[:, 0], res.evaluations, res.converged)


def integrate_semiinfinite_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadResult:
    """Row i: the integral of f over (a[i], infinity), via u = 1/(1 + t - a[i]);
    f and the result as in `integrate_rows`."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 1 or not np.all(np.isfinite(a)):
        raise ValueError(f"need a nonempty 1-d array of finite lower endpoints, got {a!r}")

    def g(rows, u):
        return _folded(lambda t: f(rows, t), a[rows, None] - 1.0 + 1.0 / u, u)

    return integrate_rows(g, np.zeros(a.size), np.ones(a.size), cfg)


def _folded(f, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """f(t) dt/du = f(t)/u^2 at u = 1/(1 + t - a), exactly 0 where f is."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fv = np.asarray(f(t), dtype=float)
        out = fv / (u * u)
    return np.where(fv == 0.0, 0.0, out)


# 24-point Gauss-Legendre on [0, 1], as offsets down from a panel's top
_SPHERE_NODES, _SPHERE_WEIGHTS = np.polynomial.legendre.leggauss(24)
_SPHERE_NODES = 0.5 * (1.0 - _SPHERE_NODES)
_SPHERE_WEIGHTS = 0.5 * _SPHERE_WEIGHTS


def sphere_area(n: int) -> float:
    """Surface area |S^(n-1)| = 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (0.5 * n) / gamma(0.5 * n)


class SmoothnessTooLowError(ValueError):
    """Declared regularity too weak for the pointwise (Dini) domain."""


@dataclass(frozen=True)
class RadialFunction:
    """f = profile(|y|) on R^n, or profile(d(y, o)) on H^n, in any dimension:
    R^n routes take n from the evaluation point, H^n routes from their n.

    holder_exponent is None for a smooth profile, else its positive Holder
    exponent. `breaks` are the radii, ascending, where the profile is not
    analytic and the radial rules split; the last (by default the only) one
    is the edge of a compact support, where sphere_mean stops.
    """

    id: str
    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    holder_exponent: float | None = None
    breaks: tuple[float, ...] = ()

    def __post_init__(self):
        if self.holder_exponent is not None and not self.holder_exponent > 0:
            raise SmoothnessTooLowError(f"{self.id}: a Holder profile needs a positive exponent")
        edge = self.support_radius
        breaks = tuple(self.breaks) or ((edge,) if math.isfinite(edge) else ())
        if list(breaks) != sorted(breaks) or (breaks and breaks[-1] != edge):
            raise ValueError(f"{self.id}: breaks must ascend to the support edge, got {breaks!r}")
        object.__setattr__(self, "breaks", breaks)

    @property
    def far_radius(self) -> float:
        """Where whole-space integrals stop: the support edge, or 12 for an
        unbounded support (the Gaussian e^(-rho^2/2) is below 1e-31 there)."""
        return self.support_radius if math.isfinite(self.support_radius) else 12.0


def _bump_profile(rho):
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho < 1.0
    r = rho[inside]
    out[inside] = np.exp(-1.0 / (1.0 - r * r))
    return out


# e^(-1/(1 - rho^2)) in the unit ball, the smooth bump of both registries;
# the break at 0.9 resolves its flat approach to the edge
BUMP = RadialFunction("bump", _bump_profile, 1.0, breaks=(0.9, 1.0))


def sphere_mean(
    profile: Callable[[np.ndarray], np.ndarray],
    n: int,
    a,
    b,
    dist: Callable[[np.ndarray], np.ndarray],
    cuts=(),
) -> np.ndarray:
    """Mean over S^(n-1) of profile(dist(a - b cos theta)), theta the angle
    to a fixed axis, for arrays a and b >= 0 of one shape: the mean of a
    radial f over spheres about x (R^n: d^2 = |x|^2 + r^2 - 2|x| r cos theta).

    theta runs over 24-point Gauss-Legendre panels against sin^(n-2) theta,
    split where a - b cos theta crosses each of the ascending `cuts` (the
    images of the radii where the profile is not analytic) and stopped at
    the last, the support edge past which the profile vanishes. With no cuts
    it is one panel over [0, pi], which resolves a profile that varies on
    the scale of the sphere; for n = 1 it is the two points theta = 0, pi.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not b.any():
        # every sphere lies at one distance (its center or radius is 0): one
        # evaluation, not 24 per panel
        return profile(dist(a))
    if n == 1:
        values = profile(dist(np.stack([a - b, a + b])))
        return 0.5 * (values[0] + values[1])
    a, b = a[..., None], b[..., None]
    cuts = np.asarray(cuts, dtype=float)
    if cuts.size:
        # the crossing angles; b = 0 or a subnormal b gives cos = +-inf (nan
        # on a cut), a sphere on one side of the cut
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            hi = np.arccos(np.fmin(np.fmax((a - cuts) / b, -1.0), 1.0))
    else:
        hi = np.full(a.shape, math.pi)
    width = hi.copy()
    width[..., 1:] -= hi[..., :-1]
    width = width[..., None]
    cos = np.cos(hi[..., None] - width * _SPHERE_NODES)
    w = width * _SPHERE_WEIGHTS
    if n > 2:
        # sin^(n-2) theta from cos theta: one transcendental per node, not two
        w = w * (1.0 - cos * cos) ** (0.5 * (n - 2))
    values = profile(dist(a[..., None] - b[..., None] * cos))
    # the weight's integral over [0, pi]
    norm = math.sqrt(math.pi) * math.gamma(0.5 * (n - 1)) / math.gamma(0.5 * n)
    return np.einsum("...ij,...ij->...", w, values) / norm


def frullani_log(lam: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """log(lam) as the scalar integral int_0^inf (e^-t - e^-lam t)/t dt.

    The integrand is evaluated as -e^-t expm1(-(lam-1) t)/t to avoid
    cancellation, and the range is split at t = 1.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"frullani_log requires lam > 0, got {lam!r}")
    if lam == 1.0:
        return 0.0
    mu = lam - 1.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        # cancellation only threatens t -> 0, where the expm1 form is exact;
        # past t = 1 the plain difference is stable and cannot overflow
        small = t < 1.0
        ts = np.where(small, t, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            head = -np.exp(-ts) * np.expm1(-mu * ts) / ts
        tail = (np.exp(-t) - np.exp(-lam * t)) / t
        return np.where(small, head, tail)

    head = integrate(integrand, 0.0, 1.0, cfg=cfg)
    tail = integrate_semiinfinite(integrand, 1.0, cfg=cfg)
    return (head + tail).checked(f"frullani_log({lam})")


def _euler_identity_residual(cfg: QuadratureConfig) -> float:
    """|int_0^1 (e^-t - 1)/t dt + int_1^inf e^-t/t dt + gamma|."""

    def head(t):
        t = np.asarray(t, dtype=float)
        return np.expm1(-t) / t

    def tail(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-t) / t

    i1 = integrate(head, 0.0, 1.0, cfg=cfg)
    i2 = integrate_semiinfinite(tail, 1.0, cfg=cfg)
    return abs((i1 + i2).checked("euler identity") + EULER_GAMMA)


def _log_moment_identity_residual(n: int, cfg: QuadratureConfig) -> float:
    """Iterated double integral against Gamma'(n/2)/2 + Gamma(n/2) log 2.

    The double integral pairs the tail of the incomplete gamma over
    s >= 1/4 against its head over s <= 1/4, each weighted by 1/(2s).
    """
    half_n = 0.5 * n
    gn = gamma(half_n)

    def outer_tail(s):
        s = np.asarray(s, dtype=float)
        return np.array([upper_gamma(half_n, si) for si in s]) / (2.0 * s)

    def outer_head(s):
        s = np.asarray(s, dtype=float)
        return (gn - np.array([upper_gamma(half_n, si) for si in s])) / (2.0 * s)

    what = f"log moment identity (n={n})"
    part1 = integrate_semiinfinite(outer_tail, 0.25, cfg=cfg).checked(what)
    hint = SingularityHint("lower") if n == 1 else NO_SINGULARITY
    part2 = integrate(outer_head, 0.0, 0.25, hint=hint, cfg=cfg).checked(what)
    left = part1 - part2
    right = gn * digamma(half_n) / 2.0 + gn * math.log(2.0)
    return abs(left - right)


def gamma_tail_bounds(n: int, s: float, r: float) -> tuple[float, float, float]:
    """(lower, I, upper) for the incomplete-gamma tail sandwich.

    I = Gamma(n/2 + s, r^2/4) and the bounds are
    2^(2-2s-n) r^(n+2s-2) e^(-r^2/4) and twice that, valid once
    r >= 2 sqrt(n - 2 + 2s).
    """
    if n < 2 and n - 2 + 2 * s < 0:
        raise ValueError("bound requires n - 2 + 2s >= 0")
    value = upper_gamma(0.5 * n + s, 0.25 * r * r)
    base = 2.0 ** (2.0 - 2.0 * s - n) * r ** (n + 2.0 * s - 2.0) * math.exp(
        -0.25 * r * r
    )
    return base, value, 2.0 * base


def verify_scalar_identities(
    n_list: list[int],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> VerifyReport:
    """Run the scalar identity oracles and the gamma-tail sandwich scan."""
    if not n_list:
        raise ValueError("n_list must be nonempty")
    report = VerifyReport(suite="identities")
    report.add(
        "euler-identity",
        "split exponential integrals reproduce -gamma",
        _euler_identity_residual(cfg),
        1e-10,
        statement="int_0^1 (e^-t - 1)/t dt + int_1^inf e^-t/t dt = -gamma",
    )
    for n in n_list:
        report.add(
            f"log-moment-n{n}",
            f"iterated double integral matches gamma-log moment, n={n}",
            _log_moment_identity_residual(n, cfg),
            1e-8,
            statement="double 1/(2s)-weighted incomplete-gamma integral "
            "= Gamma'(n/2)/2 + Gamma(n/2) log 2",
        )
    for n in n_list:
        for s in (0.0, 0.5):
            if n - 2 + 2 * s < 0:
                continue
            r_lo = 2.0 * math.sqrt(n - 2 + 2 * s) + 0.1
            worst = 0.0
            for r in np.linspace(r_lo, 12.0, 20):
                lo, val, hi = gamma_tail_bounds(n, s, float(r))
                slack = 1e-12 * max(val, lo)
                viol = max(lo - val - slack, val - hi - slack, 0.0)
                worst = max(worst, viol / max(val, 1e-300))
            report.add(
                f"gamma-tail-n{n}-s{s}",
                f"two-sided tail sandwich holds on r-scan, n={n}, s={s}",
                worst,
                0.0,
                statement="2^(2-2s-n) r^(n+2s-2) e^(-r^2/4) <= "
                "Gamma(n/2+s, r^2/4) <= twice the lower bound",
            )
    return report
