"""Adaptive 1-D quadrature, the mean over spheres in R^n and H^n
(`sphere_mean`), and the scalar integral identities built on them.

The engine is a vectorized Gauss-Kronrod 7-15 pair with worst-panel-first
subdivision (QUADPACK, Piessens et al. 1983). It runs in three modes:

- scalar: `integrate` and `integrate_semiinfinite` with an integrand that
  maps (k,) nodes to (k,) values;
- shared panels: the same entry points with an integrand that returns an
  (m, k) batch, m integrals over one interval, as in scipy.integrate.quad_vec.
  The heap is keyed by each panel's largest component error, the result is
  converged once every component meets max(abs_tol, rel_tol |I_i|), and
  QuadResult.value and error_estimate are (m,) arrays. Use it when the rows
  need refinement in the same places (the inner level of an iterated
  integral);
- independent rows: `integrate_semiinfinite_rows`, m integrals that run the
  scalar algorithm each on its own (own heap, totals, subdivision budget and
  tolerance test) but in lockstep, so each step makes one integrand call for
  the children of every unconverged row. Use it when the rows refine in
  different places (one kernel-table row per radius). A row's result does
  not depend on the other rows: whole-grid and one-row runs agree bit for
  bit as long as the integrand's value at a row's nodes depends on that row
  alone.

Semi-infinite ranges are folded to (0, 1] by u = 1/(1 + t - a), which
behaves well for both exponential and Gaussian tails. Endpoint
singularities of inverse-square-root or logarithmic type are removed
analytically by the substitution u^2 = x - a before subdividing; both maps
pass (m, k) values through.

Inside loglap the batched levels of iterated integrals call `_adaptive`
directly, so `integrate` and `integrate_semiinfinite` see scalar integrands
only: the benchmark's traced runs (perfbench/spans.py) wrap those two names
and read each result's value as a float.
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
    "integrate_semiinfinite_rows",
    "sphere_area",
    "sphere_mean",
    "frullani_log",
    "verify_scalar_identities",
]

_EPS = np.finfo(float).eps

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
    split_time: float = 1.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.split_time <= 0:
            raise ValueError("split_time must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadResult:
    """An integral with its error estimate; value and error_estimate are
    floats for a (k,) integrand and (m,) arrays for an (m, k) one or for m
    independent rows, whose `converged` is an (m,) bool array, row by row."""

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
    endpoint: str = "none"  # lower | upper | none
    kind: str = "none"  # inverse_sqrt | log | none

    def __post_init__(self):
        if self.endpoint not in ("lower", "upper", "none"):
            raise ValueError(f"bad endpoint {self.endpoint!r}")
        if self.kind not in ("inverse_sqrt", "log", "none"):
            raise ValueError(f"bad kind {self.kind!r}")
        if (self.kind == "none") != (self.endpoint == "none"):
            raise ValueError("kind is 'none' exactly when endpoint is 'none'")


NO_SINGULARITY = SingularityHint()


def _panel(f, a: float, b: float, shape=None):
    """Kronrod-15 estimate with embedded Gauss-7 error on one panel.

    f maps the (k,) nodes to (k,) values or to an (m, k) batch. `shape` is
    the value shape the previous panels returned: () or (m,), None on the
    first panel.
    """
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    x = c + h * _NODES
    fv = np.asarray(f(x), dtype=float)
    if fv.shape == x.shape and not shape:
        if not np.all(np.isfinite(fv)):
            bad = x[~np.isfinite(fv)][0]
            raise NonFiniteIntegrandError(f"integrand not finite near x={bad!r}")
        resk = h * float(_WK @ fv)
        resg = h * float(_WG @ fv)
        resabs = abs(h) * float(_WK @ np.abs(fv))
        mean = resk / (b - a)
        resasc = abs(h) * float(_WK @ np.abs(fv - mean))
        err = abs(resk - resg)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        err = max(err, 50.0 * _EPS * resabs)
        return resk, err
    if (
        shape == ()
        or fv.ndim != 2
        or fv.shape[0] < 1
        or fv.shape[1] != x.size
        or (shape is not None and fv.shape[:1] != shape)
    ):
        raise ValueError(
            "integrand must return (k,) or (m, k) values for (k,) nodes, "
            f"got {fv.shape} for {x.shape}"
        )
    finite = np.isfinite(fv)
    if not np.all(finite):
        bad = x[~np.all(finite, axis=0)][0]
        raise NonFiniteIntegrandError(f"integrand not finite near x={bad!r}")
    return _rows_rule(fv, h, b - a)


def _weigh(fv: np.ndarray, w: np.ndarray) -> np.ndarray:
    # einsum, not `fv @ w`: BLAS gemv rounds a row differently depending on
    # the other rows of the batch, einsum sums every row the same way
    return np.einsum("ij,j->i", fv, w)


def _rows_rule(fv: np.ndarray, h, width):
    """The scalar rule of `_panel` applied to each row of (p, 15) node
    values, with half-widths h and widths `width`, scalars or (p,) arrays;
    row i's numbers depend on row i alone."""
    resk = h * _weigh(fv, _WK)
    resg = h * _weigh(fv, _WG)
    habs = np.abs(h)
    resabs = habs * _weigh(np.abs(fv), _WK)
    mean = resk / width
    resasc = habs * _weigh(np.abs(fv - mean[:, None]), _WK)
    err = np.abs(resk - resg)
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err), where=scaled)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio ** 1.5), err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err


def _adaptive(f, a: float, b: float, cfg: QuadratureConfig) -> QuadResult:
    """Worst-panel-first subdivision of (a, b).

    For an (m, k) integrand the heap is keyed by each panel's largest
    component error, and the result is converged once every component meets
    max(abs_tol, rel_tol |I_i|), in the manner of QUADPACK and
    scipy.integrate.quad_vec.
    """
    value, err = _panel(f, a, b)
    shape = np.shape(value)
    batch = bool(shape)
    evals = 15
    heap = [(-(err.max() if batch else err), 0, a, b, value, err)]
    counter = 1
    total_val = value
    total_err = err
    splits = 0
    while (
        np.any(total_err > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total_val)))
        if batch
        else total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_val))
    ):
        if splits >= cfg.max_subdivisions:
            return QuadResult(total_val, total_err, evals, converged=False)
        _, _, pa, pb, pv, pe = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid <= pa or mid >= pb:
            # interval at floating-point resolution; accept as is
            heapq.heappush(heap, (0.0, counter, pa, pb, pv, 0.0 * pe))
            counter += 1
            total_err = total_err - pe
            continue
        v1, e1 = _panel(f, pa, mid, shape)
        v2, e2 = _panel(f, mid, pb, shape)
        evals += 30
        splits += 1
        total_val = total_val + (v1 + v2 - pv)
        total_err = total_err + (e1 + e2 - pe)
        heapq.heappush(heap, (-(e1.max() if batch else e1), counter, pa, mid, v1, e1))
        heapq.heappush(heap, (-(e2.max() if batch else e2), counter + 1, mid, pb, v2, e2))
        counter += 2
    return QuadResult(total_val, total_err, evals, converged=True)


def _row_values(f, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    fv = np.asarray(f(rows, x), dtype=float)
    if fv.shape != x.shape:
        raise ValueError(
            f"integrand must return {x.shape} values for {x.shape} nodes, got {fv.shape}"
        )
    finite = np.isfinite(fv)
    if not np.all(finite):
        raise NonFiniteIntegrandError(f"integrand not finite near x={x[~finite][0]!r}")
    return fv


def _adaptive_rows(f, m: int, a: float, b: float, cfg: QuadratureConfig) -> QuadResult:
    """m independent integrals over (a, b), subdivided in lockstep.

    f(rows, x) maps row indices (p,) and their panels' nodes (p, 15) to the
    values (p, 15). Each row runs `_adaptive`'s scalar algorithm on its own
    heap, totals and budget; each step pops the worst panel of every
    unconverged row and evaluates all their children in one call to f.
    """
    h = 0.5 * (b - a)
    x = np.broadcast_to(0.5 * (a + b) + h * _NODES, (m, _NODES.size))
    total_val, total_err = _rows_rule(_row_values(f, np.arange(m), x), h, b - a)
    heaps = [[(-e, 0, a, b, v, e)] for v, e in zip(total_val.tolist(), total_err.tolist())]
    counter = 1
    splits = np.zeros(m, dtype=int)
    converged = np.ones(m, dtype=bool)
    evals = 15 * m
    while True:
        open_ = total_err > np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total_val))
        spent = open_ & (splits >= cfg.max_subdivisions)
        converged[spent] = False
        work = np.flatnonzero(open_ & ~spent)
        if not work.size:
            break
        split = []  # (row, a, mid, b, value, error) of the panels to halve
        for i in work.tolist():
            _, _, pa, pb, pv, pe = heapq.heappop(heaps[i])
            mid = 0.5 * (pa + pb)
            if mid <= pa or mid >= pb:
                # interval at floating-point resolution; accept as is
                heapq.heappush(heaps[i], (0.0, counter, pa, pb, pv, 0.0 * pe))
                counter += 1
                total_err[i] = total_err[i] - pe
                continue
            split.append((i, pa, mid, pb, pv, pe))
        if not split:
            continue
        rows, pa, mid, pb, pv, pe = map(np.array, zip(*split))
        lo, hi = np.concatenate([pa, mid]), np.concatenate([mid, pb])
        h = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + h[:, None] * _NODES
        v, e = _rows_rule(_row_values(f, np.concatenate([rows, rows]), x), h, hi - lo)
        q = rows.size
        v1, v2, e1, e2 = v[:q], v[q:], e[:q], e[q:]
        total_val[rows] = total_val[rows] + (v1 + v2 - pv)
        total_err[rows] = total_err[rows] + (e1 + e2 - pe)
        splits[rows] += 1
        evals += 30 * q
        for i, a1, m1, b1, va, vb, ea, eb in zip(
            rows.tolist(), pa.tolist(), mid.tolist(), pb.tolist(),
            v1.tolist(), v2.tolist(), e1.tolist(), e2.tolist(),
        ):
            heapq.heappush(heaps[i], (-ea, counter, a1, m1, va, ea))
            heapq.heappush(heaps[i], (-eb, counter + 1, m1, b1, vb, eb))
            counter += 2
    return QuadResult(total_val, total_err, evals, converged)


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


def integrate_semiinfinite_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadResult:
    """Row i: the integral of f over (a[i], infinity), via u = 1/(1 + t - a[i]).

    f(rows, t) receives row indices (p,) and nodes (p, k), one row of t per
    index, and returns (p, k) values. The rows are independent integrals
    subdivided in lockstep (see the module docstring): value,
    error_estimate and converged are (m,) arrays.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 1 or not np.all(np.isfinite(a)):
        raise ValueError(f"need a nonempty 1-d array of finite lower endpoints, got {a!r}")

    def g(rows, u):
        return _folded(lambda t: f(rows, t), a[rows, None] - 1.0 + 1.0 / u, u)

    return _adaptive_rows(g, a.size, 0.0, 1.0, cfg)


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


def _edge_breaks(name: str, breaks, support_radius: float) -> tuple[float, ...]:
    """A radial function's breaks, checked to ascend to its support edge,
    where sphere_mean stops; a compact support without breaks has its edge."""
    breaks = tuple(breaks) or ((support_radius,) if math.isfinite(support_radius) else ())
    if list(breaks) != sorted(breaks) or (breaks and breaks[-1] != support_radius):
        raise ValueError(f"{name}: breaks must ascend to the support edge, got {breaks!r}")
    return breaks


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
        # the crossing angles; b = 0 gives cos = +-inf (nan on a cut), a
        # sphere on one side of the cut
        with np.errstate(divide="ignore", invalid="ignore"):
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
    cancellation, and the range is split at cfg.split_time.
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

    split = cfg.split_time
    head = integrate(integrand, 0.0, split, cfg=cfg)
    tail = integrate_semiinfinite(integrand, split, cfg=cfg)
    return head.value + tail.value


def _euler_identity_residual(cfg: QuadratureConfig) -> float:
    """|int_0^1 (e^-t - 1)/t dt + int_1^inf e^-t/t dt + gamma|."""

    def head(t):
        t = np.asarray(t, dtype=float)
        return np.expm1(-t) / t

    def tail(t):
        t = np.asarray(t, dtype=float)
        return np.exp(-t) / t

    i1 = integrate(head, 0.0, 1.0, cfg=cfg).value
    i2 = integrate_semiinfinite(tail, 1.0, cfg=cfg).value
    return abs(i1 + i2 + EULER_GAMMA)


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

    part1 = integrate_semiinfinite(outer_tail, 0.25, cfg=cfg).value
    hint = (
        SingularityHint("lower", "inverse_sqrt") if n == 1 else NO_SINGULARITY
    )
    part2 = integrate(outer_head, 0.0, 0.25, hint=hint, cfg=cfg).value
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
