"""One-dimensional quadrature: two rules, each written once.

This module holds the package's numeric integration.  The adaptive rule
is a 15-point Gauss-Kronrod rule applied per panel, with a
worst-panel-first refinement loop driven by the embedded 7-point Gauss
estimate.  It has two entry points:

* :func:`integrate_semi_infinite` for integrals over (0, inf) that decay
  like e^(-2t), mapped to (0, 1) by u = t / (t + 1/2);
* :func:`integrate_finite_oscillatory` for finite intervals whose
  integrand oscillates a known number of times (one initial panel per
  oscillation period).

Their integrands are scalar and vectorized: ``f`` receives a 1-D numpy
array of abscissas and must return an array of the same shape.  It is
called once per refinement step, on the 15 nodes of every panel that
step evaluates, in panel order: all the initial panels in one call, then
both halves of each split in one call of 30 nodes.  Complex-valued
integrands are supported; error magnitudes use ``abs``.

Both entry points accept optional ``breakpoints``: abscissas (in the
caller's coordinates) where the integrand changes scale or character.
Seeding them is essential when the integrand's support is far narrower
than the domain; purely adaptive refinement starting from a coarse grid
can silently miss such features and report convergence on the wrong
value.

The fixed rule, :func:`integrate_trapezoid`, is the trapezoidal rule on
the grid h Z, for integrands that are analytic in a strip about the real
line and negligible beyond [lo, hi]; its error then falls like
exp(-2 pi a/h) for a strip of half-width a (Trefethen & Weideman, SIAM
Rev. 56 (2014) 385).  Its first call takes the h = 1/4 grid, whose
strided nodes give the h = 1, 1/2 and 1/4 sums; from there the step is
halved, adding only the odd nodes, until the sum settles.  At that rate
each halving roughly squares the error, so once the sums converge the
error of the last one is taken from the last two differences, d^2/d'
(Bailey, Jeyabalan & Li, Exp. Math. 14 (2005) 317), which stops the
loop one halving sooner than the last difference alone.  Its integrand returns one row per sum, so
related integrals share the nodes and the halvings.

All three entry points take one tolerance, rel_tol: a sum has
converged when its error estimate is at most rel_tol |value|, so no
relative tolerance settles an integral whose value is zero.  The
adaptive rule spends at most _MAX_EVALUATIONS integrand values on one
integral.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

Number = Union[float, complex]

# 15-point Kronrod nodes on [-1, 1] (positive half, descending) and the
# matching Kronrod weights; odd indices of the ascending full array are
# the embedded 7-point Gauss nodes.  QUADPACK's dqk15 values to 33
# digits: 15-digit roundings bias every result by about -3e-15.
_XK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

NODES = np.array([-x for x in _XK_HALF[:-1]] + [0.0] + [x for x in reversed(_XK_HALF[:-1])])
WEIGHTS_K = np.array(list(_WK_HALF[:-1]) + [_WK_HALF[-1]] + list(reversed(_WK_HALF[:-1])))
WEIGHTS_G = np.array(list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(reversed(_WG_HALF[:-1])))

# Reported error is floored at this relative level: panel sums accumulate
# roundoff near 1e-16 per panel, so claiming better would be dishonest.
_ERROR_FLOOR_REL = 1e-14
# halvings of integrate_trapezoid's step, from h = 1 to 1/32; the first
# integrand call takes h = 1/4, so f is called at most this many times
# less one (4)
_MAX_HALVINGS = 5
# integrate_trapezoid's error model d^2/d' is used only for a sum that
# the previous halving moved by at most this fraction of itself
_MODEL_GATE_REL = 1e-2
# integrand evaluations the adaptive rule may spend on one integral
_MAX_EVALUATIONS = 400_000


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error estimate of one run.

    For integrate_trapezoid, value and abs_error are arrays with one
    entry per row of the integrand.
    """

    value: Union[Number, np.ndarray]
    abs_error: Union[float, np.ndarray]
    evaluations: int
    converged: bool


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], a: Sequence[float], b: Sequence[float]):
    """Kronrod values and |Kronrod - Gauss| errors of the panels [a[i], b[i]].

    f is called once, on the 15 nodes of every panel in panel order as one
    1-D array; the weighted sums then run along each panel's 15 values.
    The result is two lists of Python numbers, one entry per panel.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    fv = np.reshape(f(((0.5 * (a + b))[:, None] + half[:, None] * NODES).ravel()), (-1, 15))
    kronrod = half * np.add.reduce(WEIGHTS_K * fv, axis=-1)
    gauss = half * np.add.reduce(WEIGHTS_G * fv[:, 1::2], axis=-1)
    finite = np.isfinite(kronrod)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"integrand returned non-finite values on [{a[i]}, {b[i]}]")
    return kronrod.tolist(), np.abs(kronrod - gauss).tolist()


def _adapt(
    f: Callable[[np.ndarray], np.ndarray], edges: list[float], rel_tol: float
) -> QuadratureResult:
    """Worst-panel-first refinement over the initial panel edges.

    The panels wait on a heap keyed (-error, creation index), so the
    panel with the largest error is split first, and of equal errors the
    older one.  f is called once per refinement step: on every initial
    panel, then on both halves of each split.  The sum has converged
    when abs_error <= rel_tol |value|.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    span = edges[-1] - edges[0]
    vals, errs = _eval_panels(f, edges[:-1], edges[1:])
    heap = list(zip([-e for e in errs], range(len(errs)), edges[:-1], edges[1:], vals))
    heapq.heapify(heap)
    total_val = total_err = 0.0
    for val, err in zip(vals, errs):
        total_val, total_err = total_val + val, total_err + err
    evaluations, seq = 15 * len(heap), len(heap)

    # Refinement stops on: the error within tolerance or at the roundoff
    # floor, budget exhausted, every panel too narrow to split, or a long
    # run of splits that fail to improve the error (noise or a divergence).
    rel = max(rel_tol, _ERROR_FLOOR_REL)
    stalls, stall_limit = 0, max(200, 2 * len(heap))
    while (
        total_err > rel * abs(total_val)
        and evaluations + 30 <= _MAX_EVALUATIONS
        and heap
        and stalls < stall_limit
    ):
        neg_err, _, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid - a < 1e-15 * span:
            # cannot subdivide further in float64; park the panel
            # (its value and error stay counted in the totals)
            continue
        (val_l, val_r), (err_l, err_r) = _eval_panels(f, [a, mid], [mid, b])
        evaluations += 30
        prev_err = total_err
        total_val += val_l + val_r - val
        total_err += err_l + err_r + neg_err
        heapq.heappush(heap, (-err_l, seq, a, mid, val_l))
        heapq.heappush(heap, (-err_r, seq + 1, mid, b, val_r))
        seq += 2
        stalls = stalls + 1 if total_err > 0.999 * prev_err else 0

    size = abs(total_val)
    abs_error = max(total_err, _ERROR_FLOOR_REL * size)
    converged = abs_error <= rel_tol * size
    return QuadratureResult(total_val, abs_error, evaluations, converged)


def _merged_edges(
    a: float, b: float, base: Sequence[float], extra: Sequence[float]
) -> list[float]:
    """Sorted panel edges from a to b, dropping near-duplicate points.

    No panel is narrower than 1e-15 of the span: an interior point that
    close to b is replaced by b instead of leaving a sliver panel.
    """
    tol = 1e-15 * (b - a)
    out = [a]
    for p in sorted([p for p in (*base, *extra) if a < p < b]):
        if p - out[-1] > tol:
            out.append(p)
    if b - out[-1] <= tol:
        out[-1] = b
    else:
        out.append(b)
    return out


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    rel_tol: float,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over (0, inf).

    The domain is mapped to u in (0, 1) by t = s u/(1-u) with s = 0.5,
    the scale of an e^(-2t) decay, then refined adaptively.
    ``breakpoints`` are t-coordinates; they are mapped into u and become
    initial panel edges, together with a default ladder at t = s/9,
    s/3, s, 3s, 9s.

    Never raises on non-convergence: the result carries converged=False
    and the caller decides whether that is fatal.
    """
    s = 0.5

    def g(u: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - u
        # deep refinement can round a node to u=1; that sliver maps past
        # the largest representable t and carries zero weight for any
        # integrable decay, so clamp it instead of feeding f an inf
        safe = one_minus > 0.0
        den = np.where(safe, one_minus, 1.0)
        t = s * u / den
        jac = s / den**2
        if not safe.all():
            t = np.where(safe, t, s)
            jac = np.where(safe, jac, 0.0)
        return np.asarray(f(t)) * jac

    extra = [t / (t + s) for t in breakpoints if t > 0.0 and math.isfinite(t)]
    return _adapt(g, _merged_edges(0.0, 1.0, [0.1, 0.25, 0.5, 0.75, 0.9], extra), rel_tol)


def integrate_finite_oscillatory(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    phase_scale: float,
    rel_tol: float,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over [a, b] when it oscillates ~phase_scale times.

    phase_scale is the expected number of oscillation periods on [a, b];
    the initial grid places one panel per period so the embedded rule
    pair sees at most one oscillation each.  breakpoints (in the same
    coordinates as a, b) add further initial edges.
    """
    if not b > a:
        raise ValueError("require b > a")
    if phase_scale < 0.0 or not math.isfinite(phase_scale):
        raise ValueError("phase_scale must be >= 0 and finite")
    n = max(1, math.ceil(phase_scale))
    n = min(n, max(1, _MAX_EVALUATIONS // 30))
    base = np.linspace(a, b, n + 1)[1:-1].tolist()
    return _adapt(f, _merged_edges(a, b, base, list(breakpoints)), rel_tol)


def integrate_trapezoid(
    f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, rel_tol: float
) -> QuadratureResult:
    """Trapezoidal sums h sum_j f(h j) over the nodes h j in [lo, hi].

    f gets a 1-D array of nodes, in ascending order, and returns one row
    of values per sum (a 1-D result is one row).  h starts at 1 and is
    halved up to _MAX_HALVINGS times.  The first call takes the whole
    h = 1/4 grid, the nodes j/4: T_1 sums those with j = 0 mod 4, T_1/2
    adds j = 2 mod 4 and T_1/4 the odd j, each a strided slice of the
    one array, so the sums are those of three separate calls to the bit.
    Each later halving calls f on the new, odd nodes only, so f is
    called at most _MAX_HALVINGS - 1 times.  The loop never stops at
    h = 1, and the package's sums nearly all need h = 1/4, so a batch of
    them takes one call; a sum that settles at h = 1/2 has had its
    h = 1/4 nodes evaluated for nothing.  Each array f returns must stay
    as it is through later calls: the rule holds it across three sums.
    A row's error is its last difference d = |T_h - T_2h|.  From the
    second halving on it is d^2/d', with d' = |T_2h - T_4h|, where the
    differences shrink (d < d') and the previous halving moved the sum
    by at most _MODEL_GATE_REL of it (d' <= 1e-2 |T_h|): for an error
    that falls like exp(-c/h) each halving roughly squares it.
    The loop stops when every row has max(error, _ERROR_FLOOR_REL |T_h|)
    <= rel_tol |T_h|, so a rel_tol below the floor never converges.  The
    result holds the rows' sums and those errors as arrays, and
    evaluations counts the nodes.

    The gate keeps the model off sums that a narrow feature has not yet
    resolved, but the model can still be fooled where the error of one
    sum is small by accident of the grid's phase.  On 40000 runs of
    sech((x + s)/b) over [-200, 200], b log-uniform in [0.05, 3], s
    uniform in [0, 1) and rel_tol log-uniform in [1e-13, 1e-4], 30 of
    34476 converged sums missed rel_tol (the worst by 1310 times, at
    rel_tol 3.7e-13); the plain difference missed 1 of 31429, by 3.9
    times.

    Never raises on non-convergence: the result carries converged=False
    and the caller decides whether that is fatal.
    """
    # the first call takes the h = 1/4 grid of nodes j/4: the columns
    # j = 0 mod 4 make T_1, which only seeds the first difference,
    # j = 2 mod 4 are the first halving's new nodes and odd j the second's
    j0 = math.ceil(4.0 * lo)
    grid = np.atleast_2d(f(0.25 * np.arange(j0, math.floor(4.0 * hi) + 1)))
    strided = (grid[:, -j0 % 4 :: 4], grid[:, (2 - j0) % 4 :: 4], grid[:, (j0 + 1) % 2 :: 2])
    total = strided[0].sum(axis=1)
    evaluations = grid.shape[1]
    for level in range(1, _MAX_HALVINGS + 1):
        h = 2.0**-level
        if level < len(strided):
            values = strided[level]
        else:  # the odd multiples of h
            first = math.ceil(lo / h) | 1
            values = np.atleast_2d(f(h * np.arange(first, math.floor(hi / h) + 1, 2)))
            evaluations += values.shape[1]
        prev, total = total, 0.5 * total + h * values.sum(axis=1)
        size = np.abs(total)
        error = diff = np.abs(total - prev)
        if level > 1:  # d^2/d' for the rows that pass the gate
            trust = (diff < last) & (last <= _MODEL_GATE_REL * size)
            error = np.where(trust, diff * (diff / np.where(trust, last, 1.0)), diff)
        last = diff
        abs_error = np.maximum(error, _ERROR_FLOOR_REL * size)
        if np.count_nonzero(abs_error <= rel_tol * size) == size.size:
            return QuadratureResult(total, abs_error, evaluations, True)
    return QuadratureResult(total, abs_error, evaluations, False)
