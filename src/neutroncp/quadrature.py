"""Adaptive one-dimensional quadrature over semi-infinite and finite domains.

This is the only numeric integration engine in the package.  It is a
15-point Gauss-Kronrod rule applied per panel, with a worst-panel-first
refinement loop driven by the embedded 7-point Gauss estimate.  Two
entry points are provided:

* :func:`integrate_semi_infinite` for integrals over (0, inf), mapped to
  (0, 1) by u = t / (t + decay_scale);
* :func:`integrate_finite_oscillatory` for finite intervals whose
  integrand oscillates a known number of times (one initial panel per
  oscillation period).

Integrands are vectorized: ``f`` receives a 1-D numpy array of abscissas
and must return an array of the same shape.  It is called once per
refinement step, on the 15 nodes of every panel that step evaluates, in
panel order: all the initial panels in one call, then both halves of
each split in one call of 30 nodes.  Complex-valued integrands are
supported throughout; error magnitudes use ``abs``.

Both entry points also take vector-valued integrands: n related
integrals done in one refinement loop, one numpy call per step instead
of n.  Every component shares one set of panels; ``f`` receives the
nodes as above and returns one row per component, shape (n, m) for m
nodes.  The shape ``f`` returns selects this form.
Each component keeps its own value and error sums.  A panel's key
is its largest error relative to the tolerance of a component that has
not yet converged, so refinement follows whichever components still
need it.  The run counts as converged only when every component meets
its own tolerance.  A scalar integrand is the one-component case: its
refinement order and its results are those of a plain scalar loop.

Both entry points accept optional ``breakpoints``: abscissas (in the
caller's coordinates) where the integrand changes scale or character.
Seeding them is essential when the integrand's support is far narrower
than the domain; purely adaptive refinement starting from a coarse grid
can silently miss such features and report convergence on the wrong
value.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for one integration run.

    decay_scale is the coordinate scale of the integrand's decay; it
    parametrizes the (0, inf) -> (0, 1) map and is ignored for finite
    intervals.  For a vector integrand the tolerances apply to each
    component, and max_evaluations bounds each component's evaluations.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 0.0
    max_evaluations: int = 1_000_000
    decay_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 and self.abs_tol <= 0.0:
            raise ValueError("one of rel_tol, abs_tol must be positive")
        if self.rel_tol < 0.0 or self.abs_tol < 0.0:
            raise ValueError("tolerances must be >= 0")
        if self.max_evaluations < 15:
            raise ValueError("max_evaluations must allow at least one panel")
        if not (self.decay_scale > 0.0 and math.isfinite(self.decay_scale)):
            raise ValueError("decay_scale must be positive and finite")


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error estimate of one run.

    For a vector integrand value and abs_error are arrays, evaluations
    counts every component's integrand values, and unconverged lists the
    components that missed their tolerance.
    """

    value: Union[Number, np.ndarray]
    abs_error: Union[float, np.ndarray]
    evaluations: int
    converged: bool
    unconverged: tuple[int, ...] = ()


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """Kronrod values and |Kronrod - Gauss| errors of the panels [a[i], b[i]].

    f is called once, on the 15 nodes of every panel in panel order as one
    1-D array; the weighted sums then run along each panel's 15 values.
    The result is two (panel, component) arrays, and whether f is
    vector-valued: one row per component rather than a single row.
    """
    half = 0.5 * (b - a)
    fv = np.asarray(f(((0.5 * (a + b))[:, None] + half[:, None] * NODES).ravel()))
    vector = fv.ndim == 2
    fv = fv.reshape(-1, len(half), len(NODES))
    kronrod = (half * np.add.reduce(WEIGHTS_K * fv, axis=-1)).T
    gauss = (half * np.add.reduce(WEIGHTS_G * fv[..., 1::2], axis=-1)).T
    finite = np.isfinite(kronrod)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        where = f" (component {j})" if vector else ""
        raise ValueError(f"integrand returned non-finite values on [{a[i]}, {b[i]}]{where}")
    return kronrod, np.abs(kronrod - gauss), vector


def _weights(tol: np.ndarray, err: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Key weight per component: a power of two near 1/tolerance.

    Inactive components weigh nothing.  A power of two scales an error
    exactly, so a one-component run keeps the plain largest-error order.
    The exponent stops at that of the smallest normal float, because the
    inverse of a subnormal tolerance overflows.
    """
    exponent = np.frexp(np.where(tol > 0.0, tol, err))[1]
    return np.where(active, np.ldexp(1.0, np.minimum(1021, -exponent)), 0.0)


def _grown(a: np.ndarray) -> np.ndarray:
    """a with room for at least two more rows; the new rows are uninitialised."""
    out = np.empty((2 * len(a) + 2,) + a.shape[1:], a.dtype)
    out[: len(a)] = a
    return out


def _adapt(
    f: Callable[[np.ndarray], np.ndarray], edges: list[float], cfg: QuadratureConfig
) -> QuadratureResult:
    """Worst-panel-first refinement over the initial panel edges.

    Every component shares the panels.  A panel's key is its largest
    error relative to the tolerance of a component that is still above
    it; the loop runs until every component meets its tolerance.  A
    scalar f gives a result of plain numbers.

    Panels are rows of arrays in creation order: ends, val and err
    (panel, component) and key.  The worst panel is the first argmax of
    key, so of equal keys the older panel goes first.  A panel that is
    split or parked leaves the refinement with key -1.
    """
    ends = np.column_stack((edges[:-1], edges[1:])).astype(float)
    span = ends[-1, 1] - ends[0, 0]
    val, err, vector = _eval_panels(f, ends[:, 0], ends[:, 1])
    panels, n = val.shape
    # summed panel by panel, as from 0.0: + 0.0 turns a sum of -0.0 into 0.0
    total_val = np.cumsum(val, axis=0)[-1] + 0.0
    total_err = np.cumsum(err, axis=0)[-1] + 0.0
    key = np.zeros(panels)  # keyed on the first pass

    # Refinement stops on: every component within tolerance or at the
    # roundoff floor, budget exhausted, or every panel too narrow to
    # split.  A component whose own refinements fail to improve its error
    # for a long run is stuck on noise or a divergence: its cap goes to
    # inf, so it stops driving the refinement and cannot starve the
    # others, and it is reported as unconverged.
    # err > max(tol, floor |value|) is err > max(abs_tol, rel |value|):
    rel = max(cfg.rel_tol, _ERROR_FLOOR_REL)
    cap = np.full(n, cfg.abs_tol)
    stalls = np.zeros(n, dtype=int)
    stall_limit = max(200, 2 * panels)
    weights = keyed = None
    while True:
        # |value| as Python's abs takes it; numpy's complex abs can differ by an ulp
        size = np.hypot(total_val.real, total_val.imag)
        active = total_err > np.maximum(cap, rel * size)
        if not active.any() or 15 * panels + 30 > cfg.max_evaluations:
            break
        if keyed is None or (active != keyed).any():
            # the set of components still refining changed: re-key every panel
            keyed = active
            tol = np.maximum(cfg.abs_tol, cfg.rel_tol * size)
            weights = _weights(tol, total_err, active)
            live = key[:panels]
            live[...] = np.where(live < 0.0, -1.0, (err[:panels] * weights).max(axis=1))
        p = int(np.argmax(key[:panels]))
        if key[p] < 0.0:
            break  # every panel is split or parked
        key[p] = -1.0
        a, b = ends[p].tolist()
        mid = 0.5 * (a + b)
        if mid - a < 1e-15 * span:
            # cannot subdivide further in float64; park the panel
            # (its value and error stay counted in the totals)
            continue
        halves_val, halves_err, _ = _eval_panels(f, np.array([a, mid]), np.array([mid, b]))
        if panels + 2 > len(key):
            ends, val, err, key = map(_grown, (ends, val, err, key))
        new = slice(panels, panels + 2)
        ends[new] = ((a, mid), (mid, b))
        val[new] = halves_val
        err[new] = halves_err
        key[new] = (halves_err * weights).max(axis=1)
        panels += 2
        # the component that set the panel's key, whose stall count it updates
        j = int(np.argmax(err[p] * weights))
        prev_err = total_err[j]
        total_val = total_val + ((halves_val[0] + halves_val[1]) - val[p])
        total_err = total_err + ((halves_err[0] + halves_err[1]) - err[p])
        if total_err[j] > 0.999 * prev_err:
            stalls[j] += 1
            if stalls[j] >= stall_limit:
                cap[j] = math.inf
        else:
            stalls[j] = 0

    size = np.hypot(total_val.real, total_val.imag)
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * size)
    abs_error = np.maximum(total_err, _ERROR_FLOOR_REL * size)
    missed = tuple(np.flatnonzero(~(abs_error <= tol)).tolist())
    if not vector:  # plain numbers; n is 1
        total_val, abs_error = total_val[0].item(), abs_error[0].item()
    return QuadratureResult(total_val, abs_error, 15 * panels * n, not missed, missed)


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
    cfg: QuadratureConfig,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over (0, inf).

    The domain is mapped to u in (0, 1) by t = s u/(1-u) with
    s = cfg.decay_scale, then refined adaptively.  ``breakpoints`` are
    t-coordinates; they are mapped into u and become initial panel
    edges, together with a default ladder at t = s/9, s/3, s, 3s, 9s.
    f may be vector-valued (see the module docstring).

    Never raises on non-convergence: the result carries converged=False
    and the caller decides whether that is fatal.
    """
    s = cfg.decay_scale

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
    return _adapt(g, _merged_edges(0.0, 1.0, [0.1, 0.25, 0.5, 0.75, 0.9], extra), cfg)


def integrate_finite_oscillatory(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    phase_scale: float,
    cfg: QuadratureConfig,
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
    n = min(n, max(1, cfg.max_evaluations // 30))
    base = np.linspace(a, b, n + 1)[1:-1].tolist()
    return _adapt(f, _merged_edges(a, b, base, list(breakpoints)), cfg)
