"""The list-and-heap refinement loop the engine replaced, kept as a reference.

`_adapt` here calls f once per panel, keeps values, errors and
tolerances as lists of Python floats and pops the worst panel from a
heap keyed (-key, creation index).  The engine in `neutroncp.quadrature`
calls f once per refinement step and keeps its panels in arrays; it must
return exactly what this loop returns: the same panels in the same
order, hence the same value, abs_error, evaluations and unconverged.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from neutroncp.quadrature import (
    _ERROR_FLOOR_REL,
    NODES,
    WEIGHTS_G,
    WEIGHTS_K,
    QuadratureConfig,
    QuadratureResult,
)


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], a: list, b: list):
    """Kronrod values and |Kronrod - Gauss| errors of the panels [a[i], b[i]].

    f is called once per panel with its 15 nodes; the node arithmetic and
    the weighted sums run once for all the panels.  The result is two
    nested lists indexed [panel][component], and whether f is
    vector-valued: one row per component rather than a single row.
    """
    ends = np.array([(0.5 * (x + y), 0.5 * (y - x)) for x, y in zip(a, b)])
    half = ends[:, 1:]
    fv = np.array([f(x) for x in ends[:, :1] + half * NODES])
    vector = fv.ndim == 3
    fv = fv.reshape(len(half), -1, len(NODES))
    kronrod = half * np.add.reduce(WEIGHTS_K * fv, axis=-1)
    gauss = half * np.add.reduce(WEIGHTS_G * fv[..., 1::2], axis=-1)
    finite = np.isfinite(kronrod)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        where = f" (component {j})" if vector else ""
        raise ValueError(f"integrand returned non-finite values on [{a[i]}, {b[i]}]{where}")
    return kronrod.tolist(), np.abs(kronrod - gauss).tolist(), vector


def _tolerance(cfg: QuadratureConfig, value: list) -> list[float]:
    return [max(cfg.abs_tol, cfg.rel_tol * abs(v)) for v in value]


def _weights(tol: list[float], err: list[float], active: list[bool]) -> list[float]:
    """Heap-key weight per component: a power of two near 1/tolerance.

    Inactive components weigh nothing.  A power of two scales an error
    exactly, so a one-component run keeps the plain largest-error order.
    The exponent stops at that of the smallest normal float, because the
    inverse of a subnormal tolerance overflows.
    """
    return [
        math.ldexp(1.0, min(1021, -math.frexp(t if t > 0.0 else e)[1])) if on else 0.0
        for t, e, on in zip(tol, err, active)
    ]


def _entry(seq: int, a: float, b: float, val: list, err: list, weights: list[float]) -> tuple:
    """Heap entry of a panel, keyed by its largest weighted error.

    The entry keeps the index of that component, whose stall count the
    panel's split updates.
    """
    keys = [e * w for e, w in zip(err, weights)]
    key = max(keys)
    return (-key, seq, a, b, val, err, keys.index(key))


def _adapt(
    f: Callable[[np.ndarray], np.ndarray], edges: list[float], cfg: QuadratureConfig
) -> QuadratureResult:
    """Worst-panel-first refinement over the initial panel edges.

    Every component shares the panels.  A panel's key is its largest
    error relative to the tolerance of a component that is still above
    it; the loop runs until every component meets its tolerance.  A
    scalar f gives a result of plain numbers.

    Values and errors are kept as lists of Python floats: for a handful
    of components that costs less than numpy calls on tiny arrays, and
    numpy does the work that scales, the nodes and sums.
    """
    span = edges[-1] - edges[0]
    vals, errs, vector = _eval_panels(f, edges[:-1], edges[1:])
    n = len(vals[0])
    heap: list = []
    panels = len(vals)
    total_val: list = [0.0] * n
    total_err = [0.0] * n
    for seq, (a, b, val, err) in enumerate(zip(edges[:-1], edges[1:], vals, errs)):
        total_val = [t + v for t, v in zip(total_val, val)]
        total_err = [t + e for t, e in zip(total_err, err)]
        heap.append((0.0, seq, a, b, val, err, 0))  # keyed on the first pass
    seq = len(heap)

    # Refinement stops on: every component within tolerance or at the
    # roundoff floor, budget exhausted, or every panel too narrow to
    # split.  A component whose own refinements fail to improve its error
    # for a long run is stuck on noise or a divergence: its cap goes to
    # inf, so it stops driving the refinement and cannot starve the
    # others, and it is reported as unconverged.
    # err > max(tol, floor |value|) is err > max(abs_tol, rel |value|):
    rel = max(cfg.rel_tol, _ERROR_FLOOR_REL)
    cap = [cfg.abs_tol] * n
    stalls = [0] * n
    stall_limit = max(200, 2 * len(heap))
    weights: list[float] = []
    keyed = None
    while True:
        active = [e > max(c, rel * abs(v)) for e, c, v in zip(total_err, cap, total_val)]
        if not any(active) or 15 * panels + 30 > cfg.max_evaluations or not heap:
            break
        if active != keyed:
            # the set of components still refining changed: re-key every panel
            keyed = active
            weights = _weights(_tolerance(cfg, total_val), total_err, active)
            heap = [_entry(s, a, b, v, e, weights) for _, s, a, b, v, e, _ in heap]
            heapq.heapify(heap)
        _, _, a, b, val, err, j = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid - a < 1e-15 * span:
            # cannot subdivide further in float64; park the panel
            # (its value and error stay counted in the totals)
            continue
        (val_l, val_r), (err_l, err_r), _ = _eval_panels(f, [a, mid], [mid, b])
        panels += 2
        prev_err = total_err[j]
        total_val = [t + (l + r - v) for t, l, r, v in zip(total_val, val_l, val_r, val)]
        total_err = [t + (l + r - e) for t, l, r, e in zip(total_err, err_l, err_r, err)]
        heapq.heappush(heap, _entry(seq, a, mid, val_l, err_l, weights))
        heapq.heappush(heap, _entry(seq + 1, mid, b, val_r, err_r, weights))
        seq += 2
        if total_err[j] > 0.999 * prev_err:
            stalls[j] += 1
            if stalls[j] >= stall_limit:
                cap[j] = math.inf
        else:
            stalls[j] = 0

    tol = _tolerance(cfg, total_val)
    abs_error = [max(e, _ERROR_FLOOR_REL * abs(v)) for e, v in zip(total_err, total_val)]
    missed = tuple(j for j in range(n) if not abs_error[j] <= tol[j])
    if not vector:
        return QuadratureResult(total_val[0], abs_error[0], 15 * panels, not missed, missed)
    return QuadratureResult(
        np.array(total_val), np.array(abs_error), 15 * panels * n, not missed, missed
    )
