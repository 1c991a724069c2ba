"""Adaptive Gauss-Kronrod engine: analytic integrals and error honesty."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutroncp import QuadratureConfig, integrate_finite_oscillatory, integrate_semi_infinite
from neutroncp import quadrature
from neutroncp.quadrature import NODES, WEIGHTS_G, WEIGHTS_K, _merged_edges

import heap_reference

TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=0.0, max_evaluations=400_000)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0, abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureConfig(max_evaluations=10)
    with pytest.raises(ValueError):
        QuadratureConfig(decay_scale=0.0)


def test_rule_constants_at_full_precision():
    # each rule integrates 1 exactly; the Gauss half is leggauss(7)
    assert abs(math.fsum(WEIGHTS_K) - 2.0) <= 4.5e-16
    assert abs(math.fsum(WEIGHTS_G) - 2.0) <= 4.5e-16
    x, w = np.polynomial.legendre.leggauss(7)
    assert np.abs(NODES[1::2] - x).max() <= 1e-15
    assert np.abs(WEIGHTS_G - w).max() <= 1e-15


def test_exponential():
    res = integrate_semi_infinite(lambda t: np.exp(-t), TIGHT)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_gamma_function_moment():
    res = integrate_semi_infinite(lambda t: t**2 * np.exp(-t), TIGHT)
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_lorentzian_tail():
    # slow 1/t^2 tail; the rational map handles it without truncation
    res = integrate_semi_infinite(lambda t: 1.0 / (1.0 + t * t), TIGHT)
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_wide_decay_scale():
    cfg = QuadratureConfig(rel_tol=1e-12, decay_scale=100.0)
    res = integrate_semi_infinite(lambda t: np.exp(-t / 100.0) / 100.0, cfg)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_damped_oscillation():
    res = integrate_semi_infinite(lambda t: np.exp(-t) * np.cos(10.0 * t), TIGHT)
    assert res.value == pytest.approx(1.0 / 101.0, rel=1e-10)


def test_narrow_bump_needs_breakpoint():
    # support near t=1000 is invisible to the default panel ladder: the
    # run "converges" to zero, which is why callers must seed features
    f = lambda t: np.exp(-((t - 1000.0) ** 2))
    blind = integrate_semi_infinite(f, TIGHT)
    assert abs(blind.value) < 1e-3
    seeded = integrate_semi_infinite(f, TIGHT, breakpoints=[990.0, 1000.0, 1010.0])
    assert seeded.converged
    assert seeded.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_error_estimate_honest():
    cases = [
        (lambda t: np.exp(-t), 1.0),
        (lambda t: t**2 * np.exp(-t), 2.0),
        (lambda t: np.exp(-(t**2)), math.sqrt(math.pi) / 2.0),
        (lambda t: 1.0 / (1.0 + t * t), math.pi / 2.0),
    ]
    for f, exact in cases:
        res = integrate_semi_infinite(f, QuadratureConfig(rel_tol=1e-9))
        assert res.converged
        assert abs(res.value - exact) <= 10.0 * res.abs_error


def test_tolerance_ladder_monotone():
    # looser tolerance must not beat a tighter one by more than roundoff
    f = lambda t: np.sqrt(t) * np.exp(-t)
    exact = math.sqrt(math.pi) / 2.0
    errors = []
    for rel in (1e-4, 1e-7, 1e-10):
        res = integrate_semi_infinite(f, QuadratureConfig(rel_tol=rel))
        errors.append(abs(res.value - exact))
    floor = 1e-13 * exact
    assert errors[1] <= max(errors[0], floor)
    assert errors[2] <= max(errors[1], floor)


def test_budget_exhaustion_reports_not_converged():
    cfg = QuadratureConfig(rel_tol=1e-14, max_evaluations=120)
    res = integrate_semi_infinite(lambda t: np.sqrt(t) * np.exp(-t), cfg)
    assert not res.converged
    assert res.evaluations <= 150


def test_complex_integrand():
    res = integrate_semi_infinite(lambda t: np.exp(-(1.0 + 2.0j) * t), TIGHT)
    assert res.value == pytest.approx(1.0 / (1.0 + 2.0j), rel=1e-12)


def test_nonfinite_integrand_raises():
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda t: np.full_like(t, math.nan), TIGHT)


def test_divergent_integrand_does_not_converge():
    cfg = QuadratureConfig(rel_tol=1e-9, max_evaluations=20_000)
    res = integrate_semi_infinite(lambda t: 1.0 / t, cfg)
    assert not res.converged


def test_finite_oscillatory_plain():
    b = 7.3
    omega = 40.0
    res = integrate_finite_oscillatory(
        lambda x: np.sin(omega * x),
        0.0,
        b,
        phase_scale=omega * b / (2.0 * math.pi),
        cfg=TIGHT,
    )
    assert res.converged
    assert res.value == pytest.approx((1.0 - math.cos(omega * b)) / omega, rel=1e-10)


def test_finite_oscillatory_with_envelope():
    omega = 50.0
    exact = (math.exp(1.0) * (math.cos(omega) + omega * math.sin(omega)) - 1.0) / (
        1.0 + omega**2
    )
    res = integrate_finite_oscillatory(
        lambda x: np.exp(x) * np.cos(omega * x),
        0.0,
        1.0,
        phase_scale=omega / (2.0 * math.pi),
        cfg=TIGHT,
    )
    assert res.value == pytest.approx(exact, rel=1e-10)


def test_finite_oscillatory_zero_mean():
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-13)
    res = integrate_finite_oscillatory(
        lambda x: np.cos(x), 0.0, 10.0 * math.pi, phase_scale=5.0, cfg=cfg
    )
    assert res.converged
    assert abs(res.value) < 1e-12


def test_finite_oscillatory_validation():
    with pytest.raises(ValueError):
        integrate_finite_oscillatory(lambda x: x, 1.0, 0.0, phase_scale=1.0, cfg=TIGHT)
    with pytest.raises(ValueError):
        integrate_finite_oscillatory(
            lambda x: x, 0.0, 1.0, phase_scale=-2.0, cfg=TIGHT
        )


@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=5
    )
)
@settings(max_examples=40, deadline=None)
def test_polynomial_times_exponential(coeffs):
    # integral of sum c_n t^n e^-t is sum c_n n!
    exact = sum(c * math.factorial(n) for n, c in enumerate(coeffs))

    def f(t):
        acc = np.zeros_like(t)
        for n, c in enumerate(coeffs):
            acc = acc + c * t**n
        return acc * np.exp(-t)

    res = integrate_semi_infinite(f, QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12))
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-7, abs=1e-9)


# ------------------------------------------------------ vector integrands


def test_vector_convergence_is_per_component():
    # the 1/t component diverges at both ends; the others must still
    # meet their own tolerance, and only the divergent one is reported
    cfg = QuadratureConfig(rel_tol=1e-10, max_evaluations=20_000)
    rows = lambda t: np.stack([np.exp(-t), 1.0 / t, t**2 * np.exp(-t)])
    res = integrate_semi_infinite(rows, cfg)
    assert not res.converged
    assert res.unconverged == (1,)
    assert res.value[0] == pytest.approx(1.0, rel=1e-10)
    assert res.value[2] == pytest.approx(2.0, rel=1e-10)
    assert res.abs_error[1] > 1e-10 * abs(res.value[1])


def test_vector_nonfinite_integrand_raises():
    rows = lambda t: np.stack([np.exp(-t), np.full_like(t, math.nan)])
    with pytest.raises(ValueError, match="component 1"):
        integrate_semi_infinite(rows, QuadratureConfig())


@pytest.mark.parametrize("n", [1, 3])
def test_identical_components_repeat_the_scalar_run(n):
    # every component shares the panels, so n copies of one integrand
    # refine exactly as the scalar run does, at n times its evaluations
    f = lambda t: np.sqrt(t) * np.exp(-t)
    cfg = QuadratureConfig(rel_tol=1e-10, decay_scale=0.5)
    scalar = integrate_semi_infinite(f, cfg, breakpoints=[2.0])
    res = integrate_semi_infinite(lambda t: np.stack([f(t)] * n), cfg, breakpoints=[2.0])
    assert res.converged and scalar.converged
    assert res.value.tolist() == [scalar.value] * n
    assert res.abs_error.tolist() == [scalar.abs_error] * n
    assert res.evaluations == n * scalar.evaluations


def _plain_scalar_loop(f, edges, cfg):
    """The scalar worst-panel-first loop, written with Python numbers.

    Reference for the one-component case of the vector engine: same
    panel rule, largest-error order, stall rule and stopping tests.
    """

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fv = f(mid + half * NODES)
        val = half * np.sum(WEIGHTS_K * fv)
        return float(val), float(abs(val - half * np.sum(WEIGHTS_G * fv[1::2])))

    span = edges[-1] - edges[0]
    heap, total_val, total_err, evals, seq = [], 0.0, 0.0, 0, 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = panel(a, b)
        evals, total_val, total_err = evals + 15, total_val + val, total_err + err
        heapq.heappush(heap, (-err, seq, a, b, val))
        seq += 1
    stall, stall_limit = 0, max(200, 2 * len(heap))
    while (
        total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total_val))
        and total_err > 1e-14 * abs(total_val)
        and evals + 30 <= cfg.max_evaluations
        and heap
        and stall < stall_limit
    ):
        neg_err, _, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid - a < 1e-15 * span:
            continue
        (val_l, err_l), (val_r, err_r) = panel(a, mid), panel(mid, b)
        evals += 30
        prev_err = total_err
        total_val += val_l + val_r - val
        total_err += err_l + err_r - (-neg_err)
        heapq.heappush(heap, (-err_l, seq, a, mid, val_l))
        heapq.heappush(heap, (-err_r, seq + 1, mid, b, val_r))
        seq += 2
        stall = stall + 1 if total_err > 0.999 * prev_err else 0
    return total_val, max(total_err, 1e-14 * abs(total_val)), evals


@pytest.mark.parametrize(
    "f, rel_tol, max_evaluations",
    [
        (lambda x: np.sqrt(x) * np.exp(-x), 1e-10, 1_000_000),
        (lambda x: np.exp(x) * np.cos(50.0 * x), 1e-12, 1_000_000),
        (lambda x: 1.0 / (1e-3 + (x - 0.7) ** 2), 1e-11, 1_000_000),
        (lambda x: np.sqrt(x) * np.exp(-x), 1e-14, 300),  # budget
        (lambda x: 1.0 / x, 1e-9, 1_000_000),  # stall on a divergence
    ],
)
def test_scalar_is_the_one_component_case(f, rel_tol, max_evaluations):
    cfg = QuadratureConfig(rel_tol=rel_tol, max_evaluations=max_evaluations)
    res = integrate_finite_oscillatory(f, 0.0, 1.0, phase_scale=3.0, cfg=cfg)
    edges = _merged_edges(0.0, 1.0, np.linspace(0.0, 1.0, 4)[1:-1].tolist(), [])
    value, abs_error, evals = _plain_scalar_loop(f, edges, cfg)
    assert (res.value, res.abs_error, res.evaluations) == (value, abs_error, evals)


# ------------------------------------------------ the heap reference
#
# The engine against the list-and-heap loop it replaced
# (tests/heap_reference.py): one integrand call per refinement step and
# panels kept in arrays must refine the same panels in the same order.


def _counting(f):
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return f(x)

    return counted, calls


def _stall():
    rows = lambda t: np.stack([np.exp(-t), 1.0 / t, t**2 * np.exp(-t)])
    return integrate_semi_infinite(rows, QuadratureConfig(rel_tol=1e-10, max_evaluations=20_000))


def _complex():
    # the first component ends at the roundoff floor, 1e-14 |value|
    rows = lambda x: np.stack([np.exp(-(1.0 + 2.0j) * x), np.sqrt(x) + 0j])
    return integrate_finite_oscillatory(rows, 0.0, 1.0, 1.0, TIGHT, breakpoints=[0.3])


def _many_panels():
    # a scalar run whose 40 initial panels are summed one by one
    f = lambda x: np.exp(x) * np.cos(120.0 * x)
    return integrate_finite_oscillatory(f, 0.0, 1.0, phase_scale=40.0, cfg=TIGHT)


def _budget():
    rows = lambda x: np.stack([np.sqrt(x) * np.exp(-x), np.exp(x) * np.cos(50.0 * x)])
    cfg = QuadratureConfig(rel_tol=1e-14, max_evaluations=600)
    return integrate_finite_oscillatory(rows, 0.0, 1.0, phase_scale=3.0, cfg=cfg)


def _park_rows(x):
    return np.stack([x**-0.5, np.exp(x)])


def _park(rows=_park_rows):
    cfg = QuadratureConfig(rel_tol=1e-13)
    return integrate_finite_oscillatory(rows, 0.0, 1.0, phase_scale=3.0, cfg=cfg)


def _active_set_changes():
    rows = lambda x: np.stack(
        [
            np.exp(-x),
            np.sqrt(x) * np.exp(-x),
            np.exp(x) * np.cos(50.0 * x),
            1.0 / (1e-3 + (x - 0.7) ** 2),
        ]
    )
    cfg = QuadratureConfig(rel_tol=1e-12)
    return integrate_finite_oscillatory(rows, 0.0, 1.0, phase_scale=3.0, cfg=cfg)


@pytest.mark.parametrize(
    "run", [_stall, _complex, _many_panels, _budget, _park, _active_set_changes]
)
def test_engine_refines_as_the_heap_reference(run, monkeypatch):
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_adapt", heap_reference._adapt)
        want = run()
    assert type(got.value) is type(want.value)
    assert np.asarray(got.value).tobytes() == np.asarray(want.value).tobytes()
    assert np.asarray(got.abs_error).tobytes() == np.asarray(want.abs_error).tobytes()
    assert (got.evaluations, got.unconverged) == (want.evaluations, want.unconverged)


def test_reference_cases_reach_their_edge_cases(monkeypatch):
    # the 1/t component stalls: the run ends inside its budget, which
    # bounds each component's evaluations
    res = _stall()
    assert res.unconverged == (1,) and res.evaluations // 3 + 30 <= 20_000
    res = _budget()
    assert not res.converged and res.evaluations // 2 + 30 > 600
    # the panel at x = 0 halves until it is parked: at width 2^-48 / 3
    # its midpoint is below 1e-15, and its first node below 1e-17
    rows, calls = _counting(_park_rows)
    _park(rows)
    assert min(x.min() for x in calls) < 1e-17
    rekeys = []
    weights = quadrature._weights
    monkeypatch.setattr(quadrature, "_weights", lambda *a: rekeys.append(1) or weights(*a))
    assert _active_set_changes().converged
    assert len(rekeys) >= 3


# ----------------------------------------------------- the call contract


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-12])
def test_semi_infinite_calls_f_once_per_step(rel_tol):
    f, calls = _counting(lambda t: np.sqrt(t) * np.exp(-t))
    res = integrate_semi_infinite(f, QuadratureConfig(rel_tol=rel_tol), breakpoints=[2.0])
    edges_u = _merged_edges(0.0, 1.0, [0.1, 0.25, 0.5, 0.75, 0.9], [2.0 / 3.0])
    first = len(edges_u) - 1
    edges_t = [u / (1.0 - u) if u < 1.0 else math.inf for u in edges_u]
    # the first call is every initial panel's 15 nodes, in panel order
    assert len(calls[0]) == 15 * first
    for row, lo, hi in zip(calls[0].reshape(first, 15), edges_t[:-1], edges_t[1:]):
        assert np.all(np.diff(row) > 0.0) and lo < row[0] and row[-1] < hi
    # then both halves of one split per call
    assert all(len(x) == 30 and np.all(np.diff(x) > 0.0) for x in calls[1:])
    assert len(calls) == 1 + (res.evaluations // 15 - first) // 2


@pytest.mark.parametrize("phase_scale", [1.0, 7.0])
def test_finite_calls_f_once_per_step(phase_scale):
    f, calls = _counting(lambda x: np.exp(x) * np.cos(20.0 * x))
    cfg = QuadratureConfig(rel_tol=1e-11)
    res = integrate_finite_oscillatory(f, 0.0, 2.0, phase_scale, cfg, breakpoints=[0.3])
    base = np.linspace(0.0, 2.0, int(phase_scale) + 1)[1:-1].tolist()
    edges = np.array(_merged_edges(0.0, 2.0, base, [0.3]))
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    assert np.array_equal(calls[0], (mid[:, None] + half[:, None] * NODES).ravel())
    assert all(len(x) == 30 and np.all(np.diff(x) > 0.0) for x in calls[1:])
    assert len(calls) == 1 + (res.evaluations // 15 - (len(edges) - 1)) // 2


def test_merged_edges_drop_the_ulp_wide_top_panel():
    # a kink 1 ulp below the light line w: the old merge dropped w as a
    # near-duplicate of the kink, then appended it again
    w = 0.0031622776601683794
    kink = 0.003162277660168379
    assert kink < w
    assert _merged_edges(0.0, w, [w / 3, 2 * w / 3], [kink]) == [0.0, w / 3, 2 * w / 3, w]


@given(
    st.lists(st.floats(min_value=-0.5, max_value=1.5), max_size=10),
    st.lists(st.integers(min_value=0, max_value=4), max_size=4),
    st.floats(min_value=1e-6, max_value=1e6),
)
@settings(max_examples=200, deadline=None)
def test_merged_edges_never_emit_a_sliver(points, ulps_below_b, b):
    # points a few ulp below b, at a and at b are the dangerous ones
    near_b = [b - k * math.ulp(b) for k in ulps_below_b]
    edges = _merged_edges(0.0, b, [0.5 * b], [p * b for p in points] + near_b + [0.0, b])
    assert edges[0] == 0.0 and edges[-1] == b
    widths = np.diff(edges)
    assert np.all(widths >= 1e-15 * b)
