"""The adaptive Gauss-Kronrod engine and the halving trapezoidal rule:
analytic integrals, error honesty and the call contracts."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutroncp import integrate_finite_oscillatory, integrate_semi_infinite, integrate_trapezoid
from neutroncp import quadrature
from neutroncp.quadrature import NODES, WEIGHTS_G, WEIGHTS_K, _merged_edges

TIGHT = 1e-12


def test_config_validation():
    for rel_tol in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError, match="rel_tol"):
            integrate_semi_infinite(lambda t: np.exp(-t), rel_tol)
        with pytest.raises(ValueError, match="rel_tol"):
            integrate_finite_oscillatory(lambda x: x, 0.0, 1.0, 1.0, rel_tol)


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
    # a decay 200 times wider than the map's e^(-2t) scale
    res = integrate_semi_infinite(lambda t: np.exp(-t / 100.0) / 100.0, 1e-12)
    assert res.converged
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
        res = integrate_semi_infinite(f, 1e-9)
        assert res.converged
        assert abs(res.value - exact) <= 10.0 * res.abs_error


def test_tolerance_ladder_monotone():
    # looser tolerance must not beat a tighter one by more than roundoff
    f = lambda t: np.sqrt(t) * np.exp(-t)
    exact = math.sqrt(math.pi) / 2.0
    errors = []
    for rel in (1e-4, 1e-7, 1e-10):
        res = integrate_semi_infinite(f, rel)
        errors.append(abs(res.value - exact))
    floor = 1e-13 * exact
    assert errors[1] <= max(errors[0], floor)
    assert errors[2] <= max(errors[1], floor)


def test_budget_exhaustion_reports_not_converged(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", 120)
    res = integrate_semi_infinite(lambda t: np.sqrt(t) * np.exp(-t), 1e-14)
    assert not res.converged
    assert res.evaluations <= 150


def test_complex_integrand():
    res = integrate_semi_infinite(lambda t: np.exp(-(1.0 + 2.0j) * t), TIGHT)
    assert res.value == pytest.approx(1.0 / (1.0 + 2.0j), rel=1e-12)


def test_nonfinite_integrand_raises():
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda t: np.full_like(t, math.nan), TIGHT)


def test_divergent_integrand_does_not_converge(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", 20_000)
    res = integrate_semi_infinite(lambda t: 1.0 / t, 1e-9)
    assert not res.converged


def test_finite_oscillatory_plain():
    b = 7.3
    omega = 40.0
    res = integrate_finite_oscillatory(
        lambda x: np.sin(omega * x),
        0.0,
        b,
        phase_scale=omega * b / (2.0 * math.pi),
        rel_tol=TIGHT,
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
        rel_tol=TIGHT,
    )
    assert res.value == pytest.approx(exact, rel=1e-10)


def test_finite_oscillatory_zero_mean():
    # a zero integral has no relative scale: the run only stops once its
    # panel errors fall under rel_tol times a roundoff-sized value (here
    # after 74895 evaluations), so only the value is asserted
    res = integrate_finite_oscillatory(
        lambda x: np.cos(x), 0.0, 10.0 * math.pi, phase_scale=5.0, rel_tol=1e-9
    )
    assert abs(res.value) < 1e-12


def test_finite_oscillatory_validation():
    with pytest.raises(ValueError):
        integrate_finite_oscillatory(lambda x: x, 1.0, 0.0, phase_scale=1.0, rel_tol=TIGHT)
    with pytest.raises(ValueError):
        integrate_finite_oscillatory(
            lambda x: x, 0.0, 1.0, phase_scale=-2.0, rel_tol=TIGHT
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

    res = integrate_semi_infinite(f, 1e-10)
    # no relative tolerance settles a zero integral: the run must
    # converge only where the terms do not cancel to near zero
    scale = sum(abs(c) * math.factorial(n) for n, c in enumerate(coeffs))
    assert res.converged or abs(exact) < 1e-3 * scale
    assert res.value == pytest.approx(exact, rel=1e-7, abs=1e-9)


# ------------------------------------------- the plain scalar loop


def _plain_scalar_loop(f, edges, rel_tol, max_evaluations):
    """The worst-panel-first loop, one panel per integrand call.

    Reference for the engine, which evaluates every panel of a refinement
    step in one call: same panel rule, largest-error order, stall rule and
    stopping tests, with Python numbers (complex ones too).
    """

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        fv = f(mid + half * NODES)
        val = half * np.sum(WEIGHTS_K * fv)
        return val.item(), float(abs(val - half * np.sum(WEIGHTS_G * fv[1::2])))

    span = edges[-1] - edges[0]
    heap, total_val, total_err, evals, seq = [], 0.0, 0.0, 0, 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = panel(a, b)
        evals, total_val, total_err = evals + 15, total_val + val, total_err + err
        heapq.heappush(heap, (-err, seq, a, b, val))
        seq += 1
    stall, stall_limit = 0, max(200, 2 * len(heap))
    while (
        total_err > rel_tol * abs(total_val)
        and total_err > 1e-14 * abs(total_val)
        and evals + 30 <= max_evaluations
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
def test_scalar_is_the_one_component_case(monkeypatch, f, rel_tol, max_evaluations):
    monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", max_evaluations)
    res = integrate_finite_oscillatory(f, 0.0, 1.0, phase_scale=3.0, rel_tol=rel_tol)
    edges = _merged_edges(0.0, 1.0, np.linspace(0.0, 1.0, 4)[1:-1].tolist(), [])
    value, abs_error, evals = _plain_scalar_loop(f, edges, rel_tol, max_evaluations)
    assert (res.value, res.abs_error, res.evaluations) == (value, abs_error, evals)


# The engine against the plain loop on the engine's edge cases, with
# the same integrand, initial panel edges, rel_tol and budget.
THIRDS = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
BUDGET = quadrature._MAX_EVALUATIONS
EDGE_CASES = {
    # a divergence: splits stop improving the error, and the run stalls
    "_stall": (lambda x: 1.0 / x, THIRDS, 1e-10, 20_000),
    # each split cuts the error by 2^-0.01, just over the stall rule's
    # 0.999: the run stalls only once the panel at x = 0 is parked
    "_slow_stall": (lambda x: x**-0.99, THIRDS, 1e-10, BUDGET),
    # complex, at a tolerance below the roundoff floor, where it ends
    "_complex": (lambda x: np.exp(-(1.0 + 20.0j) * x), [0.0, 0.3, 1.0], 1e-15, BUDGET),
    # 40 initial panels, summed one by one
    "_many_panels": (
        lambda x: np.exp(x) * np.cos(120.0 * x), np.linspace(0.0, 1.0, 41).tolist(), TIGHT, BUDGET
    ),
    # 45 + 30 k evaluations: the last split spends the budget exactly
    "_budget": (lambda x: np.exp(x) * np.cos(50.0 * x), THIRDS, 1e-14, 615),
    # the panel at x = 0 halves until it is too narrow to split
    "_park": (lambda x: x**-0.5, THIRDS, 1e-13, BUDGET),
}


def _counting(f):
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return f(x)

    return counted, calls


@pytest.mark.parametrize("run", sorted(EDGE_CASES))
def test_engine_refines_as_the_heap_reference(monkeypatch, run):
    # the plain loop keeps its panels on a heap and calls f once per
    # panel; the engine must split the same panels in the same order
    f, edges, rel_tol, budget = EDGE_CASES[run]
    monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", budget)
    got = quadrature._adapt(f, edges, rel_tol)
    value, abs_error, evaluations = _plain_scalar_loop(f, edges, rel_tol, budget)
    assert type(got.value) is type(value)
    assert np.asarray(got.value).tobytes() == np.asarray(value).tobytes()
    assert np.asarray(got.abs_error).tobytes() == np.asarray(abs_error).tobytes()
    assert got.evaluations == evaluations
    assert got.converged == (abs_error <= rel_tol * abs(value))


def test_reference_cases_reach_their_edge_cases(monkeypatch):
    def run(name):
        f, edges, rel_tol, budget = EDGE_CASES[name]
        counted, calls = _counting(f)
        monkeypatch.setattr(quadrature, "_MAX_EVALUATIONS", budget)
        return quadrature._adapt(counted, edges, rel_tol), calls

    # the stall, not the budget, ends the divergent run
    res, _ = run("_stall")
    assert not res.converged and res.evaluations + 30 <= 20_000
    res, _ = run("_complex")
    assert not res.converged and res.abs_error == 1e-14 * abs(res.value)
    res, calls = run("_many_panels")
    assert res.converged and len(calls[0]) == 40 * 15
    res, _ = run("_slow_stall")
    assert not res.converged and res.evaluations > 30 * 200
    res, _ = run("_budget")
    assert not res.converged and res.evaluations == 615
    # at width 2^-48 / 3 the midpoint of the panel at x = 0 is below
    # 1e-15, and its first node below 1e-17
    res, calls = run("_park")
    assert min(x.min() for x in calls) < 1e-17


# ----------------------------------------------------- the call contract


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-12])
def test_semi_infinite_calls_f_once_per_step(rel_tol):
    f, calls = _counting(lambda t: np.sqrt(t) * np.exp(-t))
    res = integrate_semi_infinite(f, rel_tol, breakpoints=[2.0])
    edges_u = _merged_edges(0.0, 1.0, [0.1, 0.25, 0.5, 0.75, 0.9], [0.8])
    first = len(edges_u) - 1
    edges_t = [0.5 * u / (1.0 - u) if u < 1.0 else math.inf for u in edges_u]
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
    res = integrate_finite_oscillatory(f, 0.0, 2.0, phase_scale, 1e-11, breakpoints=[0.3])
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


# ------------------------------------------------ the trapezoidal rule


def _noise():
    # a fresh value at every node: the halved sums never agree
    rng = np.random.default_rng(7)
    return lambda x: rng.random(len(x))


@pytest.mark.parametrize("lo, hi", [(-3.7, 2.2), (0.0, 5.0), (-40.25, -1.0)])
def test_trapezoid_calls_f_on_the_grid_then_the_odd_nodes(lo, hi):
    f, calls = _counting(_noise())
    res = integrate_trapezoid(f, lo, hi, 1e-9)
    assert len(calls) == quadrature._MAX_HALVINGS - 1
    # every h j in [lo, hi] at h = 1/4, then the odd multiples of each new h
    j = np.arange(math.ceil(4 * lo), math.floor(4 * hi) + 1)
    assert np.array_equal(calls[0], 0.25 * j)
    for level, x in enumerate(calls[1:], start=3):
        h = 2.0**-level
        j = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
        assert np.array_equal(x, h * j[j % 2 == 1])
    assert res.evaluations == sum(len(x) for x in calls)
    assert not res.converged


def _reference_trapezoid(f, lo, hi, rel_tol):
    """integrate_trapezoid as one call per step: the h = 1 grid, then the
    odd nodes of each halving, each summed from its own call."""
    total, evaluations = 0.0, 0
    for level in range(quadrature._MAX_HALVINGS + 1):
        h = 2.0**-level
        first = math.ceil(lo / h) | (level > 0)
        nodes = h * np.arange(first, math.floor(hi / h) + 1, 2 if level else 1)
        evaluations += nodes.size
        prev, total = total, 0.5 * total + h * np.atleast_2d(f(nodes)).sum(axis=1)
        size = np.abs(total)
        error = diff = np.abs(total - prev)
        if level > 1:
            trust = (diff < last) & (last <= quadrature._MODEL_GATE_REL * size)
            error = diff * np.divide(diff, last, out=np.ones_like(diff), where=trust)
        last = diff
        abs_error = np.maximum(error, quadrature._ERROR_FLOOR_REL * size)
        if level and (abs_error <= rel_tol * size).all():
            return total, abs_error, evaluations, True
    return total, abs_error, evaluations, False


def _rows(x):
    # three sums: a narrow sech, a Gaussian and a shifted wide sech
    return np.stack([1.0 / np.cosh((x - 0.3) / 0.2), np.exp(-x * x), 1.0 / np.cosh(x / 3 + 1)])


def _grid_noise(x):
    # the same value at a node on every call, but no two sums agree
    return np.modf(np.abs(np.sin(12.9898 * x)) * 43758.5453)[0]


@pytest.mark.parametrize(
    "f, lo, hi, rel_tol, converged",
    [
        (_rows, -40.3, 39.7, 1e-8, True),  # several rows, lo and hi off the grid
        (_rows, -12.6, 61.1, 1e-4, True),
        (lambda x: np.exp(-((x / 3.0) ** 2)), -40.0, 40.0, 1e-12, True),
        (lambda x: 2.0 + 0.0 * x, -3.25, 3.75, 1e-9, True),
        (_grid_noise, -20.4, 20.2, 1e-6, False),
        (_rows, -40.0, 40.0, 1e-15, False),  # below the roundoff floor
    ],
)
def test_trapezoid_matches_a_reference_halving_loop(f, lo, hi, rel_tol, converged):
    # the first call's h = 1/4 grid splits into the reference's first three
    # sums and each later call is the reference's: the result is the same
    # to the bit
    res = integrate_trapezoid(f, lo, hi, rel_tol)
    value, abs_error, evaluations, ref_converged = _reference_trapezoid(f, lo, hi, rel_tol)
    assert res.converged is ref_converged is converged
    assert np.array_equal(res.value, value)
    assert np.array_equal(res.abs_error, abs_error)
    # the h = 1/4 grid's odd nodes are evaluated even where the reference
    # stops at h = 1/2, having evaluated the even ones
    j = np.arange(math.ceil(4 * lo), math.floor(4 * hi) + 1)
    odd = np.count_nonzero(j % 2)
    assert res.evaluations == evaluations + (odd if evaluations == j.size - odd else 0)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-60.0, max_value=-1.0),
    st.floats(min_value=1.0, max_value=60.0),
    st.floats(min_value=-13.0, max_value=-3.0),
)
@settings(max_examples=200, deadline=None)
def test_trapezoid_strided_sums_match_the_reference(b, shift, lo, hi, log_tol):
    # bounds anywhere on or off the h = 1/4 grid, sums settling at any
    # depth: the strided slices of the first call give the reference's
    # value, error and verdict to the bit
    f = lambda x: np.stack([1.0 / np.cosh((x - shift) / b), np.exp(-(((x + shift) / b) ** 2))])
    with np.errstate(over="ignore"):
        res = integrate_trapezoid(f, lo, hi, 10.0**log_tol)
        value, abs_error, _, ref_converged = _reference_trapezoid(f, lo, hi, 10.0**log_tol)
    assert res.converged is ref_converged
    assert np.array_equal(res.value, value)
    assert np.array_equal(res.abs_error, abs_error)


@pytest.mark.parametrize(
    "f, lo, hi, nodes",
    [
        (lambda x: np.exp(-((x / 3.0) ** 2)), -40.25, 39.75, 321),
        (lambda x: 2.0 + 0.0 * x, -3.25, 3.75, 29),
    ],
)
def test_trapezoid_settles_on_its_first_call(f, lo, hi, nodes):
    # a sum already exact on the h = 1 grid stops at h = 1/2, after the
    # one call that took the h = 1/4 grid
    counted, calls = _counting(f)
    res = integrate_trapezoid(counted, lo, hi, 1e-9)
    assert res.converged and len(calls) == 1
    assert res.evaluations == len(calls[0]) == nodes


def test_trapezoid_rows_share_the_nodes():
    # each row settles to its own integral; the run stops when both have
    rows = lambda x: np.stack([np.exp(-x * x), 0.5 / np.cosh(x)])
    f, calls = _counting(rows)
    res = integrate_trapezoid(f, -40.0, 40.0, 1e-12)
    assert res.converged and len(calls) < quadrature._MAX_HALVINGS - 1
    assert abs(res.value[0] - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)
    assert abs(res.value[1] - math.pi / 2.0) <= 1e-12 * math.pi / 2.0
    assert (res.abs_error <= 1e-12 * np.abs(res.value)).all()


def test_trapezoid_noise_does_not_converge():
    res = integrate_trapezoid(_noise(), -20.0, 20.0, 1e-6)
    assert not res.converged
    assert res.abs_error[0] > 1e-6 * abs(res.value[0])


@pytest.mark.parametrize("rel_tol", [1e-15, 5e-324])
def test_trapezoid_below_the_roundoff_floor_does_not_converge(rel_tol):
    # the sum is exact to double precision by h = 1/4, but no relative
    # error below 1e-14 is claimed
    res = integrate_trapezoid(lambda x: np.exp(-x * x), -40.0, 40.0, rel_tol)
    assert not res.converged
    assert abs(res.value[0] - math.sqrt(math.pi)) <= 1e-15
    assert res.abs_error[0] == 1e-14 * res.value[0]


def _sech(b, shift=0.0):
    return lambda x: 1.0 / np.cosh((x + shift) / b)


@pytest.mark.parametrize(
    "f, exact, rel_tol",
    [
        # exp(-x^2) in the variable x/0.4
        (lambda x: np.exp(-((x / 0.4) ** 2)), 0.4 * math.sqrt(math.pi), 1e-12),
        (_sech(1.0), math.pi, 1e-8),
        (_sech(1.0), math.pi, 1e-12),
        (_sech(0.5), 0.5 * math.pi, 1e-10),
    ],
)
def test_trapezoid_error_model_stops_one_halving_sooner(monkeypatch, f, exact, rel_tol):
    # d^2/d' settles a converging sum one halving before its last
    # difference alone would; a gate of 0 trusts no model
    model, calls = _counting(f)
    res = integrate_trapezoid(model, -40.0, 40.0, rel_tol)
    monkeypatch.setattr(quadrature, "_MODEL_GATE_REL", 0.0)
    plain, plain_calls = _counting(f)
    assert integrate_trapezoid(plain, -40.0, 40.0, rel_tol).converged
    assert res.converged and len(calls) == len(plain_calls) - 1
    assert abs(res.value[0] - exact) <= rel_tol * exact
    assert res.abs_error[0] <= rel_tol * exact


def test_trapezoid_gate_keeps_the_model_off_an_unresolved_feature(monkeypatch):
    # the sums of this narrow sech move by 0.39, 0.12, then 1.5e-3 of
    # themselves; d^2/d' would accept T_1/8, which is 1.5e-3 off
    f, exact, rel_tol = _sech(0.1, 0.31), 0.1 * math.pi, 1e-4
    res = integrate_trapezoid(f, -40.0, 40.0, rel_tol)
    assert not res.converged or abs(res.value[0] - exact) <= rel_tol * exact
    monkeypatch.setattr(quadrature, "_MODEL_GATE_REL", math.inf)
    ungated = integrate_trapezoid(f, -40.0, 40.0, rel_tol)
    assert ungated.converged and abs(ungated.value[0] - exact) > 10 * rel_tol * exact


def test_trapezoid_converged_sums_meet_rel_tol_on_a_sech_grid():
    # widths, shifts and tolerances fixed here, not drawn: no converged
    # sum may miss.  Random shifts do find misses (see the docstring of
    # integrate_trapezoid)
    missed = []
    for b in np.geomspace(0.05, 3.0, 60):
        for shift in (0.0, 0.137, 0.31, 0.5):
            for rel_tol in 10.0 ** -np.arange(4.0, 14.0):
                with np.errstate(over="ignore"):
                    res = integrate_trapezoid(_sech(b, shift), -120.0, 120.0, rel_tol)
                err = abs(res.value[0] - math.pi * b)
                if res.converged and err > rel_tol * math.pi * b:
                    missed.append((b, shift, rel_tol, err / (math.pi * b)))
    assert not missed
