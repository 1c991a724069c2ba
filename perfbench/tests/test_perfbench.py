"""Tests of the benchmark itself: statistics, tracing, output check, inputs."""

import json
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import ROOT, load_package  # noqa: E402

load_package()

from perfbench.check import classify, is_wrong_answer, mirror_values, parse_csv_row  # noqa: E402
from perfbench.pace import Pace  # noqa: E402
from perfbench.run import answer, closed_loop, percentile, tail_percentile  # noqa: E402
from perfbench.tracing import Tracer, layer_metrics, layer_unit, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ROWS,
    TRACE_ROWS,
    WORKLOADS,
    at_distance,
    fig2_models,
    request_line,
    requests,
    row_set,
    templates,
)


def _take(it, n):
    return [next(it) for _ in range(n)]


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (11, 9), (20, 50), (40, 75), (71, 85), (100, 90), (1000, 99), (5000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n - math.ceil(expected * n / 100) >= 10
        if expected < 99:
            assert n - math.ceil((expected + 1) * n / 100) < 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 91) == 10.0
    assert percentile([7.0], 99) == 7.0


# -- self time ---------------------------------------------------------------


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        ["parent", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],  # overlaps a: [1, 5] is covered once
        ["c", 9.0, 12.0, 0, 0],  # only [9, 10] lies inside the parent
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 3.0])


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["mid", 1.0, 9.0, 0, 0],
        ["leaf", 2.0, 8.0, 1, 0],
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 6.0])


# -- tracer ------------------------------------------------------------------


def _fake_modules():
    quad = types.ModuleType("fake_quadrature")

    def integrate(f, cfg=None):
        f([1.0, 2.0, 3.0])
        f([4.0, 5.0, 6.0])
        return types.SimpleNamespace(value=1.0, evaluations=6, converged=False)

    def fails(f):
        raise ValueError("integrand returned non-finite values")

    def outer():
        return quad.fails(lambda x: x)

    quad.integrate = integrate
    quad.fails = fails
    quad.outer = outer
    return quad


def test_tracer_counts_passes_through_and_restores():
    quad = _fake_modules()
    originals = (quad.integrate, quad.fails, quad.outer)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install(
        quad,
        [
            ("integrate", "quadrature.inner_k"),
            ("fails", "quadrature.oscillatory"),
            ("outer", "greens.contracted_green_real"),
            ("absent", "materials.absent"),
        ],
    )
    res = quad.integrate(lambda x: x)
    assert res.evaluations == 6
    with pytest.raises(ValueError):
        quad.outer()
    tracer.uninstall()
    assert (quad.integrate, quad.fails, quad.outer) == originals
    assert not hasattr(quad, "absent")

    assert [s[0] for s in tracer.spans] == [
        "quadrature.inner_k",
        "greens.contracted_green_real",
        "quadrature.oscillatory",
    ]
    assert tracer.spans[2][3] == 1  # parent of the failing call
    m = layer_metrics(tracer)
    assert m["quadrature.inner_k.calls"] == 1
    assert m["quadrature.inner_k.integrand_calls"] == 2
    assert m["quadrature.inner_k.nodes_per_call"] == 3.0
    assert m["quadrature.inner_k.evaluations"] == 6
    assert m["quadrature.inner_k.unconverged"] == 1
    # the exception left two spans but is counted once, where it started
    assert m["quadrature.nonfinite_raises"] == 1


def test_traced_rows_are_byte_identical():
    reqs = _take(requests("resonant", 7), 6)
    plain = [answer(r) for r in reqs]
    with Tracer() as tracer:
        traced = [answer(r) for r in reqs]
    assert traced == plain
    m = layer_metrics(tracer)
    assert m["potential.u_resonant.calls"] == 6
    assert m["quadrature.oscillatory.calls"] >= 6
    from neutroncp import cli, greens

    assert not hasattr(cli.u_dd, "__wrapped__")
    assert not hasattr(greens.integrate_semi_infinite, "__wrapped__")


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = set(layer_metrics(Tracer())) | {"trace.rows", "trace.overhead_frac"}
    assert set(listed) == emitted
    assert all(layer_unit(name) == unit for name, unit in listed.items())


# -- failure classifier ------------------------------------------------------

PC = at_distance(templates("fig2_ground")[0], 3e-8)
MIRROR = {"u_dd": 2.0e-38, "u_du": 4.0e-38, "u_ground": 6.0e-38}


def _row(**cols):
    fixed = {"z": "3e-8", "status": "ok", "gravity_earth": "1e-30", "gravity_sphere": "1e-37"}
    return {**fixed, **cols}


def test_classifier_accepts_row_on_the_oracle():
    assert classify(_row(u_ground="6.0000000001e-38"), PC, MIRROR) is None


def test_classifier_flags_pc_row_off_the_mirror_oracle():
    reason = classify(_row(u_ground="5.9e-38"), PC, MIRROR)
    assert reason == "invariant: pc u_ground off the mirror oracle"
    assert is_wrong_answer(reason)


def test_classifier_flags_nan_in_ok_row():
    req = at_distance(templates("resonant")[0], 2.608e-3)
    row = {"z": "2.608e-3", "u_dd": "1e-50", "u_resonant": "nan", "status": "ok"}
    reason = classify(row, req, {"u_dd": 2e-50})
    assert reason == "non-finite u_resonant"
    assert not is_wrong_answer(reason)


def test_classifier_flags_error_status_and_broken_invariants():
    drude = at_distance(templates("fig2_ground")[2], 3e-8)
    assert classify(_row(u_ground="nan", status="error"), drude, MIRROR) == "status=error"
    assert classify(_row(u_ground="-1e-40"), drude, MIRROR) == "invariant: u_ground <= 0"
    assert (
        classify(_row(u_ground="7e-38"), drude, MIRROR)
        == "invariant: u_ground above the ideal mirror"
    )
    assert classify(_row(u_ground="3e-38"), drude, MIRROR) is None


def test_mirror_oracle_agrees_with_the_program():
    row = parse_csv_row(answer(PC))
    assert row["status"] == "ok"
    assert classify(row, PC) is None
    assert float(row["u_ground"]) == pytest.approx(mirror_values(PC)["u_ground"], rel=1e-7)


# -- inputs ------------------------------------------------------------------


def test_requests_are_seeded_and_log_uniform_in_range():
    for w in WORKLOADS:
        a = _take(requests(w, 3), 48)
        lines = [request_line(r) for r in a]
        assert lines == [request_line(r) for r in _take(requests(w, 3), 48)]
        assert lines != [request_line(r) for r in _take(requests(w, 4), 48)]
        for t in templates(w):
            zs = [r.z_min for r in a if r.model == t.model]
            assert len(zs) == 48 // len(templates(w))
            assert all(t.z_min <= z <= t.z_max for z in zs)
            # stratified: each half of the log range gets half of the rows
            mid = math.sqrt(t.z_min * t.z_max)
            assert sum(z < mid for z in zs) == len(zs) // 2


def test_fig2_models_come_from_the_reproduce_script():
    models = {m["model"]: m for m in fig2_models()}
    assert models["drude"]["gamma"] == 4.10e12
    assert models["drude-lorentz"]["omega_t"] == 7.1e16


def test_row_set_is_a_seeded_prefix_of_whole_model_rounds():
    for w in WORKLOADS:
        rows = row_set(w, 5)
        assert len(rows) == ROWS[w]
        assert ROWS[w] % len(templates(w)) == 0
        assert TRACE_ROWS[w] <= ROWS[w] and TRACE_ROWS[w] % len(templates(w)) == 0
        assert [request_line(r) for r in rows] == [
            request_line(r) for r in _take(requests(w, 5), ROWS[w])
        ]


def test_closed_loop_sends_every_row_once_before_stopping():
    reqs = _take(requests("resonant", 2), 3)
    seen = []
    raw, scaled = closed_loop(reqs, 0.0, lambda i, text: seen.append((i, text)), Pace())
    assert [i for i, _ in seen] == [0, 1, 2]
    assert [text for _, text in seen] == [answer(r) for r in reqs]
    assert len(raw) == len(scaled) == 3
