"""scripts/ab_rows.py: the quadrature work, row bytes and interleaved A/B
timing of two source trees, from one run on this tree against itself."""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_rows", ROOT / "scripts" / "ab_rows.py")
ab_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_rows)


@pytest.fixture(scope="module")
def reports():
    # fig2_ground, seeds 1 and 2: one line each, in the order given
    out = io.StringIO()
    path = list(sys.path)
    argv = [str(ROOT), str(ROOT), "--workload", "fig2_ground", "--seed", "1", "2", "--rounds", "1"]
    with redirect_stdout(out):
        assert ab_rows.main(argv) == 0
    assert sys.path == path
    return [json.loads(line) for line in out.getvalue().splitlines()]


def test_tree_against_itself_writes_the_same_rows(reports):
    for report in reports:
        assert report["rows"] == 64 and report["rounds"] == 1
        assert report["differing_rows"] == []
        # the same work and bytes on both sides, page faults aside
        a, b = dict(report["a"]), dict(report["b"])
        del a["minor_faults_per_row"], b["minor_faults_per_row"]
        assert a == b
        assert 0 <= report["b_won"] <= 1
        # printed, not pinned: CPU times depend on the machine
        assert report["a_us_per_row"] > 0.0 and report["b_us_per_row"] > 0.0
        assert report["ratio_b_over_a"] > 0.0
        # each load order is reported, and the top-level ratio is their
        # geometric mean
        orders = report["orders"]
        assert sorted(orders) == ["a_first", "b_first"]
        for order in orders.values():
            assert order["ratio_b_over_a"] > 0.0 and 0 <= order["b_won"] <= 1
        mean = (orders["a_first"]["ratio_b_over_a"] * orders["b_first"]["ratio_b_over_a"]) ** 0.5
        assert report["ratio_b_over_a"] == pytest.approx(mean, abs=2e-4)


def test_script_reports_the_fig2_ground_row_set(reports):
    # per-row means over the 64 rows of fig2_ground's seed-1 row set
    first, second = reports
    assert (first["workload"], first["seed"]) == ("fig2_ground", 1)
    for work in (first["a"], first["b"]):
        assert work["k_integral_batches"] == 1.0
        assert work["k_integrand_calls"] == 1.156
        assert work["kernel_values"] == 16120.938
        # the xi entries of a batch, fig2_ground having no z-derivative rows
        assert work["k_integrals_per_batch"] == 126.688
        assert work["max_batches_in_a_row"] == 1
        assert len(work["csv_sha256"]) == 64
        # printed, not pinned: it depends on the allocator
        assert work["minor_faults_per_row"] >= 0.0
    assert (second["seed"], second["rows"]) == (2, 64)
    assert second["a"]["kernel_values"] == second["b"]["kernel_values"] == 15895.844
    assert second["a"]["csv_sha256"] != first["a"]["csv_sha256"]
