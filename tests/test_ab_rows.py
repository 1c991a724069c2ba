"""scripts/ab_rows.py: the quadrature work, row bytes and interleaved A/B
timing of two source trees, from one run on this tree against itself."""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
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
        # the same work and bytes on both sides, page faults and peak
        # size aside
        a, b = dict(report["a"]), dict(report["b"])
        for work in (a, b):
            del work["minor_faults_per_row"], work["max_rss_mb"]
        assert a == b
        assert 0 <= report["b_won"] <= 1
        # printed, not pinned: CPU times depend on the machine
        assert report["a_us_per_row"] > 0.0 and report["b_us_per_row"] > 0.0
        assert report["ratio_b_over_a"] > 0.0


def test_script_reports_the_fig2_ground_row_set(reports):
    # per-row means over the 64 rows of fig2_ground's seed-1 row set
    first, second = reports
    assert (first["workload"], first["seed"]) == ("fig2_ground", 1)
    for work in (first["a"], first["b"]):
        assert work["k_integral_batches"] == 1.0
        assert work["k_integrand_calls"] == 1.156
        assert work["kernel_values"] == 9072.547
        # the xi entries of a batch, fig2_ground having no z-derivative rows
        assert work["k_integrals_per_batch"] == 69.344
        assert work["max_batches_in_a_row"] == 1
        assert len(work["csv_sha256"]) == 64
        # printed, not pinned: they depend on the allocator
        assert work["minor_faults_per_row"] >= 0.0 and work["max_rss_mb"] > 0.0
    assert (second["seed"], second["rows"]) == (2, 64)
    assert second["a"]["kernel_values"] == second["b"]["kernel_values"] == 8956.859
    assert second["a"]["csv_sha256"] != first["a"]["csv_sha256"]


def test_each_side_goes_first_in_half_the_timed_answers(monkeypatch):
    # every (round, row) is a, b, b, a or b, a, a, b, and each row is
    # led by a in one of two rounds and by b in the other
    workers, calls = [], []
    start = ab_rows.Worker.__init__

    def recorded(self, *args, **kwargs):
        start(self, *args, **kwargs)
        workers.append(self)  # a first, then b

    def timed(self, i):
        calls.append(("ab"[workers.index(self)], i))
        return 1e-3, 0

    monkeypatch.setattr(ab_rows.Worker, "__init__", recorded)
    monkeypatch.setattr(ab_rows.Worker, "timed", timed)
    argv = [str(ROOT), str(ROOT), "--workload", "fig2_ground", "--rounds", "2"]
    with redirect_stdout(io.StringIO()):
        assert ab_rows.main(argv) == 0
    assert len(calls) == 2 * 64 * 4
    firsts = {"a": [], "b": []}
    for k in range(0, len(calls), 4):
        (x, i), (y, j), (y2, j2), (x2, i2) = calls[k : k + 4]
        assert x == x2 != y == y2 and i == j == j2 == i2
        firsts[x].append(i)
    assert sorted(firsts["a"]) == sorted(firsts["b"]) == list(range(64))


@pytest.mark.parametrize(
    "workload, rounds", [("fig2_ground", 16), ("crossover_exponent", 16), ("resonant", 2)]
)
def test_default_rounds_follow_the_row_count(monkeypatch, workload, rounds):
    # about 1024 row answers per side, from 2 to 16 rounds; --rounds wins
    asked = []
    monkeypatch.setattr(ab_rows, "report", lambda trees, w, seed, r: asked.append(r) or {})
    with redirect_stdout(io.StringIO()):
        assert ab_rows.main([str(ROOT), str(ROOT), "--workload", workload]) == 0
        assert ab_rows.main([str(ROOT), str(ROOT), "--workload", workload, "--rounds", "3"]) == 0
    assert asked == [rounds, 3]


def test_a_tree_without_src_is_refused_before_any_worker(tmp_path, monkeypatch):
    # never the installed package in place of the tree's own
    def no_worker(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(ab_rows, "Worker", no_worker)
    path = list(sys.path)
    with pytest.raises(SystemExit) as exit_, redirect_stderr(io.StringIO()):
        ab_rows.main([str(ROOT), str(tmp_path), "--workload", "fig2_ground"])
    assert exit_.value.code == 2
    assert sys.path == path


def test_a_worker_that_dies_raises_with_its_stderr(tmp_path, capfd):
    package = tmp_path / "src" / "neutroncp"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('raise ImportError("this tree does not import")\n')
    with pytest.raises(RuntimeError, match=str(tmp_path)):
        ab_rows.main([str(ROOT), str(tmp_path), "--workload", "fig2_ground", "--rounds", "1"])
    assert "this tree does not import" in capfd.readouterr().err
