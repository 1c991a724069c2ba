"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload fig2_ground --seed 1 --seconds 30 --trace 0

A closed loop with one client: each seeded row goes through
``neutroncp.cli.run_sweep(req, jobs=1)`` and ``neutroncp.cli.write_csv``
and the next row is sent when the previous one has returned.  A run
sends its seeded row set (``perfbench/workloads.py``) round after round
until the time is up.  Each request's first answer is checked
(``perfbench/check.py``) and every later answer must repeat it byte for
byte; ``attempted`` and ``failed`` count distinct requests, so they
depend on the seed and not on the machine's speed.

Times are wall-clock times scaled to a fixed reference pace
(``perfbench/pace.py``), because the shared machine's speed drifts by up
to 2x; set-up scales its interpreter start-up by a start-up reference
instead.  The report also prints the raw figures.

``--trace 0`` reports the end-to-end metrics and times set-up in fresh
interpreters.  ``--trace 1`` runs the same loop untraced, then replays a
fixed prefix of its row set under the layer tracer (``perfbench/tracing.py``),
requires the replayed rows to be byte-identical, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report.  ``--workload all`` runs
every workload in its own process and merges their last lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SRC, MissingPackageError, load_package
from perfbench.pace import Pace, StartupPace

BENCH_DIR = ROOT / "perfbench"
SETUP_RUNS = 9
TAIL_BEYOND = 10
CHANGED = "answer changed between rounds"

# Run in a fresh interpreter to time set-up: import the CLI and answer
# one row through the same public entry points as the loop.  The last
# line of its output is the row's own wall time, so that the start-up and
# the row can each be scaled by their own reference.
_SETUP_CHILD = """
import io, json, sys, time
from neutroncp.cli import SweepRequest, run_sweep, write_csv
spec = json.loads(sys.argv[1])
req = SweepRequest(**{**spec["request"], "outputs": tuple(spec["request"]["outputs"])})
buf = io.StringIO()
t0 = time.perf_counter()
write_csv(run_sweep(req, jobs=1), spec["columns"], spec["header"], buf)
sys.stdout.write(buf.getvalue() + repr(time.perf_counter() - t0) + "\\n")
"""


# -- statistics --------------------------------------------------------------


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """Highest whole percentile whose nearest-rank sample has at least
    ``beyond`` samples ranked above it; None when n is too small."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return None


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p n / 100)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def _metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


# -- the client --------------------------------------------------------------


def columns(req) -> list[str]:
    return ["z", *req.outputs, "status"]


def header(req) -> dict[str, object]:
    return {
        "tool": "neutroncp sweep",
        "model": req.model,
        "omega_p": repr(req.omega_p),
        "gamma": repr(req.gamma),
        "omega_t": repr(req.omega_t),
        "b_ext": repr(req.b_ext),
        "theta": "avg" if req.theta is None else repr(req.theta),
        "z": repr(req.z_min),
        "rel_tol": repr(req.rel_tol),
        "energy_unit": req.energy_unit,
    }


def answer(req) -> str:
    """One row through the public CLI entry points, as CSV text.

    The names are looked up on the module at each call, so an installed
    tracer sees them.
    """
    from neutroncp import cli

    buf = io.StringIO()
    cli.write_csv(cli.run_sweep(req, jobs=1), columns(req), header(req), buf)
    return buf.getvalue()


def closed_loop(
    reqs: Sequence,
    seconds: float,
    each: Callable[[int, str], None],
    pace: Pace,
    tracer=None,
) -> tuple[list[float], list[float]]:
    """Send ``reqs`` one after another, round after round, until
    ``seconds`` have passed and every request has been sent once.

    ``each(i, text)`` receives the answer to ``reqs[i]`` after its row is
    timed.  Returns each row's wall-clock latency in seconds, raw and
    scaled to the reference pace by the mean of the pace factors before
    and after the row.  The row in flight at the deadline is finished and
    counted.
    """
    raw: list[float] = []
    scaled: list[float] = []
    deadline = time.perf_counter() + seconds
    for i in itertools.cycle(range(len(reqs))):
        if tracer is not None:
            tracer.row = len(raw)
        before = pace.factor()
        t0 = time.perf_counter()
        text = answer(reqs[i])
        t1 = time.perf_counter()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * 0.5 * (before + pace.factor()))
        each(i, text)
        if t1 >= deadline and len(raw) >= len(reqs):
            break
    return raw, scaled


def measure_setup(workload: str, pace: Pace) -> tuple[list[float], list[float]]:
    """Wall seconds, raw and scaled, for each of SETUP_RUNS fresh
    interpreters to import the CLI and answer the workload's warm-up row.

    The child runs from another directory with an absolute import path, so
    no relative path can leak into it, and its answer must equal the one
    this process gives.  Its row time is scaled by the pace, like the
    loop's rows; the rest, interpreter start-up and imports, is scaled by
    the start-up pace (``pace.StartupPace``).
    """
    from perfbench.workloads import warmup_request

    req = warmup_request(workload)
    spec = {
        "request": {**dataclasses.asdict(req), "outputs": list(req.outputs)},
        "columns": columns(req),
        "header": header(req),
    }
    expected = answer(req)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    startup = StartupPace(BENCH_DIR, env)
    raw, parts = [], []
    for _ in range(SETUP_RUNS):
        before = pace.factor()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, json.dumps(spec)],
            cwd=BENCH_DIR,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        raw.append(time.perf_counter() - t0)
        text, _, row_s = proc.stdout.rstrip("\n").rpartition("\n")
        if proc.returncode != 0 or text + "\n" != expected:
            raise RuntimeError(
                f"set-up child failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}"
            )
        row = float(row_s)
        parts.append((raw[-1] - row, row * 0.5 * (before + pace.factor())))
        startup.probe()
    scale = startup.factor()
    return raw, [start * scale + row for start, row in parts]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, object]:
    """Measure one workload; returns the result line and a report."""
    from perfbench.check import classify, is_wrong_answer, parse_csv_row
    from perfbench.tracing import Tracer, layer_metrics, layer_unit
    from perfbench.workloads import TRACE_ROWS, request_line, row_set, warmup_request

    answer(warmup_request(workload))  # lazy imports and first-call costs
    rows = row_set(workload, seed)
    digest = hashlib.sha256(b"".join(request_line(r) for r in rows))
    first: list[Optional[str]] = [None] * len(rows)
    failed_rows: dict[int, str] = {}  # request index -> first reason it failed
    changed: set[int] = set()

    def record(i: int, text: str) -> None:
        # the first answer is checked; later rounds must repeat it exactly
        if first[i] is None:
            first[i] = text
            reason = classify(parse_csv_row(text), rows[i])
        elif text != first[i]:
            changed.add(i)
            reason = CHANGED
        else:
            return
        if reason is not None:
            failed_rows.setdefault(i, reason)

    pace = Pace()
    raw, latency = closed_loop(rows, seconds, record, pace)
    n = len(latency)
    attempted = len(rows)
    failed = len(failed_rows)
    report: dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "requests_sha256": digest.hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "row_fail_frac": failed / attempted,
        "failures": dict(Counter(failed_rows.values())),
        "rows_answered": n,
        "rounds": round(n / attempted, 3),
    }
    correct = not changed and not any(is_wrong_answer(r) for r in failed_rows.values())

    if trace:
        # a fixed prefix of the row set, so the same seed gives the same layer counts
        k = TRACE_ROWS[workload]
        replayed: list[str] = []
        with Tracer() as tracer:
            _, replay_latency = closed_loop(
                rows[:k], 0.0, lambda i, text: replayed.append(text), pace, tracer
            )
        mismatched = sum(text != first[i] for i, text in enumerate(replayed))
        correct = correct and not mismatched
        spans_path = BENCH_DIR / "out" / f"spans-{workload}-seed{seed}.tsv.gz"
        tracer.write(spans_path)
        layers = layer_metrics(tracer)
        layers["trace.rows"] = k
        layers["trace.overhead_frac"] = sum(replay_latency) / sum(latency[:k])
        report.update(
            traced_rows_mismatched=mismatched,
            spans=len(tracer.spans),
            spans_file=str(spans_path.relative_to(ROOT)),
        )
        metrics = {name: _metric(v, layer_unit(name)) for name, v in layers.items()}
    else:
        ms = [t * 1e3 for t in latency]
        p_tail = tail_percentile(n)
        if p_tail is None:
            raise RuntimeError(f"{n} rows in {seconds} s; the tail needs more than {TAIL_BEYOND}")
        setup_raw, setup = measure_setup(workload, pace)
        metrics = {
            "rows_per_s": _metric(n / sum(latency), "1/s"),
            "row_ms_p50": _metric(percentile(ms, 50), "ms"),
            "row_ms_tail": _metric(percentile(ms, p_tail), "ms"),
            "row_ok_frac": _metric(1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "setup_s": _metric(statistics.median(setup), "s"),
        }
        report.update(
            tail_percentile=p_tail,
            tail_beyond=n - math.ceil(p_tail * n / 100),
            setup_runs_s=[round(t, 4) for t in setup],
            raw_rows_per_s=n / sum(raw),
            raw_row_ms_p50=percentile([t * 1e3 for t in raw], 50),
            raw_setup_s=statistics.median(setup_raw),
        )
    report["metrics"] = metrics
    return {
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
        "report": report,
    }


# -- output ------------------------------------------------------------------

_HEADLINE = ("workload", "seed", "requests_sha256", "attempted", "failed",
             "row_fail_frac", "failures", "metrics")


def print_report(report: dict[str, object]) -> None:
    print(f"# perfbench workload={report['workload']} seed={report['seed']} "
          f"requests_sha256={report['requests_sha256']}")
    print(f"# attempted={report['attempted']} failed={report['failed']} "
          f"row_fail_frac={report['row_fail_frac']:.6g} (unit ratio)")
    if report["failures"]:
        print(f"# failures: {json.dumps(report['failures'], sort_keys=True)}")
    for key, value in report.items():
        if key not in _HEADLINE:
            print(f"# {key}={value}")
    for name, m in report["metrics"].items():
        extra = ""
        if name == "row_ms_tail":
            extra = (f"  (p{report['tail_percentile']} of {report['rows_answered']} rows, "
                     f"{report['tail_beyond']} beyond)")
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so memory and caches are its own."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {workload} failed", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "fig2_ground", "crossover_exponent", "resonant"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    try:
        load_package()
    except MissingPackageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:  # too few rows for the tail, or a failed set-up child
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(out["report"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
