"""Quadrature work, row bytes and interleaved CPU time per row of two source trees.

    python3 scripts/ab_rows.py PARENT_TREE CHANGED_TREE --workload fig2_ground --seed 1 2 3 97

Copies ``src/neutroncp`` of each tree into a temporary directory, as the
packages ``neutroncp_a`` (the first tree) and ``neutroncp_b``, and
answers the workload's seeded row set (``perfbench/workloads.py`` of
this repository) through each copy's ``cli.run_sweep`` (jobs=1) and
``cli.write_csv``, as the benchmark does.  A first pass of each side is
the warm-up: it answers each row once under ``counting()`` and gives the
row bytes.  Then every round answers each row in the order a, b, b, a,
timed by ``time.process_time``, so a drift in the machine's speed falls
on both sides alike.  Which copy a process loads first can move the
ratio by several percent, so the rounds run twice, in two fresh
interpreters: one loads a's copy first, the other b's.

For each seed (default 1), in the order given, it prints one JSON line:

- for each order (``orders``), the median over rounds of the ratios b/a
  and the rounds b won (ratio below 1);
- the median CPU time per row of each side in microseconds, the
  geometric mean of the two orders' ratios, the rounds in which the
  geometric mean of the two orders' ratios was below 1, and the rows
  whose bytes differ between the two sides;
- under ``a`` and ``b``, each side's work as the interpreter that loads
  a first counted it: per-row means of the k-integral batches (calls of
  ``greens.integrate_trapezoid``), k-integrand calls and kernel values
  (entries of the integrand's output); the k-integrals per batch (one
  per live xi entry, two with the z-derivative); the most batches in a
  row; per-row means of the outer xi sums' nodes and of the real-axis
  rules' evaluations on each segment; the sha256 of the row CSVs in
  order; and the minor page faults (``ru_minflt``) per answer of the
  timed rounds, a count of fresh memory the rows touch.

The counts do not depend on the speed of the machine, so on one NumPy
build and CPU two trees that should place the same nodes must print the
same counts, and two that should write the same bytes the same digest.
(NumPy picks np.exp and np.sqrt per CPU, and a last-bit difference
there could flip a stop decision that sits on its threshold.)  The page
faults are printed only: they depend on the allocator and on what the
process did before.

The timing resolves about 1%, no better: a tree timed against itself
has read from 0.991 to 1.001, with b winning 16 of 16 rounds at 0.993.
So a ratio within about 1% of 1 is no result, whatever ``b_won`` reads;
there the counts are the signal.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

# a child interpreter: time_rounds of this file with JSON arguments,
# its result as the last line of standard output
CHILD = (
    "import json, runpy, sys; "
    "time_rounds = runpy.run_path(sys.argv[1])['time_rounds']; "
    "print(json.dumps(time_rounds(**json.loads(sys.argv[2]))))"
)


@contextlib.contextmanager
def counting(package) -> Iterator[Counter]:
    """Count the quadrature work of ``package`` (neutroncp or a copy).

    greens.integrate_trapezoid: its batches, integrand calls, values and
    k-integrals (the rows of a batch).  The evaluations of
    potential.integrate_trapezoid (``xi_nodes``),
    greens.integrate_finite_oscillatory (``propagating_evaluations``) and
    greens.integrate_semi_infinite (``evanescent_evaluations``).
    """
    counts: Counter = Counter()
    greens, potential = package.greens, package.potential
    k_rule = greens.integrate_trapezoid

    def k_batch(f, lo, hi, rel_tol):
        first = True

        def g(w):
            nonlocal first
            out = f(w)
            if first:  # every call of a batch returns the same rows
                counts["k_integrals"] += np.atleast_2d(out).shape[0]
                first = False
            counts["integrand_calls"] += 1
            counts["kernel_values"] += np.size(out)
            return out

        counts["batches"] += 1
        return k_rule(g, lo, hi, rel_tol)

    def evaluations(rule, key):
        def counted(*args, **kwargs):
            res = rule(*args, **kwargs)
            counts[key] += res.evaluations
            return res

        return counted

    wrapped = {
        (greens, "integrate_trapezoid"): k_batch,
        (potential, "integrate_trapezoid"): evaluations(potential.integrate_trapezoid, "xi_nodes"),
        (greens, "integrate_finite_oscillatory"): evaluations(
            greens.integrate_finite_oscillatory, "propagating_evaluations"
        ),
        (greens, "integrate_semi_infinite"): evaluations(
            greens.integrate_semi_infinite, "evanescent_evaluations"
        ),
    }
    saved = {(module, name): getattr(module, name) for module, name in wrapped}
    for (module, name), rule in wrapped.items():
        setattr(module, name, rule)
    try:
        yield counts
    finally:
        for (module, name), rule in saved.items():
            setattr(module, name, rule)


def perfbench():
    """perfbench.run and perfbench.workloads, imported from the repository
    root, which leaves sys.path as it was."""
    added = str(ROOT) not in sys.path
    if added:
        sys.path.insert(0, str(ROOT))
    try:
        from perfbench import run, workloads
    finally:
        if added:
            sys.path.remove(str(ROOT))
    return run, workloads


def load_copy(tree: Path, name: str, into: Path):
    """tree's src/neutroncp, imported as package ``name`` with its cli."""
    shutil.copytree(
        tree / "src" / "neutroncp", into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]


def answerer(cli, rows, columns, header):
    """answer(i): row i through cli's public entry points, as CSV text."""
    # each request is rebuilt once, outside the timing, as the copy's own
    # SweepRequest
    own = [
        cli.SweepRequest(
            **{f.name: getattr(req, f.name) for f in dataclasses.fields(cli.SweepRequest)}
        )
        for req in rows
    ]

    def answer(i: int) -> str:
        buf = io.StringIO()
        cli.write_csv(cli.run_sweep(own[i], jobs=1), columns(rows[i]), header(rows[i]), buf)
        return buf.getvalue()

    return answer


def work(per_row: list[Counter], texts: list[str], faults: float) -> dict:
    """One side's report from its per-row counts and row CSVs."""
    total: Counter = sum(per_row, Counter())

    def mean(key: str) -> float:
        return round(total[key] / len(per_row), 3)

    return {
        "k_integral_batches": mean("batches"),
        "k_integrand_calls": mean("integrand_calls"),
        "kernel_values": mean("kernel_values"),
        "k_integrals_per_batch": round(total["k_integrals"] / max(total["batches"], 1), 3),
        "max_batches_in_a_row": max(counts["batches"] for counts in per_row),
        "xi_nodes": mean("xi_nodes"),
        "propagating_evaluations": mean("propagating_evaluations"),
        "evanescent_evaluations": mean("evanescent_evaluations"),
        "csv_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
        "minor_faults_per_row": round(faults, 3),
    }


def time_rounds(a: str, b: str, workload: str, seed: int, rounds: int, b_first: bool) -> dict:
    """In this process: load both copies, b's first if b_first, count
    each side's work in the warm-up pass, and time the rounds.  The CPU
    seconds per row of each side and round, each side's work, and the
    rows whose bytes differ."""
    run, workloads = perfbench()
    rows = workloads.row_set(workload, seed)
    n = len(rows)
    order = [("a", Path(a)), ("b", Path(b))]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        package = {
            key: load_copy(tree.resolve(), f"neutroncp_{key}", Path(tmp))
            for key, tree in (order[::-1] if b_first else order)
        }
        side = {
            key: answerer(pkg.cli, rows, run.columns, run.header) for key, pkg in package.items()
        }
        texts, counted = {}, {}
        for key in side:
            texts[key], counted[key] = [], []
            for i in range(n):
                with counting(package[key]) as counts:
                    texts[key].append(side[key](i))
                counted[key].append(counts)
        differ = [i for i in range(n) if texts["a"][i] != texts["b"][i]]
        per_row = {"a": [], "b": []}
        faults = {"a": 0, "b": 0}
        for _ in range(rounds):
            spent = {"a": 0.0, "b": 0.0}
            for i in range(n):
                for key in ("a", "b", "b", "a"):
                    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    t0 = time.process_time()
                    side[key](i)
                    spent[key] += time.process_time() - t0
                    faults[key] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            for key in per_row:
                per_row[key].append(spent[key] / (2 * n))
    return {
        **per_row,
        "rows": n,
        "differing_rows": differ,
        "work": {
            key: work(counted[key], texts[key], faults[key] / (2 * n * rounds)) for key in side
        },
    }


def report(spec: dict) -> dict:
    """One seed: both load orders in fresh interpreters, as one JSON object."""
    runs = {}
    for order, b_first in (("a_first", False), ("b_first", True)):
        child = [sys.executable, "-c", CHILD, __file__, json.dumps(dict(spec, b_first=b_first))]
        # the child's stderr is this process's, so a failure shows its traceback
        out = subprocess.run(child, stdout=subprocess.PIPE, text=True, check=True)
        runs[order] = json.loads(out.stdout.splitlines()[-1])

    ratios = {
        order: [tb / ta for ta, tb in zip(run["a"], run["b"])] for order, run in runs.items()
    }
    # the two orders' ratios of each round, combined
    paired = [math.sqrt(ra * rb) for ra, rb in zip(*ratios.values())]
    return {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "rows": runs["a_first"]["rows"],
        "rounds": spec["rounds"],
        "a_us_per_row": round(
            1e6 * statistics.median(t for run in runs.values() for t in run["a"]), 1
        ),
        "b_us_per_row": round(
            1e6 * statistics.median(t for run in runs.values() for t in run["b"]), 1
        ),
        "ratio_b_over_a": round(
            math.sqrt(math.prod(statistics.median(r) for r in ratios.values())), 4
        ),
        "b_won": sum(r < 1.0 for r in paired),
        "orders": {
            order: {
                "ratio_b_over_a": round(statistics.median(r), 4),
                "b_won": sum(x < 1.0 for x in r),
            }
            for order, r in ratios.items()
        },
        "differing_rows": sorted(set().union(*(run["differing_rows"] for run in runs.values()))),
        **runs["a_first"]["work"],
    }


def main(argv: Optional[list[str]] = None) -> int:
    _, workloads = perfbench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the first source tree (the parent)")
    parser.add_argument("b", type=Path, help="the second source tree (the change)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    for seed in args.seed:
        spec = {
            "a": str(args.a.resolve()),
            "b": str(args.b.resolve()),
            "workload": args.workload,
            "seed": seed,
            "rounds": args.rounds,
        }
        print(json.dumps(report(spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
