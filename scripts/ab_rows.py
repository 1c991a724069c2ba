"""Quadrature work, row bytes and interleaved CPU time per row of two source trees.

    python3 scripts/ab_rows.py PARENT_TREE CHANGED_TREE --workload fig2_ground --seed 1 2 3 97

For each seed, starts one worker interpreter per tree.  A worker imports
that tree's own ``neutroncp``: it runs with ``PYTHONPATH=<tree>/src:<this
repository>`` in a temporary working directory, and checks that the
package it imported lies under ``<tree>/src``.  It answers the
workload's seeded row set (``perfbench/workloads.py`` of this
repository) through ``cli.run_sweep`` (jobs=1) and ``cli.write_csv``, as
the benchmark does.  Its first pass, the warm-up, answers each row once
under ``counting()`` and gives the row bytes.  Then it answers the rows
it is sent, timed by ``time.process_time``.  Every round sends each row
in the order a, b, b, a where the round and row numbers add up to an
even number and b, a, a, b where they add up to an odd one.  So a drift
in the machine's speed falls on both sides alike, each side goes first
and answers a row twice in a row equally often, and each side keeps its
own heap and allocator.  ``--rounds`` defaults to 1024 // rows, at
least 2 and at most 16: 16 for fig2_ground (64 rows) and
crossover_exponent (32), 2 for resonant (6144), whose four seeds then
take minutes rather than half an hour.

For each seed (default 1), in the order given, it prints one JSON line:

- the median CPU time per row of each side in microseconds, the median
  over rounds of the ratio b/a, the rounds b won (ratio below 1), and
  the rows whose bytes differ between the two sides;
- under ``a`` and ``b``, each side's work: per-row means of the
  k-integral batches (calls of ``greens.integrate_trapezoid``),
  k-integrand calls and kernel values (entries of the integrand's
  output); the k-integrals per batch (one per live xi entry, two with
  the z-derivative); the most batches in a row; per-row means of the
  outer xi sums' nodes and of the real-axis rules' evaluations on each
  segment; the sha256 of the row CSVs in order; the minor page faults
  (``ru_minflt``) per answer of the timed rounds, a count of fresh
  memory the rows touch; and the worker's peak resident size in MB.

The counts do not depend on the speed of the machine, so on one NumPy
build and CPU two trees that should place the same nodes must print the
same counts, and two that should write the same bytes the same digest.
(NumPy picks np.exp and np.sqrt per CPU, and a last-bit difference
there could flip a stop decision that sits on its threshold.)  The page
faults and the peak size are printed only: they depend on the allocator.

The timing resolves about 2%, no better.  A tree against itself, over
16 rounds (fig2_ground and crossover_exponent, seeds 1, 2 and 3, twice
over), read a mean ratio of 0.998 (0.989 to 1.009), b winning 8.7 of 16
on average.  With a, b, b, a on every row, only b answered a row twice
in a row, and the same runs leaned toward b: 0.994 (0.982 to 1.003), b
winning 11 of 16.  So a ratio within about 2% of 1 is no result,
whatever ``b_won`` reads; there the counts are the signal.  A tree that
allocates where the other reuses a buffer shows in its faults and its
ratio: with fresh arrays in place of greens' scratch buffer, b read 1.34
and 1.37, at 113 and 160 faults per row against a's 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
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

# a worker interpreter: serve() of this file for one tree
WORKER = "import runpy, sys; runpy.run_path(sys.argv[1])['serve'](*sys.argv[2:])"


@contextlib.contextmanager
def counting(package) -> Iterator[Counter]:
    """Count the quadrature work of ``package`` (neutroncp).

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


def serve(tree: str, workload: str, seed: str) -> None:
    """A worker: tree's neutroncp answers the row set once under
    counting() and then each row index read from stdin, timed."""
    import neutroncp
    from neutroncp import cli
    from perfbench import run, workloads

    src = Path(tree) / "src"
    if src not in Path(neutroncp.__file__).resolve().parents:
        raise ImportError(f"neutroncp was imported from {neutroncp.__file__}, not from {src}")
    rows = workloads.row_set(workload, int(seed))

    def answer(i: int) -> str:
        req, buf = rows[i], io.StringIO()
        cli.write_csv(cli.run_sweep(req, jobs=1), run.columns(req), run.header(req), buf)
        return buf.getvalue()

    texts, counted = [], []
    for i in range(len(rows)):
        with counting(neutroncp) as counts:
            texts.append(answer(i))
        counted.append(counts)
    warm_up = {
        "counts": counted,
        "row_sha256": [hashlib.sha256(text.encode()).hexdigest() for text in texts],
        "csv_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
    }
    print(json.dumps(warm_up), flush=True)
    for line in sys.stdin:
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.process_time()
        answer(int(line))
        dt = time.process_time() - t0
        print(dt, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0, flush=True)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, flush=True)


class Worker:
    """One tree's worker process and the line protocol of serve()."""

    def __init__(self, tree: Path, workload: str, seed: int, cwd: str):
        self.tree = tree
        env = {**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{ROOT}"}
        # the worker's stderr is this process's, so a failure shows its traceback
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, __file__, str(tree), workload, str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=cwd,
            env=env,
        )

    def line(self) -> str:
        out = self.proc.stdout.readline()
        if not out:
            raise RuntimeError(
                f"the worker for {self.tree} exited with code {self.proc.wait()}; "
                "its stderr is above"
            )
        return out

    def timed(self, i: int) -> tuple[float, int]:
        """CPU seconds and minor faults of one answer of row i."""
        try:
            self.proc.stdin.write(f"{i}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # line() reports the exit
        dt, faults = self.line().split()
        return float(dt), int(faults)

    def finish(self) -> float:
        """End of input: the worker's peak resident size in MB."""
        self.proc.stdin.close()
        peak = float(self.line())
        self.proc.wait()
        return peak


def work(warm_up: dict, faults: float, max_rss_mb: float) -> dict:
    """One side's report from its warm-up's per-row counts and digest."""
    per_row = [Counter(counts) for counts in warm_up["counts"]]
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
        "csv_sha256": warm_up["csv_sha256"],
        "minor_faults_per_row": round(faults, 3),
        "max_rss_mb": round(max_rss_mb, 1),
    }


def report(trees: dict[str, Path], workload: str, seed: int, rounds: int) -> dict:
    """One seed: both trees' workers, warm-up and timed rounds, as one
    JSON object."""
    with tempfile.TemporaryDirectory() as cwd, contextlib.ExitStack() as stack:
        side = {}
        for key, tree in trees.items():
            side[key] = Worker(tree, workload, seed, cwd)
            stack.enter_context(side[key].proc)  # closes its pipes and waits
            stack.callback(side[key].proc.kill)
        warm = {key: json.loads(worker.line()) for key, worker in side.items()}
        n = len(warm["a"]["row_sha256"])
        per_row = {"a": [], "b": []}
        faults = {"a": 0, "b": 0}
        for r in range(rounds):
            spent = {"a": 0.0, "b": 0.0}
            for i in range(n):
                for key in ("a", "b", "b", "a") if (r + i) % 2 == 0 else ("b", "a", "a", "b"):
                    dt, df = side[key].timed(i)
                    spent[key] += dt
                    faults[key] += df
            for key in per_row:
                per_row[key].append(spent[key] / (2 * n))
        max_rss = {key: worker.finish() for key, worker in side.items()}

    ratios = [tb / ta for ta, tb in zip(per_row["a"], per_row["b"])]
    return {
        "workload": workload,
        "seed": seed,
        "rows": n,
        "rounds": rounds,
        "a_us_per_row": round(1e6 * statistics.median(per_row["a"]), 1),
        "b_us_per_row": round(1e6 * statistics.median(per_row["b"]), 1),
        "ratio_b_over_a": round(statistics.median(ratios), 4),
        "b_won": sum(r < 1.0 for r in ratios),
        "differing_rows": [
            i
            for i, (x, y) in enumerate(zip(warm["a"]["row_sha256"], warm["b"]["row_sha256"]))
            if x != y
        ],
        **{key: work(warm[key], faults[key] / (2 * n * rounds), max_rss[key]) for key in side},
    }


def workload_rows() -> dict[str, int]:
    """perfbench's workloads and the rows of each one's row set, imported
    from this repository with sys.path left as it was."""
    saved = list(sys.path)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench.workloads import ROWS, WORKLOADS
    finally:
        sys.path[:] = saved
    return {name: ROWS[name] for name in WORKLOADS}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the first source tree (the parent)")
    parser.add_argument("b", type=Path, help="the second source tree (the change)")
    rows = workload_rows()
    parser.add_argument("--workload", required=True, choices=list(rows))
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    parser.add_argument(
        "--rounds", type=int, help="timed rounds (default 1024 // rows, from 2 to 16)"
    )
    args = parser.parse_args(argv)
    if args.rounds is None:  # about 1024 timed answers per side
        args.rounds = max(2, min(16, 1024 // rows[args.workload]))
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "neutroncp" / "__init__.py").is_file():
            parser.error(f"{tree} is not a source tree: it has no src/neutroncp/__init__.py")

    for seed in args.seed:
        print(json.dumps(report(trees, args.workload, seed, args.rounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
