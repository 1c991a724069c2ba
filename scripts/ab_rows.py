"""Interleaved CPU time per row of two source trees, in both load orders.

    python3 scripts/ab_rows.py PARENT_TREE CHANGED_TREE --workload fig2_ground --rounds 16

Copies ``src/neutroncp`` of each tree into a temporary directory, as the
packages ``neutroncp_a`` (the first tree) and ``neutroncp_b``, and
answers the workload's seeded row set (``perfbench/workloads.py`` of
this repository) through each copy's ``cli.run_sweep`` (jobs=1) and
``cli.write_csv``, as the benchmark does.  A first pass of each side is
the warm-up and gives the row bytes.  Then every round answers each row
in the order a, b, b, a, timed by ``time.process_time``, so a drift in
the machine's speed falls on both sides alike.

Which copy a process loads first can move the ratio by several
percent, so the rounds run twice, in two fresh interpreters, one after
the other: one loads a's copy first, the other b's.

It prints one JSON object.  For each order (``orders``: ``a_first``,
``b_first``) it gives the median over rounds of the ratios b/a and the
rounds b won (ratio below 1).  At the top level: the median CPU time
per row of each side over all rounds, in microseconds, the geometric
mean of the two orders' ratios, the rounds in which the geometric mean
of the two orders' ratios was below 1, and the indices of the rows
whose bytes differ between the two sides.  A tree measured against
itself shows the noise of the method: its ratios should be near 1 and
no row should differ.

The method resolves about 1%, no better: a tree timed against itself
has read from 0.991 to 1.001, with b winning 16 of 16 rounds at 0.993.
So a ratio within about 1% of 1 is no result, whatever ``b_won`` reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

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
    """The cli module of tree's src/neutroncp, imported as package ``name``."""
    shutil.copytree(
        tree / "src" / "neutroncp", into / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(f"{name}.cli")


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


def time_rounds(a: str, b: str, workload: str, seed: int, rounds: int, b_first: bool) -> dict:
    """In this process: load both copies, b's first if b_first, and time
    the rounds.  The CPU seconds per row of each side and round, and the
    rows whose bytes differ."""
    run, workloads = perfbench()
    rows = workloads.row_set(workload, seed)
    order = [("a", Path(a)), ("b", Path(b))]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        side = {
            key: answerer(
                load_copy(tree.resolve(), f"neutroncp_{key}", Path(tmp)),
                rows,
                run.columns,
                run.header,
            )
            for key, tree in (order[::-1] if b_first else order)
        }
        differ = [i for i in range(len(rows)) if side["a"](i) != side["b"](i)]
        per_row = {"a": [], "b": []}
        for _ in range(rounds):
            spent = {"a": 0.0, "b": 0.0}
            for i in range(len(rows)):
                for key in ("a", "b", "b", "a"):
                    t0 = time.process_time()
                    side[key](i)
                    spent[key] += time.process_time() - t0
            for key in per_row:
                per_row[key].append(spent[key] / (2 * len(rows)))
    return {**per_row, "rows": len(rows), "differing_rows": differ}


def main(argv: Optional[list[str]] = None) -> int:
    _, workloads = perfbench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the first source tree (the parent)")
    parser.add_argument("b", type=Path, help="the second source tree (the change)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    spec = {
        "a": str(args.a.resolve()),
        "b": str(args.b.resolve()),
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
    }
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
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rows": runs["a_first"]["rows"],
                "rounds": args.rounds,
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
                "differing_rows": sorted(
                    set().union(*(run["differing_rows"] for run in runs.values()))
                ),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
