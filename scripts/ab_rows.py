"""Interleaved CPU time per row of two source trees, in one process.

    python3 scripts/ab_rows.py PARENT_TREE CHANGED_TREE --workload fig2_ground --rounds 16

Copies ``src/neutroncp`` of each tree into a temporary directory, as the
packages ``neutroncp_a`` (the first tree) and ``neutroncp_b``, and
answers the workload's seeded row set (``perfbench/workloads.py`` of
this repository) through each copy's ``cli.run_sweep`` (jobs=1) and
``cli.write_csv``, as the benchmark does.  A first pass of each side is
the warm-up and gives the row bytes.  Then every round answers each row
in the order a, b, b, a, timed by ``time.process_time``, so a drift in
the machine's speed falls on both sides alike.

It prints one JSON object: the median over rounds of the CPU time per
row of each side in microseconds, the median of the rounds' ratios b/a,
the rounds b won (ratio below 1), and the indices of the rows whose
bytes differ between the two sides.  A tree measured against itself
shows the noise of the method: its ratio should be near 1 and no row
should differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


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


def main(argv: Optional[list[str]] = None) -> int:
    # perfbench is imported from the repository root, which leaves
    # sys.path as it was
    added = str(ROOT) not in sys.path
    if added:
        sys.path.insert(0, str(ROOT))
    try:
        from perfbench.run import columns, header
        from perfbench.workloads import WORKLOADS, row_set
    finally:
        if added:
            sys.path.remove(str(ROOT))

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the first source tree (the parent)")
    parser.add_argument("b", type=Path, help="the second source tree (the change)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    rows = row_set(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            a, b = (
                answerer(load_copy(tree.resolve(), name, Path(tmp)), rows, columns, header)
                for tree, name in ((args.a, "neutroncp_a"), (args.b, "neutroncp_b"))
            )
            differ = [i for i in range(len(rows)) if a(i) != b(i)]
            per_row = {"a": [], "b": []}
            for _ in range(args.rounds):
                spent = {"a": 0.0, "b": 0.0}
                for i in range(len(rows)):
                    for side, answer in (("a", a), ("b", b), ("b", b), ("a", a)):
                        t0 = time.process_time()
                        answer(i)
                        spent[side] += time.process_time() - t0
                for side in per_row:
                    per_row[side].append(spent[side] / (2 * len(rows)))
        finally:
            sys.path.remove(tmp)
            copies = ("neutroncp_a", "neutroncp_b")
            for name in [m for m in sys.modules if m.split(".")[0] in copies]:
                del sys.modules[name]

    ratios = [tb / ta for ta, tb in zip(per_row["a"], per_row["b"])]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "rows": len(rows),
                "rounds": args.rounds,
                "a_us_per_row": round(1e6 * statistics.median(per_row["a"]), 1),
                "b_us_per_row": round(1e6 * statistics.median(per_row["b"]), 1),
                "ratio_b_over_a": round(statistics.median(ratios), 4),
                "b_won": sum(r < 1.0 for r in ratios),
                "differing_rows": differ,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
