"""Count the imaginary-axis k-integral work of a benchmark row set.

    python3 scripts/count_evaluations.py --workload fig2_ground --seed 1 2 3 97

For each seed (default 1), in the order given, it answers each row of
the workload's seeded row set (``perfbench/workloads.py``) once, through
the same entry points as the benchmark, while
``greens.integrate_trapezoid`` is wrapped to count its work, and prints
one JSON object on a line of its own: the rows, the per-row means of the
k-integral batches (calls of the rule), the k-integrand calls and the
kernel values (entries of the integrand's output), the mean number of
k-integrals per batch (rows of the integrand's output: one per live xi
entry, two where the row asks for the z-derivative), the most batches
one row took, and the sha256 of the row CSVs in order.  Then it answers
the row set once more, uncounted, and prints the minor page faults of
its own process per row of that pass (``ru_minflt``), with the first
pass as the warm-up: a count of fresh memory the rows touch.

The counts do not depend on the speed of the machine, so on one NumPy
build and CPU two commits that should place the same nodes must print
the same counts, and two that should write the same bytes the same
digest.  (NumPy picks np.exp and np.sqrt per CPU, and a last-bit
difference there could flip a stop decision that sits on its threshold.)
The page faults are printed only, never pinned: they depend on the
allocator and on what the process did before.  ``counting()`` is the
wrapper on its own, for any other set of calls.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from neutroncp import greens  # noqa: E402


@contextlib.contextmanager
def counting() -> Iterator[Counter]:
    """Count greens.integrate_trapezoid's batches, integrand calls, values
    and k-integrals (the rows of a batch)."""
    counts: Counter = Counter()
    rule = greens.integrate_trapezoid

    def counted(f, lo, hi, rel_tol):
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
        return rule(g, lo, hi, rel_tol)

    greens.integrate_trapezoid = counted
    try:
        yield counts
    finally:
        greens.integrate_trapezoid = rule


def main(argv: Optional[list[str]] = None) -> int:
    # perfbench is imported from the repository root, which leaves
    # sys.path as it was
    added = str(ROOT) not in sys.path
    if added:
        sys.path.insert(0, str(ROOT))
    try:
        from perfbench.run import answer
        from perfbench.workloads import WORKLOADS, row_set
    finally:
        if added:
            sys.path.remove(str(ROOT))

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    for seed in args.seed:
        rows = row_set(args.workload, seed)
        digest = hashlib.sha256()
        total: Counter = Counter()
        most = 0
        for req in rows:
            with counting() as counts:
                digest.update(answer(req).encode())
            total.update(counts)
            most = max(most, counts["batches"])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for req in rows:
            answer(req)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        n = len(rows)
        report = {
            "workload": args.workload,
            "seed": seed,
            "rows": n,
            "k_integral_batches": round(total["batches"] / n, 3),
            "k_integrand_calls": round(total["integrand_calls"] / n, 3),
            "kernel_values": round(total["kernel_values"] / n, 3),
            "k_integrals_per_batch": round(total["k_integrals"] / max(total["batches"], 1), 3),
            "max_batches_in_a_row": most,
            "csv_sha256": digest.hexdigest(),
            "minor_faults_per_row": round(faults / n, 3),
        }
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
