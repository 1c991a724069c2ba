"""scripts/ab_rows.py, the interleaved A/B timing of two source trees."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tree_against_itself_writes_the_same_rows():
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "ab_rows.py"),
            str(ROOT),
            str(ROOT),
            "--workload",
            "crossover_exponent",
            "--rounds",
            "2",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["rows"] == 32 and report["rounds"] == 2
    assert report["differing_rows"] == []
    assert 0 <= report["b_won"] <= 2
    # printed, not pinned: CPU times depend on the machine
    assert report["a_us_per_row"] > 0.0 and report["b_us_per_row"] > 0.0
    assert report["ratio_b_over_a"] > 0.0
