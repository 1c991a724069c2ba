"""Benchmark of neutroncp distance sweeps, run from outside the package.

The benchmark is one closed-loop client in one single-threaded process:
each sweep row is requested through ``neutroncp.cli.run_sweep`` (jobs=1)
and ``neutroncp.cli.write_csv``, and the next row is requested only after
the previous one returns.  ``perfbench/run.py`` is the command; see
``perfbench/intent.json`` for why each workload exists and what each
layer metric is predicted to move.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackageError(RuntimeError):
    """The checkout has no neutroncp sources next to the benchmark."""


def load_package() -> None:
    """Put the checkout's ``src`` first on the import path and import it.

    The benchmark measures the sources of its own checkout, never an
    installed copy, so an import that resolves elsewhere is an error.
    """
    init = SRC / "neutroncp" / "__init__.py"
    if not init.is_file():
        raise MissingPackageError(f"no neutroncp sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import neutroncp

    if Path(neutroncp.__file__).resolve() != init.resolve():
        raise MissingPackageError(
            f"neutroncp imported from {neutroncp.__file__}, not from {SRC}"
        )
