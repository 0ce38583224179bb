"""Entry point of the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload dynamic_churn --seed 1 \
        --seconds 12 --trace 0

``--workload all`` (the default) runs every workload.  See
``perfbench/NOTES.md`` for the workloads, metrics and the traced run.
The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits non-zero before measuring.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap() -> None:
    """Put the checkout's ``src`` and root first on the import path."""
    for path in (ROOT, ROOT / "src"):
        sys.path.insert(0, str(path))
    for package, where in (("repro", ROOT / "src" / "repro"),
                           ("benchmarks", ROOT / "benchmarks")):
        if not (where / "__init__.py").is_file():
            sys.exit(f"perfbench: {where} not found; run from a checkout "
                     "of the repository")
        module = __import__(package)
        if Path(module.__file__).resolve().parent != where.resolve():
            sys.exit(f"perfbench: imported {package} from {module.__file__},"
                     f" not from {where}")


if __name__ == "__main__":
    # The kernel collapses huge-page-hinted numpy arrays into huge pages
    # in the background while a run executes, which made host
    # throughput drift upward by up to 40% within one run.  Without the
    # hint every run uses small pages throughout.  Must precede the
    # first numpy import.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    _bootstrap()
    from perfbench.harness import main

    sys.exit(main())
