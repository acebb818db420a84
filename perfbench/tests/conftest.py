"""Put the in-tree ``repro`` package and the benchmark modules on the path.

Run these tests from the repository root with
``python -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
