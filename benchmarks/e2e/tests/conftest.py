"""Make the benchmark's flat modules and ``repro`` importable."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (E2E.parents[1] / "src", E2E):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
