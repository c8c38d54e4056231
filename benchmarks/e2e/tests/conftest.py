"""Self-tests of the benchmark harness; run them explicitly:

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/tests -q
"""

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent.parent
for path in (E2E_DIR, E2E_DIR.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
