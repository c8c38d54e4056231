"""Importing the package loads nothing beyond the stdlib and numpy.

Every ``repro`` process -- the CLI, each ``repro serve`` child, each fleet
worker -- pays for what its imports load, in boot time and resident
memory, before it does any work.  A fresh interpreter imports the entry
points and lists the top-level packages loaded from files; whatever a bare
interpreter already loads (site hooks) is subtracted.  SciPy, which only
an LS-SVM fit needs, must stay unloaded too
(``tests/ml/test_forced_training.py`` checks when it does load).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = "repro, repro.cli, repro.serve.service, repro.fleet.executor"
ALLOWED = {"numpy", "repro"}

_PROBE = """
import json, sys
{imports}
print(json.dumps(sorted({{
    name.partition(".")[0]
    for name, module in list(sys.modules.items())
    if getattr(module, "__file__", None)
}})))
"""


def loaded_packages(imports: str) -> set[str]:
    """Top-level packages loaded from files by a fresh interpreter that
    runs ``imports``."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(imports=imports)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_entry_points_load_only_the_stdlib_and_numpy():
    bare = loaded_packages("pass")
    loaded = loaded_packages(f"import {ENTRY_POINTS}")
    extra = loaded - bare - set(sys.stdlib_module_names) - ALLOWED
    assert not extra, f"importing {ENTRY_POINTS} loads {sorted(extra)}"
    assert ALLOWED <= loaded
