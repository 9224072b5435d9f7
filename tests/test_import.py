"""Import cost: numpy is driftnet's only runtime dependency."""

import os
import subprocess
import sys
from pathlib import Path

import driftnet

# Lists the third-party packages that `import driftnet` adds to a fresh
# interpreter, beyond what site start-up already loaded.
_PROBE = """
import sys
before = set(sys.modules)
import driftnet
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_import_loads_no_third_party_package_but_numpy():
    src = str(Path(driftnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    # scipy.stats alone takes over a second to import, several times the
    # whole package's import time.
    assert "scipy" not in out
    assert set(out) <= {"driftnet", "numpy"}
