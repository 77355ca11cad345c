"""Run Python code in a child interpreter whose address space is capped at
1 GiB, so that code asking for more memory than that fails in the child and
not on the machine that runs the tests."""

import os
import subprocess
import sys
from pathlib import Path

import gamedyn

CAP = 1 << 30

_PRELUDE = f"""import resource
resource.setrlimit(resource.RLIMIT_AS, ({CAP}, {CAP}))
"""


def run_capped(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run as a script with args under the cap, one BLAS thread and
    the gamedyn package under test on its path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(gamedyn.__file__).resolve().parents[1]))
    env.pop("GAMEDYN_OUT", None)
    return subprocess.run([sys.executable, "-c", _PRELUDE + code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
