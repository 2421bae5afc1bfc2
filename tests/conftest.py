import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a fresh interpreter that imports this package.

    ``limit_kib`` caps the child's address space (RLIMIT_AS, counted in KiB
    as ``ulimit -v`` counts it); the run raises TimeoutExpired past
    ``timeout`` seconds.
    """
    import schurlab

    src = str(Path(schurlab.__file__).parents[1])

    def run(*args, limit_kib=None, timeout=60):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (limit_kib << 10, limit_kib << 10))

        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=timeout,
                              preexec_fn=limit if limit_kib else None)

    return run
