import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

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


class Probe(NamedTuple):
    value: object
    partials: tuple  # the values of the X, Y and Z partials
    vanishing: tuple  # (f, dX, dY, dZ) zero-flags
    singular: bool


@pytest.fixture
def singular_point_probe():
    """``probe(f, point)``: f and its three partials evaluated at a
    projective point, which is a singular point of f = 0 when all four
    vanish.  f must be nonzero and homogeneous."""
    from schurlab.mpoly import ZERO_POLY, is_homogeneous, partial_derivative

    def probe(f, point):
        if is_homogeneous(f) in (None, ZERO_POLY):
            raise ValueError("the probe applies to nonzero homogeneous polynomials")
        if not any(f.field.coerce(v) for v in point):
            raise ValueError("the zero point is not a projective point")
        value = f.evaluate(point)
        partials = tuple(partial_derivative(f, v).evaluate(point) for v in "XYZ")
        vanishing = (not value, *(not v for v in partials))
        return Probe(value, partials, vanishing, all(vanishing))

    return probe
