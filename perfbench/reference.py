"""A fixed reference loop that measures how fast the machine is right now.

On a shared host the speed of one core drifts by half or more over
minutes, and every Python program slows with it.  A minimum over the
repetitions of one run removes short bursts, but not a slow spell that
covers the whole run.  The benchmark therefore times this loop next to
every timed piece of library work and divides one time by the other: the
ratio keeps the cost of the library and drops the speed of the host.

The loop uses only the standard library and never the package, so no
change to the package can move it.  It does the kind of work the package
does: a sparse bivariate product with tuple keys in a dict and integer
coefficients reduced mod a prime.
"""

from __future__ import annotations

import random
import time

_rng = random.Random(20090318)
_F = {(_rng.randrange(20), _rng.randrange(20)): _rng.randrange(1, 101) for _ in range(60)}
_G = {(_rng.randrange(20), _rng.randrange(20)): _rng.randrange(1, 101) for _ in range(60)}


def _chunk() -> int:
    h: dict = {}
    for (a, b), c in _F.items():
        for (d, e), k in _G.items():
            key = (a + d, b + e)
            h[key] = (h.get(key, 0) + c * k) % 101
    return len(h)


def sample(chunks: int = 40) -> float:
    """Mean seconds of one pass of the loop over ``chunks`` passes."""
    start = time.perf_counter()
    for _ in range(chunks):
        _chunk()
    return (time.perf_counter() - start) / chunks
