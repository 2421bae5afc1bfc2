"""The oracle-sweep CLI call, with the reference loop timed between its points.

Run by ``run.py``, never by hand::

    python3 perfbench/sweep_child.py REF_FILE sweep degree --p 2,3,5 ...

Runs ``schurlab.cli.main(argv)`` in this process, so stdout and the exit
code are the CLI's own.  Before each call of ``cli._degree_point`` it times
the reference loop (``reference.py``) once every REF_EVERY_S of point time,
and once more when the sweep is done.  REF_FILE gets the samples and the
seconds they took, so that ``run.py`` can take that time out of the wall
time of the process.
"""

from __future__ import annotations

import json
import sys
import time

import reference
from schurlab import cli

REF_EVERY_S = 0.25


def main() -> int:
    ref_path, argv = sys.argv[1], sys.argv[2:]
    samples, spent = [], 0.0
    since = float("inf")  # point seconds since the last sample

    def sample() -> None:
        nonlocal spent, since
        start = time.perf_counter()
        samples.append(reference.sample())
        spent += time.perf_counter() - start
        since = 0.0

    point = cli._degree_point

    def timed_point(*args, **kwargs):
        nonlocal since
        if since >= REF_EVERY_S:
            sample()
        start = time.perf_counter()
        try:
            return point(*args, **kwargs)
        finally:
            since += time.perf_counter() - start

    cli._degree_point = timed_point
    rc = cli.main(argv)
    sys.stdout.flush()
    sample()
    with open(ref_path, "w", encoding="utf-8") as fh:
        json.dump({"samples": samples, "spent_s": spent}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
