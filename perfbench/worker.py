"""One repetition of a workload in a fresh interpreter.

Run by ``run.py``, never by hand::

    python3 perfbench/worker.py --workload splitting --seed 3 [--trace FILE]
        [--microbench N] [--only JOB_ID] [--ref] [--setup-only]

Set-up is the import of the package, ``make_field`` for every field the
workload uses and one multiplication in each, so that lazily built tables
are paid for before the first job.  Each job's library call is timed; the
digest of its result is taken outside the timed region.  With ``--ref``
each job's time is also given in units of the reference loop
(``reference.py``) timed around it.  The last line of stdout is one JSON
object; with ``--trace`` the spans go to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
import warnings

# The warning vschur.i_poly gives when it skips its roots-of-unity check.
UNITY_SKIP = "roots-of-unity cross-check skipped"
# Job seconds between two samples of the reference loop.
REF_EVERY_S = 0.25


def run_jobs(job_list, tracer, ref: bool = False):
    """Run the jobs; a job that raises is a failed verdict, not a crash.

    With ``ref``, the reference loop is timed before the first job and
    after every REF_EVERY_S of job time, and each job's time is also given
    in reference units: divided by the mean of the samples around it.
    """
    import jobs
    import reference
    from schurlab import cli

    outputs, job_s, job_ref = {}, {}, {}
    pending, since, samples = [], 0.0, []
    last = reference.sample() if ref else 0.0
    samples.append(last)

    def settle():
        nonlocal last, since
        now = reference.sample()
        samples.append(now)
        for job_id in pending:
            job_ref[job_id] = job_s[job_id] / ((last + now) / 2)
        pending.clear()
        last, since = now, 0.0

    for job_id, kind, job_args in job_list:
        if tracer is not None:
            tracer.item = job_id
        try:
            if kind == "cli":
                buffer = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(buffer):
                    rc = cli.main(list(job_args))
                job_s[job_id] = time.perf_counter() - start
                outputs[job_id] = jobs.stdout_record(rc, buffer.getvalue().encode())
            else:
                start = time.perf_counter()
                result = jobs.run_job(kind, job_args)
                job_s[job_id] = time.perf_counter() - start
                outputs[job_id] = jobs.canonical(kind, result)
        except Exception as exc:
            outputs[job_id] = {"error": f"{type(exc).__name__}: {exc}"}
        if ref and job_id in job_s:
            pending.append(job_id)
            since += job_s[job_id]
            if since >= REF_EVERY_S:
                settle()
    if pending:
        settle()
    return outputs, job_s, job_ref, samples if ref else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans and counts to this file")
    parser.add_argument("--microbench", type=int, default=0,
                        help="also time N field multiplications on the largest field")
    parser.add_argument("--only", default=None, help="run this one job of the list")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print only its end time")
    parser.add_argument("--ref", action="store_true",
                        help="also time the jobs in units of the reference loop")
    args = parser.parse_args(argv)

    import_start = time.monotonic()
    import jobs
    from schurlab import ffield

    cli_import_s = time.monotonic() - import_start
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.item = "setup"
    for p, r in jobs.FIELDS.get(args.workload, []):
        spec = ffield.make_field(p, r)
        spec.one() * spec.one()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    job_list = jobs.jobs_for(args.workload, args.seed)
    if args.only is not None:
        job_list = [job for job in job_list if job[0] == args.only]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outputs, job_s, job_ref, ref_samples = run_jobs(job_list, tracer, args.ref)
    unity_check_skips = sum(UNITY_SKIP in str(w.message) for w in caught)
    if tracer is not None:
        tracer.item = None
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    mul_ns = 0.0
    if args.microbench:
        pairs = jobs.microbench_operands(args.workload, args.seed, args.microbench)
        if pairs:
            samples = []
            for _ in range(7):
                start = time.perf_counter_ns()
                for a, b in pairs:
                    a * b
                samples.append((time.perf_counter_ns() - start) / len(pairs))
            mul_ns = statistics.median(samples)

    print(json.dumps({
        "ready": ready,
        "wall_s": sum(job_s.values()),
        "job_s": job_s,
        "job_ref": job_ref,
        "ref_samples": ref_samples,
        "outputs": outputs,
        "cli_import_s": cli_import_s,
        "mul_ns": mul_ns,
        "unity_check_skips": unity_check_skips,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
