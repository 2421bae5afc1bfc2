"""Layered benchmark for schurlab.

Untraced run (end-to-end metrics)::

    python3 perfbench/run.py --workload splitting --seed 1 --seconds 25 --trace 0

Traced run (per-layer metrics)::

    python3 perfbench/run.py --workload rational --seed 1 --trace 1

Long tier (every row of the ROADMAP baseline table; several minutes)::

    python3 perfbench/run.py --tier long

Every repetition runs in a fresh interpreter and its outputs are compared
with ``golden.json``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, and a stamp with the Python
version, git SHA, processor count, seed and tier.  The exit code is 1 when
any verdict failed and 2 when the package source is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_CALLS = 11  # set-up-only processes per untraced run, before the repetitions
MIN_REPS = 3  # repetitions per untraced run, even when they outlast --seconds
MICROBENCH_PAIRS = 2000

# name -> unit; the order is the print order
END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "fraction",
}
PER_LAYER = {
    "ffield.mul_calls": "count",
    "ffield.add_calls": "count",
    "ffield.mul_ns": "ns",
    "ffield.make_field_s": "s",
    "ffield.elements_enumerated": "count",
    "mpoly.mul_s": "s",
    "mpoly.mul_calls": "count",
    "mpoly.mul_term_pairs": "count",
    "mpoly.exact_divide_s": "s",
    "mpoly.exact_divide_calls": "count",
    "mpoly.substitute_s": "s",
    "mpoly.substitute_calls": "count",
    "mpoly.peak_terms": "count",
    "vschur.t_poly_s": "s",
    "vschur.r_poly_s": "s",
    "vschur.schur_bialternant_s": "s",
    "vschur.unity_check_skips": "count",
    "factor.verify_fact_s": "s",
    "factor.linear_factors_s": "s",
    "factor.forms_tried": "count",
    "factor.form_hit_ratio": "ratio",
    "newton.oracle_s": "s",
    "newton.oracle_elements": "count",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.points": "count",
    "cli.skips": "count",
    "cli.jobs2_over_jobs1": "ratio",
    "trace.overhead_s": "s",
}
WORKLOADS = ("splitting", "rational", "oracle-sweep")


class Fail(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], tag: str) -> dict:
    """Run a child to completion; wall time, exit code, peak RSS and stdout."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": start,
        "wall_s": end - start,
        "rc": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,
        "stdout": out_path.read_bytes(),
    }


def run_cli(argv, tag: str) -> dict:
    return spawn([sys.executable, "-m", "schurlab.cli", *argv], tag)


def run_sweep(argv: list[str], tag: str) -> dict:
    """The CLI sweep through sweep_child.py; wall_s leaves out its reference samples."""
    ref_path = OUT / f"{tag}.ref.json"
    ref_path.unlink(missing_ok=True)
    rep = spawn([sys.executable, str(HERE / "sweep_child.py"), str(ref_path), *argv], tag)
    rep["ref"] = None
    if ref_path.is_file():
        with open(ref_path, encoding="utf-8") as fh:
            rep["ref"] = json.load(fh)
        rep["wall_s"] -= rep["ref"]["spent_s"]
    return rep


def run_worker(workload: str, seed: int, tag: str, *, trace: Path | None = None,
               microbench: int = 0, only: str | None = None, ref: bool = False,
               setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if ref:
        argv.append("--ref")
    if setup_only:
        argv.append("--setup-only")
    if trace is not None:
        argv += ["--trace", str(trace)]
    if microbench:
        argv += ["--microbench", str(microbench)]
    if only is not None:
        argv += ["--only", only]
    rep = spawn(argv, tag)
    rep["result"] = None
    if rep["rc"] == 0:
        lines = rep["stdout"].decode("utf-8", "replace").strip().splitlines()
        if lines:
            rep["result"] = json.loads(lines[-1])
    if rep["result"] is not None:
        rep["setup_s"] = rep["result"]["ready"] - rep["start"]
    return rep


# ---------------------------------------------------------------------------
# correctness gate


def _cli_failures(want: dict, have) -> tuple[int, int]:
    """One verdict per golden stdout line; a bad exit code fails them all."""
    n = len(want["lines"])
    if not isinstance(have, dict) or "lines" not in have or have["exit"] != want["exit"]:
        return n, n
    bad = sum(a != b for a, b in zip(want["lines"], have["lines"]))
    bad += abs(len(have["lines"]) - n)
    if not bad and have["sha256"] != want["sha256"]:
        bad = 1
    return n, min(bad, n)


def check(expected: dict, got) -> tuple[int, int]:
    """(attempted, failed) for one repetition's outputs against the golden ones."""
    attempted = failed = 0
    got = got if isinstance(got, dict) else {}
    for job_id, want in expected.items():
        if "lines" in want:
            n, bad = _cli_failures(want, got.get(job_id))
        else:
            n, bad = 1, int(got.get(job_id) != want)
        attempted += n
        failed += bad
    return attempted, failed


class Gate:
    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def add(self, expected: dict, got) -> None:
        attempted, failed = check(expected, got)
        self.attempted += attempted
        self.failed += failed

    def worker(self, workload: str, rep: dict, only: str | None = None) -> None:
        expected = self.golden[workload]["jobs"]
        if only is not None:
            expected = {only: expected[only]}
        self.add(expected, rep["result"]["outputs"] if rep["result"] else None)

    def cli(self, want: dict, rep: dict) -> None:
        from jobs import stdout_record

        self.add({"cli": want}, {"cli": stdout_record(rep["rc"], rep["stdout"])})


# ---------------------------------------------------------------------------
# passes


def timed_pass(workload: str, seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    """End-to-end metrics: repeat the whole job list until the time is up."""
    from jobs import SETUP_ARGV, sweep_argv

    reps, setups = [], []
    for i in range(SETUP_CALLS):
        if workload == "oracle-sweep":
            rep = run_cli(SETUP_ARGV, f"{workload}-setup{i}")
            gate.cli(gate.golden[workload]["setup"], rep)
            setups.append(rep["wall_s"])
        else:
            rep = run_worker(workload, seed, f"{workload}-setup{i}", setup_only=True)
            if rep["result"] is not None:
                setups.append(rep["setup_s"])
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        tag = f"{workload}-rep{len(reps)}"
        if workload == "oracle-sweep":
            rep = run_sweep(sweep_argv(seed), tag)
            gate.cli(gate.golden[workload]["jobs"]["sweep"], rep)
        else:
            rep = run_worker(workload, seed, tag, ref=True)
            gate.worker(workload, rep)
            if rep["result"] is not None:
                setups.append(rep["setup_s"])
        reps.append(rep)
    done = [r for r in reps if r["ref" if workload == "oracle-sweep" else "result"] is not None]
    if not setups or not done:
        raise Fail(f"no repetition of {workload} finished; see {OUT}")
    # The host's speed drifts by more than the bounds allow, so timed work
    # is divided by the reference loop timed in the same process, and the
    # ratios are medians over the repetitions.  In-process jobs are timed
    # one by one; a sweep is one process, divided by its mean sample.
    if workload == "oracle-sweep":
        wall_ref = statistics.median(
            r["wall_s"] / statistics.mean(r["ref"]["samples"]) for r in done)
        wall_min = min(r["wall_s"] for r in done)
        ref_samples = [x for r in done for x in r["ref"]["samples"]]
    else:
        done = [r["result"] for r in done]
        # A job that raised has no time; it is already a failed verdict.
        job_ids = sorted({j for d in done for j in d["job_ref"]})
        wall_ref = sum(statistics.median(d["job_ref"][j] for d in done if j in d["job_ref"])
                       for j in job_ids)
        wall_min = sum(min(d["job_s"][j] for d in done if j in d["job_s"]) for j in job_ids)
        ref_samples = [x for d in done for x in d["ref_samples"]]
    values = {
        "wall_ref": wall_ref,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "verified_frac": 1 - gate.failed / gate.attempted,
    }
    notes = {"repetitions": len(reps), "setup_samples": len(setups), "wall_s_min": wall_min,
             "ref_pass_s": statistics.median(ref_samples)}
    return values, notes


def traced_pass(workload: str, seed: int, gate: Gate) -> tuple[dict, dict]:
    """Per-layer metrics from one traced repetition, plus its untraced twin."""
    from jobs import sweep_argv
    from tracing import first_child_delay, self_times

    base = run_worker(workload, seed, f"{workload}-untraced", microbench=MICROBENCH_PAIRS)
    gate.worker(workload, base)
    trace_path = OUT / f"spans-{workload}-{seed}.json"
    traced = run_worker(workload, seed, f"{workload}-traced", trace=trace_path)
    gate.worker(workload, traced)
    if base["result"] is None or traced["result"] is None:
        raise Fail(f"a {workload} worker failed; see {OUT}")
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    spans, counts = trace["spans"], trace["counts"]
    seconds, calls = self_times(spans)

    metrics = {
        "ffield.mul_calls": counts.get("ffield.mul", 0),
        "ffield.add_calls": counts.get("ffield.add", 0),
        "ffield.mul_ns": base["result"]["mul_ns"],
        "ffield.make_field_s": seconds["ffield.make_field"],
        "ffield.elements_enumerated": counts.get("ffield.elements", 0),
        "mpoly.mul_s": seconds["mpoly.mul"],
        "mpoly.mul_calls": calls["mpoly.mul"],
        "mpoly.mul_term_pairs": counts.get("mpoly.mul_term_pairs", 0),
        "mpoly.exact_divide_s": seconds["mpoly.exact_divide"],
        "mpoly.exact_divide_calls": calls["mpoly.exact_divide"],
        "mpoly.substitute_s": seconds["mpoly.substitute"],
        "mpoly.substitute_calls": calls["mpoly.substitute"],
        "mpoly.peak_terms": counts.get("mpoly.peak_terms", 0),
        "vschur.t_poly_s": seconds["vschur.t_poly"],
        "vschur.r_poly_s": seconds["vschur.r_poly"],
        "vschur.schur_bialternant_s": seconds["vschur.schur_bialternant"],
        "vschur.unity_check_skips": traced["result"]["unity_check_skips"],
        "factor.verify_fact_s": seconds["factor.verify_fact"],
        "factor.linear_factors_s": seconds["factor.linear_factors"],
        "newton.oracle_s": seconds["newton.oracle"],
        "newton.oracle_elements": counts.get("newton.oracle_elements", 0),
        "trace.overhead_s": traced["result"]["wall_s"] - base["result"]["wall_s"],
    }
    # A swept form either annihilates the polynomial (a factor found, tried
    # again for multiplicity) or ends its loop: forms = substitutions - hits.
    hits = counts.get("factor.annihilated", 0)
    forms = counts.get("factor.substitutions", 0) - hits
    metrics["factor.forms_tried"] = forms
    metrics["factor.form_hit_ratio"] = hits / forms if forms else 0.0

    cli = {"cli.startup_s": 0.0, "cli.self_s": 0.0, "cli.points": 0, "cli.skips": 0,
           "cli.jobs2_over_jobs1": 0.0}
    if workload == "oracle-sweep":
        want = gate.golden[workload]["jobs"]["sweep"]
        jobs1 = run_cli(sweep_argv(seed, jobs=1), f"{workload}-jobs1")
        gate.cli(want, jobs1)
        jobs2 = run_cli(sweep_argv(seed, jobs=2), f"{workload}-jobs2")
        gate.cli(want, jobs2)
        try:  # a broken summary line is already a failed verdict
            summary = json.loads(jobs1["stdout"].decode().splitlines()[-1])
        except (ValueError, IndexError):
            summary = {}
        cli = {
            "cli.startup_s": traced["result"]["cli_import_s"] + first_child_delay(spans, "cli.main"),
            "cli.self_s": seconds["cli.main"],
            "cli.points": summary.get("pass", 0) + summary.get("fail", 0),
            "cli.skips": summary.get("skip", 0),
            "cli.jobs2_over_jobs1": jobs2["wall_s"] / jobs1["wall_s"],
        }
    metrics.update(cli)
    return metrics, {}


def long_tier(seed: int, gate: Gate) -> tuple[dict, dict]:
    """Every row of the ROADMAP baseline table, one fresh process per row."""
    from jobs import LONG_CLI, LONG_JOBS, sweep_argv

    metrics = {}
    for job_id, _kind, _args in LONG_JOBS:
        rep = run_worker("long", seed, "long-row", only=job_id)
        gate.worker("long", rep, only=job_id)
        metrics[job_id] = rep["result"]["wall_s"] if rep["result"] else rep["wall_s"]
        print(f"  {job_id:<28} {metrics[job_id]:10.3f} s", flush=True)
    metrics["eq2(2,4).product"] = metrics["eq2(2,4)"] - metrics["eq2(2,4).t_poly"]
    rows = list(LONG_CLI) + [
        (f"cli sweep degree --jobs {j}", tuple(sweep_argv(seed, jobs=j))) for j in (1, 2)
    ]
    for name, argv in rows:
        rep = run_cli(argv, "long-cli")
        want = gate.golden["long"]["cli"].get(name) or gate.golden["oracle-sweep"]["jobs"]["sweep"]
        gate.cli(want, rep)
        metrics[name] = rep["wall_s"]
        print(f"  {name:<28} {metrics[name]:10.3f} s", flush=True)
    return metrics, {}


# ---------------------------------------------------------------------------
# reporting


def git_sha() -> str:
    """The checked-out commit, read from .git; "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int, tier: str, workload: str | None, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "tier": tier,
        "workload": workload,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the untraced pass repeats the job list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tier", choices=("pipeline", "long"), default="pipeline")
    args = parser.parse_args(argv)
    # A SIGTERM becomes SystemExit, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.tier == "pipeline" and args.workload is None:
        parser.error("--workload is required for the pipeline tier")

    if not (SRC / "schurlab" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'schurlab'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        gate = Gate(json.load(fh))

    try:
        if args.tier == "long":
            values, notes = long_tier(args.seed, gate)
            units = {name: "s" for name in values}
        elif args.trace:
            values, notes = traced_pass(args.workload, args.seed, gate)
            units = PER_LAYER
        else:
            values, notes = timed_pass(args.workload, args.seed, args.seconds, gate)
            units = END_TO_END
    except Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = stamp(args.seed, args.tier, args.workload, args.trace)
    info.update(notes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    tag = args.workload or args.tier
    with open(OUT / f"result-{tag}-{args.seed}-{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, **result}, fh, indent=1)
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print("stamp " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
