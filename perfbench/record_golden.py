"""Record golden.json: the verdicts and output digests the benchmark gates on.

    python3 perfbench/record_golden.py [--long]

Runs each workload once with seed 0 and checks the recorded outputs against
what the paper states before writing them: eq1 passes with q - 2 factors,
eq2 with (q - 1)^2, the (q, 1) quotients split over F_q and the other sweep
inputs do not, every identity check holds, and every sweep point passes or
is skipped over the ceiling.  ``--long`` also records the long tier, which
takes several minutes; without it the long entries already in the file are
kept.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

GOLDEN = run.HERE / "golden.json"


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"golden check failed: {what}")


def _worker_outputs(workload: str, only: str | None = None) -> dict:
    rep = run.run_worker(workload, 0, f"golden-{workload}", only=only)
    _expect(rep["result"] is not None, f"{workload} worker exited {rep['rc']}")
    return rep["result"]["outputs"]


def _cli_record(argv) -> dict:
    from jobs import stdout_record

    rep = run.run_cli(argv, "golden-cli")
    record = stdout_record(rep["rc"], rep["stdout"])
    _expect(rep["rc"] == 0, f"{' '.join(argv)} exited {rep['rc']}")
    return record, rep["stdout"].decode()


def _check_splitting(outputs: dict) -> None:
    import jobs

    for kind, points in (("eq1", jobs.EQ1_POINTS), ("eq2", jobs.EQ2_POINTS)):
        for p, r in points:
            q = p**r
            out = outputs[f"{kind}({p},{r})"]
            want = q - 2 if kind == "eq1" else (q - 1) ** 2
            _expect(out["ok"] and out["factor_count"] == want, f"{kind}({p},{r}) -> {out}")
    for A, B, p, r in jobs.SWEEP_INPUTS:
        out = outputs[f"factor T({A},{B})/F({p}^{r})"]
        splits = B == 1 and A == p**r
        _expect(out["fully_split"] == splits, f"T({A},{B}) over F({p}^{r}) -> {out}")
        if splits:
            _expect(out["factor_count"] == A - 2, f"T({A},1) factor count {out}")


def _check_rational(outputs: dict) -> None:
    for job_id, out in outputs.items():
        if job_id.startswith("identity"):
            _expect(all(out["checks"].values()), f"{job_id} -> {out}")
        else:
            _expect("terms" in out, f"{job_id} -> {out}")


def _check_sweep(text: str) -> None:
    lines = [json.loads(line) for line in text.splitlines()]
    for record in lines[:-1]:
        verdict = record["verdict"]
        _expect(verdict == "pass" or (verdict == "skip" and record["reason"] == "ceiling"),
                f"sweep point {record}")
    _expect(lines[-1]["fail"] == 0, f"sweep summary {lines[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record golden.json")
    parser.add_argument("--long", action="store_true", help="also record the long tier")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    import jobs

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden["splitting"] = {"jobs": _worker_outputs("splitting")}
    _check_splitting(golden["splitting"]["jobs"])
    golden["rational"] = {"jobs": _worker_outputs("rational")}
    _check_rational(golden["rational"]["jobs"])

    sweep, text = _cli_record(jobs.sweep_argv(0))
    _check_sweep(text)
    setup, _ = _cli_record(jobs.SETUP_ARGV)
    golden["oracle-sweep"] = {"jobs": {"sweep": sweep}, "setup": setup}

    if args.long:
        long_jobs = {}
        for job_id, kind, _args in jobs.LONG_JOBS:
            long_jobs.update(_worker_outputs("long", only=job_id))
            out = long_jobs[job_id]
            _expect("error" not in out, f"{job_id} -> {out}")
            _expect(out.get("ok", out.get("fully_split", out.get("agree", True))) is True,
                    f"{job_id} -> {out}")
            print(f"recorded {job_id}", flush=True)
        long_cli = {name: _cli_record(argv)[0] for name, argv in jobs.LONG_CLI}
        golden["long"] = {"jobs": long_jobs, "cli": long_cli}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
