"""Workload definitions: the job lists, what the seed selects, and the
canonical output of every job that the correctness gate compares.

Each job is ``(job_id, kind, args)``.  ``run_job`` performs the library
work that is timed; ``canonical`` turns its result into a small JSON value
that must equal the one recorded in ``golden.json``.  Library calls go
through module attributes (``factor.verify_fact_eq1``, not a name imported
here) so that the wrappers the traced pass installs see every call.

The seed never changes the amount of work.  It selects:

* ``splitting``, ``rational``: the order in which the fixed job list runs;
* ``rational``: the evaluation points of the identity spot checks;
* ``oracle-sweep``: one of several equivalent spellings of the sweep grid
  (the CLI sorts the grid, so its stdout bytes do not change);
* the traced pass: the operands of the field-multiplication microbench.
"""

from __future__ import annotations

import hashlib
import json
import random

from schurlab import factor, ffield, mpoly, newton, vschur

# --- splitting: closed-form splittings and linear-factor sweeps over F_{p^r}
EQ1_POINTS = ((2, 5), (2, 6), (3, 3), (5, 2), (7, 2), (13, 1))
EQ2_POINTS = ((2, 3), (7, 1), (5, 1))
# (A, B, p, r): T(A, B) over F_{p^r}.  The (q, 1) quotients over F_q split
# into linear factors; the last two have none, so their sweeps are pure
# wasted attempts.
SWEEP_INPUTS = ((16, 1, 2, 4), (25, 1, 5, 2), (13, 1, 13, 1), (11, 4, 13, 1), (10, 3, 7, 1))

# --- rational: few large quotients over Q, then the identity battery
TPOLY_PAIRS = ((300, 1), (200, 1), (150, 64), (90, 56))
IDENTITY_MAX_A = 24
IDENTITY_SAMPLES = 2

# --- oracle-sweep: the CLI degree sweep, run as a subprocess
SWEEP_P_SPELLINGS = ("2,3,5", "5,3,2", "3,2,5", "2,5,3", "5,2,3", "3,5,2")
SWEEP_R_SPELLINGS = (
    "2:11",
    "2:6,7:11",
    "2,3,4,5,6,7,8,9,10,11",
    "2:4,5:8,9:11",
    "11,10,9,8,7,6,5,4,3,2",
    "2:3,4:11",
)
SWEEP_CEILING = "60000"
SETUP_ARGV = ("degree", "--p", "3", "--r", "3", "--s", "1", "--mode", "formula")

# Fields made during set-up, and the largest one, used for the microbench.
FIELDS = {
    "splitting": sorted(
        set(EQ1_POINTS) | set(EQ2_POINTS) | {(p, r) for _, _, p, r in SWEEP_INPUTS}
    ),
    "rational": [],
    "oracle-sweep": [],
}
MICROBENCH_FIELD = {"splitting": (2, 6), "rational": None, "oracle-sweep": (3, 10)}

# --- long tier: the rows of the ROADMAP baseline table.  In-process rows
# run one per fresh interpreter; CLI rows are subprocesses.
LONG_JOBS = (
    ("eq1(2,7)", "eq1", (2, 7)),
    ("eq1(5,3)", "eq1", (5, 3)),
    ("eq1(3,4)", "eq1", (3, 4)),
    ("eq2(2,4).t_poly", "tpoly_ff", (255, 15, 2, 4)),
    ("eq2(2,4)", "eq2", (2, 4)),
    ("factor T(27,1)/F27", "lf", (27, 1, 3, 3)),
    ("factor T(16,1)/F16", "lf", (16, 1, 2, 4)),
    ("oracle(3,11,1)", "oracle", (3, 11, 1)),
    ("oracle(2,17,1)", "oracle", (2, 17, 1)),
    ("oracle(5,8,1)", "oracle", (5, 8, 1)),
    ("t_poly(400,1)", "tpoly", (400, 1)),
)
LONG_CLI = (
    ("cli verify-fact eq2 3 3", ("verify-fact", "--which", "eq2", "--p", "3", "--r", "3", "--format", "json")),
)


def jobs_for(workload: str, seed: int) -> list[tuple]:
    """The job list of an in-process workload, in the order the seed picks."""
    if workload == "splitting":
        jobs = [(f"eq1({p},{r})", "eq1", (p, r)) for p, r in EQ1_POINTS]
        jobs += [(f"eq2({p},{r})", "eq2", (p, r)) for p, r in EQ2_POINTS]
        jobs += [(f"factor T({A},{B})/F({p}^{r})", "lf", (A, B, p, r)) for A, B, p, r in SWEEP_INPUTS]
    elif workload == "rational":
        jobs = [(f"t_poly({A},{B})", "tpoly", (A, B)) for A, B in TPOLY_PAIRS]
        jobs += [
            (f"identity({A},{B})", "identity", (A, B, seed))
            for A in range(2, IDENTITY_MAX_A + 1)
            for B in range(1, A)
        ]
    elif workload == "oracle-sweep":
        return [("sweep", "cli", tuple(sweep_argv(seed)))]
    elif workload == "long":
        return list(LONG_JOBS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs


def sweep_argv(seed: int, jobs: int | None = None) -> list[str]:
    rng = random.Random(seed)
    argv = [
        "sweep", "degree",
        "--p", rng.choice(SWEEP_P_SPELLINGS),
        "--r", rng.choice(SWEEP_R_SPELLINGS),
        "--ceiling", SWEEP_CEILING,
        "--format", "json",
    ]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stdout_record(rc: int, data: bytes) -> dict:
    """Canonical form of one CLI invocation: exit code and stdout digests."""
    lines = data.decode("utf-8", "replace").splitlines()
    return {
        "exit": rc,
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": [hashlib.sha256(line.encode()).hexdigest()[:16] for line in lines],
    }


# ---------------------------------------------------------------------------
# job execution


def _identity(A: int, B: int, seed: int) -> tuple:
    """The checks ``schurlab identity --chars 0`` makes for one pair."""
    e = vschur.ExponentPair(A, B)
    T = vschur.t_poly(e)
    R = vschur.r_poly(e)
    V = vschur.vandermonde(e.d)
    checks = {
        "roundtrip": T * V == R,
        "schur": T == vschur.schur_bialternant(e.partition, e.d),
        "symmetric": mpoly.is_symmetric3(T),
    }
    if B == 1:
        checks["complete_homogeneous"] = T == vschur.complete_homogeneous(A - 2)
    rng = random.Random(f"{seed}/{A}/{B}")
    spot = True
    for _ in range(IDENTITY_SAMPLES):
        for _attempt in range(20):
            point = tuple(rng.randint(1, 19) for _ in range(3))
            v = V.evaluate(point)
            if v != 0:
                break
        else:
            continue
        if T.evaluate(point) * v != R.evaluate(point):
            spot = False
    checks["eval"] = spot
    return checks, T


def run_job(kind: str, args: tuple):
    """The timed library work of one job."""
    if kind == "eq1":
        return factor.verify_fact_eq1(*args)
    if kind == "eq2":
        return factor.verify_fact_eq2(*args)
    if kind == "lf":
        A, B, p, r = args
        spec = ffield.make_field(p, r)
        return factor.linear_factors_over(vschur.t_poly(vschur.ExponentPair(A, B, spec)), spec)
    if kind == "tpoly":
        return vschur.t_poly(vschur.ExponentPair(*args))
    if kind == "tpoly_ff":
        A, B, p, r = args
        return vschur.t_poly(vschur.ExponentPair(A, B, ffield.make_field(p, r)))
    if kind == "identity":
        return _identity(*args)
    if kind == "oracle":
        return newton.degree_of_extension(newton.TowerParams(*args), mode="both")
    raise ValueError(f"unknown job kind {kind!r}")


def canonical(kind: str, result) -> dict:
    """The part of a job's result that the correctness gate compares."""
    if kind in ("eq1", "eq2"):
        ok, report = result
        return {"ok": ok, "factor_count": report.factor_count(), "report": digest(report.to_json())}
    if kind == "lf":
        return {
            "factor_count": result.factor_count(),
            "residual_degree_in_z": result.residual_degree_in_z,
            "fully_split": result.fully_split,
            "report": digest(result.to_json()),
        }
    if kind in ("tpoly", "tpoly_ff"):
        return {"terms": result.num_terms(), "poly": digest(result.to_json_terms())}
    if kind == "identity":
        checks, T = result
        return {"checks": checks, "poly": digest(T.to_json_terms())}
    if kind == "oracle":
        return result.to_json()
    raise ValueError(f"unknown job kind {kind!r}")


def microbench_operands(workload: str, seed: int, n: int) -> list[tuple]:
    """Seeded operand pairs on the workload's largest field; [] if it has none."""
    p_r = MICROBENCH_FIELD[workload]
    if p_r is None:
        return []
    spec = ffield.make_field(*p_r)
    rng = random.Random(seed)

    def element():
        return spec.element([rng.randrange(spec.p) for _ in range(spec.r)])

    return [(element(), element()) for _ in range(n)]

