"""Batch command-line frontend: construct, verify, sweep, report.

Every command writes machine-readable records (one JSON object per line,
or TSV rows, or terse text) and exits 0 only when every verdict passed,
1 when something failed, 2 on usage or configuration errors.  Output is
byte-identical for identical configuration and seed.

Examples::

    schurlab tpoly --A 3 --B 1 --char 0
    schurlab verify-fact --which eq1 --p 3 --r 1
    schurlab degree --p 3 --r 3 --s 1 --mode both
    schurlab sweep verify-fact --which eq1 --p 2,3,5 --r 1:2
    schurlab counterexample --p 3 --m 1,4,28,10
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .ffield import DESK_CEILING, field_for, is_prime, make_field
from .mpoly import is_symmetric3
from .vschur import (
    ExponentPair,
    Partition3,
    complete_homogeneous,
    r_poly,
    schur_bialternant,
    t_poly,
    vandermonde,
)
from .factor import (
    SWEEP_CEILING,
    linear_factors_over,
    signature_witness,
    verify_fact_eq1,
    verify_fact_eq2,
)
from .newton import (
    DIRECT_EXPANSION_CAP,
    TowerParams,
    frobenius_power_shape,
    build_alternative_pair,
    degree_of_extension,
    verify_newton_identity,
)

CEILING_ENV = "SCHURLAB_CEILING"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    """One resolved invocation: command, parameters and global knobs."""

    command: str
    parameters: dict
    output_format: str = "text"
    ceiling: int = DESK_CEILING
    seed: int = 0
    strict: bool = False
    jobs: int = 1


class Emitter:
    """Streams records in the selected format.

    TSV repeats the header whenever the record shape changes, so runs that
    mix record kinds (a sweep and its summary, say) stay parseable.
    """

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self._tsv_keys = None

    def emit(self, record: dict, text: str):
        if self.fmt == "json":
            self.out.write(json.dumps(record, sort_keys=True) + "\n")
        elif self.fmt == "tsv":
            keys = list(record.keys())
            if keys != self._tsv_keys:
                self._tsv_keys = keys
                self.out.write("\t".join(keys) + "\n")
            self.out.write("\t".join(_tsv_cell(record[k]) for k in keys) + "\n")
        else:
            self.out.write(text + "\n")


def _tsv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _kv(record: dict) -> str:
    return " ".join(f"{k}={_tsv_cell(v)}" for k, v in record.items() if v is not None)


def _field_from(char: int, ext: int):
    if char == 0 and ext != 1:
        raise ValueError("--ext is only meaningful with a prime --char")
    return field_for(char, ext)


def _parse_int_set(text: str) -> list[int]:
    """Comma lists and lo:hi inclusive ranges: '2,3,5' or '1:4' or '1:2,7'."""
    out = set()
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            lo, hi = chunk.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {chunk!r}")
            out.update(range(lo, hi + 1))
        else:
            out.add(int(chunk))
    if not out:
        raise ValueError(f"empty grid component {text!r}")
    return sorted(out)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_poly(config: RunConfig, emitter: Emitter) -> int:
    p = config.parameters
    fieldv = _field_from(p["char"], p["ext"])
    if config.command == "tpoly":
        e = ExponentPair(p["A"], p["B"], fieldv)
        poly = t_poly(e)
        extra = {"A": e.A, "B": e.B, "d": e.d}
    elif config.command == "rpoly":
        e = ExponentPair(p["A"], p["B"], fieldv)
        poly = r_poly(e)
        extra = {"A": e.A, "B": e.B, "d": e.d}
    else:  # schur
        part = Partition3((p["l1"], p["l2"], p["l3"]))
        poly = schur_bialternant(part, p["d"], fieldv)
        extra = {"partition": list(part.parts), "d": p["d"]}
    record = {
        "command": config.command,
        **extra,
        "char": p["char"],
        "ext": p["ext"],
        "poly": poly.to_text(),
        "terms": poly.to_json_terms(),
    }
    emitter.emit(record, poly.to_text())
    return EXIT_PASS


def _cmd_factor(config: RunConfig, emitter: Emitter) -> int:
    p = config.parameters
    spec = make_field(p["p"], p["r"])
    e = ExponentPair(p["A"], p["B"], spec)
    report = linear_factors_over(t_poly(e), spec, ceiling=min(config.ceiling, p["sweep_ceiling"]))
    record = {
        "command": "factor",
        "A": e.A,
        "B": e.B,
        "p": p["p"],
        "r": p["r"],
        "factors": report.to_json()["linear_factors"],
        "factor_count": report.factor_count(),
        "residual_degree_in_z": report.residual_degree_in_z,
        "fully_split": report.fully_split,
    }
    text = _kv(
        {
            "factors": report.factor_count(),
            "residual_degree": report.residual_degree_in_z,
            "fully_split": report.fully_split,
        }
    )
    emitter.emit(record, text)
    return EXIT_PASS


def _cmd_signature(config: RunConfig, emitter: Emitter) -> int:
    p = config.parameters
    spec = make_field(p["p"], p["r"])
    e = ExponentPair(p["A"], p["B"], spec)
    witnesses = signature_witness(e)
    all_true = all(w.verdict for w in witnesses)
    record = {
        "command": "signature",
        "A": e.A,
        "B": e.B,
        "p": p["p"],
        "r": p["r"],
        "witnesses": [w.to_json() for w in witnesses],
        "all_verdicts_true": all_true,
    }
    text = _kv(
        {
            "witnesses": len(witnesses),
            "lower": sum(1 for w in witnesses if w.kind == "lower"),
            "upper": sum(1 for w in witnesses if w.kind == "upper"),
            "all_verdicts_true": all_true,
        }
    )
    emitter.emit(record, text)
    return EXIT_PASS if all_true else EXIT_FAIL


def _verify_fact_point(which: str, p: int, r: int) -> dict:
    ok, report = (verify_fact_eq1 if which == "eq1" else verify_fact_eq2)(p, r)
    return {
        "command": "verify-fact",
        "which": which,
        "p": p,
        "r": r,
        "verdict": "pass" if ok else "fail",
        "factor_count": report.factor_count(),
    }


def _cmd_verify_fact(config: RunConfig, emitter: Emitter) -> int:
    p = config.parameters
    record = _verify_fact_point(p["which"], p["p"], p["r"])
    text = _kv({k: record[k] for k in ("verdict", "which", "p", "r", "factor_count")})
    emitter.emit(record, text)
    return EXIT_PASS if record["verdict"] == "pass" else EXIT_FAIL


def _cmd_counterexample(config: RunConfig, emitter: Emitter) -> int:
    p = config.parameters
    pair = build_alternative_pair(p["p"], p.get("eta"))
    pair_record = {
        "command": "counterexample",
        "p": p["p"],
        **pair.to_json(),
    }
    emitter.emit(pair_record, _kv({"p": p["p"], "alpha": pair.alpha.token()}))
    status = EXIT_PASS
    for m in p["m"]:
        modes = []
        verdicts = []
        wants = ("direct", "frobenius_shortcut") if p["mode"] == "both" else (p["mode"],)
        for mode in wants:
            if mode == "direct" and m > DIRECT_EXPANSION_CAP:
                if p["mode"] != "both":
                    raise ValueError(f"m={m} too large for direct expansion")
                continue
            if mode == "frobenius_shortcut" and frobenius_power_shape(m, p["p"]) is None:
                if p["mode"] != "both":
                    raise ValueError(
                        f"m={m} is not of the p^j + 1 shape the shortcut needs"
                    )
                continue
            verdicts.append(verify_newton_identity(pair, m, mode))
            modes.append(mode)
        if not modes:
            raise ValueError(f"no applicable mode for m={m}")
        if len(set(verdicts)) > 1:
            raise ArithmeticError(f"modes disagree at m={m}: {dict(zip(modes, verdicts))}")
        verdict = verdicts[0]
        record = {
            "command": "counterexample",
            "p": p["p"],
            "m": m,
            "modes": modes,
            "identity_holds": verdict,
        }
        emitter.emit(record, _kv({"m": m, "identity_holds": verdict, "modes": ",".join(modes)}))
        if not verdict:
            status = EXIT_FAIL
    return status


def _degree_point(p: int, r: int, s: int, mode: str, ceiling: int) -> dict:
    report = degree_of_extension(TowerParams(p, r, s), mode=mode, ceiling=ceiling)
    record = {"command": "degree", **report.to_json(), "mode": mode}
    return record


def _cmd_degree(config: RunConfig, emitter: Emitter) -> int:
    p = config.parameters
    record = _degree_point(p["p"], p["r"], p["s"], p["mode"], config.ceiling)
    text = _kv(
        {
            k: record[k]
            for k in ("formula", "oracle", "agree")
            if record.get(k) is not None
        }
    )
    emitter.emit(record, text)
    if p["mode"] == "both" and not record["agree"]:
        return EXIT_FAIL
    return EXIT_PASS


def _cmd_identity(config: RunConfig, emitter: Emitter) -> int:
    p = config.parameters
    rng = random.Random(config.seed)
    status = EXIT_PASS
    for char in p["chars"]:
        fieldv = _field_from(char, 1)
        for A in range(2, p["max_a"] + 1):
            for B in range(1, A):
                e = ExponentPair(A, B, fieldv)
                T = t_poly(e)
                R = r_poly(e)
                V = vandermonde(e.d, fieldv)
                checks = {
                    "roundtrip": T * V == R,
                    "schur": T == schur_bialternant(e.partition, e.d, fieldv),
                    "symmetric": is_symmetric3(T),
                }
                if B == 1:
                    checks["complete_homogeneous"] = T == complete_homogeneous(A - 2, fieldv)
                checks["eval"] = _identity_spot_check(T, R, V, fieldv, rng, p["samples"])
                ok = all(checks.values())
                record = {
                    "command": "identity",
                    "char": char,
                    "A": A,
                    "B": B,
                    **{k: v for k, v in checks.items()},
                    "verdict": "pass" if ok else "fail",
                }
                emitter.emit(
                    record,
                    _kv({"char": char, "A": A, "B": B, "verdict": record["verdict"]}),
                )
                if not ok:
                    status = EXIT_FAIL
    return status


def _identity_spot_check(T, R, V, fieldv, rng, samples: int) -> bool:
    """Evaluate T * V == R at random points where V does not vanish."""
    for _ in range(samples):
        for _attempt in range(20):
            if fieldv.p == 0:
                point = tuple(rng.randint(1, 19) for _ in range(3))
            else:
                point = tuple(rng.randrange(fieldv.p) for _ in range(3))
            v = V.evaluate(point)
            if v:
                break
        else:
            continue  # tiny field with V vanishing at every sampled point
        if T.evaluate(point) * v != R.evaluate(point):
            return False
    return True


def _cmd_sweep(config: RunConfig, emitter: Emitter) -> dict:
    """Run every grid point; returns the pass/fail/skip counts."""
    p = config.parameters
    target = p["target"]
    points = []
    if target == "verify-fact":
        if not p.get("which"):
            raise ValueError("sweep verify-fact needs --which eq1|eq2")
        for pp in p["p"]:
            for rr in p["r"]:
                points.append({"which": p["which"], "p": pp, "r": rr})
    elif target == "degree":
        for pp in p["p"]:
            for rr in p["r"]:
                ss = p["s"] if p.get("s") else range(1, rr)
                for s in ss:
                    if s < rr:
                        points.append({"p": pp, "r": rr, "s": s})
    else:
        raise ValueError(f"unknown sweep target {target!r}")
    if not points:
        raise ValueError("the sweep grid is empty")
    for pp in p["p"]:
        if not is_prime(pp):
            raise ValueError(f"p must be prime, got {pp}")

    result_keys = ("factor_count",) if target == "verify-fact" else ("formula", "oracle")

    def run_point(pt: dict) -> dict:
        base = {"target": target, **pt, "verdict": None, **dict.fromkeys(result_keys),
                "reason": None}
        try:
            if target == "verify-fact":
                size = pt["p"] ** (pt["r"] if pt["which"] == "eq1" else 2 * pt["r"])
            else:
                size = pt["p"] ** (pt["r"] - pt["s"])
            if size > config.ceiling:
                return {**base, "verdict": "skip", "reason": "ceiling"}
            if target == "verify-fact":
                record = _verify_fact_point(pt["which"], pt["p"], pt["r"])
                verdict = record["verdict"]
            else:
                record = _degree_point(pt["p"], pt["r"], pt["s"], "both", config.ceiling)
                verdict = "pass" if record["agree"] else "fail"
            return {**base, "verdict": verdict, **{k: record[k] for k in result_keys}}
        except ValueError as exc:
            return {**base, "verdict": "skip", "reason": str(exc)}

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(run_point, points))
    else:
        results = [run_point(pt) for pt in points]

    summary = {"pass": 0, "fail": 0, "skip": 0}
    for record in results:
        summary[record["verdict"] if record["verdict"] in ("pass", "skip") else "fail"] += 1
        emitter.emit(record, _kv(record))
    summary_record = {"command": "sweep", "target": target, **summary, "points": len(points)}
    emitter.emit(summary_record, _kv(summary_record))
    return summary


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurlab",
        description="Exact determinant-quotient polynomials, their factorizations "
        "and the power-sum degree formulas, over the rationals or F_{p^r}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "tsv", "text"), default=None,
                        help="output format (default text)")
        sp.add_argument("--ceiling", type=int, default=None,
                        help=f"field-size cap (default ${CEILING_ENV} or {DESK_CEILING})")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed for randomized spot checks (default 0)")
        sp.add_argument("--strict", action="store_true",
                        help="treat skipped grid points as failures")
        sp.add_argument("--config", default=None,
                        help="JSON file supplying any of the flag values")

    for name in ("tpoly", "rpoly"):
        sp = sub.add_parser(name, help=f"print the {name[0].upper()} polynomial for (A, B)")
        sp.add_argument("--A", type=int, default=None)
        sp.add_argument("--B", type=int, default=None)
        sp.add_argument("--char", type=int, default=None, help="0 for rationals, else a prime")
        sp.add_argument("--ext", type=int, default=None, help="extension degree (default 1)")
        common(sp)

    sp = sub.add_parser("schur", help="print the bialternant for a partition")
    sp.add_argument("--l1", type=int, default=None)
    sp.add_argument("--l2", type=int, default=None)
    sp.add_argument("--l3", type=int, default=None)
    sp.add_argument("--d", type=int, default=None, help="evaluate at X^d, Y^d, Z^d (default 1)")
    sp.add_argument("--char", type=int, default=None)
    sp.add_argument("--ext", type=int, default=None)
    common(sp)

    sp = sub.add_parser("factor", help="sweep linear factors of the (A, B) quotient over F_{p^r}")
    sp.add_argument("--A", type=int, default=None)
    sp.add_argument("--B", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--sweep-ceiling", dest="sweep_ceiling", type=int, default=None,
                    help=f"cap on field order for the quadratic sweep (default {SWEEP_CEILING})")
    common(sp)

    sp = sub.add_parser("signature", help="signature witnesses for the (A, B) quotient")
    sp.add_argument("--A", type=int, default=None)
    sp.add_argument("--B", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    common(sp)

    sp = sub.add_parser("verify-fact", help="check a closed-form factorization")
    sp.add_argument("--which", choices=("eq1", "eq2"), default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    common(sp)

    sp = sub.add_parser("counterexample", help="build the alternative pair and test identities")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--eta", type=int, default=None, help="override the scanned eta (odd p)")
    sp.add_argument("--m", default=None, help="comma list of exponents, e.g. 1,4,28")
    sp.add_argument("--mode", choices=("direct", "frobenius_shortcut", "both"), default=None)
    common(sp)

    sp = sub.add_parser("degree", help="extension degree by formula and/or counting oracle")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--mode", choices=("formula", "oracle", "both"), default=None)
    common(sp)

    sp = sub.add_parser("identity", help="verify the construction identities on a grid")
    sp.add_argument("--max-a", dest="max_a", type=int, default=None)
    sp.add_argument("--chars", default=None, help="comma list of characteristics (default 0,3)")
    sp.add_argument("--samples", type=int, default=None, help="random evaluation points per pair")
    common(sp)

    sp = sub.add_parser("sweep", help="run a verification over a parameter grid")
    sp.add_argument("target", choices=("verify-fact", "degree"))
    sp.add_argument("--which", choices=("eq1", "eq2"), default=None)
    sp.add_argument("--p", default=None, help="grid values, e.g. 2,3,5")
    sp.add_argument("--r", default=None, help="grid values, e.g. 1:2")
    sp.add_argument("--s", default=None, help="grid values; defaults to 1..r-1")
    sp.add_argument("--jobs", type=int, default=None, help="concurrent points (default 1)")
    common(sp)

    return parser


_GLOBAL_DEFAULTS = {
    "format": "text",
    "seed": 0,
    "jobs": 1,
    "mode": "both",
    "ext": 1,
    "char": 0,
    "d": 1,
    "max_a": 8,
    "chars": "0,3",
    "samples": 2,
    "sweep_ceiling": SWEEP_CEILING,
}

_REQUIRED = {
    "tpoly": ("A", "B"),
    "rpoly": ("A", "B"),
    "schur": ("l1", "l2", "l3"),
    "factor": ("A", "B", "p", "r"),
    "signature": ("A", "B", "p", "r"),
    "verify-fact": ("which", "p", "r"),
    "counterexample": ("p", "m"),
    "degree": ("p", "r", "s"),
    "identity": (),
    "sweep": ("p", "r"),
}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values = vars(args).copy()
    if values.get("config"):
        with open(values["config"], "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("--config must hold a JSON object")
        for key, val in loaded.items():
            dest = key.replace("-", "_")
            if dest not in values or dest in ("command", "config"):
                raise ValueError(f"unknown config key {key!r}")
            if values[dest] is None:
                values[dest] = val
    for key, val in values.items():
        if val is None and key in _GLOBAL_DEFAULTS:
            values[key] = _GLOBAL_DEFAULTS[key]
    if values.get("ceiling") is None:
        values["ceiling"] = int(os.environ.get(CEILING_ENV, DESK_CEILING))
    if values["ceiling"] < 2:
        raise ValueError("--ceiling must be at least 2")
    missing = [k for k in _REQUIRED[values["command"]] if values.get(k) is None]
    if missing:
        raise ValueError(f"missing required parameters: {', '.join(missing)}")
    for key in ("m", "chars"):
        if isinstance(values.get(key), str):
            values[key] = _parse_int_set(values[key])
    if values["command"] == "sweep":
        for key in ("p", "r", "s"):
            if values.get(key) is not None:
                values[key] = _parse_int_set(values[key])
    params = {
        k: v
        for k, v in values.items()
        if k not in ("format", "ceiling", "seed", "strict", "config", "jobs", "command")
    }
    return RunConfig(
        command=values["command"],
        parameters=params,
        output_format=values["format"],
        ceiling=int(values["ceiling"]),
        seed=int(values["seed"]),
        strict=bool(values["strict"]),
        jobs=int(values.get("jobs") or 1),
    )


_DISPATCH = {
    "tpoly": _cmd_poly,
    "rpoly": _cmd_poly,
    "schur": _cmd_poly,
    "factor": _cmd_factor,
    "signature": _cmd_signature,
    "verify-fact": _cmd_verify_fact,
    "counterexample": _cmd_counterexample,
    "degree": _cmd_degree,
    "identity": _cmd_identity,
}


def run(config: RunConfig, out=None) -> int:
    """Execute a resolved configuration; returns the process exit status."""
    out = out if out is not None else sys.stdout
    emitter = Emitter(config.output_format, out)
    if config.command == "sweep":
        summary = _cmd_sweep(config, emitter)
        if summary["fail"]:
            return EXIT_FAIL
        if config.strict and summary["skip"]:
            return EXIT_FAIL
        return EXIT_PASS
    return _DISPATCH[config.command](config, emitter)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _resolve_config(args)
        return run(config)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
