"""Batch command-line frontend: construct, verify, sweep, report.

Every command writes machine-readable records (one JSON object per line,
or TSV rows, or terse text).  Exit codes:

* 0 when every verdict passed;
* 1 when some verdict failed (or, under ``sweep --strict``, a point was
  skipped over the ceiling);
* 2 on usage or configuration errors, a refusal over ``--ceiling`` outside
  a sweep, and input too large to represent;
* 3 when an internal cross-check failed (``i_poly``'s product against the
  determinant, ``t_poly``'s Weyl sum, ``counterexample`` modes, the
  oracle's parity, the alternative pair's conjugate invariant).

Output is byte-identical for identical configuration.  The commands that
build fields or polynomials import ``ffield``, ``vschur``, ``factor`` and
``mpoly`` when they run, so ``degree`` and ``sweep degree`` load none of
them: only ``newton`` and its F_p kernel ``modp``.

A ``sweep`` target is one entry of ``_SWEEP_TARGETS``, which alone decides
its grid flags: those it needs (with the values its refusal names, if any)
and those it may read, then its grid, point runner and result keys.
``sweep`` refuses, in this order: a needed flag it lacks, a grid flag it
does not read, a grid value the library refuses (``check_field``, then
``TowerParams`` or, under the ceiling, ``factor.check_closed_form``), and
an empty grid.

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
import sys

from .modp import DESK_CEILING, CeilingError, check_ceiling, check_field
from .newton import (
    TowerParams,
    applicable_modes,
    build_alternative_pair,
    degree_of_extension,
    verify_newton_identity,
)

CEILING_ENV = "SCHURLAB_CEILING"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


class Emitter:
    """Streams records in the selected format.

    TSV repeats the header whenever the record shape changes, so runs that
    mix record kinds (a sweep and its summary, say) stay parseable.
    """

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        self._tsv_keys = None

    def emit(self, record: dict, text: str | None = None):
        """Write one record; its text line is ``text``, or the record's
        ``key=value`` pairs when text is None."""
        if self.fmt == "json":
            self.out.write(json.dumps(record, sort_keys=True) + "\n")
        elif self.fmt == "tsv":
            keys = list(record.keys())
            if keys != self._tsv_keys:
                self._tsv_keys = keys
                self.out.write("\t".join(keys) + "\n")
            self.out.write("\t".join(_tsv_cell(record[k]) for k in keys) + "\n")
        else:
            self.out.write((_kv(record) if text is None else text) + "\n")


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


#: Most values the lo:hi ranges of one grid flag may hold; a range that
#: would pass it is refused before it is expanded, so a typo cannot
#: exhaust memory.
MAX_RANGE = 10**6


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _parse_int_set(text: str) -> list[int]:
    """Comma lists and lo:hi inclusive ranges: '2,3,5' or '1:4' or '1:2,7'.
    A range that would take the values past MAX_RANGE is refused."""
    out = set()
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            lo, hi = map(_int, chunk.split(":", 1))
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {chunk!r}")
            if len(out) + hi - lo >= MAX_RANGE:
                raise argparse.ArgumentTypeError(
                    f"range {chunk!r} holds {hi - lo + 1} values; a grid flag takes at most "
                    f"{MAX_RANGE}")
            out.update(range(lo, hi + 1))
        else:
            out.add(_int(chunk))
    if not out:
        raise argparse.ArgumentTypeError(f"empty grid component {text!r}")
    return sorted(out)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_poly(args: argparse.Namespace, emitter: Emitter) -> int:
    from .ffield import field_for
    from .vschur import ExponentPair, Partition3, r_poly, schur_bialternant, t_poly

    fieldv = field_for(args.char, args.ext)
    if args.command in ("tpoly", "rpoly"):
        e = ExponentPair(args.A, args.B, fieldv)
        poly = (t_poly if args.command == "tpoly" else r_poly)(e)
        extra = {"A": e.A, "B": e.B, "d": e.d}
    else:  # schur
        part = Partition3((args.l1, args.l2, args.l3))
        poly = schur_bialternant(part, args.d, fieldv)
        extra = {"partition": list(part.parts), "d": args.d}
    text = poly.to_text()
    record = {"command": args.command, **extra, "char": args.char, "ext": args.ext, "poly": text}
    if emitter.fmt != "text":  # the text line prints no terms list
        record["terms"] = poly.to_json_terms()
    emitter.emit(record, text)
    return EXIT_PASS


def _cmd_factor(args: argparse.Namespace, emitter: Emitter) -> int:
    from .factor import linear_factors_over
    from .ffield import make_field
    from .vschur import ExponentPair, t_poly

    check_ceiling(args.p, args.r, args.ceiling)  # before the field and T are built
    spec = make_field(args.p, args.r)
    e = ExponentPair(args.A, args.B, spec)
    report = linear_factors_over(t_poly(e), spec, ceiling=args.ceiling)
    count = report.factor_count()
    record = {
        "command": "factor",
        "A": e.A,
        "B": e.B,
        "p": args.p,
        "r": args.r,
        "factors": report.factors_json(),
        "factor_count": count,
        "residual_degree_in_z": report.residual_degree_in_z,
        "fully_split": report.fully_split,
    }
    text = _kv(
        {
            "factors": count,
            "residual_degree": report.residual_degree_in_z,
            "fully_split": report.fully_split,
        }
    )
    emitter.emit(record, text)
    return EXIT_PASS


def _cmd_signature(args: argparse.Namespace, emitter: Emitter) -> int:
    from .factor import signature_witness
    from .ffield import make_field
    from .vschur import ExponentPair

    spec = make_field(args.p, args.r)
    e = ExponentPair(args.A, args.B, spec)
    witnesses = signature_witness(e)
    all_true = all(w.verdict for w in witnesses)
    record = {
        "command": "signature",
        "A": e.A,
        "B": e.B,
        "p": args.p,
        "r": args.r,
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


#: The closed forms that verify-fact checks, by their --which value, as
#: names in schurlab.factor: the flag's choices and the text of the
#: sweep's needed-flag refusal.
_CLOSED_FORMS = {"eq1": "verify_fact_eq1", "eq2": "verify_fact_eq2"}


def _verify_fact_point(which: str, p: int, r: int, ceiling: int) -> dict:
    from . import factor

    ok, report = getattr(factor, _CLOSED_FORMS[which])(p, r, ceiling)
    return {"verdict": "pass" if ok else "fail", "factor_count": report.factor_count()}


def _cmd_verify_fact(args: argparse.Namespace, emitter: Emitter) -> int:
    record = {"command": "verify-fact", "which": args.which, "p": args.p, "r": args.r,
              **_verify_fact_point(args.which, args.p, args.r, args.ceiling)}
    text = _kv({k: record[k] for k in ("verdict", "which", "p", "r", "factor_count")})
    emitter.emit(record, text)
    return EXIT_PASS if record["verdict"] == "pass" else EXIT_FAIL


def _cmd_counterexample(args: argparse.Namespace, emitter: Emitter) -> int:
    pair = build_alternative_pair(args.p, args.eta)
    records = []  # every verdict comes before the first record, so a refusal prints nothing
    for m in args.m:
        modes = applicable_modes(m, args.p) if args.mode == "both" else [args.mode]
        if not modes:
            raise ValueError(f"no applicable mode for m={m}")
        verdicts = [verify_newton_identity(pair, m, mode) for mode in modes]
        if len(set(verdicts)) > 1:
            raise ArithmeticError(f"modes disagree at m={m}: {dict(zip(modes, verdicts))}")
        records.append(
            {"command": "counterexample", "p": args.p, "m": m, "modes": modes,
             "identity_holds": verdicts[0]}
        )
    pair_record = {"command": "counterexample", "p": args.p, **pair.to_json()}
    emitter.emit(pair_record, _kv({"p": args.p, "alpha": pair.alpha.token()}))
    for record in records:
        emitter.emit(record, _kv({"m": record["m"], "identity_holds": record["identity_holds"],
                                  "modes": ",".join(record["modes"])}))
    return EXIT_PASS if all(record["identity_holds"] for record in records) else EXIT_FAIL


def _degree_point(p: int, r: int, s: int, mode: str, ceiling: int) -> dict:
    report = degree_of_extension(TowerParams(p, r, s), mode=mode, ceiling=ceiling)
    return {"command": "degree", **report.to_json(), "mode": mode}


def _cmd_degree(args: argparse.Namespace, emitter: Emitter) -> int:
    record = _degree_point(args.p, args.r, args.s, args.mode, args.ceiling)
    text = _kv({k: record[k] for k in ("formula", "oracle", "agree")})
    emitter.emit(record, text)
    if args.mode == "both" and not record["agree"]:
        return EXIT_FAIL
    return EXIT_PASS


def _cmd_identity(args: argparse.Namespace, emitter: Emitter) -> int:
    from .ffield import field_for
    from .mpoly import is_symmetric3
    from .vschur import (
        ExponentPair,
        complete_homogeneous,
        r_poly,
        schur_bialternant,
        t_poly,
        vandermonde,
    )

    if args.max_a < 2:  # no pair A > B >= 1
        raise ValueError("the identity grid is empty")
    status = EXIT_PASS
    fields = {char: field_for(char) for char in args.chars}  # usage errors before output
    for char, fieldv in fields.items():
        for A in range(2, args.max_a + 1):
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
                ok = all(checks.values())
                record = {
                    "command": "identity",
                    "char": char,
                    "A": A,
                    "B": B,
                    **checks,
                    "verdict": "pass" if ok else "fail",
                }
                emitter.emit(
                    record,
                    _kv({"char": char, "A": A, "B": B, "verdict": record["verdict"]}),
                )
                if not ok:
                    status = EXIT_FAIL
    return status


def _verify_fact_grid(args: argparse.Namespace) -> list[dict]:
    from .factor import check_closed_form

    points = [{"which": args.which, "p": pp, "r": rr} for pp in args.p for rr in args.r]
    for pt in points:  # every field before any closed form
        check_field(pt["p"], pt["r"])
    for pt in points:  # an exponent past the cap is refused before the first record
        try:
            check_closed_form(**pt, ceiling=args.ceiling)
        except CeilingError:
            pass  # the point is a skip, as its record will say
    return points


def _degree_grid(args: argparse.Namespace) -> list[dict]:
    for pp in args.p:  # before the grid is filtered
        check_field(pp)
    points = [{"p": pp, "r": rr, "s": ss} for pp in args.p for rr in args.r
              for ss in (args.s or range(1, rr)) if ss < rr]
    for pt in points:
        TowerParams(**pt)  # refuses s < 1
    return points


def _degree_sweep_point(p: int, r: int, s: int, ceiling: int) -> dict:
    result = _degree_point(p, r, s, "both", ceiling)  # looked up here, so it can be rebound
    return {"verdict": "pass" if result["agree"] else "fail",
            "formula": result["formula"], "oracle": result["oracle"]}


#: target: (the grid flags it needs, each with the values its refusal names
#: or None, the grid flags it may read, grid, point runner, result keys)
_SWEEP_TARGETS = {
    "verify-fact": ({"which": "|".join(_CLOSED_FORMS), "p": None, "r": None}, (),
                    _verify_fact_grid, _verify_fact_point, ("factor_count",)),
    "degree": ({"p": None, "r": None}, ("s",), _degree_grid, _degree_sweep_point,
               ("formula", "oracle")),
}

#: every grid flag of the table, in the order the sweep refuses them
_GRID_FLAGS = dict.fromkeys(
    flag for needs, reads, *_ in _SWEEP_TARGETS.values() for flag in (*needs, *reads))


def _cmd_sweep(args: argparse.Namespace, emitter: Emitter) -> int:
    """Run every grid point in order; a point the library refuses with
    CeilingError is a skip, and skips fail the run under --strict."""
    target = args.target
    needs, reads, grid, run, result_keys = _SWEEP_TARGETS[target]
    lacking = [flag for flag in needs if getattr(args, flag) is None]
    missing = [flag for flag in lacking if needs[flag] is None]
    if missing:
        raise ValueError(f"missing required parameters: {', '.join(missing)}")
    if lacking:  # a needed flag whose refusal names its values
        raise ValueError(f"sweep {target} needs --{lacking[0]} {needs[lacking[0]]}")
    for flag in _GRID_FLAGS:
        if flag not in needs and flag not in reads and getattr(args, flag) is not None:
            raise ValueError(f"sweep {target} does not read --{flag}")
    points = grid(args)
    if not points:
        raise ValueError("the sweep grid is empty")
    summary = {"pass": 0, "fail": 0, "skip": 0}
    for pt in points:
        record = {"target": target, **pt, "verdict": None, **dict.fromkeys(result_keys),
                  "reason": None}
        try:
            record.update(run(**pt, ceiling=args.ceiling))
        except CeilingError:
            record.update(verdict="skip", reason="ceiling")
        summary[record["verdict"]] += 1
        emitter.emit(record)
    summary_record = {"command": "sweep", "target": target, **summary, "points": len(points)}
    emitter.emit(summary_record)
    return EXIT_FAIL if summary["fail"] or (args.strict and summary["skip"]) else EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing


def _ceiling_value(text: str) -> int:
    value = _int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurlab",
        description="Exact determinant-quotient polynomials, their factorizations "
        "and the power-sum degree formulas, over the rationals or F_{p^r}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def need(sp, *names, type=int, **kw):
        """Flags the command cannot run without; main refuses a run that lacks one."""
        for name in names:
            sp.add_argument(f"--{name}", type=type, default=None, **kw)
        sp.set_defaults(required=(sp.get_default("required") or ()) + names)

    def common(sp, run):
        """The flags every command takes, and its handler, required flags and config keys."""
        sp.add_argument("--format", choices=("json", "tsv", "text"), default="text",
                        help="output format (default text)")
        # config key -> whether its flag is bare, for every flag so far but --help
        keys = {a.dest: a.nargs == 0 for a in sp._actions if a.option_strings and a.dest != "help"}
        sp.add_argument("--config", default=None,
                        help="JSON file whose keys are this command's flags")
        sp.set_defaults(run=run, required=sp.get_default("required") or (), config_keys=keys)

    def ceiling(sp):
        # a string default goes through the type, so a bad $SCHURLAB_CEILING exits 2
        sp.add_argument("--ceiling", type=_ceiling_value,
                        default=os.environ.get(CEILING_ENV, str(DESK_CEILING)),
                        help=f"field-size cap, at least 2 (default ${CEILING_ENV} "
                        f"or {DESK_CEILING})")

    for name in ("tpoly", "rpoly"):
        sp = sub.add_parser(name, help=f"print the {name[0].upper()} polynomial for (A, B)")
        need(sp, "A", "B")
        sp.add_argument("--char", type=int, default=0, help="0 for rationals, else a prime")
        sp.add_argument("--ext", type=int, default=1, help="extension degree (default 1)")
        common(sp, _cmd_poly)

    sp = sub.add_parser("schur", help="print the bialternant for a partition")
    need(sp, "l1", "l2", "l3")
    sp.add_argument("--d", type=int, default=1, help="evaluate at X^d, Y^d, Z^d (default 1)")
    sp.add_argument("--char", type=int, default=0)
    sp.add_argument("--ext", type=int, default=1)
    common(sp, _cmd_poly)

    sp = sub.add_parser("factor", help="sweep linear factors of the (A, B) quotient over F_{p^r}")
    need(sp, "A", "B", "p", "r")
    ceiling(sp)
    common(sp, _cmd_factor)

    sp = sub.add_parser("signature", help="signature witnesses for the (A, B) quotient")
    need(sp, "A", "B", "p", "r")
    common(sp, _cmd_signature)

    sp = sub.add_parser("verify-fact", help="check a closed-form factorization")
    need(sp, "which", type=None, choices=tuple(_CLOSED_FORMS))
    need(sp, "p", "r")
    ceiling(sp)
    common(sp, _cmd_verify_fact)

    sp = sub.add_parser("counterexample", help="build the alternative pair and test identities")
    need(sp, "p")
    sp.add_argument("--eta", type=int, default=None, help="override the scanned eta (odd p)")
    need(sp, "m", type=_parse_int_set, help="comma list of exponents, e.g. 1,4,28")
    sp.add_argument("--mode", choices=("direct", "frobenius_shortcut", "both"), default="both")
    common(sp, _cmd_counterexample)

    sp = sub.add_parser("degree", help="extension degree by formula and/or counting oracle")
    need(sp, "p", "r", "s")
    sp.add_argument("--mode", choices=("formula", "oracle", "both"), default="both")
    ceiling(sp)
    common(sp, _cmd_degree)

    sp = sub.add_parser("identity", help="verify the construction identities on a grid")
    sp.add_argument("--max-a", dest="max_a", type=int, default=8)
    sp.add_argument("--chars", type=_parse_int_set, default="0,3",
                    help="comma list of characteristics (default 0,3)")
    common(sp, _cmd_identity)

    sp = sub.add_parser("sweep", help="run a verification over a parameter grid")
    sp.add_argument("target", choices=tuple(_SWEEP_TARGETS))
    sp.add_argument("--which", choices=tuple(_CLOSED_FORMS), default=None)
    sp.add_argument("--p", type=_parse_int_set, default=None, help="grid values, e.g. 2,3,5")
    sp.add_argument("--r", type=_parse_int_set, default=None, help="grid values, e.g. 1:2")
    sp.add_argument("--s", type=_parse_int_set, default=None,
                    help="grid values; defaults to 1..r-1")
    sp.add_argument("--strict", action="store_true",
                    help="treat points skipped over the ceiling as failures")
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; has no effect, points run in order")
    ceiling(sp)
    common(sp, _cmd_sweep)

    return parser


def _json_text(val) -> str:
    """A config value as flag text: a string as it stands, anything else as JSON."""
    return val if isinstance(val, str) else json.dumps(val)


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv; a --config file reads as flags placed before the user's own.

    Each key of the file's JSON object names a flag of the command: a list
    becomes its comma text, ``true`` the bare flag (``"strict": true``, and a
    bare flag takes only a boolean), ``false`` nothing (the flag keeps its
    default), ``null``, an object, or a list that is empty or holds a list or
    an object a refusal, a string itself and any other value its JSON text,
    so a refusal quotes the value as the file wrote it.
    These tokens go between the subcommand name and the user's arguments and
    the line is parsed once more, so every file value meets its flag's type
    and choices, and a flag on the command line beats the file, which beats
    the declared default.
    """
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("--config must hold a JSON object")
    tokens = []
    for key, val in loaded.items():
        dest = key.replace("-", "_")
        if dest not in args.config_keys:
            raise ValueError(f"unknown config key {key!r}")
        bare = args.config_keys[dest]
        # a list becomes comma text, so it holds one value or more and no list or object
        bad_list = isinstance(val, list) and (
            not val or any(isinstance(v, (list, dict)) for v in val))
        if val is None or isinstance(val, dict) or bad_list or bare and not isinstance(val, bool):
            raise ValueError(f"config key {key!r} takes {'true or false' if bare else 'a value'}, "
                             f"got {json.dumps(val)}")
        if val is False:
            continue  # the flag is left out, so it takes its default
        flag = "--" + dest.replace("_", "-")
        if bare:
            tokens.append(flag)
        elif isinstance(val, list):
            tokens += [flag, ",".join(map(_json_text, val))]
        else:
            tokens += [flag, _json_text(val)]
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        missing = [k for k in args.required if getattr(args, k) is None]
        if missing:
            raise ValueError(f"missing required parameters: {', '.join(missing)}")
        return args.run(args, Emitter(args.format, sys.stdout))
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # OverflowError is an ArithmeticError, but it means the input is too large
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
