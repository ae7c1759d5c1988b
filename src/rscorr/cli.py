"""Command-line front end.

Subcommands: ``gen``, ``autocorr``, ``verify``, ``jsr``, ``table``,
``merit``, ``plotdata``.  Every command is deterministic: identical flags
produce byte-identical output (floats are rounded to 12 significant
digits before printing).  Exit codes: 0 success, 1 verification or
containment failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional

from . import autocorr as ac
from . import jsr as jsrmod
from . import norms, recurrence, stats
from .sequences import OrderTooLargeError, generalized_sequence, rs_sequence

#: ``verify`` suites in ``--help`` order: name -> (run(m_max, tol), default
#: ``--m-max``).  Each runner looks its function up at call time, so a
#: wrapped or patched module attribute is the one that runs.
VERIFY_SUITES = {
    "recurrences": (lambda m_max, tol: recurrence.verify_recurrences(m_max), 12),
    "lemma4": (lambda m_max, tol: norms.verify_power_bounds(tol), None),
    "theorem12": (lambda m_max, tol: recurrence.verify_periodic_formula(m_max), 12),
    "decomposition": (lambda m_max, tol: recurrence.verify_decomposition(m_max), 12),
    "lemma6": (lambda m_max, tol: recurrence.check_floor_ceil_identities(m_max), 40),
    "remark1": (lambda m_max, tol: norms.conjugation_invariance_check(tolerance=tol), None),
}


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(text: str, out: Optional[str], default_name: Optional[str] = None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = os.path.join(out, default_name) if os.path.isdir(out) and default_name else out
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _emit(json.dumps(_round_floats(payload), indent=2) + "\n", out)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The ``rscorr`` argument parser, built on first use and then shared:
    ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="rscorr",
        description="Autocorrelation tables, recurrence checks and JSR estimates "
        "for Rudin-Shapiro sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit one sequence as text")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--f", dest="flips", help="flip bits (length m) for the generalized family")
    p.add_argument("--format", dest="fmt", choices=("symbols", "compact"), default="symbols")
    p.add_argument("--out")

    p = sub.add_parser("autocorr", help="emit one autocorrelation table as CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", choices=("aperiodic", "periodic"), default="aperiodic")
    p.add_argument("--method", choices=("fast", "naive"), default="fast")
    p.add_argument("--check", action="store_true",
                   help="also build the table by the other method and compare")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run one verification suite, JSON report")
    p.add_argument("suite", choices=tuple(VERIFY_SUITES))
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")

    p = sub.add_parser("jsr", help="joint-spectral-radius estimate, JSON")
    p.add_argument("--method", choices=("bnb", "polytope"), default="bnb")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")

    p = sub.add_parser("table", help="maximal-shift records as CSV")
    p.add_argument("--m-max", dest="m_max", type=int, default=16)
    p.add_argument("--signed", action="store_true", help="maximize C_m(k) instead of |C_m(k)|")
    p.add_argument("--out")

    p = sub.add_parser("merit", help="merit factor series as CSV")
    p.add_argument("--m-max", dest="m_max", type=int, default=12)
    p.add_argument("--out")

    p = sub.add_parser("plotdata", help="|C_m(k)| against k as CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.flips is not None:
        if len(args.flips) != args.m or set(args.flips) - {"0", "1"}:
            sys.stderr.write(f"--f must be a 0/1 string of length {args.m}\n")
            return 2
        seq = generalized_sequence(args.m, [int(b) for b in args.flips])
    else:
        seq = rs_sequence(args.m)
    _emit(seq.text(args.fmt) + "\n", args.out)
    return 0


def _cmd_autocorr(args: argparse.Namespace) -> int:
    if args.kind == "aperiodic":
        routes = {"fast": ac.aperiodic_table_fast, "naive": ac.aperiodic_table_naive}
    else:
        routes = {"fast": ac.periodic_table, "naive": ac.periodic_table_naive}
    # --check compares against the other route: the direct-sum oracle for
    # the fast table, the fast table for the oracle.
    other = "naive" if args.method == "fast" else "fast"
    table = routes[args.method](args.m)
    if args.check and not (table.values == routes[other](args.m).values).all():
        sys.stderr.write(
            f"check failed: {args.kind} table disagrees with the {other} route at m={args.m}\n"
        )
        return 1
    _emit(table.to_csv(), args.out, table.default_filename)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    run, default_m_max = VERIFY_SUITES[args.suite]
    report = run(default_m_max if args.m_max is None else args.m_max, args.tol)
    _emit_json(report.to_dict(), args.out)
    return 0 if report.passed else 1


def _cmd_jsr(args: argparse.Namespace) -> int:
    if args.method == "bnb":
        bracket = jsrmod.bnb_bracket(args.depth)
        _emit_json(bracket.to_dict(), args.out)
        return 0
    run = jsrmod.invariant_polytope(tol=args.tol)
    _emit_json(run.to_dict(), args.out)
    return 0 if run.success else 1


def _cmd_table(args: argparse.Namespace) -> int:
    lines = ["m,k_star,value,unique,ell,abs_gap,ratio"]
    for rec in stats.conjecture_table(args.m_max, signed=args.signed):
        lines.append(
            f"{rec.m},{rec.k_star},{rec.value},{'true' if rec.unique else 'false'},"
            f"{rec.ell},{rec.abs_gap},{_fmt(rec.ratio)}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_merit(args: argparse.Namespace) -> int:
    lines = ["m,merit_factor"]
    for m, merit in stats.merit_factor_series(args.m_max):
        lines.append(f"{m},{_fmt(float(merit))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    table = ac.aperiodic_table_fast(args.m)
    rows = ac._csv_rows(table.values[1 : 1 << args.m], first=1, absolute=True)
    _emit("".join(["k,abs_C\n", *rows]), args.out)
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "autocorr": _cmd_autocorr,
    "verify": _cmd_verify,
    "jsr": _cmd_jsr,
    "table": _cmd_table,
    "merit": _cmd_merit,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (OrderTooLargeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
