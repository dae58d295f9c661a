"""Command-line surface: sequence tables, root extraction, benchmarks.

Every command builds one structured document; the human-readable table is
rendered from that document alone, so parsing the JSON form and re-rendering
reproduces the table byte for byte.  Sequence terms, seeds, and coefficients
travel as decimal strings in JSON because the terms outgrow fixed-width
integers within a few dozen steps.

Exit codes: 0 converged/ok, 2 tie detected, 3 iteration budget exhausted,
64 bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Callable, NoReturn, Optional, Sequence

from .bench import BenchCase, builtin_cases, format_report, run_bench
from .driver import (
    DEFAULT_OPTIONS,
    DriverOptions,
    RootEstimate,
    RootStatus,
    dominant_root,
    enumerate_real_roots,
    root_via_shift,
)
from .errors import SeqrootsError
from .poly import IDENTITY_SHIFT, AffineShift, MonicIntPolynomial, make_polynomial
from .render import fraction_text, ratio_string
from .sequences import SequenceFamily, default_seed

EXIT_OK = 0
EXIT_TIE = 2
EXIT_MAX_ITERS = 3
EXIT_USAGE = 64

_STATUS_EXIT = {
    RootStatus.CONVERGED: EXIT_OK,
    RootStatus.TIE_DETECTED: EXIT_TIE,
    RootStatus.MAX_ITERS_EXCEEDED: EXIT_MAX_ITERS,
}


class _Parser(argparse.ArgumentParser):
    """Usage problems exit with the dedicated usage code."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _poly_arg(text: str) -> MonicIntPolynomial:
    try:
        values = [int(part) for part in text.split(",")]
        return make_polynomial(values)
    except (ValueError, SeqrootsError) as exc:
        raise argparse.ArgumentTypeError(f"bad polynomial {text!r}: {exc}")


def _shift_arg(text: str) -> AffineShift:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"shift must be 'a,b', got {text!r}")
    try:
        return AffineShift(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shift {text!r}: {exc}")


def _seed_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}: {exc}")


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqroots",
        description="Real roots of monic integer polynomials via exact "
        "integer recurrences and rational ratio sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, poly_required: bool = True) -> None:
        p.add_argument(
            "--poly",
            type=_poly_arg,
            required=poly_required,
            help="comma-separated coefficients including the leading 1, "
            "e.g. '1,2,-1' for x^2+2x-1",
        )
        p.add_argument(
            "--digits",
            type=_at_least(1),
            default=DEFAULT_OPTIONS.target_digits,
            help="significant digits for rendering and convergence "
            "(default %(default)s)",
        )
        p.add_argument("--json", action="store_true", help="emit the structured document")

    seq = sub.add_parser("sequences", help="print the sequence table for a polynomial")
    common(seq)
    seq.add_argument("--shift", type=_shift_arg, help="affine shift 'a,b' of the iteration matrix")
    seq.add_argument("--seed", type=_seed_arg, help="starting vector (default 1,0,...,0)")
    seq.add_argument(
        "--steps",
        type=_at_least(0),
        default=0,
        help="final step index; the table has steps+1 rows",
    )

    root = sub.add_parser("root", help="estimate one root (dominant, or via a shift)")
    common(root)
    root.add_argument("--shift", type=_shift_arg, help="affine shift 'a,b' selecting the target root")
    root.add_argument(
        "--max-iters",
        type=_at_least(1),
        default=DEFAULT_OPTIONS.max_iters,
        help="iteration budget (default %(default)s)",
    )

    roots = sub.add_parser("roots", help="enumerate all verified real roots")
    common(roots)
    roots.add_argument(
        "--max-iters",
        type=_at_least(1),
        default=DEFAULT_OPTIONS.max_iters,
        help="iteration budget per run (default %(default)s)",
    )

    bench = sub.add_parser(
        "bench", help="time the exact pipeline against the float reference"
    )
    common(bench, poly_required=False)
    bench.add_argument("--shift", type=_shift_arg, help="affine shift 'a,b' for the single-case run")
    bench.add_argument(
        "--runs", type=_at_least(5), default=5, help="timing repetitions, 5 or more"
    )
    return parser


def _options(args: argparse.Namespace) -> DriverOptions:
    return DriverOptions(target_digits=args.digits, max_iters=args.max_iters)


def _shift_field(shift: Optional[AffineShift]) -> Optional[list[str]]:
    if shift is None:
        return None
    return [str(shift.a), str(shift.b)]


def _estimate_field(est: RootEstimate, digits: int) -> dict:
    return {
        "value": est.decimal(digits),
        "fraction": fraction_text(est.value),
        "digits": est.decimal_digits,
        "status": est.status.value,
        "iterations": est.iterations,
        "shift": _shift_field(est.shift_used),
        "estimator": est.estimator,
    }


def cmd_sequences(args: argparse.Namespace) -> tuple[dict, int]:
    seed = args.seed if args.seed is not None else default_seed(args.poly.degree)
    family = SequenceFamily(
        args.poly, seed, shift=args.shift or IDENTITY_SHIFT, keep_history=True
    )
    family.run_to(args.steps)
    rows = []
    for j in range(args.steps + 1):
        vec = family.vector(j)
        ratios = [
            ratio_string(vec[i], vec[i + 1], args.digits)
            for i in range(len(vec) - 1)
        ]
        rows.append(
            {"j": j, "terms": [str(t) for t in vec], "ratios": ratios}
        )
    doc = {
        "command": "sequences",
        "polynomial": [str(c) for c in args.poly.with_leading()],
        "shift": _shift_field(args.shift),
        "seed": [str(s) for s in seed],
        "rows": rows,
        "estimates": [],
    }
    return doc, EXIT_OK


def cmd_root(args: argparse.Namespace) -> tuple[dict, int]:
    opts = _options(args)
    if args.shift is not None:
        est = root_via_shift(args.poly, args.shift, opts)
    else:
        est = dominant_root(args.poly, opts)
    doc = {
        "command": "root",
        "polynomial": [str(c) for c in args.poly.with_leading()],
        "shift": _shift_field(args.shift),
        "seed": None,
        "rows": [],
        "estimates": [_estimate_field(est, args.digits)],
    }
    return doc, _STATUS_EXIT[est.status]


def cmd_roots(args: argparse.Namespace) -> tuple[dict, int]:
    estimates = enumerate_real_roots(args.poly, _options(args))
    doc = {
        "command": "roots",
        "polynomial": [str(c) for c in args.poly.with_leading()],
        "shift": None,
        "seed": None,
        "rows": [],
        "estimates": [_estimate_field(e, args.digits) for e in estimates],
    }
    return doc, EXIT_OK


def cmd_bench(args: argparse.Namespace) -> tuple[dict, int]:
    if args.poly is not None:
        label = ",".join(str(c) for c in args.poly.with_leading())
        if args.shift is not None:
            label += f" shift {args.shift.a},{args.shift.b}"
        cases: Sequence[BenchCase] = (BenchCase(label, args.poly, args.shift),)
    else:
        cases = builtin_cases()
    rows = run_bench(cases, digits=args.digits, runs=args.runs)
    doc = {
        "command": "bench",
        "polynomial": None,
        "shift": _shift_field(args.shift),
        "seed": None,
        "rows": [asdict(row) for row in rows],
        "estimates": [],
    }
    return doc, EXIT_OK


def sequences_table(doc: dict) -> str:
    """Fixed-width table built purely from the structured document."""
    rows = doc["rows"]
    if rows:
        m = len(rows[0]["terms"])
    else:
        m = len(doc["seed"])
    headers = ["j"]
    headers += [f"S({i})" for i in range(1, m + 1)]
    headers += [f"S({i})/S({i + 1})" for i in range(1, m)]
    table = [headers]
    for row in rows:
        table.append([str(row["j"])] + list(row["terms"]) + list(row["ratios"]))
    widths = [max(len(line[c]) for line in table) for c in range(len(headers))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in table]
    return "\n".join(lines)


def estimates_text(doc: dict) -> str:
    """One line per estimate, from the structured document only."""
    lines = []
    for est in doc["estimates"]:
        shift = est["shift"]
        shift_text = f"{shift[0]},{shift[1]}" if shift else "-"
        lines.append(
            f"{est['value']}  status={est['status']}  iterations={est['iterations']}"
            f"  shift={shift_text}  estimator={est['estimator']}"
        )
    if not lines:
        lines.append("no real roots")
    return "\n".join(lines)


def render_text(doc: dict) -> str:
    command = doc["command"]
    if command == "sequences":
        return sequences_table(doc)
    if command in ("root", "roots"):
        return estimates_text(doc)
    if command == "bench":
        return format_report(doc["rows"])
    raise ValueError(f"unknown command {command!r}")


#: Options whose value may start with a minus sign.
_SIGNED_LISTS = ("--shift", "--seed")


def _takes_signed_list(flag: str) -> bool:
    """``flag`` is one of ``_SIGNED_LISTS`` or an abbreviation of one;
    argparse still rejects an ambiguous abbreviation such as ``--s``."""
    return len(flag) > 2 and any(name.startswith(flag) for name in _SIGNED_LISTS)


def _join_signed_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--shift -1,1`` as ``--shift=-1,1`` (and ``--seed``, and
    their abbreviations, likewise): argparse takes a separate ``-1,1`` for
    an option, not for a value."""
    out: list[str] = []
    for arg in argv:
        if out and _takes_signed_list(out[-1]) and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    handlers: dict[str, Callable[[argparse.Namespace], tuple[dict, int]]] = {
        "sequences": cmd_sequences,
        "root": cmd_root,
        "roots": cmd_roots,
        "bench": cmd_bench,
    }
    try:
        doc, code = handlers[args.command](args)
    except SeqrootsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
