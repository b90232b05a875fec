"""Command-line interface.

Subcommands: catalog | case | sweep | verify | hodge | hh.

Exit codes: 0 success, 1 usage error, 2 domain or validation error,
3 internal consistency failure (word-algebra vs closed-form mismatch).

The environment variable CYCALC_CATALOG may name a JSON catalog file whose
concrete bases are merged with the builtins; an id colliding with a builtin
family is an error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Iterable

from . import records
from .catalog import (
    FAMILIES,
    INT_PARAM_NAMES,
    LefschetzBase,
    builtin,
    load_catalog_file,
)
from .constructions import ALL_KINDS, ConstructionKind
from .engine import (
    CaseResult,
    SweepBounds,
    analyze,
    sweep,
    verify_cross_check,
)
from .errors import CycalcError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

_KIND_NAMES = ",".join(kind.value for kind in ALL_KINDS)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # argparse strips the "--" of "--degree=--" and stores an empty list
        for name, value in vars(namespace).items():
            if value == []:
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return namespace, extras


def _cy_dim(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"cannot parse Calabi-Yau dimension {text!r}; use an integer or p/q"
        )


def _kind(text: str) -> ConstructionKind:
    try:
        return ConstructionKind(text)
    except ValueError:
        *rest, last = (kind.value for kind in ALL_KINDS)
        raise argparse.ArgumentTypeError(
            f"unknown construction {text!r}; use {', '.join(rest)} or {last}"
        )


def _names(text: str) -> tuple[str, ...]:
    """The non-empty comma-separated names of ``text``; "" and "," name none."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _kinds(text: str) -> tuple[ConstructionKind, ...]:
    return tuple(map(_kind, _names(text)))


def _weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, _names(text)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse weights {text!r}")


def _user_bases() -> tuple[LefschetzBase, ...]:
    path = os.environ.get("CYCALC_CATALOG")
    if not path:
        return ()
    return tuple(load_catalog_file(path))


def _collect_params(args: argparse.Namespace) -> dict[str, int]:
    given = vars(args)
    params = {name: given[name] for name in INT_PARAM_NAMES if given[name] is not None}
    if args.weights is not None:
        params.update({f"w{i}": w for i, w in enumerate(args.weights)})
    return params


def _resolve_base(args: argparse.Namespace) -> LefschetzBase:
    params = _collect_params(args)
    if args.base not in FAMILIES:
        for base in _user_bases():
            if base.id == args.base:
                if params:
                    raise CycalcError(f"user base {args.base!r} takes no family parameters")
                return base
    return builtin(args.base, params)


def _bounds(args: argparse.Namespace, **defaults) -> SweepBounds:
    """The window of the flags given, over ``defaults`` and then SweepBounds' own."""
    given = vars(args)  # each window flag is named after its field
    flags = {name: given[name] for name in SweepBounds.__slots__ if given.get(name) is not None}
    return SweepBounds(**{**defaults, **flags}, extra_bases=_user_bases())


def _emit(rows: Iterable[dict], fmt: str, fields=None, table_columns=None) -> None:
    """Render ``rows`` (any iterable; JSON and CSV consume it one row at a time)."""
    if fmt == "json":
        sys.stdout.write(records.to_json(rows))
    elif fmt == "csv":
        sys.stdout.write(records.to_csv(rows, fields))
    else:
        sys.stdout.write(records.to_table(rows, table_columns))


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table", help="output format"
    )


def _add_base_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base", required=True, help="base id (builtin family or user catalog)")
    for name in INT_PARAM_NAMES:
        parser.add_argument(f"--{name}", type=int, default=None, help=f"family parameter {name}")
    parser.add_argument(
        "--weights", type=_weights, default=None, help="comma-separated weights for wpn"
    )
    parser.add_argument(
        "--construction",
        type=_kind,
        metavar="{" + _KIND_NAMES + "}",
        required=True,
        help="spherical construction",
    )
    parser.add_argument("--degree", type=int, required=True, help="construction degree d")


def _add_bounds_args(parser: argparse.ArgumentParser) -> None:
    # no defaults: an absent flag is None, and SweepBounds fills it in
    parser.add_argument("--max-n", type=int, help="ceiling for n-type parameters")
    parser.add_argument("--max-s", type=int, help="ceiling for the quadric parameter")
    parser.add_argument(
        "--max-weight-sum", type=int, help="weight-sum ceiling for weighted sweeps"
    )
    parser.add_argument(
        "--include-weighted",
        action="store_true",
        default=None,
        help="enumerate weighted projective bases (off by default)",
    )
    parser.add_argument(
        "--kinds",
        type=_kinds,
        help=f"comma-separated constructions to sweep ({_KIND_NAMES})",
    )
    parser.add_argument("--families", type=_names, help="restrict the sweep to these base ids")


def _cmd_catalog(args: argparse.Namespace) -> int:
    rows = records.catalog_records(FAMILIES.values(), _user_bases())
    _emit(rows, args.format, table_columns=records.CATALOG_FIELDS)
    return EXIT_OK


def _analyze_args(args: argparse.Namespace) -> CaseResult:
    """The case named by ``--base``/family parameters, ``--construction`` and ``--degree``."""
    return analyze(_resolve_base(args), args.construction, args.degree)


def _emit_cases(cases: Iterable[CaseResult], fmt: str) -> None:
    _emit(map(records.case_record, cases), fmt, records.CASE_FIELDS, records.CASE_TABLE_COLUMNS)


def _cmd_case(args: argparse.Namespace) -> int:
    _emit_cases([_analyze_args(args)], args.format)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    _emit_cases(sweep(_bounds(args), cy_dim=args.cy_dim, integer_only=args.integer), args.format)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_cross_check(_bounds(args, kinds=ALL_KINDS))
    sys.stdout.writelines(records.verify_report(report))
    return EXIT_OK if report.ok else EXIT_INTERNAL


def _cmd_hodge(args: argparse.Namespace) -> int:
    from .hodge import diamond_for_case

    case = _analyze_args(args)
    diamond = diamond_for_case(case)
    if args.format == "table":
        sys.stdout.writelines(records.hodge_table(case, diamond))
    else:
        _emit([records.hodge_record(case, diamond)], args.format)
    return EXIT_OK


def _cmd_hh(args: argparse.Namespace) -> int:
    from .hodge import hh_pipeline

    case = _analyze_args(args)
    pipeline = hh_pipeline(case)
    if args.format == "table":
        sys.stdout.writelines(records.hh_table(case, pipeline))
    else:
        _emit([records.hh_record(case, pipeline)], args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cycalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list builtin bases")
    _add_format(p_catalog)
    p_catalog.set_defaults(func=_cmd_catalog)

    p_case = sub.add_parser("case", help="analyze one (base, construction, degree) case")
    _add_base_args(p_case)
    _add_format(p_case)
    p_case.set_defaults(func=_cmd_case)

    p_sweep = sub.add_parser("sweep", help="enumerate cases over the catalog")
    _add_bounds_args(p_sweep)
    p_sweep.add_argument(
        "--cy-dim",
        type=_cy_dim,
        default=None,
        help="filter: integer or p/q dimension; write a negative one as --cy-dim=-17/3",
    )
    p_sweep.add_argument(
        "--integer", action="store_true", help="filter: integer Calabi-Yau cases only"
    )
    _add_format(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="cross-check word algebra against closed forms over the catalog"
    )
    _add_bounds_args(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_hodge = sub.add_parser("hodge", help="Hodge diamond of the total space of a case")
    _add_base_args(p_hodge)
    _add_format(p_hodge)
    p_hodge.set_defaults(func=_cmd_hodge)

    p_hh = sub.add_parser("hh", help="Hochschild homology pipeline for a case")
    _add_base_args(p_hh)
    _add_format(p_hh)
    p_hh.set_defaults(func=_cmd_hh)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse, dispatch and map the outcome to an exit code; ``records`` renders all output."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that is gone shows here, not in the exit flush
        return code
    except CycalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        return _stdout_closed()


def _stdout_closed() -> int:
    """The reader closed stdout early: keep the exit flush quiet, say so once, exit 2."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        pass  # no descriptor, as under a capturing test runner
    else:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    try:
        print("error: standard output was closed before the output was complete", file=sys.stderr)
    except OSError:
        pass  # stderr is the same closed pipe
    return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
