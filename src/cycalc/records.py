"""Flat output records and rendering (table / JSON / CSV).

This module renders every byte a command prints: the schema of every output
row (the case record of ``case`` and ``sweep``, the ``hodge`` and ``hh``
records, the ``catalog`` listing), the ``hodge`` and ``hh`` tables and the
``verify`` report.  A case record's fields are stated once, in ``_CASE_COLUMNS``.

Every JSON payload is one object {"schema_version": 1, "records": [...]} and
every record repeats the schema_version field; record field order is fixed so
repeated runs serialize byte-identically.  CSV uses RFC 4180 quoting with a
header row.

``to_json``, ``to_csv`` and ``to_table`` take any iterable of records.  JSON
and CSV encode one record at a time, so a caller may pass a generator and no
more than one record dict is alive at once; the table keeps its cells,
because the column widths depend on every row.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from .catalog import Family, LefschetzBase
    from .engine import CaseResult, VerifyReport
    from .hodge import HHPipelineResult, HodgeDiamond

SCHEMA_VERSION = 1

#: Values of a list joined into one string at a time (a CSV cell, the ``hh``
#: table's middle row, a JSON record's encoder fragments, one per list value),
#: so that a row of millions of values is never held as one list of strings.
ROW_CHUNK = 4096


def bounded_join(sep: str, strings: Iterable[str]) -> Iterator[str]:
    """``sep.join(strings)`` as pieces of at most :data:`ROW_CHUNK` strings, built
    one at a time; joining the pieces with ``sep`` gives the whole."""
    strings = iter(strings)
    for first in strings:
        yield sep.join(chain((first,), islice(strings, ROW_CHUNK - 1)))


def _of(part: str, attr: str) -> Callable[[CaseResult], object]:
    """A reader of ``case.<part>.<attr>``; it reads ``None`` where ``case.<part>`` is
    ``None``, as on an error row."""
    return lambda case: None if (value := getattr(case, part)) is None else getattr(value, attr)


def _serre_power(case: CaseResult) -> str | None:
    return None if case.serre_power_nf is None else f"S^{case.power} = {case.serre_power_nf}"


def _cy_dimension(case: CaseResult) -> str | None:
    return None if case.witness is None else str(case.cy_dimension)


#: The one statement of a case record: each field in record order, how it is
#: read from a ``CaseResult``, and whether the text table shows it.  An error
#: row reads ``None`` for every field of the normal form and the witness.
_CASE_COLUMNS: tuple[tuple[str, Callable[[CaseResult], object], bool], ...] = (
    ("schema_version", lambda case: SCHEMA_VERSION, False),
    ("base_id", lambda case: case.base.id, False),
    ("base", lambda case: case.base.display_name, True),
    ("params", lambda case: dict(case.base.parameters), True),
    ("dim_m", lambda case: case.base.dim_m, False),
    ("length_m", lambda case: case.base.length_m, False),
    ("rank_b", lambda case: case.base.rank_b, False),
    ("construction", lambda case: case.kind.value, True),
    ("degree", lambda case: case.d, True),
    ("c", lambda case: case.c, False),
    ("power", lambda case: case.power, False),
    ("shift", _of("serre_power_nf", "shift"), False),
    ("ltwist", _of("serre_power_nf", "ltwist"), False),
    ("tau", _of("serre_power_nf", "tau"), False),
    ("chi", _of("serre_power_nf", "chi"), False),
    ("serre_power", _serre_power, True),
    ("witness_p", _of("witness", "p"), True),
    ("witness_q", _of("witness", "q"), True),
    ("cy_dimension", _cy_dimension, True),
    ("is_integer_cy", lambda case: case.is_integer_cy, True),
    ("component_is_whole", lambda case: case.component_is_whole, True),
    ("dim_x", lambda case: case.dim_x, True),
    ("error", lambda case: case.error, True),
)

#: Field order of ``case_record``; the CSV header of ``case`` and ``sweep``,
#: printed even when a sweep has no records.
CASE_FIELDS = tuple(name for name, _, _ in _CASE_COLUMNS)
#: The columns of the ``case`` and ``sweep`` text table.
CASE_TABLE_COLUMNS = tuple(name for name, _, shown in _CASE_COLUMNS if shown)
#: The fields every ``hodge`` and ``hh`` record opens with, in case record order.
_HEADER_FIELDS = {"schema_version", "base_id", "base", "params", "construction", "degree"}
_CASE_HEADER = tuple(column for column in _CASE_COLUMNS if column[0] in _HEADER_FIELDS)


def _read(case: CaseResult, columns: Iterable[tuple[str, Callable, bool]]) -> dict:
    return {name: read(case) for name, read, _ in columns}


def case_record(case: CaseResult) -> dict:
    return _read(case, _CASE_COLUMNS)


def hodge_record(case: CaseResult, diamond: HodgeDiamond) -> dict:
    return {
        **_read(case, _CASE_HEADER),
        "dim_x": diamond.dim_x,
        "hodge": [list(r) for r in diamond.hodge],
        "middle_row": list(diamond.middle_row()),
    }


def hh_record(case: CaseResult, pipeline: HHPipelineResult) -> dict:
    check = pipeline.check
    return {
        **_read(case, _CASE_HEADER),
        "dim_x": pipeline.diamond.dim_x,
        "middle_row": list(pipeline.diamond.middle_row()),
        "hh_total": {str(k): v for k, v in pipeline.hh_total.dims.items()},
        "hh_component": {str(k): v for k, v in pipeline.hh_component.dims.items()},
        "cy_dimension": _cy_dimension(case),
        "is_integer_cy": case.is_integer_cy,
        "check_n_cy": check.n_cy if check else None,
        "check_value": check.value if check else None,
        "check_nonvanishing": check.nonvanishing if check else None,
        "check_expect_one": check.expect_one if check else None,
        "check_passed": check.nonvanishing if check else None,
    }


def _title(case: CaseResult) -> str:
    """The line that opens the ``hodge`` and ``hh`` tables."""
    return f"{case.base.display_name}, {case.kind.value} of degree {case.d}"


def hodge_table(case: CaseResult, diamond: HodgeDiamond) -> Iterator[str]:
    """The ``hodge`` text table, one line at a time."""
    yield f"{_title(case)}: dim X = {diamond.dim_x}\n"
    yield from (" ".join(map(str, row)) + "\n" for row in diamond.hodge)


def hh_table(case: CaseResult, pipeline: HHPipelineResult) -> Iterator[str]:
    """The ``hh`` text table in pieces, its middle row :data:`ROW_CHUNK` values at a time."""
    yield f"{_title(case)}\ndim X = {pipeline.diamond.dim_x}\nmiddle row:"
    for piece in bounded_join(" ", map(str, pipeline.diamond.middle_row())):
        yield " " + piece
    yield f"\nHH(D(X)):   {pipeline.hh_total}\nHH(comp.):  {pipeline.hh_component}\n"
    check = pipeline.check
    if check is None:
        yield "homology check: skipped (component is not an integer Calabi-Yau case)\n"
        return
    yield (f"homology check: HH_{-check.n_cy}(component) = {check.value} "
           f"(nonzero required) -> {'PASS' if check.nonvanishing else 'FAIL'}\n")
    if check.expect_one:
        yield ("one-dimensionality (projective-space hypersurface): value == 1 -> "
               f"{'PASS' if check.is_one else 'FAIL'}\n")


def verify_report(report: VerifyReport) -> Iterator[str]:
    """The ``verify`` report: the mismatches, then the negative-dimension cases."""
    from .constructions import ConstructionKind

    yield f"{len(report.mismatches)} mismatches / {report.cases} cases\n"
    for base_id, params, kind, d in report.mismatches:
        yield f"  MISMATCH {base_id} {params} {kind} d={d}\n"
    hyperplane_only = all(
        case.kind is ConstructionKind.DIVISOR and case.d == 1 for case in report.negatives
    )
    yield (f"nonnegativity: {len(report.negatives)} integer cases with negative dimension, "
           f"all hyperplane-type (divisor, d=1): {'yes' if hyperplane_only else 'NO'}\n")


#: The fields of a ``catalog`` row after ``schema_version``; the columns of its table.
CATALOG_FIELDS = (
    "id", "display_name", "parameters", "dim_m", "length_m", "rank_b", "line_bundle",
    "omega_is_l_minus_m",
)


def catalog_records(
    families: Iterable[Family], bases: Iterable[LefschetzBase]
) -> Iterator[dict]:
    """The ``catalog`` listing: each builtin family with its parameter names and
    formulas, then each user base with its parameter values and numbers."""
    entries = chain(
        (
            (f.id, f.display_name, ",".join(f.param_names), f.dim_formula, f.length_formula,
             f.rank_formula, f.line_bundle_note, True)
            for f in families
        ),
        (
            (b.id, b.display_name, ",".join(f"{k}={v}" for k, v in sorted(b.parameters)),
             str(b.dim_m), str(b.length_m), str(b.rank_b), b.line_bundle_note,
             b.omega_is_l_minus_m)
            for b in bases
        ),
    )
    for entry in entries:
        yield {"schema_version": SCHEMA_VERSION, **dict(zip(CATALOG_FIELDS, entry))}


def to_json(records: Iterable[Mapping]) -> str:
    """The payload ``{"schema_version": 1, "records": [...]}`` and a newline,
    byte for byte as ``json.dumps(payload, indent=2)`` prints it.

    Each record is encoded on its own and indented into the fixed envelope,
    :data:`ROW_CHUNK` fragments at a time: the indenting encoder otherwise
    holds every fragment of the whole document in one list before joining them.
    """
    import json

    iterencode = json.JSONEncoder(indent=2).iterencode
    parts = [f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "records": [']
    for record in records:
        parts.append(",\n    " if len(parts) > 1 else "\n    ")
        for batch in bounded_join("", iterencode(record)):
            parts.append(batch.replace("\n", "\n    "))
    parts.append("\n  ]\n}\n" if len(parts) > 1 else "]\n}\n")
    return "".join(parts)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, list):
        return ";".join(bounded_join(";", map(str, value)))
    return str(value)


def to_csv(records: Iterable[Mapping], header: Sequence[str] | None = None) -> str:
    """CSV with a header row; ``header`` defaults to the first record's keys.

    With no records the result is the header line alone, or empty when no
    header was given.
    """
    records = iter(records)
    if header is None:
        first = next(records, None)
        if first is None:
            return ""
        header = list(first)
        records = chain((first,), records)
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for record in records:
        writer.writerow([_csv_cell(record.get(key)) for key in header])
    return buffer.getvalue()


def to_table(records: Iterable[Mapping], columns: Sequence[str]) -> str:
    """Fixed-width text table of ``columns``."""
    records = iter(records)
    first = next(records, None)
    if first is None:
        return "(no records)\n"
    rows = [
        [_csv_cell(record.get(col)) for col in columns] for record in chain((first,), records)
    ]
    widths = [
        max(len(str(col)), *(len(row[i]) for row in rows)) for i, col in enumerate(columns)
    ]
    lines = ["  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(line.rstrip() for line in lines) + "\n"

