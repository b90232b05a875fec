"""Flat output records and rendering (table / JSON / CSV).

Every JSON payload is one object {"schema_version": 1, "records": [...]} and
every record repeats the schema_version field; record field order is fixed so
repeated runs serialize byte-identically.  CSV uses RFC 4180 quoting with a
header row.

The renderers take any iterable of records.  JSON and CSV encode one record
at a time, so a caller may pass a generator and no more than one record dict
is alive at once; the table keeps its cells, because the column widths depend
on every row.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from .engine import CaseResult
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


# Field order of ``case_record``; the CSV header of ``case`` and ``sweep``,
# printed even when a sweep has no records.
CASE_FIELDS = (
    "schema_version",
    "base_id",
    "base",
    "params",
    "dim_m",
    "length_m",
    "rank_b",
    "construction",
    "degree",
    "c",
    "power",
    "shift",
    "ltwist",
    "tau",
    "chi",
    "serre_power",
    "witness_p",
    "witness_q",
    "cy_dimension",
    "is_integer_cy",
    "component_is_whole",
    "dim_x",
    "error",
)


def _case_header(case: CaseResult) -> dict:
    """The fields that open every record about one case."""
    return {
        "schema_version": SCHEMA_VERSION,
        "base_id": case.base.id,
        "base": case.base.display_name,
        "params": dict(case.base.parameters),
    }


def case_record(case: CaseResult) -> dict:
    witness = case.witness
    nf = case.serre_power_nf
    return {
        **_case_header(case),
        "dim_m": case.base.dim_m,
        "length_m": case.base.length_m,
        "rank_b": case.base.rank_b,
        "construction": case.kind.value,
        "degree": case.d,
        "c": case.c,
        "power": case.power,
        "shift": nf.shift if nf else None,
        "ltwist": nf.ltwist if nf else None,
        "tau": nf.tau if nf else None,
        "chi": nf.chi if nf else None,
        "serre_power": f"S^{case.power} = {nf}" if nf else None,
        "witness_p": witness.p if witness else None,
        "witness_q": witness.q if witness else None,
        "cy_dimension": str(case.cy_dimension) if witness else None,
        "is_integer_cy": case.is_integer_cy,
        "component_is_whole": case.component_is_whole,
        "dim_x": case.dim_x,
        "error": case.error,
    }


def hodge_record(case: CaseResult, diamond: HodgeDiamond) -> dict:
    return {
        **_case_header(case),
        "construction": case.kind.value,
        "degree": case.d,
        "dim_x": diamond.dim_x,
        "hodge": [list(r) for r in diamond.hodge],
        "middle_row": list(diamond.middle_row()),
    }


def hh_record(case: CaseResult, pipeline: HHPipelineResult) -> dict:
    check = pipeline.check
    return {
        **_case_header(case),
        "construction": case.kind.value,
        "degree": case.d,
        "dim_x": pipeline.diamond.dim_x,
        "middle_row": list(pipeline.diamond.middle_row()),
        "hh_total": {str(k): v for k, v in pipeline.hh_total.dims.items()},
        "hh_component": {str(k): v for k, v in pipeline.hh_component.dims.items()},
        "cy_dimension": str(case.cy_dimension) if case.witness else None,
        "is_integer_cy": case.is_integer_cy,
        "check_n_cy": check.n_cy if check else None,
        "check_value": check.value if check else None,
        "check_nonvanishing": check.nonvanishing if check else None,
        "check_expect_one": check.expect_one if check else None,
        "check_passed": check.nonvanishing if check else None,
    }


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


CASE_TABLE_COLUMNS = (
    "base",
    "params",
    "construction",
    "degree",
    "serre_power",
    "witness_p",
    "witness_q",
    "cy_dimension",
    "is_integer_cy",
    "component_is_whole",
    "dim_x",
    "error",
)
