"""Flat output records and rendering (table / JSON / CSV).

Every JSON payload is one object {"schema_version": 1, "records": [...]} and
every record repeats the schema_version field; record field order is fixed so
repeated runs serialize byte-identically.  CSV uses RFC 4180 quoting with a
header row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from .engine import CaseResult
    from .hodge import HHPipelineResult

SCHEMA_VERSION = 1


def _fraction_str(value) -> str | None:
    if value is None:
        return None
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def case_record(case: CaseResult) -> dict:
    witness = case.witness
    nf = case.serre_power_nf
    return {
        "schema_version": SCHEMA_VERSION,
        "base_id": case.base.id,
        "base": case.base.display_name,
        "params": dict(case.base.parameters),
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
        "cy_dimension": _fraction_str(case.cy_dimension),
        "is_integer_cy": case.is_integer_cy,
        "component_is_whole": case.component_is_whole,
        "dim_x": case.dim_x,
        "error": case.error,
    }


def hh_record(case: CaseResult, pipeline: HHPipelineResult) -> dict:
    check = pipeline.check
    return {
        "schema_version": SCHEMA_VERSION,
        "base_id": case.base.id,
        "base": case.base.display_name,
        "params": dict(case.base.parameters),
        "construction": case.kind.value,
        "degree": case.d,
        "dim_x": pipeline.diamond.dim_x,
        "middle_row": list(pipeline.diamond.middle_row()),
        "hh_total": {str(k): v for k, v in pipeline.hh_total.dims.items()},
        "hh_component": {str(k): v for k, v in pipeline.hh_component.dims.items()},
        "cy_dimension": _fraction_str(case.cy_dimension),
        "is_integer_cy": case.is_integer_cy,
        "check_n_cy": check.n_cy if check else None,
        "check_value": check.value if check else None,
        "check_nonvanishing": check.nonvanishing if check else None,
        "check_expect_one": check.expect_one if check else None,
        "check_passed": check.passed if check else None,
    }


def payload(records: Sequence[Mapping]) -> dict:
    return {"schema_version": SCHEMA_VERSION, "records": list(records)}


def to_json(records: Sequence[Mapping]) -> str:
    import json

    return json.dumps(payload(records), indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def to_csv(records: Sequence[Mapping]) -> str:
    if not records:
        return ""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = list(records[0].keys())
    writer.writerow(header)
    for record in records:
        writer.writerow([_csv_cell(record.get(key)) for key in header])
    return buffer.getvalue()


def to_table(records: Sequence[Mapping], columns: Sequence[str] | None = None) -> str:
    """Fixed-width text table; column set defaults to the record keys."""
    if not records:
        return "(no records)\n"
    if columns is None:
        columns = [key for key in records[0] if key != "schema_version"]
    rows = [[_csv_cell(record.get(col)) for col in columns] for record in records]
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
