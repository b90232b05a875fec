"""Output checks for benchmark commands.

:func:`check` takes one finished command and returns ``None`` when its exit
code, streams and output agree with what :mod:`workloads` derived from
:mod:`model`, and a one-line reason otherwise.  Parsing follows the documented
output formats (fixed-width table, RFC 4180 CSV, ``{"schema_version": 1,
"records": [...]}`` JSON); the expected values never come from cycalc.
"""

from __future__ import annotations

import csv
import io
import json
import re

import model
from workloads import Command

TRACEBACK = "Traceback (most recent call last)"


def check(command: Command, returncode: int, stdout: str, stderr: str) -> str | None:
    if TRACEBACK in stderr:
        return "Python traceback on stderr"
    if returncode != command.exit_code:
        return f"exit code {returncode}, expected {command.exit_code}"
    if command.exit_code != 0:
        if stdout or not stderr.startswith("error:"):
            return "a domain error must print only 'error: ...' on stderr"
        return None
    if stderr:
        return f"unexpected stderr: {stderr.splitlines()[0][:120]}"
    try:
        return _CHECKS[command.check](command, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def parse_table(text: str) -> list[dict[str, str]]:
    """Rows of a fixed-width table; columns start where their header names do."""
    lines = text.splitlines()
    if not lines or lines[0] == "(no records)":
        return []
    header = lines[0]
    names, starts = [], []
    for match in re.finditer(r"\S+", header):
        names.append(match.group())
        starts.append(match.start())
    bounds = list(zip(starts, starts[1:] + [None]))
    return [
        {name: line[lo:hi].strip() for name, (lo, hi) in zip(names, bounds)}
        for line in lines[1:]
    ]


def _fmt(argv: tuple[str, ...]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "table"


def _records(stdout: str) -> list[dict]:
    payload = json.loads(stdout)
    if payload.get("schema_version") != 1:
        raise ValueError("schema_version is not 1")
    return payload["records"]


def _check_rows(command: Command, stdout: str) -> str | None:
    if _fmt(command.argv) == "csv":
        rows = list(csv.DictReader(io.StringIO(stdout)))
    else:
        rows = parse_table(stdout)
    got = [(r["base"], r["params"], r["construction"], int(r["degree"])) for r in rows]
    if len(got) != len(set(got)) or set(got) != command.expect:
        missing = sorted(command.expect - set(got))[:2]
        extra = sorted(set(got) - command.expect)[:2]
        return f"{len(got)} rows, expected {len(command.expect)}; missing {missing} extra {extra}"
    return None


def _check_records(command: Command, stdout: str) -> str | None:
    records = _records(stdout)
    expected: tuple[model.Row, ...] = command.expect
    if len(records) != len(expected):
        return f"{len(records)} records, expected {len(expected)}"
    for rec, row in zip(records, expected):
        want = {
            "base_id": row.base.id,
            "base": row.base.display,
            "params": dict(row.base.params),
            "dim_m": row.base.dim,
            "length_m": row.base.m,
            "construction": row.kind,
            "degree": row.d,
            "cy_dimension": model.fraction_text(row.cy_dimension),
            "is_integer_cy": row.is_integer_cy,
            "component_is_whole": row.d == row.base.m,
            "error": None,
        }
        for key, value in want.items():
            if rec.get(key) != value:
                return f"record {row.signature()}: {key} = {rec.get(key)!r}, expected {value!r}"
        if list(rec["params"]) != [k for k, _ in row.base.params]:
            return f"record {row.signature()}: parameter order {list(rec['params'])}"
    return None


def _check_verify(command: Command, stdout: str) -> str | None:
    cases, negatives, hyperplane_only = command.expect
    lines = stdout.splitlines()
    want = [
        f"0 mismatches / {cases} cases",
        f"nonnegativity: {negatives} integer cases with negative dimension, "
        f"all hyperplane-type (divisor, d=1): {'yes' if hyperplane_only else 'NO'}",
    ]
    if lines != want:
        return f"verify printed {lines[:2]!r}, expected {want!r}"
    return None


def _check_hodge(command: Command, stdout: str) -> str | None:
    expect, _ = command.expect
    if _fmt(command.argv) == "json":
        (record,) = _records(stdout)
        if record["dim_x"] != expect.dim_x:
            return f"dim_x {record['dim_x']}, expected {expect.dim_x}"
        grid = record["hodge"]
        n = expect.dim_x
        if record["middle_row"] != [grid[n - q][q] for q in range(n + 1)]:
            return "middle_row disagrees with the hodge grid"
    else:
        title, *rows = stdout.splitlines()
        if not title.endswith(f": dim X = {expect.dim_x}"):
            return f"title {title!r} does not state dim X = {expect.dim_x}"
        # row q lists h^{p,q} for p = 0..dim
        by_q = [[int(v) for v in row.split()] for row in rows]
        grid = [list(col) for col in zip(*by_q)]
    problems = model.diamond_problems(grid, expect)
    return "; ".join(problems[:2]) if problems else None


def _check_hh(command: Command, stdout: str) -> str | None:
    expect, verdict = command.expect
    if _fmt(command.argv) == "json":
        (record,) = _records(stdout)
        dim_x, middle = record["dim_x"], record["middle_row"]
        if record["is_integer_cy"] != (verdict is not None):
            return f"is_integer_cy {record['is_integer_cy']}, expected check {verdict}"
        want = None if verdict is None else verdict == "PASS"
        if record["check_passed"] is not want:
            return f"check_passed {record['check_passed']!r}, expected {want!r}"
    else:
        lines = stdout.splitlines()
        if not lines[1].startswith("dim X = "):
            return f"second line {lines[1]!r} does not state dim X"
        dim_x = int(lines[1].removeprefix("dim X = "))
        fields = dict(line.split(":", 1) for line in lines[2:] if ":" in line)
        middle = [int(v) for v in fields["middle row"].split()]
        verdicts = {line.rsplit("-> ", 1)[1] for line in lines if "-> " in line}
        reported = fields["homology check"].strip()
        if verdict is None and ("skipped" not in reported or verdicts):
            return f"not an integer Calabi-Yau case, homology check {reported!r}"
        if verdict is not None and verdicts != {verdict}:
            return f"homology checks report {sorted(verdicts)}, expected {verdict}"
    if dim_x != expect.dim_x:
        return f"dim X = {dim_x}, expected {expect.dim_x}"
    problems = model.middle_row_problems(middle, expect)
    return "; ".join(problems) if problems else None


_CHECKS = {
    "rows": _check_rows,
    "records": _check_records,
    "verify": _check_verify,
    "hodge": _check_hodge,
    "hh": _check_hh,
}
