"""Record fields and the renderers: byte identity with the one-shot encoder, and memory."""

import sys
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cycalc import cli, records
from cycalc.catalog import LefschetzBase, builtin
from cycalc.constructions import ConstructionKind
from cycalc.engine import SweepBounds, analyze, sweep
from reference import json_payload

text = st.text(alphabet=st.sampled_from('aZ09 =^-[]/τχ"\\\n\té'), max_size=12)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**12), max_value=10**12)
    | text
)
values = (
    scalars
    | st.lists(st.integers(min_value=-50, max_value=50), max_size=4)
    | st.dictionaries(st.sampled_from(["n", "k", "s", "w0", "w1"]), st.integers(1, 30), max_size=3)
)
rows = st.dictionaries(text, values, max_size=6)


@given(st.lists(rows, max_size=8))
@example([])
@example([{}])
@example([{"schema_version": 1, "params": {}, "serre_power": "S^3 = τ^1 χ^0 [-4]"}])
def test_json_of_a_generator_equals_the_one_shot_encoder(rows):
    assert records.to_json(row for row in rows) == json_payload(rows)


@pytest.mark.parametrize("sep", ["", ";", " "])
@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 9])
def test_bounded_join_is_the_whole_join_in_pieces_of_size_strings(sep, count, monkeypatch):
    size = 4
    monkeypatch.setattr(records, "ROW_CHUNK", size)
    strings = [f"s{i}" for i in range(count)]
    pieces = list(records.bounded_join(sep, iter(strings)))
    assert sep.join(pieces) == sep.join(strings)
    assert len(pieces) == -(-count // size)  # every piece but the last holds size strings


def test_json_of_sweep_records_equals_the_one_shot_encoder():
    results = sweep(SweepBounds(max_n=6, max_s=3))
    rows = [records.case_record(case) for case in results]
    # fixed bases (empty params), None, booleans, negative ints and the τ/χ of serre_power
    assert any(not row["params"] for row in rows)
    assert any(row["error"] is None for row in rows)
    assert any(row["is_integer_cy"] is True for row in rows)
    assert any(row["shift"] < 0 for row in rows)
    assert any("τ" in row["serre_power"] and "χ" in row["serre_power"] for row in rows)
    assert records.to_json(records.case_record(case) for case in results) == json_payload(rows)


def test_case_record_fields_are_case_fields():
    case = analyze(builtin("pn", {"n": 5}), ConstructionKind.DIVISOR, 3)
    assert tuple(records.case_record(case)) == records.CASE_FIELDS


def test_error_row_fields_are_case_fields():
    # an error row keeps every field, so the CSV header still names its cells
    flat = LefschetzBase("flat", "flat", 3, 4, 1, "O(1)", omega_is_l_minus_m=False)
    case, *_ = sweep(SweepBounds(families=("flat",), extra_bases=(flat,)))
    assert case.error is not None
    row = records.case_record(case)
    assert tuple(row) == records.CASE_FIELDS
    assert row["cy_dimension"] is None


def test_hodge_and_hh_records_open_like_the_case_record():
    from cycalc.hodge import diamond_for_case, hh_pipeline

    base = builtin("wpn", {"w0": 1, "w1": 1, "w2": 1, "w3": 1, "w4": 2})
    case = analyze(base, ConstructionKind.DIVISOR, 4)
    row = records.case_record(case)
    opening = list(row.items())[:4]
    assert [name for name, _ in opening] == ["schema_version", "base_id", "base", "params"]
    opening += [("construction", row["construction"]), ("degree", row["degree"])]
    for row in (
        records.hodge_record(case, diamond_for_case(case)),
        records.hh_record(case, hh_pipeline(case)),
    ):
        assert list(row.items())[:6] == opening


def test_csv_and_table_take_any_iterable():
    rows = [{"schema_version": 1, "a": 1, "b": None}, {"schema_version": 1, "a": -2, "b": True}]
    assert records.to_csv(iter(rows)) == records.to_csv(rows) == (
        "schema_version,a,b\r\n1,1,\r\n1,-2,true\r\n"
    )
    assert records.to_table(iter(rows), ("a", "b")) == "a   b\n1\n-2  true\n"
    assert records.to_table(rows, ("a", "b")) == "a   b\n1\n-2  true\n"
    assert records.to_csv(iter([]), ("a", "b")) == "a,b\r\n"
    assert records.to_csv(iter([])) == ""
    assert records.to_table(iter([]), ("a", "b")) == "(no records)\n"


class _CountingSink:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_json_sweep_peak_memory_is_a_small_multiple_of_its_output(monkeypatch):
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert cli.main(["sweep", "--format", "json", "--max-n", "12"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one-shot encoder peaked at about 10x the output, record by record is about 3x
    assert peak <= 5 * sink.chars, (peak, sink.chars)
