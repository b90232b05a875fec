"""Command-line surface: exit codes, formats, determinism, user catalogs."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cycalc

from cycalc import cli
from cycalc.catalog import FAMILIES, LefschetzBase, builtin
from cycalc.constructions import ALL_KINDS, ConstructionKind
from cycalc.engine import SweepBounds
from cycalc.errors import CycalcError
from cycalc.records import CASE_FIELDS, SCHEMA_VERSION
from reference import catalog_record, catalog_text, json_payload


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subparser(command):
    """The parser of one subcommand."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def usage(command):
    """The usage line that a subcommand prints before a usage error."""
    return subparser(command).format_usage()


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_json_has_eleven_records(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert len(payload["records"]) == 11
    assert all(r["schema_version"] == SCHEMA_VERSION for r in payload["records"])


def test_catalog_table_has_header(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    header = out.splitlines()[0]
    assert "id" in header and "display_name" in header
    assert len(out.splitlines()) == 12


def test_catalog_csv_has_eleven_rows(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 12  # header + 11
    assert rows[0][1] == "id"


# ---------------------------------------------------------------------------
# case
# ---------------------------------------------------------------------------


def test_case_cubic_fourfold(capsys):
    code, out, _ = run(
        capsys, "case", "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "3", "--format", "json",
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["cy_dimension"] == "2"
    assert record["is_integer_cy"] is True
    assert record["serre_power"] == "S^1 = τ^0 χ^0 [2]"


def test_case_fractional_dimension(capsys):
    code, out, _ = run(
        capsys, "case", "--base", "pn", "--n", "3",
        "--construction", "divisor", "--degree", "3", "--format", "json",
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["cy_dimension"] == "4/3"
    assert record["witness_p"] == 4 and record["witness_q"] == 3


def test_case_degree_out_of_range_exit_2(capsys):
    code, _, err = run(
        capsys, "case", "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "9",
    )
    assert code == 2
    assert "degree" in err


def test_case_unknown_base_exit_2(capsys):
    code, _, err = run(
        capsys, "case", "--base", "mystery", "--construction", "divisor", "--degree", "1"
    )
    assert code == 2
    assert "mystery" in err


def test_case_invalid_params_exit_2(capsys):
    code, _, err = run(
        capsys, "case", "--base", "gr", "--k", "2", "--n", "6",
        "--construction", "divisor", "--degree", "1",
    )
    assert code == 2
    assert "coprime" in err


def test_cover_degree_is_not_an_option_exit_1(capsys):
    code, out, err = run(
        capsys, "case", "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "3", "--cover-degree", "2",
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --cover-degree 2" in err


def test_usage_error_exit_1(capsys):
    assert run(capsys, "case", "--bogus-flag")[0] == 1
    assert run(capsys, "frobnicate")[0] == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_k3_list(capsys):
    code, out, _ = run(capsys, "sweep", "--cy-dim", "2", "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 3
    cases = {(r["base_id"], r["construction"], r["degree"]) for r in records}
    assert cases == {("pn", "divisor", 3), ("gr", "divisor", 1), ("gr", "cover", 1)}


def test_sweep_threefold_list(capsys):
    code, out, _ = run(capsys, "sweep", "--cy-dim", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["records"]) == 10


def test_sweep_fractional_filter(capsys):
    code, out, _ = run(
        capsys, "sweep", "--cy-dim", "4/3", "--families", "pn", "--max-n", "4",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["base_id"], r["degree"]) for r in records] == [("pn", 3)]


@pytest.mark.parametrize("text", ["two", "3/", "1/0", "", "1.5", "/3"])
def test_sweep_malformed_filter_exit_1(capsys, text):
    code, out, err = run(capsys, "sweep", f"--cy-dim={text}")
    assert (code, out) == (1, "")
    assert err == usage("sweep") + (
        f"error: argument --cy-dim: cannot parse Calabi-Yau dimension {text!r}; "
        "use an integer or p/q\n"
    )


def test_sweep_negative_fraction_needs_the_equals_form(capsys):
    # argparse reads a separate "-17/3" as an option, so the value is missing
    code, _, err = run(capsys, "sweep", "--cy-dim", "-17/3")
    assert code == 1
    assert "expected one argument" in err
    code, out, _ = run(capsys, "sweep", "--cy-dim=-17/3", "--format", "json")
    assert code == 0
    assert json.loads(out)["records"] == []
    code, out, _ = run(
        capsys, "sweep", "--cy-dim=-3", "--families", "pn", "--max-n", "4", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["params"], r["construction"], r["degree"]) for r in records] == [
        ({"n": 2}, "divisor", 1)
    ]


def test_sweep_json_round_trips(capsys):
    _, out, _ = run(capsys, "sweep", "--cy-dim", "3", "--format", "json")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_sweep_runs_are_identical(capsys):
    first = run(capsys, "sweep", "--cy-dim", "3", "--format", "json")[1]
    second = run(capsys, "sweep", "--cy-dim", "3", "--format", "json")[1]
    assert first == second


def test_sweep_csv_quoting(capsys):
    _, out, _ = run(capsys, "sweep", "--cy-dim", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 4
    assert rows[0][0] == "schema_version"


def test_empty_csv_sweep_prints_exactly_the_header(capsys):
    code, out, _ = run(capsys, "sweep", "--families", "pn", "--max-n", "0", "--format", "csv")
    assert code == 0
    assert out == ",".join(CASE_FIELDS) + "\r\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reports_zero_mismatches(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "10")
    assert code == 0
    count = int(out.split()[0])
    total = int(out.split("/")[1].split()[0])
    assert count == 0
    assert total >= 500


def test_verify_restricted_to_pn(capsys):
    code, out, _ = run(capsys, "verify", "--families", "pn", "--max-n", "12")
    assert code == 0
    assert out.startswith("0 mismatches")


def test_verify_fault_injection_exit_3(capsys, monkeypatch):
    from cycalc import engine
    from cycalc.autoeq import NormalForm

    honest = engine.closed_form

    def flipped(base, kind, d):
        nf = honest(base, kind, d)
        return NormalForm(shift=-nf.shift, ltwist=nf.ltwist, tau=nf.tau, chi=nf.chi)

    monkeypatch.setattr(engine, "closed_form", flipped)
    code, out, _ = run(capsys, "verify", "--families", "pn", "--max-n", "4")
    assert code == 3
    assert "MISMATCH" in out


def test_verify_word_path_line_twist_fault_exit_3(capsys, monkeypatch):
    from cycalc import engine
    from cycalc.autoeq import NormalForm

    honest = engine.serre_power

    def twisted(base, kind, d):
        nf = honest(base, kind, d)
        return NormalForm(shift=nf.shift, ltwist=nf.ltwist + 1, tau=nf.tau, chi=nf.chi)

    monkeypatch.setattr(engine, "serre_power", twisted)
    code, out, _ = run(capsys, "verify", "--families", "pn", "--max-n", "4")
    assert code == 3
    assert out.startswith("42 mismatches / 42 cases\n")
    assert "MISMATCH pn (1,) divisor d=1" in out


def test_repeated_kinds_count_once(capsys):
    window = ("--families", "pn", "--max-n", "2")
    code, once, _ = run(capsys, "sweep", "--kinds", "divisor", *window, "--format", "csv")
    assert code == 0
    assert len(once.splitlines()) == 6  # header + 5 divisor rows
    code, twice, _ = run(capsys, "sweep", "--kinds", "divisor,divisor", *window, "--format", "csv")
    assert (code, twice) == (0, once)
    code, out, _ = run(capsys, "verify", "--kinds", "divisor,divisor", *window)
    assert code == 0
    assert out.startswith("0 mismatches / 5 cases\n")
    assert "nonnegativity: 2 integer cases with negative dimension" in out


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_family_filter_selecting_nothing_exit_2(capsys, command):
    code, out, err = run(capsys, command, "--families", "pn,nope", "--max-n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown base id 'nope' in the families filter; builtins: pn, ")
    code, out, err = run(capsys, command, "--families", "wpn")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--include-weighted" in err
    code, out, err = run(capsys, command, "--families", ",")
    assert (code, out, err) == (2, "", "error: the families filter names no base id\n")


def test_verify_that_compares_nothing_exit_2(capsys):
    from cycalc.engine import SweepBounds, verify_cross_check

    message = "^the verify window holds no case, so nothing was compared$"
    with pytest.raises(CycalcError, match=message):
        verify_cross_check(SweepBounds(max_n=0, families=("pn",)))
    code, out, err = run(capsys, "verify", "--families", "pn", "--max-n", "0")
    assert (code, out) == (2, "")
    assert err == "error: the verify window holds no case, so nothing was compared\n"


def test_verify_that_compares_no_case_of_its_window_exit_2(tmp_path, capsys, monkeypatch):
    from cycalc.engine import SweepBounds, verify_cross_check

    record = catalog_record(builtin("pn", {"n": 3}))
    record.update(id="flat", omega_is_l_minus_m=False)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))
    flat = SweepBounds(kinds=ALL_KINDS, families=("flat",), extra_bases=cli._user_bases())
    message = (
        "^none of the 12 cases of the verify window exists on its base, "
        "so nothing was compared$"
    )
    with pytest.raises(CycalcError, match=message):
        verify_cross_check(flat)
    code, out, err = run(capsys, "verify", "--families", "flat")
    assert (code, out) == (2, "")
    assert err == (
        "error: none of the 12 cases of the verify window exists on its base, "
        "so nothing was compared\n"
    )


def test_verify_skips_the_cases_a_user_base_cannot_hold(tmp_path, monkeypatch):
    from cycalc.engine import SweepBounds, verify_cross_check

    record = catalog_record(builtin("pn", {"n": 3}))
    record.update(id="flat", omega_is_l_minus_m=False)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))
    mixed = SweepBounds(
        max_n=4, kinds=ALL_KINDS, families=("flat", "pn"), extra_bases=cli._user_bases()
    )
    report = verify_cross_check(mixed)
    # flat's 12 cases do not exist on it; pn n <= 4 has 2 + 3 + 4 + 5 cases per kind
    assert (report.cases, report.compared, report.mismatches) == (54, 42, ())
    assert [(c.base.id, c.base.param_key(), c.kind.value, c.d) for c in report.negatives] == [
        ("pn", (n,), "divisor", 1) for n in range(1, 5)
    ]


def test_verify_negatives_leave_out_whole_category_rows(tmp_path, capsys, monkeypatch):
    from cycalc.engine import SweepBounds, verify_cross_check

    # on a base of dimension 0 the divisor's d = m row has p = -1 < 0, but its
    # component is all of D(X); only the divisor and root rows of d = 1 count
    point = LefschetzBase("point", "pt", 0, 2, 1, "O", omega_is_l_minus_m=True)
    path = tmp_path / "catalog.json"
    path.write_text(catalog_text([point]), encoding="utf-8")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))
    report = verify_cross_check(
        SweepBounds(kinds=ALL_KINDS, families=("point",), extra_bases=cli._user_bases())
    )
    assert not any(case.component_is_whole for case in report.negatives)
    assert [(c.kind.value, c.d) for c in report.negatives] == [("divisor", 1), ("root", 1)]
    code, out, _ = run(capsys, "verify", "--families", "point")
    assert code == 0
    assert out.splitlines()[-1] == (
        "nonnegativity: 2 integer cases with negative dimension, "
        "all hyperplane-type (divisor, d=1): NO"
    )


def test_family_filter_accepts_user_catalog_ids(tmp_path, capsys, monkeypatch):
    record = catalog_record(builtin("pn", {"n": 5}))
    record["id"] = "mybase"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))
    code, out, _ = run(capsys, "sweep", "--families", "mybase", "--cy-dim", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["base_id"], row["degree"]) for row in rows] == [("mybase", "3")]
    code, out, _ = run(capsys, "verify", "--families", "mybase")
    assert (code, out.splitlines()[0]) == (0, "0 mismatches / 18 cases")


def test_verify_rejects_format_as_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--families", "pn", "--max-n", "4", "--format", "json")
    assert code == 1
    assert out == ""
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --format json" in err


# ---------------------------------------------------------------------------
# window flags: each names a SweepBounds field, and SweepBounds holds the defaults
# ---------------------------------------------------------------------------


#: The window each command sweeps when no window flag is given.
WINDOW_DEFAULTS = {"sweep": SweepBounds(), "verify": SweepBounds(kinds=ALL_KINDS)}

#: One window flag, its value on the command line and the field value it sets.
WINDOW_FLAG_VALUES = [
    (("--max-n", "7"), "max_n", 7),
    (("--max-s", "2"), "max_s", 2),
    (("--max-weight-sum", "9"), "max_weight_sum", 9),
    (("--include-weighted",), "include_weighted", True),
    (("--kinds", "root"), "kinds", (ConstructionKind.ROOT_STACK,)),
    (("--families", "pn"), "families", ("pn",)),
]


def window_of(monkeypatch, capsys, command, *flags):
    """The ``SweepBounds`` that ``command`` hands the engine for its window ``flags``."""
    monkeypatch.delenv("CYCALC_CATALOG", raising=False)
    seen = []

    def capture(bounds, **_):
        seen.append(bounds)
        raise CycalcError("captured")

    monkeypatch.setattr(cli, "sweep" if command == "sweep" else "verify_cross_check", capture)
    assert run(capsys, command, *flags) == (2, "", "error: captured\n")
    (bounds,) = seen
    return bounds


def test_every_window_flag_names_a_sweep_bounds_field():
    parser = argparse.ArgumentParser()
    cli._add_bounds_args(parser)
    window = [action for action in parser._actions if action.dest != "help"]
    assert {action.dest for action in window} <= set(SweepBounds.__slots__)
    assert sorted(action.dest for action in window) == sorted(
        field for _, field, _ in WINDOW_FLAG_VALUES
    )
    # an absent flag is None, so SweepBounds fills in its own default
    assert all(action.default is None for action in window)


@pytest.mark.parametrize("command", list(WINDOW_DEFAULTS))
def test_no_window_flag_gives_the_library_window(monkeypatch, capsys, command):
    assert window_of(monkeypatch, capsys, command) == WINDOW_DEFAULTS[command]


@pytest.mark.parametrize("command", list(WINDOW_DEFAULTS))
@pytest.mark.parametrize(
    "flag, field, value", WINDOW_FLAG_VALUES, ids=[flag[0] for flag, _, _ in WINDOW_FLAG_VALUES]
)
def test_a_window_flag_alone_changes_only_its_own_field(
    monkeypatch, capsys, command, flag, field, value
):
    default = WINDOW_DEFAULTS[command]
    expected = {name: getattr(default, name) for name in SweepBounds.__slots__}
    expected[field] = value
    assert window_of(monkeypatch, capsys, command, *flag) == SweepBounds(**expected)


def test_case_json_keeps_twelve_weights_in_index_order(capsys):
    weights = ",".join(str(w) for w in range(12, 0, -1))
    code, out, _ = run(
        capsys, "case", "--base", "wpn", "--weights", weights,
        "--construction", "divisor", "--degree", "3", "--format", "json",
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert list(record["params"].items()) == [(f"w{i}", i + 1) for i in range(12)]


# sha256 of stdout for representative commands.  A change to any of these
# outputs must be deliberate: update the digest and record why in CHANGES.md.
STDOUT_SHA256 = [
    (("catalog",), "2288a43ee022c2fe1119c0cfda384d9ecf03e211e717954cb4ab6dc3702418cb"),
    (
        ("catalog", "--format", "csv"),
        "dbf069f19d99e7742ff07680ed5783132094d670107af1fa6eee63112a5707f4",
    ),
    (
        ("catalog", "--format", "json"),
        "d8d1fc776d9c0ad5c8a6672164241f54a2a946f7a9ccbac6899db36aed59ba0a",
    ),
    (
        ("sweep", "--format", "json"),
        "7a74f789656c095dcf56178d0fb2562e335df8f592dfb7e3604208817064c2e2",
    ),
    (
        (
            "sweep", "--include-weighted", "--families", "wpn",
            "--max-weight-sum", "12", "--format", "json",
        ),
        "619a4fc424dd3c0c4a6ebf5607b4fd5a61a5c4fefcf874a51447a51028f5bb7f",
    ),
    (("verify",), "25dab76196ca6683a76b8bd172937bc25a47d58fed3704eb36436b386ae559d7"),
    (
        (
            "hh", "--base", "pn", "--n", "5",
            "--construction", "divisor", "--degree", "3", "--format", "json",
        ),
        "1c08df649f986c47bfe3e505836e9e90dd40e394c205a6fb39066dfa4f6a6782",
    ),
    # the hh text table: a PASS with the one-dimensionality line, a FAIL, a
    # skipped check and a weighted PASS without the one-dimensionality line
    (
        ("hh", "--base", "pn", "--n", "5", "--construction", "divisor", "--degree", "3"),
        "cf8d994f77e031a01590f10e715c9e13ae9fb3c4603586d84bc25dd7b11c66a9",
    ),
    (
        ("hh", "--base", "pn", "--n", "4", "--construction", "divisor", "--degree", "1"),
        "f8e9a6999228fddfdb4713cd9a1355f1fccb2ffa3092c29b2f9a1e50a15cb51b",
    ),
    (
        ("hh", "--base", "pn", "--n", "5", "--construction", "divisor", "--degree", "4"),
        "442ae3fb0938ba9dd647c8008b5800bb6577f10295c64bdf200065ff26258c15",
    ),
    (
        (
            "hh", "--base", "wpn", "--weights", "1,1,1,1,2",
            "--construction", "divisor", "--degree", "6",
        ),
        "ec4ab45bb1c0ab3c363908d7d67dd83407da826f18fbacf42761e9bc9acf3a27",
    ),
    # the same case's hodge table is a HODGE_MATRIX row
    (
        (
            "hodge", "--base", "pn", "--n", "5",
            "--construction", "divisor", "--degree", "3", "--format", "csv",
        ),
        "a0fcd48b0a038be12dae8abbccb5f76692b879887fd1f4e5c51bfa08fcc5d99b",
    ),
]


def test_stdout_is_byte_identical_to_recorded_digests(capsys, monkeypatch):
    monkeypatch.delenv("CYCALC_CATALOG", raising=False)
    for argv, digest in STDOUT_SHA256:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


# sha256 of each parser's -h output at 80 columns.  The flag converters do not
# change it: --construction keeps its {divisor,cover,root} metavar.
HELP_SHA256 = {
    (): "2010ee04fd8c434656837af4b74248ef4188b2cd986f533eb8830651fd4cc171",
    ("catalog",): "408cb909d6ac53f204fd9e025c38f79164cdad8598234ac4fefa014a02cb934a",
    ("case",): "a66d03d2bd67eeb47680f3a339b8ef2e37b69c7f15ee97a71692cc172de7659c",
    ("sweep",): "94f257305f3cbac7d491c9a9eaa9175419af3423b6753b772e571b89e40e7e17",
    ("verify",): "a4efcf259c05be74b10608525e28017109486bf089ceadc6190c317e65958e6b",
    ("hodge",): "bc5095f943b6b3d2ead7faeebc8b00b9e2a615a5455404767a529c1f12e9b17b",
    ("hh",): "d58fd69d55181a2cd00e0df7215833504aeab90e9342fbb28322079a91eeb970",
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the digests were recorded with Python 3.11's argparse layout",
)
@pytest.mark.parametrize("command", list(HELP_SHA256), ids=lambda c: " ".join(c) or "cycalc")
def test_help_is_byte_identical_to_recorded_digests(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command, "-h")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_SHA256[command]


def test_docstring_names_the_subcommands_in_table_order():
    # the module docstring is the -h description, and the table builds the parser
    (line,) = [line for line in cli.__doc__.splitlines() if line.startswith("Subcommands:")]
    assert line == f"Subcommands: {' | '.join(name for name, *_ in cli._COMMANDS)}."


@pytest.mark.parametrize(
    "command, head",
    [
        # about 600 KB of output: the command writes again after the reader is gone
        (("hh", "--base", "pn", "--n", "300000"), b"P^300000, "),
        # a few lines, still buffered when the reader goes, written at the end of the run
        (("hodge", "--base", "pn", "--n", "5"), b""),
    ],
)
def test_a_reader_that_closes_stdout_early_ends_the_run_with_exit_2(command, head):
    env = dict(os.environ, PYTHONPATH=str(Path(cycalc.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is then block-buffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycalc", *command, "--construction", "divisor", "--degree", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: standard output was closed before the output was complete\n"


# ---------------------------------------------------------------------------
# hodge / hh
# ---------------------------------------------------------------------------


# Hodge and homology commands over every realisation row and every refusal:
# command line, exit code, sha256 of stdout and stderr, recorded when each
# row still had its own code path.
HODGE_MATRIX = [
    ("hodge --base pn --n 5 --construction divisor --degree 1", 0,
     "233d6a8139f30ab4a57c0a704460162d8e8a44a841f8d0a3e817bea9bac1dec8", ""),
    ("hh --base pn --n 5 --construction divisor --degree 1", 0,
     "707ed126978d49fb82893b73c70f62b21d45360b3f7fda297692936c1bf8e129", ""),
    ("hodge --base pn --n 5 --construction divisor --degree 3", 0,
     "0466ae00d7d06bbef9a6f4fe0d04bb076ec52b69e157d91cf6e7cc6f290ef890", ""),
    ("hh --base pn --n 5 --construction divisor --degree 3 --format json", 0,
     "1c08df649f986c47bfe3e505836e9e90dd40e394c205a6fb39066dfa4f6a6782", ""),
    ("hodge --base pn --n 4 --construction cover --degree 1", 0,
     "e61c9903629f7c49404834970f7b4481a9da5acd6e1118ec7f1d9b1b8d757bb5", ""),
    ("hh --base pn --n 4 --construction cover --degree 1 --format csv", 0,
     "0ce39590a2783a76a64e0ba92f878a085fc5e930e45fbc4d83904aa8f920cbd5", ""),
    ("hodge --base pn --n 1 --construction divisor --degree 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: ambient projective space must have n >= 2, got 1\n"),
    ("hh --base pn --n 1 --construction divisor --degree 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: ambient projective space must have n >= 2, got 1\n"),
    ("hodge --base pn --n 1 --construction cover --degree 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: base projective space must have n >= 2, got 1\n"),
    ("hh --base pn --n 1 --construction cover --degree 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: base projective space must have n >= 2, got 1\n"),
    ("hodge --base wpn --weights 1,1,1,3 --construction divisor --degree 6", 0,
     "702001ff177d9340d7448928cf576f337e342e3d6961a3b7c71c764ef72cd9be", ""),
    ("hh --base wpn --weights 1,1,1,3 --construction divisor --degree 6 --format json", 0,
     "b57f44fd12a82b9ffe3aa59128dd3024d3c8e59c259631137a6811cca599c07a", ""),
    ("hodge --base wpn --weights 1,2 --construction divisor --degree 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: need an ambient space of dimension at least 2\n"),
    ("hh --base wpn --weights 1,2 --construction divisor --degree 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: need an ambient space of dimension at least 2\n"),
    ("hodge --base wpn --weights 2,2 --construction divisor --degree 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: need an ambient space of dimension at least 2\n"),
    ("hh --base wpn --weights 2,2 --construction divisor --degree 4", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: need an ambient space of dimension at least 2\n"),
    ("hodge --base wpn --weights 1,1,3 --construction divisor --degree 3", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: degree 3 must exceed every weight, got weight 3\n"),
    ("hh --base wpn --weights 1,1,3 --construction divisor --degree 3", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: degree 3 must exceed every weight, got weight 3\n"),
    ("hodge --base wpn --weights 1,1,1 --construction divisor --degree 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: degree 1 must exceed every weight, got weight 1\n"),
    ("hodge --base wpn --weights 1,2,2,3 --construction divisor --degree 6", 0,
     "9402ec4145324778adffc0cd5cedcb2f7bd7131ebc3dd292d1b7c77392af778a", ""),
    ("hh --base wpn --weights 1,2,2,3 --construction divisor --degree 6", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: weights 1,2,2,3 are not pairwise coprime; the twisted sectors of "
     "the stacky locus are not modelled\n"),
    ("hh --base wpn --weights 1,2,2,3 --construction root --degree 3", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: root-stack cases carry twisted sectors; not computed\n"),
    ("hh --base wpn --weights 1,2,2,3 --construction cover --degree 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: no Hodge machinery for base 'wpn' with construction 'cover'\n"),
    ("hodge --base wpn --weights 1,2,3 --construction cover --degree 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: no Hodge machinery for base 'wpn' with construction 'cover'\n"),
    ("hodge --base pn --n 5 --construction root --degree 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: root-stack cases carry twisted sectors; not computed\n"),
    ("hh --base pn --n 5 --construction root --degree 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: root-stack cases carry twisted sectors; not computed\n"),
    ("hodge --base gr --k 2 --n 5 --construction divisor --degree 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: no Hodge machinery for base 'gr' with construction 'divisor'\n"),
    ("hh --base gr --k 2 --n 5 --construction cover --degree 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: no Hodge machinery for base 'gr' with construction 'cover'\n"),
    ("hodge --base pn --n 10000 --construction divisor --degree 1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: a dimension-9999 diamond of degree 1 needs more than 2,000,000 "
     "coefficient updates and table cells; refused\n"),
    ("hh --base pn --n 10000 --construction divisor --degree 5000", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: a dimension-9999 diamond of degree 5000 needs more than 2,000,000 "
     "coefficient updates and table cells; refused\n"),
    ("hodge --base pn --n 2000 --construction cover --degree 3 --format json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: a dimension-2000 diamond of degree 6 needs more than 2,000,000 "
     "coefficient updates and table cells; refused\n"),
    ("hodge --base wpn --weights 1,1,200000,200000 --construction divisor --degree 400000", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "error: a dimension-2 diamond of degree 400000 needs more than 2,000,000 "
     "coefficient updates and table cells; refused\n"),
    ("hodge --base pn --n 45 --construction cover --degree 46 --format csv", 0,
     "63602b017a2e04a59fd451cdbceef0c5671d7e5e667da5c523028ceae3d91c50", ""),
    ("hh --base pn --n 8 --construction divisor --degree 3", 0,
     "ab85b3ef5c2a29d0ad6527b74011ead2babab6d6837a8dced4e15e017f64ddc5", ""),
]


@pytest.mark.parametrize("command, code, digest, err", HODGE_MATRIX)
def test_hodge_matrix_prints_the_recorded_bytes(capsys, command, code, digest, err):
    got_code, out, got_err = run(capsys, *command.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_hodge_prints_diamond(capsys):
    code, out, _ = run(
        capsys, "hodge", "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "3",
    )
    assert code == 0
    assert "dim X = 4" in out
    lines = out.splitlines()
    assert lines[3] == "0 0 21 0 0"  # q = 2 row: h^{2,2} = 21
    assert lines[2] == "0 1 0 1 0"  # q = 1 row: h^{1,1} = h^{3,1} = 1


def test_hh_cubic_fourfold(capsys):
    code, out, _ = run(
        capsys, "hh", "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "3", "--format", "json",
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["hh_component"] == {"-2": 1, "0": 22, "2": 1}
    assert record["check_value"] == 1
    assert record["check_passed"] is True


def test_hh_cubic_sevenfold(capsys):
    code, out, _ = run(
        capsys, "hh", "--base", "pn", "--n", "8",
        "--construction", "divisor", "--degree", "3", "--format", "json",
    )
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["hh_component"]["-3"] == 1
    assert record["check_passed"] is True


def test_hh_unsupported_base_exit_2(capsys):
    code, _, err = run(
        capsys, "hh", "--base", "gr", "--k", "2", "--n", "5",
        "--construction", "cover", "--degree", "1",
    )
    assert code == 2
    assert "gr" in err


def test_hh_root_stack_exit_2(capsys):
    code, _, err = run(
        capsys, "hh", "--base", "pn", "--n", "3",
        "--construction", "root", "--degree", "2",
    )
    assert code == 2
    assert "twisted sectors" in err


def test_hh_refuses_weights_sharing_a_factor_exit_2(capsys):
    # the Fermat quartic in P(2,2,2,2) meets the stacky locus everywhere
    code, out, err = run(
        capsys, "hh", "--base", "wpn", "--weights", "2,2,2,2",
        "--construction", "divisor", "--degree", "4",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: weights 2,2,2,2 are not pairwise coprime; "
        "the twisted sectors of the stacky locus are not modelled\n"
    )


def test_hh_table_mentions_check(capsys):
    code, out, _ = run(
        capsys, "hh", "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "3",
    )
    assert code == 0
    assert "PASS" in out


def test_hh_zero_calabi_yau_case_has_no_one_dimensionality_line(capsys):
    # the quadric surface's component is 0-Calabi-Yau: HH_0 holds both spinor
    # classes, so its value is 2 and one-dimensionality is not expected
    argv = ("hh", "--base", "pn", "--n", "3", "--construction", "divisor", "--degree", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.endswith("homology check: HH_0(component) = 2 (nonzero required) -> PASS\n")
    assert "one-dimensionality" not in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    (record,) = json.loads(out)["records"]
    assert (code, record["check_n_cy"], record["check_expect_one"]) == (0, 0, False)


def test_oversized_hodge_exits_2_quickly_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(cycalc.__file__).resolve().parents[1]))
    for degree in ("5000", "1"):
        argv = [
            sys.executable, "-m", "cycalc", "hodge", "--base", "pn", "--n", "10000",
            "--construction", "divisor", "--degree", degree,
        ]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "k, n, fmt",
    [("3000", "100001", "json"), ("1000000", "2000001", "table")],
)
def test_oversized_grassmannian_exits_2_quickly_without_traceback(k, n, fmt):
    env = dict(os.environ, PYTHONPATH=str(Path(cycalc.__file__).resolve().parents[1]))
    argv = [
        sys.executable, "-m", "cycalc", "case", "--base", "gr", "--k", k, "--n", n,
        "--construction", "divisor", "--degree", "1", "--format", fmt,
    ]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: the block rank C({n},{k})/{n} of Gr({k},{n}) has more than 4,300 digits; "
        "refused\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--max-n", "100000"),
        ("sweep", "--include-weighted", "--max-weight-sum", "40"),
        ("verify", "--max-n", "100000"),
    ],
)
def test_oversized_window_exits_2_quickly_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cycalc.__file__).resolve().parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cycalc", *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: the window holds more than 3,000,000 cases; refused")
    assert proc.stderr.count("\n") == 1


def test_hodge_self_check_failure_exits_3(capsys, monkeypatch):
    from cycalc.hodge import HodgeDiamond

    def broken(self):
        raise AssertionError("h^{0,0} must be 1")

    monkeypatch.setattr(HodgeDiamond, "_validate", broken)
    code, out, err = run(
        capsys, "hodge", "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "3",
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: h^{0,0} must be 1\n"


@pytest.mark.parametrize("command", ["hodge", "hh"])
def test_a_middle_row_that_is_no_palindrome_exits_3(capsys, monkeypatch, command):
    from cycalc import hodge

    # the cubic fourfold reads degrees -3, 0, 3, 6, 9: a lone t^0 gives (0, 1, 0, 0, 0)
    monkeypatch.setattr(hodge, "jacobian_poincare", lambda *a: hodge.PoincareSeries((1,)))
    code, out, err = run(
        capsys, command, "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "3",
    )
    assert (code, out) == (3, "")
    assert err == (
        "internal error: primitive middle row (0, 1, 0, 0, 0) breaks symmetry and duality\n"
    )


def test_integrality_cross_check_failure_exits_3(capsys, monkeypatch):
    from cycalc import engine

    honest = engine._integrality_expected
    monkeypatch.setattr(engine, "_integrality_expected", lambda *a: not honest(*a))
    code, _, err = run(
        capsys, "case", "--base", "pn", "--n", "5",
        "--construction", "divisor", "--degree", "3",
    )
    assert code == 3
    assert err.startswith("internal error: integrality witness disagrees")


def test_sweep_self_check_failure_in_one_case_fails_the_whole_run(capsys, monkeypatch):
    # a sweep whose self-check failed has no rows worth trusting: no partial output
    from cycalc import engine

    honest = engine._integrality_expected

    def wrong_for_pn_divisor_7(kind, d, m):
        if kind is ConstructionKind.DIVISOR and d == 7:
            return not honest(kind, d, m)
        return honest(kind, d, m)

    monkeypatch.setattr(engine, "_integrality_expected", wrong_for_pn_divisor_7)
    code, out, err = run(capsys, "sweep", "--families", "pn", "--max-n", "8")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert "pn divisor d=7" in err


# ---------------------------------------------------------------------------
# user catalogs via CYCALC_CATALOG
# ---------------------------------------------------------------------------


def test_user_catalog_merges(tmp_path, capsys, monkeypatch):
    record = catalog_record(builtin("pn", {"n": 5}))
    record["id"] = "mybase"
    record["display_name"] = "my base"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))

    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["records"]) == 12

    code, out, _ = run(
        capsys, "case", "--base", "mybase",
        "--construction", "divisor", "--degree", "3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["records"][0]["cy_dimension"] == "2"


def test_user_catalog_parameters_in_catalog_and_case(tmp_path, capsys, monkeypatch):
    record = catalog_record(builtin("pn", {"n": 5}))
    record.update(id="mybase", parameters={"z": 3, "a": 1})
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([record]), encoding="utf-8")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))

    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    assert json.loads(out)["records"][-1]["parameters"] == "a=1,z=3"

    code, out, _ = run(
        capsys, "case", "--base", "mybase",
        "--construction", "divisor", "--degree", "3", "--format", "json",
    )
    assert code == 0
    assert list(json.loads(out)["records"][0]["params"].items()) == [("z", 3), ("a", 1)]


def test_user_catalog_collision_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "catalog.json"
    path.write_text(catalog_text([builtin("pn", {"n": 5})]), encoding="utf-8")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))
    code, _, err = run(capsys, "catalog")
    assert code == 2
    assert "collides" in err


def test_user_catalog_missing_file_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "missing.json"
    monkeypatch.setenv("CYCALC_CATALOG", str(path))
    code, out, err = run(capsys, "catalog")
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: cannot read catalog: No such file or directory\n"


def test_user_catalog_not_utf8_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "catalog.json"
    path.write_bytes(b"[\xff\xfe]")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))
    code, out, err = run(capsys, "catalog")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: catalog is not UTF-8 text")


def test_a_user_base_takes_no_family_parameters_exit_2(tmp_path, capsys, monkeypatch):
    write_user_catalog(tmp_path, monkeypatch, "mybase")
    code, out, err = run(
        capsys, "case", "--base", "mybase", "--n", "3",
        "--construction", "divisor", "--degree", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: user base 'mybase' takes no family parameters\n"


# ---------------------------------------------------------------------------
# hostile input: pinned messages, integer bounds, no traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--kinds", "triple"),
        ("verify", "--kinds", "divisor, triple"),
        ("case", "--base", "pn", "--n", "5", "--construction", "triple", "--degree", "1"),
    ],
)
def test_unknown_kind_message_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    option = "--construction" if argv[0] == "case" else "--kinds"
    assert (code, out) == (1, "")
    assert err == usage(argv[0]) + (
        f"error: argument {option}: unknown construction 'triple'; use divisor, cover or root\n"
    )


def test_weights_that_do_not_parse_are_a_usage_error(capsys):
    code, out, err = run(
        capsys, "case", "--base", "wpn", "--weights", "1,x", "--construction", "divisor",
        "--degree", "1",
    )
    assert (code, out) == (1, "")
    assert err == usage("case") + "error: argument --weights: cannot parse weights '1,x'\n"


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--kinds", "at least one construction kind is required"),
        ("--families", "the families filter names no base id"),
    ],
)
def test_an_empty_list_flag_is_refused_like_one_naming_nothing(capsys, command, flag, message):
    refused = (2, "", f"error: {message}\n")
    assert run(capsys, command, flag, ",") == refused
    assert run(capsys, command, flag, "") == refused
    assert run(capsys, command, f"{flag}=") == refused


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_projective_space_of_4300_digit_dimension_exits_2(capsys, fmt):
    code, out, err = run(
        capsys, "case", "--base", "pn", "--n", "9" * 4300, "--construction", "divisor",
        "--degree", "1", "--format", fmt,
    )
    assert (code, out, err) == (2, "", "error: dim_m has more than 2,000 digits; refused\n")


def write_user_catalog(tmp_path, monkeypatch, base_id, **raw):
    """A one-entry catalog, P^5 renamed ``base_id``, whose ``raw`` fields hold JSON text.

    json.dumps cannot print an integer of more than 4,300 digits, so such
    values are spliced into the text.
    """
    record = dict(catalog_record(builtin("pn", {"n": 5})), id=base_id)
    text = json.dumps([{**record, **{key: f"@{key}@" for key in raw}}])
    for key, value in raw.items():
        text = text.replace(f'"@{key}@"', value)
    path = tmp_path / "catalog.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setenv("CYCALC_CATALOG", str(path))
    return path


@pytest.mark.parametrize(
    "value",
    ["9" * 5000, "[" * 100_000 + "]" * 100_000],
    ids=["5000-digit integer", "arrays nested 100000 deep"],
)
def test_unreadable_user_catalog_exits_2_naming_the_file(tmp_path, capsys, monkeypatch, value):
    path = write_user_catalog(tmp_path, monkeypatch, "mine", rank_b=value)
    code, out, err = run(capsys, "catalog")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_user_base_with_4300_digit_length_exits_2(tmp_path, capsys, monkeypatch):
    write_user_catalog(tmp_path, monkeypatch, "long", length_m="9" * 4300)
    for fmt in ("table", "json", "csv"):
        code, out, err = run(
            capsys, "case", "--base", "long", "--construction", "divisor", "--degree", "1",
            "--format", fmt,
        )
        assert (code, out, err) == (2, "", "error: length_m has more than 2,000 digits; refused\n")


def test_largest_admitted_user_base_prints_in_every_format(tmp_path, capsys, monkeypatch):
    largest = 10**2000 - 1
    write_user_catalog(tmp_path, monkeypatch, "huge", dim_m=str(largest), length_m=str(largest))
    for kind in ("divisor", "cover", "root"):
        for fmt in ("table", "json", "csv"):
            code, out, err = run(
                capsys, "case", "--base", "huge", "--construction", kind,
                "--degree", str(largest - 1), "--format", fmt,
            )
            assert (code, err) == (0, "")
            assert str(largest) in out or fmt == "table"


@pytest.mark.parametrize(
    "argv, option",
    [
        (("case", "--base", "sgr36", "--construction", "divisor", "--degree=--"), "--degree"),
        (("case", "--base=--", "--construction", "divisor", "--degree", "1"), "--base"),
        (("hh", "--base", "wpn", "--weights=--", "--construction", "divisor", "--degree", "1"),
         "--weights"),
        (("sweep", "--kinds=--"), "--kinds"),
        (("verify", "--max-weight-sum=--"), "--max-weight-sum"),
    ],
)
def test_an_option_given_as_two_dashes_is_a_usage_error(capsys, argv, option):
    # argparse strips the "--" and stores an empty list, which reached the engine
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument {option}: expected one argument\n")


# An integer flag's text: mostly small, otherwise just under or over Python's
# 4,300-digit conversion limit or the 2,000-digit base bound, negative, or
# malformed.
small_int_texts = st.integers(min_value=-3, max_value=60).map(str)
int_texts = st.one_of(
    small_int_texts,
    small_int_texts,
    small_int_texts,
    st.integers(min_value=1, max_value=4400).map(lambda digits: "9" * digits),
    st.integers(min_value=1995, max_value=2005).map(lambda digits: "1" + "0" * digits),
    st.integers(min_value=1, max_value=4400).map(lambda digits: "-" + "9" * digits),
    st.sampled_from(["", "x", "1.5", "0x10", " 7", "1_000", "٣", "-", "+4", "--"]),
)
weight_texts = st.one_of(
    st.lists(int_texts, max_size=6).map(",".join),
    st.sampled_from([",", ",,1", "1,,2", "a,b"]),
)
FLAG_TEXTS = {"n": int_texts, "k": int_texts, "s": int_texts, "weights": weight_texts}


@st.composite
def hostile_case_argv(draw):
    """case/hodge/hh argv: mostly the base's own parameter flags, one in ten flipped."""
    base = draw(st.sampled_from([*cycalc.BUILTIN_IDS, "nope"]))
    own = ("weights",) if base == "wpn" else getattr(FAMILIES.get(base), "param_names", ())
    argv = [draw(st.sampled_from(["case", "hodge", "hh"])), f"--base={base}"]
    for name, texts in FLAG_TEXTS.items():
        if (name in own) != (draw(st.integers(min_value=0, max_value=9)) == 0):
            argv.append(f"--{name}={draw(texts)}")
    kinds = st.sampled_from([kind.value for kind in ALL_KINDS] + ["triple"])
    argv.append("--construction=" + draw(kinds))
    argv.append("--degree=" + draw(int_texts))
    argv.append("--format=" + draw(st.sampled_from(["table", "json", "csv"])))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hostile_case_argv())
@example(["case", "--base=pn", "--n=" + "9" * 4300, "--construction=divisor", "--degree=1",
          "--format=json"])
@example(["hh", "--base=pn", "--n=" + "9" * 1999, "--construction=cover",
          "--degree=" + "9" * 1999, "--format=table"])
@example(["case", "--base=wpn", "--weights=" + ",".join(["9" * 1999] * 3),
          "--construction=root", "--degree=" + "9" * 1999, "--format=csv"])
def test_hostile_case_flags_exit_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 5
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# the command layer keeps no second copy of the family rows
# ---------------------------------------------------------------------------


def subcommand_options(command):
    """The option strings of one subcommand, as its parser declares them."""
    return {
        action.option_strings[0]: action
        for action in subparser(command)._actions
        if action.option_strings and action.dest != "help"
    }


@pytest.mark.parametrize("command", ["case", "hodge", "hh"])
def test_every_integer_family_parameter_is_a_flag(command):
    options = subcommand_options(command)
    for family in FAMILIES.values():
        for name in family.param_names:
            if family.id != "wpn":
                assert options[f"--{name}"].type is int, (family.id, name)
    assert options["--weights"].type is cli._weights  # wpn's one list-valued flag


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_hh_is_sized_by_the_middle_row_it_reads(capsys, fmt):
    # dim X = 1499: 1500 cells of the middle row, 1500^2 of the table hodge prints
    argv = ("--base", "pn", "--n", "1500", "--construction", "divisor", "--degree", "1")
    code, out, err = run(capsys, "hh", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert "1500" in out
    code, out, err = run(capsys, "hodge", *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (
        "error: a dimension-1499 diamond of degree 1 needs more than 2,000,000 coefficient "
        "updates and table cells; refused\n"
    )
    code, out, err = run(capsys, "hh", *argv[:3], "10000000", *argv[4:], "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: a dimension-9999999 diamond of degree 1 needs more than ")


class _Chunks(io.TextIOBase):
    """A text stream that keeps each write as it came."""

    def __init__(self):
        self.parts = []

    def writable(self):
        return True

    def write(self, text):
        self.parts.append(text)
        return len(text)


def hh_peak(*options):
    """Exit code, stdout and tracemalloc peak of ``hh`` on the P^299999 divisor case.

    dim X = 299,999: a middle row of 300,000 zeros.
    """
    import tracemalloc

    sink = _Chunks()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(
                ["hh", "--base", "pn", "--n", "300000", "--construction", "divisor"]
                + ["--degree", "1", *options]
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, "".join(sink.parts), peak


def test_hh_writes_a_long_middle_row_without_holding_it_as_strings():
    code, out, peak = hh_peak()
    assert code == 0
    assert out.splitlines()[2] == "middle row: " + " ".join("0" * 300_000)
    # a str for every cell of the row at once peaks near 22 MB; chunks stay near 5 MB
    assert peak < 10 * 2**20


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_hh_encodes_a_long_middle_row_in_batches(fmt):
    code, out, peak = hh_peak("--format", fmt)
    assert code == 0
    if fmt == "json":
        (record,) = json.loads(out)["records"]
        assert record["middle_row"] == [0] * 300_000
        # byte for byte what the one-shot standard encoder prints
        assert out == json_payload([record])
    else:
        # no cell holds a comma; the csv reader refuses a field this long
        header, row = (line.split(",") for line in out.splitlines())
        assert dict(zip(header, row))["middle_row"] == ";".join("0" * 300_000)
    # one list of every encoder fragment or cell string peaks above 22 MB;
    # batches of them stay under 13 MB
    assert peak < 16 * 2**20


def test_hh_csv_middle_row_reads_back_only_with_a_raised_field_limit(capsys):
    # dim X = 69,999: a cell of 70,000 values, 139,999 characters
    code, out, _ = run(
        capsys, "hh", "--base", "pn", "--n", "70000", "--construction", "divisor",
        "--degree", "1", "--format", "csv",
    )
    assert code == 0
    default = csv.field_size_limit()
    with pytest.raises(csv.Error):
        list(csv.reader(io.StringIO(out)))
    csv.field_size_limit(2**20)
    try:
        header, row = csv.reader(io.StringIO(out))
    finally:
        csv.field_size_limit(default)
    cell = dict(zip(header, row))["middle_row"]
    assert len(cell) > default
    assert cell.split(";") == ["0"] * 70_000


@pytest.mark.parametrize(
    "base, flag", [("quadric4s2", "--s"), ("ogr2", "--n"), ("igr2", "--n")]
)
def test_a_name_that_would_print_past_the_int_limit_is_refused_first(capsys, base, flag):
    # 4s+2 and 2n+1 have 4,301 digits: the display name could not print them
    code, out, err = run(
        capsys, "case", "--base", base, flag, "9" * 4300, "--construction", "divisor",
        "--degree", "1",
    )
    assert (code, out, err) == (2, "", "error: dim_m has more than 2,000 digits; refused\n")


def mostly(valid, *hostile):
    """``valid`` nine times in ten, otherwise one of the ``hostile`` strategies."""
    return st.integers(min_value=0, max_value=9).flatmap(
        lambda roll: valid if roll else st.one_of(*hostile)
    )


def nines(fewest, most):
    return st.integers(min_value=fewest, max_value=most).map(lambda digits: "9" * digits)


def small(low, high):
    return st.integers(min_value=low, max_value=high).map(str)


negative_huge = nines(1, 4400).map(lambda text: "-" + text)
malformed = st.sampled_from(["", "x", "1.5", "0x10", "+4", " 9", "٣", "1e3"])
catalog_ids = ("mine", "yours")

# Windows that still take seconds are left out of the generated argv, by name:
# - a --max-n from 21 to 99,998: admitted windows of up to 3,000,000 cases,
#   analysed case by case for seconds to minutes;
# - a --max-s above 20: each s is one base of two cases per kind, so a huge
#   --max-s takes seconds to refuse (the counting walk builds every base);
# - a --max-weight-sum above 12, the default 30 included: weighted windows up
#   to sum 30 run for seconds to minutes, and a larger sum takes seconds to
#   refuse;
# - a user catalog base whose m lies between 60 and 9,999,999: its m cases per
#   kind are analysed one by one.
# So sweep and verify always get the three window flags; the default windows
# are run by the digest tests above.
OPTION_TEXTS = {
    "max_n": mostly(small(-3, 20), nines(5, 4400), negative_huge, malformed),
    "max_s": mostly(small(-3, 20), negative_huge, malformed),
    "max_weight_sum": mostly(small(-3, 12), negative_huge, malformed),
    "families": st.lists(
        mostly(
            st.sampled_from([*cycalc.BUILTIN_IDS, *catalog_ids]),
            st.sampled_from(["nope", "", " ", "PN"]),
        ),
        max_size=4,
    ).map(",".join),
    "kinds": st.lists(
        mostly(st.sampled_from([kind.value for kind in ALL_KINDS]),
               st.sampled_from(["triple", "", "Divisor"])),
        max_size=4,
    ).map(",".join),
    "cy_dim": mostly(
        st.one_of(
            small(-20, 20),
            st.tuples(st.integers(-40, 40), st.integers(1, 6)).map(lambda pq: "%d/%d" % pq),
        ),
        st.integers(min_value=4000, max_value=4400).map(lambda digits: "9" * digits + "/7"),
        st.sampled_from(["", "x", "/", "3/", "1/0", "1.5", "4/3/2", "٣", " 2"]),
    ),
    "format": mostly(st.sampled_from(["table", "json", "csv"]), st.just("xml")),
}
WINDOW_FLAGS = ("--max-n", "--max-s", "--max-weight-sum")
# A catalog field's JSON text: mostly valid, otherwise of the wrong type or size.
CATALOG_FIELDS = {
    "display_name": mostly(st.just('"a base"'), st.just("null")),
    "dim_m": mostly(small(0, 30), nines(1999, 2001), st.sampled_from(["-1", "true", "1.5"])),
    "length_m": mostly(small(1, 60), nines(7, 2001), st.sampled_from(["0", "false", "[]"])),
    "rank_b": mostly(small(1, 60), st.sampled_from(["0", "9" * 4300, "9" * 4301, "null"])),
    "line_bundle_note": mostly(st.just('"O(1)"'), st.just("{}")),
    "omega_is_l_minus_m": mostly(st.sampled_from(["true", "false"]), st.just("1")),
    "parameters": mostly(
        st.sampled_from(["{}", '{"n": 5}']), st.sampled_from(['{"n": true}', "[]"])
    ),
    "chi_stable": mostly(st.sampled_from(["true", "false"]), st.just('"yes"')),
}


@st.composite
def catalog_texts(draw):
    """A CYCALC_CATALOG document of up to two entries; a field may be hostile or missing."""
    entries = []
    for base_id in catalog_ids[: draw(st.integers(min_value=0, max_value=2))]:
        id_text = draw(mostly(st.just(json.dumps(base_id)), st.sampled_from(['"pn"', "7"])))
        fields = [f'"id": {id_text}']
        fields += [
            f'"{key}": {draw(texts)}'
            for key, texts in CATALOG_FIELDS.items()
            if draw(st.integers(min_value=0, max_value=29))
        ]
        entries.append("{" + ", ".join(fields) + "}")
    return draw(mostly(st.just("[" + ", ".join(entries) + "]"), st.sampled_from(["{}", "["])))


@st.composite
def window_argv(draw):
    """sweep/verify/catalog argv built from the subcommand's own options."""
    command = draw(st.sampled_from(["sweep", "verify", "catalog"]))
    argv = [command]
    for option, action in subcommand_options(command).items():
        if option not in WINDOW_FLAGS and draw(st.integers(min_value=0, max_value=3)) == 0:
            continue
        if action.nargs == 0:
            argv.append(option)
        else:
            argv.append(f"{option}={draw(OPTION_TEXTS[action.dest])}")
    return argv


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(window_argv(), st.one_of(st.none(), catalog_texts()))
@example(["sweep", "--families=mine", "--cy-dim=2", "--format=csv"],
         '[{"id": "mine", "display_name": "m", "dim_m": 5, "length_m": 6, "rank_b": 1, '
         '"line_bundle_note": "O(1)", "omega_is_l_minus_m": true, "parameters": {}}]')
@example(["verify", "--families=yours", "--kinds=root", "--max-weight-sum=0"],
         '[{"id": "yours", "display_name": "y", "dim_m": 3, "length_m": ' + "9" * 1999 + ', '
         '"rank_b": 1, "line_bundle_note": "O(1)", "omega_is_l_minus_m": true, '
         '"parameters": {}}]')
@example(["sweep", "--max-n=" + "9" * 4300, "--cy-dim=" + "9" * 4301 + "/7"], None)
@example(["catalog", "--format=csv"], "[")
def test_hostile_window_flags_and_catalogs_exit_0_1_or_2_without_traceback(argv, catalog):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("CYCALC_CATALOG", None)
        if catalog is not None:
            path = Path(tmp) / "catalog.json"
            path.write_text(catalog, encoding="utf-8")
            os.environ["CYCALC_CATALOG"] = str(path)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert time.perf_counter() - start < 5
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
