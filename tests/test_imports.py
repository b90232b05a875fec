"""Import footprint: each command loads only the layers it runs.

Every check runs in a fresh interpreter, because the test process itself has
long since imported every module.  ``-S`` keeps site-packages hooks from
loading modules on their own; the package is found through PYTHONPATH.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycalc
from reference import catalog_text

SRC = str(Path(cycalc.__file__).resolve().parents[1])
WATCHED = ("cycalc.hodge", "json", "csv", "dataclasses", "inspect", "pathlib")


def fresh(statements: str) -> tuple[bytes, list[str]]:
    """Run ``statements`` in a new interpreter; its stdout and the WATCHED modules it loaded."""
    probe = (
        f"import sys\n{statements}\nsys.stdout.flush()\n"
        f"print(sorted(set({WATCHED!r}) & set(sys.modules)), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("CYCALC_CATALOG", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, ast.literal_eval(proc.stderr.decode().splitlines()[-1])


def run_main(*argv: str) -> tuple[bytes, list[str]]:
    return fresh(f"from cycalc import cli\nassert cli.main({list(argv)!r}) == 0")


def test_parser_start_up_loads_no_hodge_json_or_csv():
    assert fresh("import cycalc.cli\ncycalc.cli.build_parser()") == (b"", [])


def test_table_sweep_loads_no_hodge_json_or_csv():
    out, loaded = run_main("sweep", "--families", "pn", "--max-n", "3")
    assert out.startswith(b"base ")
    assert loaded == []


@pytest.mark.parametrize("fmt, wanted", [("json", ["json"]), ("csv", ["csv"])])
def test_a_format_loads_only_its_renderer(fmt, wanted):
    out, loaded = run_main("sweep", "--families", "pn", "--max-n", "3", "--format", fmt)
    assert out
    assert loaded == wanted


def test_reading_a_user_catalog_loads_json(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(catalog_text([]), encoding="utf-8")
    out, loaded = fresh(
        f"import os\nos.environ['CYCALC_CATALOG'] = {str(path)!r}\n"
        "from cycalc import cli\nassert cli.main(['catalog']) == 0"
    )
    assert out.startswith(b"id ")
    assert loaded == ["json", "pathlib"]


QUERY = ("--base", "pn", "--n", "5", "--construction", "divisor", "--degree", "3")


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "--format", "csv"),
        ("case", *QUERY, "--format", "json"),
        ("sweep", "--families", "pn", "--max-n", "3", "--cy-dim", "2"),
        ("verify", "--families", "pn", "--max-n", "3"),
        ("hodge", *QUERY),
        ("hh", *QUERY, "--format", "json"),
    ],
)
def test_no_command_loads_dataclasses_inspect_or_pathlib(argv):
    # the value classes are built without generated code, and pathlib is
    # loaded only to read a user catalog
    _, loaded = run_main(*argv)
    assert not {"dataclasses", "inspect", "pathlib"} & set(loaded)


# sha256 of stdout, recorded when the CLI still imported the Hodge layer at
# start-up; loading it on demand must not change a byte.
HODGE_SHA256 = [
    (
        ("hodge", "--base", "pn", "--n", "5", "--construction", "divisor", "--degree", "3"),
        "0466ae00d7d06bbef9a6f4fe0d04bb076ec52b69e157d91cf6e7cc6f290ef890",
    ),
    (
        (
            "hodge", "--base", "pn", "--n", "5", "--construction", "divisor", "--degree", "3",
            "--format", "json",
        ),
        "ba1b1ed037ea690057e1c7ac9198cc5508ca956a28107f63ec5506ff9b673027",
    ),
    (
        (
            "hodge", "--base", "pn", "--n", "4", "--construction", "cover", "--degree", "2",
            "--format", "csv",
        ),
        "4ad5b5c9bf14249fbc0436b5f0aac7422ff3405788500ece2d388fd3ada0d6a9",
    ),
    (
        ("hh", "--base", "pn", "--n", "5", "--construction", "divisor", "--degree", "3"),
        "cf8d994f77e031a01590f10e715c9e13ae9fb3c4603586d84bc25dd7b11c66a9",
    ),
    (
        (
            "hh", "--base", "wpn", "--weights", "1,1,1,1,2", "--construction", "divisor",
            "--degree", "6", "--format", "csv",
        ),
        "16d590fb1de202164ecbd4453d7ffdcae8699536b63d1d9107917aa8be5bc9be",
    ),
]


@pytest.mark.parametrize("argv, digest", HODGE_SHA256)
def test_hodge_commands_load_the_hodge_layer_and_print_the_same_bytes(argv, digest):
    out, loaded = run_main(*argv)
    assert "cycalc.hodge" in loaded
    assert hashlib.sha256(out).hexdigest() == digest


def test_package_serves_hodge_names_on_first_use():
    _, loaded = fresh("import cycalc")
    assert loaded == []
    _, loaded = fresh("import cycalc\nassert cycalc.hodge.hkr is cycalc.hkr")
    assert loaded == ["cycalc.hodge"]
    _, loaded = fresh(
        "import cycalc\n"
        "names = {}\n"
        "exec('from cycalc import *', names)\n"
        "assert all(name in names for name in cycalc.__all__)\n"
        "assert names['hh_pipeline'] is cycalc.hodge.hh_pipeline\n"
        "from cycalc import HodgeDiamond\n"
        "assert HodgeDiamond is cycalc.hodge.HodgeDiamond"
    )
    assert loaded == ["cycalc.hodge"]


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cycalc.no_such_name


def test_bare_import_loads_no_cycalc_module():
    out, loaded = fresh("import cycalc\nprint(sorted(m for m in sys.modules if 'cycalc.' in m))")
    assert (out, loaded) == (b"[]\n", [])


PUBLIC_NAMES = [
    "ALL_KINDS", "BUILTIN_IDS", "CaseResult", "ConstructionKind", "FractionalCYWitness",
    "Generator", "HHProfile", "HodgeDiamond", "LefschetzBase", "NormalForm", "PoincareSeries",
    "SubstitutionTable", "SweepBounds", "analyze", "builtin", "closed_form",
    "cy_hh_check", "extract_witness", "fonarev_rank", "hh_component", "hh_pipeline", "hkr",
    "jacobian_poincare", "load_catalog_file", "resolve", "serre_power", "substitution_table",
    "sweep", "verify_cross_check",
]


def test_every_public_name_is_the_object_its_module_defines():
    assert cycalc.__all__ == PUBLIC_NAMES
    out, _ = fresh(
        "import importlib\n"
        "import cycalc\n"
        "for module, names in cycalc._EXPORTS.items():\n"
        "    home = importlib.import_module('cycalc.' + module)\n"
        "    for name in names:\n"
        "        obj = getattr(cycalc, name)\n"
        "        assert obj is vars(home)[name], name\n"
        "        assert getattr(obj, '__module__', home.__name__) == home.__name__, name\n"
        "        print(name)\n"
    )
    assert sorted(out.decode().split()) == PUBLIC_NAMES


@pytest.mark.parametrize(
    "module", ["autoeq", "catalog", "constructions", "engine", "errors", "value", "hodge"]
)
def test_each_submodule_resolves_after_a_bare_import(module):
    out, _ = fresh(f"import cycalc\nprint(cycalc.{module}.__name__)")
    assert out == f"cycalc.{module}\n".encode()
