"""Mutation gate: every mutant below must make the tier-1 suite fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each mutant replaces one text of a source file, which must occur there
exactly once.  For each one the script copies the repository to a temporary
directory, applies the mutant, runs the tier-1 suite there with ``-x`` and
reports the test that killed it, or "survived"; a mutant that only the
output digest tests kill is reported as "killed (digest only)".  It exits 1 if
a mutant survives or its text does not occur exactly once.  Pytest does not
collect this file (its name does not start with ``test_``); a run takes minutes.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (file, old text, new text, the fault it stands for)
MUTANTS = (
    (
        "src/cycalc/hodge.py",
        'case.base.id == "pn" and case.kind is ConstructionKind.DIVISOR and n_cy != 0',
        'case.base.id == "pn" and case.kind is ConstructionKind.DIVISOR',
        "a 0-CY pn divisor expects a one-dimensional HH_0",
    ),
    (
        "src/cycalc/catalog.py",
        "for k in range(2, (b.max_n + 1) // 2)",
        "for k in range(2, b.max_n // 2)",
        "the gr window loses its last k on an odd --max-n",
    ),
    (
        "src/cycalc/engine.py",
        "if case.is_integer_cy and not case.component_is_whole and case.witness.p < 0:",
        "if case.is_integer_cy and True and case.witness.p < 0:",
        "verify counts whole-category rows as negative-dimension cases",
    ),
    (
        "src/cycalc/constructions.py",
        "twist = NormalForm(shift=2, ltwist=-d)",
        "twist = NormalForm(shift=3, ltwist=-d)",
        "the divisor twist's shift is off by one",
    ),
    (
        "src/cycalc/constructions.py",
        "serre = NormalForm(shift=n - 1, ltwist=d - m)",
        "serre = NormalForm(shift=n - 2, ltwist=d - m)",
        "the divisor Serre entry's shift is off by one",
    ),
    (
        "src/cycalc/constructions.py",
        "serre = NormalForm(shift=n, ltwist=d - m, chi=1)",
        "serre = NormalForm(shift=n, ltwist=d - m)",
        "the root Serre entry loses its character",
    ),
    (
        "src/cycalc/catalog.py",
        "weights = tuple(sorted(params.values()))",
        "weights = tuple(params.values())",
        "wpn weights are left unsorted",
    ),
    (
        "src/cycalc/catalog.py",
        "lambda b: _weight_multisets(b.max_weight_sum) if b.include_weighted else (),",
        "lambda b: _weight_multisets(b.max_weight_sum),",
        "the wpn window ignores include_weighted",
    ),
    (
        "src/cycalc/catalog.py",
        "values[0] < self.minimum:",
        "values[0] < self.minimum - 1:",
        "a row's minimum is off by one",
    ),
    (
        "src/cycalc/catalog.py",
        'return tuple(f"w{i}" for i in range(count))',
        'return tuple(f"w{i + 1}" for i in range(count))',
        "wpn parameters are named from w1",
    ),
    (
        "src/cycalc/catalog.py",
        '_check_digits(MAX_SIZE_DIGITS, _SIZE_BOUND, {"dim_m": dim_m, "length_m": m})',
        "pass",
        "a row formats its names before checking the sizes",
    ),
    (
        "src/cycalc/catalog.py",
        '"G2-Gr(2,7)", 5, 3, 2,',
        '"G2-Gr(2,7)", 5, 3, 3,',
        "the g2gr block rank is one too large",
    ),
    (
        "src/cycalc/catalog.py",
        '"SGr(3,6)", 6, 4, 2,',
        '"SGr(3,6)", 6, 4, 3,',
        "the sgr36 block rank is one too large",
    ),
    (
        "src/cycalc/engine.py",
        'raise CycalcError("the verify window holds no case, so nothing was compared")',
        "pass",
        "a verify window that holds no case is not refused",
    ),
    (
        "src/cycalc/records.py",
        "{case.kind.value} d={case.d}",
        "{case.kind} d={case.d}",
        "a verify mismatch prints the kind's enum name, not its value",
    ),
    (
        "src/cycalc/hodge.py",
        "int(p == q)",
        "int(0 < p == q)",
        "a diamond drops h^{0,0}",
    ),
    (
        "src/cycalc/constructions.py",
        "twist = NormalForm(shift=1, ltwist=-d, tau=1)",
        "twist = NormalForm(shift=1, ltwist=-d, tau=0)",
        "the cover twist loses the covering involution",
    ),
    (
        "src/cycalc/constructions.py",
        "twist = NormalForm(shift=1, ltwist=-d, chi=1)",
        "twist = NormalForm(shift=1, ltwist=-d, chi=0)",
        "the root twist loses its character",
    ),
    (
        "src/cycalc/constructions.py",
        "serre = NormalForm(shift=n, ltwist=d - m)",
        "serre = NormalForm(shift=n + 1, ltwist=d - m)",
        "the cover Serre entry's shift is off by one",
    ),
)

#: Test functions that compare whole outputs with recorded digests.  A mutant
#: that only they kill changes some printed byte, but no test says which
#: behaviour broke.  A parametrized one fails under its id plus a ``[...]`` suffix.
DIGEST_TESTS = (
    "tests/test_acceptance.py::test_criterion_10_byte_identical_output",
    "tests/test_cli.py::test_stdout_is_byte_identical_to_recorded_digests",
    "tests/test_cli.py::test_hodge_matrix_prints_the_recorded_bytes",
    "tests/test_imports.py::test_hodge_commands_load_the_hodge_layer_and_print_the_same_bytes",
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def _killer(tree: Path, *args: str) -> str | None:
    """The first test that fails in ``tree``, or None if the suite passes.

    ``test_mutants.py`` checks this table against the unmutated files, so it is left out.
    """
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--ignore", "tests/test_mutants.py", *args,
        ],
        cwd=tree,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True,
        text=True,
    )
    if result.returncode == 0:
        return None
    killed = re.search(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
    return killed.group(1) if killed else f"(pytest exit {result.returncode})"


def run_mutant(path: str, old: str, new: str) -> str:
    """The killing test of one mutant, "killed (digest only)", or "survived".

    A mutant that a digest test kills runs again without the digest tests, so
    a kill that only they make is marked.
    """
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        target = tree / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        killer = _killer(tree)
        if killer is not None and killer.split("[")[0] in DIGEST_TESTS:
            # --deselect takes a node id prefix, so it drops every parameter set
            deselect = [arg for test in DIGEST_TESTS for arg in ("--deselect", test)]
            killer = _killer(tree, *deselect) or "(digest only)"
    if killer is None:
        return "survived"
    return f"killed {killer}" if killer.startswith("(") else f"killed by {killer}"


def misplaced() -> list[str]:
    """A line for each mutant whose text does not occur exactly once in its file."""
    lines = []
    for path, old, _, why in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            lines.append(f"{path}: the text of mutant {why!r} occurs {count} times, not once")
    return lines


def main() -> int:
    wrong = misplaced()
    if wrong:
        print(*wrong, sep="\n")
        return 1
    survivors = 0
    for path, old, new, why in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(path, old, new)
        survivors += verdict == "survived"
        print(f"{path}: {why}: {verdict} ({time.perf_counter() - start:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
