"""Mutation gate: every mutant below must make the tier-1 suite fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each mutant replaces one text of a source file, which must occur there
exactly once.  For each one the script copies the repository to a temporary
directory, applies the mutant, runs the tier-1 suite there with ``-x`` and
reports the test that killed it, or "survived".  It exits 1 if a mutant
survives or its text does not occur exactly once.  Pytest does not collect
this file (its name does not start with ``test_``); a run takes minutes.
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
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def run_mutant(path: str, old: str, new: str) -> str:
    """The killing test of one mutant, or "survived"."""
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        target = tree / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=tree,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True,
            text=True,
        )
    if result.returncode == 0:
        return "survived"
    killed = re.search(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
    return f"killed by {killed.group(1)}" if killed else f"killed (pytest exit {result.returncode})"


def main() -> int:
    for path, old, _, why in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"{path}: the text of mutant {why!r} occurs {count} times, not once")
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
