"""Seeded command lists for the benchmark workloads.

A workload is a list of ``cycalc`` argument vectors.  The seed picks the
inputs; the program sees only the generated argv.  Each command carries what
its oracle needs (computed here from :mod:`model`, never from cycalc), the exit
code it must return and the number of (base, construction, degree) cases its
request covers.

* ``builtin_sweep``: the builtin catalog window users run: the full JSON
  sweep, the K3 and 3-CY lists, one seed-chosen fractional target as CSV, and
  ``verify``.  Heavy on ``engine`` and on record rendering.
* ``weighted_sweep``: filtered sweeps over weighted projective stacks with a
  weight-sum ceiling of 16 (898 bases, 24,098 cases per sweep).  Almost all
  time goes to enumeration and ``analyze``; filter-aware pruning and
  memoization show here.
* ``hodge_queries``: 100 ``hodge``/``hh`` queries drawn from fixed size strata,
  so every seed gets the same mix: small queries are dominated by process
  start-up, large ones by the Poincare-series kernel.  Six of them must fail
  with exit code 2.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import model

WORKLOADS = ("builtin_sweep", "weighted_sweep", "hodge_queries")

WEIGHT_CEILING = 16
SWEEP_TIMEOUT_S = 90.0
QUERY_TIMEOUT_S = 30.0

#: (name, count, predicate on (kind, n, d, work)) for the pn Hodge strata.
#: Work is :func:`model.pn_query_work`; the bands keep each stratum's cost
#: narrow, and the 20 large queries put p90 inside the large stratum.
_PN_STRATA = (
    ("small", 36, lambda kind, n, d, work: work <= 20_000),
    ("medium", 20, lambda kind, n, d, work: 150_000 <= work <= 250_000),
    ("large", 20, lambda kind, n, d, work: 800_000 <= work <= 1_000_000),
)
_INTEGER_HH = 10
_WPN_QUERIES = 8
_ROOT_ERRORS = 3
_WPN_ERRORS = 3

_PINNED = Path(__file__).resolve().parent / "data" / "pinned_rows.json"


@dataclass(frozen=True)
class Command:
    """One program invocation and what a correct run of it looks like."""

    argv: tuple[str, ...]
    check: str
    expect: object
    exit_code: int = 0
    cases: int = 1
    timeout_s: float = QUERY_TIMEOUT_S


def generate(workload: str, seed: int) -> list[Command]:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "builtin_sweep":
        return _builtin_sweep(rng)
    if workload == "weighted_sweep":
        return _weighted_sweep(rng)
    if workload == "hodge_queries":
        return _hodge_queries(rng)
    raise ValueError(f"unknown workload {workload!r}")


def pinned_signatures(target: str) -> frozenset:
    """Table signatures of the pinned K3 (``"2"``) or 3-CY (``"3"``) row set."""
    pinned = json.loads(_PINNED.read_text(encoding="utf-8"))[target]
    by_key = {
        (row.base.id, tuple(v for _, v in row.base.params), row.kind, row.d): row
        for row in model.window_rows(model.builtin_window(), model.SWEEP_KINDS)
    }
    return frozenset(by_key[(b, tuple(p), k, d)].signature() for b, p, k, d in pinned)


def _sweep(argv: list[str], check: str, expect: object, cases: int) -> Command:
    return Command(tuple(argv), check, expect, cases=cases, timeout_s=SWEEP_TIMEOUT_S)


def _signatures(rows: list[model.Row]) -> frozenset:
    return frozenset(row.signature() for row in rows)


def _builtin_sweep(rng: random.Random) -> list[Command]:
    bases = model.builtin_window()
    rows = model.window_rows(bases, model.SWEEP_KINDS)
    cases = model.window_cases(bases, model.SWEEP_KINDS)
    target = rng.choice([t for t in model.fractional_targets(rows) if t > 0])
    all_rows = model.window_rows(bases, model.ALL_KINDS)
    negatives = model.negative_integer_rows(all_rows)
    verify_expect = (
        len(all_rows),
        len(negatives),
        all(row.kind == "divisor" and row.d == 1 for row in negatives),
    )
    return [
        _sweep(["sweep", "--format", "json"], "records", tuple(rows), cases),
        _sweep(["sweep", "--cy-dim", "2"], "rows", pinned_signatures("2"), cases),
        _sweep(["sweep", "--cy-dim", "3"], "rows", pinned_signatures("3"), cases),
        _sweep(
            ["sweep", "--cy-dim", model.fraction_text(target), "--format", "csv"],
            "rows",
            _signatures(model.filtered_rows(rows, target)),
            cases,
        ),
        _sweep(["verify"], "verify", verify_expect, len(all_rows)),
    ]


def _weighted_sweep(rng: random.Random) -> list[Command]:
    bases = model.wpn_window(WEIGHT_CEILING)
    rows = model.window_rows(bases, model.SWEEP_KINDS)
    cases = model.window_cases(bases, model.SWEEP_KINDS)
    integer = Fraction(rng.randint(1, 4))
    fractional = rng.choice([t for t in model.fractional_targets(rows) if t > 0])
    window = [
        "sweep",
        "--include-weighted",
        "--families",
        "wpn",
        "--max-weight-sum",
        str(WEIGHT_CEILING),
    ]
    return [
        _sweep(
            window + ["--cy-dim", str(integer)],
            "rows",
            _signatures(model.filtered_rows(rows, integer)),
            cases,
        ),
        _sweep(
            window + ["--cy-dim", model.fraction_text(fractional)],
            "rows",
            _signatures(model.filtered_rows(rows, fractional)),
            cases,
        ),
        _sweep(
            window + ["--integer", "--format", "json"],
            "records",
            tuple(model.filtered_rows(rows, integer_only=True)),
            cases,
        ),
    ]


def _query(
    rng: random.Random, command: str, base: model.Base, kind: str, d: int, fmt: str | None = None
) -> Command:
    if base.id == "wpn":
        base_args = ["--base", "wpn", "--weights", ",".join(str(w) for _, w in base.params)]
    else:
        base_args = ["--base", base.id, "--n", str(base.dim)]
    fmt = fmt or rng.choice(("table", "json"))
    argv = [command, *base_args, "--construction", kind, "--degree", str(d)]
    if fmt != "table":
        argv += ["--format", fmt]
    expect = (
        model.hodge_expectation(base, kind, d),
        model.hh_verdict(kind, base.dim, base.m, d),
    )
    return Command(tuple(argv), command, expect)


def _hodge_queries(rng: random.Random) -> list[Command]:
    pool = [
        (kind, n, d, model.pn_query_work(kind, n, d))
        for n in range(2, 46)
        for d in range(1, n + 2)
        for kind in ("divisor", "cover")
    ]
    commands = []
    for _, count, wanted in _PN_STRATA:
        for kind, n, d, _ in rng.sample([q for q in pool if wanted(*q)], count):
            command = rng.choice(("hodge", "hh"))
            commands.append(_query(rng, command, model.pn_base(n), kind, d))
    integer = [
        (kind, n, d, work)
        for kind, n, d, work in pool
        if work <= 200_000 and model.hh_verdict(kind, n, n + 1, d) == "PASS"
    ]
    for kind, n, d, _ in rng.sample(integer, _INTEGER_HH):
        commands.append(_query(rng, "hh", model.pn_base(n), kind, d))

    weights = [w for w in model.weight_multisets(12, 3) if max(w) > 1]
    fermat = [(w, d) for w in weights for d in range(1, sum(w) + 1) if model.fermat_admits(w, d)]
    for w, d in rng.sample(fermat, _WPN_QUERIES):
        commands.append(_query(rng, "hodge", model.wpn_base(w), "divisor", d, fmt="json"))
    no_fermat = [
        (w, d)
        for w in weights
        for d in range(1, sum(w) + 1)
        if any(d % x for x in w)
    ]
    for w, d in rng.sample(no_fermat, _WPN_ERRORS):
        argv = ("hodge", "--base", "wpn", "--weights", ",".join(map(str, w)),
                "--construction", "divisor", "--degree", str(d))
        commands.append(Command(argv, "error", None, exit_code=2))
    for _ in range(_ROOT_ERRORS):
        n = rng.randint(2, 12)
        d = rng.randint(1, n + 1)
        argv = ("hodge", "--base", "pn", "--n", str(n), "--construction", "root",
                "--degree", str(d))
        commands.append(Command(argv, "error", None, exit_code=2))
    rng.shuffle(commands)
    return commands
