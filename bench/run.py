"""cycalc benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload builtin_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` runs the workload's commands
as separate ``python -m cycalc`` processes, one at a time (closed loop, one
client), repeating the command list while time remains (at least twice, so
repeated outputs can be compared) and prints the end-to-end metrics.  Their
times are scaled to a fixed host speed, measured by reference runs between
the commands (see :class:`procs.Paced`); the unscaled times are printed too.
``--trace 1`` replays the same commands in-process through
``cycalc.cli.main``, untraced and then traced, and prints the per-layer
metrics.  Every output is checked against :mod:`oracles`.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

import oracles
import procs
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Fresh processes timed for ``setup_s`` before each repetition, so the
#: samples spread over the whole run (after one untimed import).
SETUP_PER_REPETITION = 6
#: No command is started after this many seconds, so a run ends within 180 s.
HARD_LIMIT_S = 150.0

CYCALC_MODULES = ("cli", "engine", "constructions", "autoeq", "catalog", "records", "hodge")


def _digest(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


class Verdicts:
    """Failure bookkeeping: oracle verdicts are cached by output digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._cache: dict[tuple, str | None] = {}

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def oracle(self, command, returncode: int, stdout: bytes, stderr: bytes) -> str | None:
        key = (command.argv, returncode, _digest(stdout), _digest(stderr))
        if key not in self._cache:
            self._cache[key] = oracles.check(
                command, returncode, stdout.decode("utf-8", "replace"),
                stderr.decode("utf-8", "replace"),
            )
        return self._cache[key]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(commands: list, seconds: float) -> tuple[Verdicts, dict, list[str]]:
    """Run the command list as processes while ``seconds`` allow (at least twice)."""
    env = procs.child_env(ROOT)
    verdicts = Verdicts()
    started = perf_counter()
    problem = procs.check_sources(ROOT, env)
    verdicts.record("import", problem)
    paced = procs.Paced(ROOT, env)
    setup = []
    reps: list[tuple[float, list]] = []
    loop_start = perf_counter()
    while True:
        setup += [paced.run(procs.setup_program(), 60.0) for _ in range(SETUP_PER_REPETITION)]
        rep_start = perf_counter()
        results = []
        for command in commands:
            remaining = started + HARD_LIMIT_S - perf_counter()
            if remaining <= 0:
                results.append(None)
                continue
            timeout = min(command.timeout_s, remaining)
            results.append(paced.run(procs.program(command.argv), timeout))
        rep_wall = perf_counter() - rep_start
        reps.append((rep_wall, results))
        now = perf_counter()
        if now + rep_wall > started + HARD_LIMIT_S:
            break
        if len(reps) >= 2 and now - loop_start + rep_wall > seconds:
            break
    paced.close()

    for problem in paced.problems():
        verdicts.record("reference", problem)
    for sample in setup:
        done = sample.done
        verdicts.record("setup", None if done.returncode == 0 else done.stderr.decode()[-200:])
    for index, command in enumerate(commands):
        first = reps[0][1][index]
        for rep, (_, results) in enumerate(reps):
            sample = results[index]
            label = f"rep {rep} {' '.join(command.argv)}"
            if sample is None:
                verdicts.record(label, "not started: time limit")
            elif sample.done.timed_out:
                verdicts.record(label, f"timed out after {command.timeout_s:.0f} s")
            elif first is not None and sample.done.stdout != first.done.stdout:
                verdicts.record(label, "stdout differs from the first repetition")
            else:
                done = sample.done
                verdicts.record(
                    label, verdicts.oracle(command, done.returncode, done.stdout, done.stderr)
                )

    # Each command's time is its median over the repetitions, so a burst of
    # load from outside that hits one repetition of a command is filtered out;
    # the scaling to the reference takes out the slower drift of the host.
    medians, raw_medians = [], []
    for index in range(len(commands)):
        samples = [results[index] for _, results in reps if results[index] is not None]
        if samples:
            medians.append(statistics.median(paced.scaled_s(sample) for sample in samples))
            raw_medians.append(statistics.median(sample.done.wall_s for sample in samples))
    run_s = sum(medians)
    deciles = statistics.quantiles(medians, n=10, method="inclusive")
    cases = sum(command.cases for command in commands)
    rss = max(
        sample.done.maxrss_kb for _, results in reps for sample in results if sample is not None
    )
    metrics = {
        "setup_s": _metric(statistics.median(paced.scaled_s(sample) for sample in setup), "s"),
        "run_s": _metric(run_s, "s"),
        "window_cases_per_s": _metric(cases / run_s, "1/s"),
        "query_p50_ms": _metric(1000 * deciles[4], "ms"),
        "query_p90_ms": _metric(1000 * deciles[8], "ms"),
        "peak_rss_mb": _metric(rss / 1024, "MB"),
    }
    references = [done.wall_s for done in paced.references]
    notes = [
        f"repetitions {len(reps)}, wall times "
        + ", ".join(f"{wall:.3f}" for wall, _ in reps) + " s",
        f"host speed: {len(references)} reference runs, median "
        f"{statistics.median(references):.4f} s (nominal {procs.REFERENCE_NOMINAL_S} s, "
        f"range {min(references):.4f}-{max(references):.4f} s); unscaled run_s "
        f"{sum(raw_medians):.4f} s, setup_s "
        f"{statistics.median(sample.done.wall_s for sample in setup):.4f} s",
        f"query samples: {len(medians)} commands x {len(reps)} repetitions; each command's "
        "time is its median over repetitions, p50/p90 are taken over those",
        f"window cases {cases} per repetition",
    ]
    for command, median in list(zip(commands, medians))[:5]:
        notes.append(f"  {1000 * median:9.1f} ms  {' '.join(command.argv)}")
    return verdicts, metrics, notes


def _import_cycalc() -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ.pop("CYCALC_CATALOG", None)
    package = importlib.import_module("cycalc")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"cycalc imports from {package.__file__}, not from the checkout")
    modules = {name: importlib.import_module(f"cycalc.{name}") for name in CYCALC_MODULES}
    modules["cycalc"] = package
    return modules


def _call(main, argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # the contract forbids escaping exceptions: report, keep going
            traceback.print_exc()
            code = -1
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _replay(main, commands: list, recorder: spans.Recorder | None = None):
    outputs = []
    start = perf_counter()
    for index, command in enumerate(commands):
        if recorder is not None:
            recorder.command_id = index
        outputs.append(_call(main, command.argv))
    return perf_counter() - start, outputs


def _sweep_peak_heap_mb(modules: dict, command) -> float:
    """tracemalloc peak inside the ``engine.sweep`` call of one command, in MB."""
    peaks = [0]
    cli = modules["cli"]
    original = cli.sweep

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])

    cli.sweep = measured
    tracemalloc.start()
    try:
        _call(cli.main, command.argv)
    finally:
        tracemalloc.stop()
        cli.sweep = original
    return max(peaks) / 2**20


def _sweep_breakdown(recorder: spans.Recorder, selfs: list[float], commands: list) -> str:
    """Self time by module over the spans of the ``sweep`` commands."""
    sweeps = {i for i, command in enumerate(commands) if command.argv[0] == "sweep"}
    by_module: dict[str, float] = {}
    for i, name in enumerate(recorder.names):
        if recorder.command[i] in sweeps:
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + selfs[i]
    wall = sum(
        recorder.end[i] - recorder.start[i]
        for i, name in enumerate(recorder.names)
        if name == "cli.main" and recorder.command[i] in sweeps
    )
    parts = ", ".join(f"{module} {seconds:.3f}" for module, seconds in sorted(by_module.items()))
    return f"sweep commands: traced wall {wall:.3f} s = self time by module ({parts})"


def traced(workload: str, commands: list) -> tuple[Verdicts, dict, list[str]]:
    """Replay the commands in-process: untraced, traced, untraced again."""
    verdicts = Verdicts()
    modules = _import_cycalc()
    main = modules["cli"].main
    before_s, plain = _replay(main, commands)
    recorder = spans.Recorder()
    with spans.instrument(recorder, modules):
        traced_s, traced_out = _replay(recorder.wrap("cli.main", main), commands, recorder)
    after_s, again = _replay(main, commands)
    for command, first, under_trace, second in zip(commands, plain, traced_out, again):
        label = " ".join(command.argv)
        verdicts.record(f"untraced {label}", verdicts.oracle(command, *first))
        for name, result in (("traced", under_trace), ("repeated", second)):
            if result != first:
                verdicts.record(f"{name} {label}", "output differs from the untraced replay")
            else:
                verdicts.record(f"{name} {label}", verdicts.oracle(command, *result))
    sweeps = [command for command in commands if command.argv[0] == "sweep"]
    peak_heap = _sweep_peak_heap_mb(modules, sweeps[0]) if sweeps else 0.0

    selfs = spans.self_times(recorder.start, recorder.end, recorder.parent)
    metrics = {
        name: _metric(value, unit)
        for name, (value, unit) in spans.layer_metrics(recorder, selfs).items()
    }
    metrics["engine.sweep.peak_heap_mb"] = _metric(peak_heap, "MB")
    metrics["trace.overhead_s"] = _metric(traced_s - (before_s + after_s) / 2, "s")

    path = OUT_DIR / f"{workload}.spans.csv.gz"
    spans.write(recorder, path)
    notes = [
        f"replayed {len(commands)} commands in-process: untraced {before_s:.3f} s and "
        f"{after_s:.3f} s, traced {traced_s:.3f} s; {len(recorder.names)} spans written to "
        f"{path.relative_to(ROOT)}",
    ]
    if sweeps:
        notes.append(_sweep_breakdown(recorder, selfs, commands))
    return verdicts, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cycalc" / "__init__.py").is_file():
        print(f"error: no cycalc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    commands = workloads.generate(args.workload, args.seed)
    if args.trace:
        verdicts, metrics, notes = traced(args.workload, commands)
    else:
        verdicts, metrics, notes = end_to_end(commands, args.seconds)

    failed = len(verdicts.failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for failure in verdicts.failures[:20]:
        print(f"FAILED {failure}")
    print(f"fail_ratio {failed / verdicts.attempted:.6f} ratio ({failed}/{verdicts.attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": verdicts.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
