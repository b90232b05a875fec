"""Self-tests of the benchmark: generator, oracles, host-speed scaling and spans.

Run with ``python3 -m pytest -q bench`` from the repository root.  They do not
import cycalc.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import model
import oracles
import procs
import spans
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    first = [c.argv for c in workloads.generate(workload, 7)]
    again = [c.argv for c in workloads.generate(workload, 7)]
    other = [c.argv for c in workloads.generate(workload, 8)]
    assert first == again
    assert first != other


def test_hodge_queries_keep_the_same_mix_for_every_seed():
    def mix(seed):
        commands = workloads.generate("hodge_queries", seed)
        special = sum(1 for c in commands if c.exit_code or c.argv[2] == "wpn")
        work = 0
        for c in commands:
            if c.exit_code == 0 and c.argv[2] == "pn":
                args = dict(zip(c.argv[1::2], c.argv[2::2]))
                work += model.pn_query_work(
                    args["--construction"], int(args["--n"]), int(args["--degree"])
                )
        return len(commands), special, work

    count, special, work = mix(1)
    assert (count, special) == (100, 14)
    for seed in range(2, 6):
        assert mix(seed)[:2] == (count, special)
        assert mix(seed)[2] == pytest.approx(work, rel=0.05)


def test_window_counts():
    bases = model.builtin_window()
    assert model.window_cases(bases, model.SWEEP_KINDS) == 9316
    assert model.window_cases(bases, model.ALL_KINDS) == 13974
    weighted = model.wpn_window(workloads.WEIGHT_CEILING)
    assert (len(weighted), model.window_cases(weighted, model.SWEEP_KINDS)) == (898, 24098)


@pytest.mark.parametrize("target", ["2", "3"])
def test_pinned_lists_agree_with_the_dimension_formulas(target):
    rows = model.window_rows(model.builtin_window(), model.SWEEP_KINDS)
    derived = {row.signature() for row in model.filtered_rows(rows, Fraction(int(target)))}
    assert derived == workloads.pinned_signatures(target)


def test_known_hodge_numbers():
    assert model.pn_divisor_primitive_betti(3, 3) == 6  # cubic surface
    assert model.pn_divisor_primitive_betti(3, 4) == 21  # quartic K3
    assert model.pn_divisor_primitive_betti(4, 5) == 204  # quintic threefold
    double_sextic = model.surface_h11(
        model.pn_cover_middle_betti(2, 3), model.pn_geometric_genus(2, 3)
    )
    assert double_sextic == 20
    # a quartic K3 as P(1,1,1,1) and the weighted route agree
    assert model.wpn_primitive_count((1, 1, 1, 1), 4) == 21
    assert model.wpn_geometric_genus((1, 1, 1, 1), 4) == 1


def test_hodge_oracle_accepts_the_quartic_and_rejects_a_changed_number():
    expect = model.hodge_expectation(model.pn_base(3), "divisor", 4)
    command = workloads.Command(
        ("hodge", "--base", "pn", "--n", "3", "--construction", "divisor", "--degree", "4"),
        "hodge",
        (expect, "PASS"),
    )
    good = "P^3, divisor of degree 4: dim X = 2\n1 0 1\n0 20 0\n1 0 1\n"
    assert oracles.check(command, 0, good, "") is None
    assert oracles.check(command, 0, good.replace("20", "19"), "") is not None
    assert oracles.check(command, 1, good, "") is not None
    assert oracles.check(command, 0, good, "Traceback (most recent call last):\n") is not None


def test_table_parser_uses_header_offsets():
    table = (
        "base             params  degree\n"
        "Gr(2,6), L=O(2)          1\n"
        "P^3 x P^3        n=3     2\n"
    )
    rows = oracles.parse_table(table)
    assert rows == [
        {"base": "Gr(2,6), L=O(2)", "params": "", "degree": "1"},
        {"base": "P^3 x P^3", "params": "n=3", "degree": "2"},
    ]


def test_paced_scales_each_process_by_the_reference_runs_around_it(monkeypatch):
    # reference 0.2, a 1.5 -> reference 0.4, b 0.5, c 0.6 (1.1 s of work) -> reference 0.2
    assert procs.REFERENCE_EVERY_S == 1.0
    walls = iter([0.2, 1.5, 0.4, 0.5, 0.6, 0.2])

    def fake_run(argv, env, cwd, timeout_s):
        return procs.Finished(0, procs.REFERENCE_OUTPUT, b"", next(walls), 0, False)

    monkeypatch.setattr(procs, "run", fake_run)
    paced = procs.Paced(Path("."), {})
    a, b, c = (paced.run([name], 10.0) for name in "abc")
    paced.close()  # the last process already has a reference run after it
    assert [done.wall_s for done in paced.references] == [0.2, 0.4, 0.2]
    nominal = procs.REFERENCE_NOMINAL_S
    assert paced.scaled_s(a) == pytest.approx(1.5 * nominal / 0.3)
    assert paced.scaled_s(b) == pytest.approx(0.5 * nominal / 0.3)
    assert paced.scaled_s(c) == pytest.approx(0.6 * nominal / 0.3)
    assert paced.problems() == [None, None, None]


def test_self_time_subtracts_the_union_of_children():
    # 0: [0, 10] root; 1: [1, 4] and 3: [3, 6] overlap; 2: [2, 3] inside 1;
    # 4: [8, 12] runs past its parent's end
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    selfs = spans.self_times(start, end, parent)
    assert selfs == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])


def test_recorder_nests_spans_and_counts_errors():
    recorder = spans.Recorder()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_leaf = recorder.wrap("leaf", leaf)
    root = recorder.wrap("root", lambda: [traced_leaf(1), traced_leaf(2)])
    root()
    with pytest.raises(ValueError):
        traced_leaf(-1)
    assert recorder.names == ["root", "leaf", "leaf", "leaf"]
    assert list(recorder.parent) == [-1, 0, 0, -1]
    assert recorder.errors["leaf"] == 1
    selfs = spans.self_times(recorder.start, recorder.end, recorder.parent)
    totals = spans.totals(recorder, selfs)
    assert totals["root"].self_s == pytest.approx(
        totals["root"].busy_s - (recorder.end[1] - recorder.start[1])
        - (recorder.end[2] - recorder.start[2])
    )


def test_traced_metrics_are_the_declared_per_layer_metrics():
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    produced = set(spans.layer_metrics(spans.Recorder(), [])) | {
        "engine.sweep.peak_heap_mb",
        "trace.overhead_s",
    }
    assert produced == {metric["name"] for metric in declared["per_layer"]}
