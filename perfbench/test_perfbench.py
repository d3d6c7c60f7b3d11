"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ops
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_ops_are_deterministic_and_sized_independently_of_seed(workload):
    assert ops.workload_ops(workload, 5) == ops.workload_ops(workload, 5)
    by_seed = [ops.workload_ops(workload, seed) for seed in range(20)]
    assert len({len(o) for o in by_seed}) == 1
    assert len({tuple(o) for o in by_seed}) > 1
    # The seed picks inputs, never which commands run.
    assert len({tuple(argv[0] for argv in o) for o in by_seed}) == 1


def test_leibniz_tau_ranges_fix_the_outcome_on_every_seed():
    for seed in range(50):
        leibniz = [argv for argv in ops.workload_ops("honeycomb", seed) if argv[0] == "leibniz"]
        for argv, (_, cutoff, (low, high)) in zip(leibniz, ops.LEIBNIZ, strict=True):
            assert ops._opt(argv, "--cutoff") == cutoff
            assert low <= float(ops._opt(argv, "--tau")) <= high


def test_the_cutoff_20_leibniz_op_shows_the_known_defect():
    sys.path.insert(0, str(ROOT / "src"))
    from mirrorlab import cli

    argv = next(a for a in ops.workload_ops("honeycomb", 0) if a[0] == "leibniz" and a[-1] == "20")
    out, code = cli.run(list(argv))
    assert code == 1 and ops.Gate.known_defect(argv, code, out)


def test_speed_probe_times_a_fixed_task():
    assert 0 < run.speed_probe() < 100 * run.PROBE_NOMINAL_S


def test_disc_series_basepoints_are_interior():
    for seed in range(50):
        for argv in ops.workload_ops("honeycomb", seed):
            if argv[0] == "disc-series":
                xi1, xi2, eta = (Fraction(v) for v in ops._opt(argv, "--A").split(","))
                assert eta > ops.trop((xi1, xi2))[0]


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0,10] holds a [1,4] (which holds g [2,3]), b [5,9] and c [8,11];
    # c overlaps b and runs past the end of root.
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 11.0]
    assert spans.self_times(parents, starts, ends) == [2.0, 2.0, 1.0, 4.0, 3.0]


def test_tracer_records_parents_ops_and_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    tracer.current_op = 3
    outer()
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.op) == [3, 3, 3]
    # outer spans ticks 0..5; its children cover 1..2 and 3..4.
    assert spans.self_times(tracer.parent, tracer.start, tracer.end) == [3.0, 1.0, 1.0]


def test_install_patches_every_binding_and_remove_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from mirrorlab import fukaya, lattice, series

    original = lattice.enumerate_shifted_ball
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (lattice, series, fukaya):
            assert module.enumerate_shifted_ball is not original
        assert fukaya.functor_check(0, 1, 2, 2).all_match
    finally:
        tracer.remove()
    for module in (lattice, series, fukaya):
        assert module.enumerate_shifted_ball is original
    names = [tracer.names[n] for n in tracer.name]
    parent_of = {
        names[i]: names[p] for i, p in enumerate(tracer.parent) if p >= 0
    }
    assert parent_of["fukaya.mu2_closed"] == "fukaya.functor_check"
    metrics = spans.layer_metrics(tracer)
    assert metrics["fukaya.mu2_closed.calls"] == 1
    assert 0 < metrics["fukaya.mu2_keep_ratio"] <= 1
    assert metrics["series.keys_per_rep"] > 0


FUNCTOR = ("functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "20")


def _functor_report(all_match=True) -> bytes:
    rep = {
        "command": "functor", "status": "pass" if all_match else "fail",
        "triple": [0, 1, 2], "cutoff": "20", "all_match": all_match,
        "pairs": [{"e_in": [[0, 0], [0, 0]], "matches": all_match, "first_mismatch": None}],
    }
    return json.dumps(rep).encode()


def test_gate_accepts_a_good_report():
    assert ops.Gate(ROOT).check(0, FUNCTOR, 0, _functor_report()) == []


def test_gate_flags_a_tampered_report():
    assert ops.Gate(ROOT).check(0, FUNCTOR, 0, _functor_report(all_match=False))
    gate = ops.Gate(ROOT)
    golden = next(iter(ops.GOLDEN))
    assert gate.check(1, golden, 0, gate.golden[golden]) == []
    assert gate.check(2, golden, 0, gate.golden[golden] + b" ")


def test_gate_flags_a_wrong_exit_code():
    assert ops.Gate(ROOT).check(0, FUNCTOR, 1, _functor_report())


def test_gate_flags_bytes_that_change_between_repetitions():
    gate = ops.Gate(ROOT)
    assert gate.check(0, FUNCTOR, 0, _functor_report()) == []
    assert gate.check(0, FUNCTOR, 0, _functor_report() + b"\n")


def test_gate_checks_the_sphere_count_coefficients():
    argv = ("sphere-c", "--max-order", "4", "--window", "9")
    terms = [["0", "1"], ["2", "3"], ["3", "-4"], ["4", "27"]]
    rep = {"status": "pass", "series": {"cutoff": "4", "terms": terms}}
    assert ops.Gate(ROOT).check(0, argv, 0, json.dumps(rep).encode()) == []
    rep["series"]["terms"][3] = ["4", "26"]
    assert ops.Gate(ROOT).check(0, argv, 0, json.dumps(rep).encode())


def test_tally_counts_an_op_once_however_often_it_runs():
    tally = run.Tally(ROOT)
    for _ in range(3):
        tally.record(0, FUNCTOR, 0, _functor_report())
        tally.record(1, FUNCTOR, 1, _functor_report())
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_known_defect_is_only_a_roundoff_sized_leibniz_failure():
    argv = ("leibniz", "--i", "0", "--j", "4", "--x", "1,1", "--tau", "0.1", "--cutoff", "20")

    def report(residual):
        item = {"e_in": [0, 0], "lhs": "1.25", "rhs": "1.25",
                "residual": residual, "tail_bound": "1.6e-16"}
        return json.dumps({"status": "fail", "passed": False, "items": [item]}).encode()

    assert ops.Gate.known_defect(argv, 1, report("6.7e-16"))
    assert not ops.Gate.known_defect(argv, 1, report("1e-3"))
    assert not ops.Gate.known_defect(FUNCTOR, 1, _functor_report(all_match=False))


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
