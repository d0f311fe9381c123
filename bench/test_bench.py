"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_on_synthetic_span_tree():
    # task [0, 10] > a [1, 7] > (b [2, 3], c [4, 6] > d [4.5, 5]); e [8, 9] under task
    start = np.array([0.0, 1.0, 2.0, 4.0, 4.5, 8.0])
    end = np.array([10.0, 7.0, 3.0, 6.0, 5.0, 9.0])
    parent = np.array([-1, 0, 1, 1, 3, 0])
    got = tracing.self_times(start, end, parent)
    assert got.tolist() == [10.0 - 6.0 - 1.0, 6.0 - 1.0 - 2.0, 1.0, 2.0 - 0.5, 0.5, 1.0]
    assert got.sum() == pytest.approx(10.0)  # self times partition the root


@pytest.mark.parametrize("n", [11, 12, 40, 100, 1000])
def test_tail_rank_leaves_exactly_ten_beyond(n):
    k = run.tail_rank(n)
    assert n - k == 10
    # the next rank up would leave fewer than ten beyond it
    assert n - (k + 1) < 10


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_rank_without_ten_beyond_is_the_maximum(n):
    assert run.tail_rank(n) == n


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert workloads.first_inputs(wl, 7, 40) == workloads.first_inputs(wl, 7, 40)
    assert workloads.make_inputs(wl, 7, 33) == workloads.first_inputs(wl, 7, 34)[33]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    wl = workloads.WORKLOADS[name]
    a = workloads.first_inputs(wl, 7, 40)
    b = workloads.first_inputs(wl, 8, 40)
    assert all(x != y for x, y in zip(a, b))


def test_inputs_stay_in_the_domain():
    wl = workloads.WORKLOADS["closed_form"]
    for inp in workloads.first_inputs(wl, 3, 64):
        assert 1.1 <= inp["alpha"] <= 2.0 and 1.1 <= inp["beta"] <= 2.0
        assert 0.5 <= inp["energy"] <= 10.0
        assert all(0.02 <= x <= 0.98 for x in inp["xs"])
    for inp in workloads.first_inputs(workloads.WORKLOADS["kepler_orbit"], 3, 64):
        assert 1.25 <= inp["alpha"] <= 2.0 and 0.5 <= inp["v"] <= 0.9
        assert inp["rho"] in (2.0, 4.0)


def test_scipy_import_time_parsing():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:       250 |        900 |     scipy",
        "import time:       650 |        650 |       scipy.integrate._quadpack",
        "import time:        40 |         40 |   scipyish",
    ])
    assert run.scipy_import_s(report) == pytest.approx(900e-6)


def test_tracer_records_nested_spans_and_restores_originals():
    import fracmech as fm
    import fracmech.oscillator as osc

    spec = fm.OscillatorSpec.from_exponents(1.5, 1.7, energy=2.0)
    plain = fm.hj_trajectory(spec, 0.3)
    original = osc.hj_position
    tr = tracing.Tracer()
    with tr:
        assert osc.hj_position is not original
        traced = tr.run_task(0, fm.hj_trajectory, spec, 0.3)
    assert osc.hj_position is original and fm.hj_trajectory.__name__ == "hj_trajectory"
    assert traced.hex() == plain.hex()
    names = [tr.names[i] for i in tr.name]
    assert names[:3] == ["task", "hj_trajectory", "period"]
    parents = list(tr.parent)
    assert parents[1] == 0 and parents[2] == 1
    assert "inv_inc_beta" in names and "abs_power" not in names
    m = tracing.layer_metrics(tr, 1)
    extra = {"cli.import_s", "cli.import_scipy_s", "trace.overhead_frac", "src.lines"}
    assert set(m) | extra == {d["name"] for d in SPEC["per_layer"]}
    assert all(tracing.unit_of(d["name"]) == d["unit"] for d in SPEC["per_layer"]
               if d["name"] not in extra)
    # layer self times and the benchmark's own share partition the task span
    arr = tr.arrays()
    task_s = float(arr["end"][0] - arr["start"][0])
    bench_s = float(tracing.self_times(arr["start"], arr["end"], arr["parent"])[0])
    layer_s = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layer_s + bench_s == pytest.approx(task_s)
    assert m["oscillator.self_s"] > 0 and m["similarity.self_s"] == 0.0
    assert m["specfun.inv_inc_beta_iters"] > 0
    assert m["specfun.inv_inc_beta_us"] > m["specfun.inc_beta_us"] > 0
    assert m["similarity.kepler_check_ms"] == 0.0  # never called here


def test_run_limited_reports_timeouts_and_warnings_as_failures():
    import signal
    import time
    import warnings

    signal.signal(signal.SIGALRM, run._on_alarm)

    def spin():
        while True:
            time.sleep(0.01)

    out, dt, err = run.run_limited(spin, 0.2)
    assert out is None and err.startswith("TaskTimeout") and dt < 2.0
    _, _, err = run.run_limited(lambda: warnings.warn("x", RuntimeWarning), 1.0)
    assert err.startswith("RuntimeWarning")
    out, _, err = run.run_limited(lambda: 3, 1.0)
    assert (out, err) == (3, None)


def test_instrument_cross_check_reproduces_reanchor_counts():
    import fracmech as fm

    traj, events = run.xcheck_run(fm)
    assert run.xcheck_errors(traj, events) == []
    tr = tracing.Tracer()
    with tr:
        traced, traced_events = run.xcheck_run(fm)
    assert run.xcheck_errors(traced, traced_events) == []
    assert (tr.counters["steps_accepted"], tr.counters["steps_rejected"],
            tr.counters["events"]) == (3014, 1262, 40)
    assert workloads.output_bytes(traced) == workloads.output_bytes(traj)


def _fake_workload(check):
    return workloads.Workload("fake", 99, 1, lambda u: {"x": float(u[0])},
                              lambda fm, inp: inp["x"], check,
                              time_limit_s=1.0, planned_ms=1.0, trace_tasks=1)


def test_gate_miss_is_a_counted_failure_not_a_crash():
    import signal

    signal.signal(signal.SIGALRM, run._on_alarm)

    def check(fm, inp, out):
        if out < 0.5:
            raise workloads.GateMiss(f"{out} < 0.5")
        return 1e-12

    metrics, failures = run.end_to_end(_fake_workload(check), 1, 31, 2)
    assert 0 < len(failures) < 31
    assert all("GateMiss" in line for line in failures)
    assert metrics["pass_frac"][0] == pytest.approx(1.0 - len(failures) / 31)
    assert metrics["pass_frac"][0] < 1.0
    # more than ten failures put the least accurate side at rel = 1, 0 digits
    assert metrics["accuracy_digits"][0] == pytest.approx(0.0 if len(failures) > 10 else 12.0)


def test_passing_gates_report_their_error_as_digits():
    import signal

    signal.signal(signal.SIGALRM, run._on_alarm)
    metrics, failures = run.end_to_end(_fake_workload(lambda fm, inp, out: 1e-9), 1, 31, 2)
    assert failures == [] and metrics["pass_frac"][0] == 1.0
    assert metrics["accuracy_digits"][0] == pytest.approx(9.0)
    assert metrics["task_ms_p50"][0] > 0 and metrics["tasks_per_s"][0] > 0


def test_host_scale_maps_the_nominal_reference_to_one():
    assert run.host_scale(run.REF_NOMINAL_S, run.REF_NOMINAL_S) == pytest.approx(1.0)
    # a host running the kernel twice as slow halves every reported time
    assert run.host_scale(2 * run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S) == pytest.approx(0.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_task_plan_keeps_the_tail_above_p67_and_fits_the_run(name):
    wl = workloads.WORKLOADS[name]
    n, rounds = run.task_plan(wl, SPEC["run_seconds"])
    assert n >= run.MIN_TASKS and run.tail_rank(n) / n > 0.67
    assert 1 <= rounds <= run.ROUNDS
    assert n * rounds * wl.planned_ms <= 1.1e3 * SPEC["run_seconds"]
