"""Tests of the benchmark itself (run with ``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from harness import PROBE_BURST, PROBE_REF_S, HostSpeed, nearest_rank, percentiles_ms  # noqa: E402
from service_mix import NEW_SHARE, request_sequence  # noqa: E402
from tracing import Tracer, root_coverage, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The figures each workload prints besides the gated metrics.
NAMED = {
    "synth-cg64": {"design_s": "s", "warm_synth_p50_ms": "ms", "warm_synth_p90_ms": "ms",
                   "design_links": "links", "link_area": "area units"},
    "replay-nas16": {"flit_hops_per_s": "hops/s", "exec_cycles": "cycles"},
    "sweep-gen16": {"flit_hops_per_s": "hops/s", "saturation_rate": "flits/node/cycle"},
    "service-mix": {"submit_p50_ms": "ms", "submit_p99_ms": "ms",
                    "cold_submit_p50_ms": "ms", "jobs_per_s": "req/s"},
}


# -- percentiles -----------------------------------------------------------


def test_nearest_rank_picks_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.5) == 3.0
    assert nearest_rank(values, 0.2) == 1.0
    assert nearest_rank(values, 0.21) == 2.0
    assert nearest_rank(values, 1.0) == 5.0
    assert nearest_rank([7.0], 0.99) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_percentiles_ms_reports_sample_count():
    samples = [i / 1000 for i in range(1, 101)]  # 1..100 ms
    summary = percentiles_ms(samples)
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(50.0)
    assert summary["p90"] == pytest.approx(90.0)
    assert summary["p99"] == pytest.approx(99.0)


def test_reference_seconds_scale_by_probe_speed_and_drop_probe_time():
    host = HostSpeed()
    # Three samples at reference speed, then three at half speed.
    host.samples = [(t, t + PROBE_REF_S) for t in (0.0, 0.1, 0.2)]
    host.samples += [(t, t + 2 * PROBE_REF_S) for t in (10.0, 10.1, 10.2)]
    assert host.speed(0.0, 0.3) == pytest.approx(1.0)
    assert host.speed(10.0, 10.3) == pytest.approx(0.5)
    # 0.3 s holding the three slow samples: 0.3 - 3 * 0.004 s of work
    # at half speed.
    assert host.reference_seconds(10.0, 10.3) == pytest.approx((0.3 - 6 * PROBE_REF_S) * 0.5)
    # An interval with no sample of its own takes the three nearest.
    assert host.speed(5.5, 5.6) == pytest.approx(0.5)


def test_a_step_beside_the_main_thread_takes_the_samples_around_it():
    host = HostSpeed()
    # A burst before the step at reference speed, one after it at half
    # speed, none during it.
    host.samples = [(t, t + PROBE_REF_S) for t in (0.0, 0.01, 0.02)]
    host.samples += [(t, t + 2 * PROBE_REF_S) for t in (0.4, 0.41, 0.42)]
    assert host.speed(0.03, 0.39) == pytest.approx(0.75)
    assert host.reference_seconds(0.03, 0.39) == pytest.approx(0.36 * 0.75)


def test_between_steps_stops_the_timer_and_probes_on_demand():
    host = HostSpeed()
    host.probe()
    assert host.samples == []  # not sampling: no probe at all
    with host.sampling():
        assert signal.getitimer(signal.ITIMER_REAL)[1] > 0
        with host.between_steps():
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            before = len(host.samples)
            host.probe()
            assert len(host.samples) == before + PROBE_BURST
        assert signal.getitimer(signal.ITIMER_REAL)[1] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- self times ----------------------------------------------------------------


def test_self_times_of_a_span_tree():
    # root 0..10 has children a 1..4 and b 5..9; a has child c 2..3.
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["b", 5.0, 9.0, 0, 1],
    ]
    st = self_times(spans)
    assert st == pytest.approx({"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0})
    assert sum(st.values()) == pytest.approx(10.0)
    assert root_coverage(spans, "root") == pytest.approx(0.7)


def test_self_times_count_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["x", 1.0, 6.0, 0, None],
        ["x", 4.0, 8.0, 0, None],
        ["x", 9.0, 12.0, 0, None],  # clipped to the parent's end
    ]
    assert self_times(spans)["root"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_wrapper_is_installed_where_callers_look_it_up():
    import repro.eval.runner as runner
    import repro.workloads.nas as nas

    original = nas.benchmark
    tracer = Tracer()
    tracer.install("workloads.benchmark", "repro.workloads.nas", "benchmark")
    try:
        assert runner.benchmark is not original  # a ``from ... import`` binding
        with tracer.span("root", rid="r"):
            runner.benchmark("cg", 4)
            with tracer.paused():
                nas.benchmark("cg", 4)
    finally:
        tracer.uninstall()
    assert runner.benchmark is original and nas.benchmark is original
    names = [s[0] for s in tracer.spans]
    assert names == ["root", "workloads.benchmark"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == "r"
    assert tracer.counts["workloads.benchmark.calls"] == 1


# -- service-mix request sequence ----------------------------------------------


def test_same_seed_gives_byte_identical_requests():
    first = json.dumps(request_sequence(7, 1000), sort_keys=True)
    assert json.dumps(request_sequence(7, 1000), sort_keys=True) == first
    assert json.dumps(request_sequence(8, 1000), sort_keys=True) != first


def test_request_mix_shape():
    sequence = request_sequence(3, 1000)
    seen = []
    new = 0
    for spec in sequence:
        key = json.dumps(spec, sort_keys=True)
        if key not in seen:
            seen.append(key)
            new += 1
            if spec.get("portfolio"):
                # Both cells of a portfolio job were submitted before.
                for seed in (spec["seed"], spec["seed"] + 1):
                    single = dict(spec, seed=seed)
                    del single["portfolio"]
                    assert json.dumps(single, sort_keys=True) in seen
    assert new == round(1000 * NEW_SHARE)
    assert any(spec.get("portfolio") for spec in sequence)


# -- smoke runs of the command ---------------------------------------------------


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, unit in NAMED[workload].items():
        line = next(line for line in proc.stdout.splitlines() if line.split()[:1] == [name])
        assert line.split()[-1] == unit.split()[-1]

    traced = _run(workload, 1)
    assert traced.returncode == 0, traced.stderr
    layers = json.loads(traced.stdout.strip().splitlines()[-1])["metrics"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert all(layers[m["name"]]["unit"] == m["unit"] for m in SPEC["per_layer"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("synth-cg64", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
