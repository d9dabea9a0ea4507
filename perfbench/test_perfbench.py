"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def digests(workload, seed):
    ops = workloads.batch(workload, seed, 1)
    return run.input_digest(ops), run.run_ops(ops, run.Tally())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_input_and_output_digests(workload):
    assert digests(workload, 7) == digests(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert run.input_digest(workloads.batch(workload, 7, 1)) != \
        run.input_digest(workloads.batch(workload, 8, 1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_fails_only_on_catalogued_defects(workload):
    tally = run.Tally()
    run.run_ops(workloads.batch(workload, 5, 1), tally)
    assert not tally.unexpected
    if workload != "cli":
        assert tally.failed == 0


def test_trace_table_covers_every_public_name():
    for name in tracer.MODULES:
        module = importlib.import_module(f"padicbuilding.{name}")
        traced = {q.split(".", 1)[1] for q in tracer.traced_functions(name)}
        untraced = tracer.UNTRACED[name]
        assert not traced & untraced
        assert tracer.public_names(module) == traced | untraced, name


def test_layer_metrics_name_traced_functions():
    known = set(tracer.METHODS)
    for name in tracer.MODULES:
        known |= set(tracer.traced_functions(name))
    for metric, (_unit, _kind, select) in tracer.LAYER_METRICS.items():
        chosen = select(sorted(known))
        assert chosen and set(chosen) <= known, metric
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(tracer.LAYER_METRICS) <= declared


def test_install_wraps_every_binding_and_uninstall_restores():
    from padicbuilding import arith, building, seminorm
    original = arith.mat_det
    t = tracer.Tracer()
    t.install()
    try:
        assert arith.mat_det is not original
        assert seminorm.mat_det is arith.mat_det and building.mat_det is arith.mat_det
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("padicbuilding"):
                assert all(value is not original for value in vars(module).values())
        tally = run.Tally()
        run.run_ops(workloads.batch("classes", 3, 1), tally, t)
    finally:
        t.uninstall()
    assert arith.mat_det is original and seminorm.mat_det is original
    assert t.calls["arith.mat_det"] > 0            # reached only through other modules' bindings
    assert t.calls["building.BuildingPoint.__eq__"] > 0
    values = tracer.layer_values(t)
    assert values["seminorm.evaluate_calls"] > 0 and values["building.self_s"] > 0
    parents = {span[0] for span in t.spans}
    assert all(span[1] == -1 or span[1] in parents for span in t.spans)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_gives_untraced_output(workload):
    ops = workloads.batch(workload, 4, 1)
    plain = run.run_ops(ops, run.Tally())
    t = tracer.Tracer()
    t.install()
    try:
        traced = run.run_ops(ops, run.Tally(), t)
    finally:
        t.uninstall()
    assert traced == plain


def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond():
    lat = [float(i) for i in range(1, 1001)]
    p50, tail, q = run.latency_stats(lat)
    assert (p50, tail, q) == (500.0, 990.0, 99.0)
    assert run.latency_stats(lat[:999])[2] == 90.0
    assert run.latency_stats(lat * 20)[2] == 99.0


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_the_contract(trace, key):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "cli", "--seed", "3",
                           "--seconds", "0.3", "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    doc = _result(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[key]}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
