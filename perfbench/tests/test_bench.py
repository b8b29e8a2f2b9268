"""Self-tests of the benchmark: tracing, metric names and input families.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import sys

import pytest

import run
import spans
import workloads


def _original(module, qualname):
    owner = importlib.import_module(f"nlslab.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, qualname)


def _nlslab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nlslab" or name.startswith("nlslab."))]


@pytest.fixture
def installed():
    importlib.import_module("nlslab.cli")
    originals = {(m, q): _original(m, q) for m, q, _ in spans.LAYERS}
    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    try:
        yield recorder, originals
    finally:
        spans.uninstall(undo)


def test_every_binding_is_wrapped(installed):
    _, originals = installed
    for (module, qualname), original in originals.items():
        name = spans.layer_name(module, qualname)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(importlib.import_module(f"nlslab.{module}"), cls_name)
            assert cls.__dict__[attr].perfbench_layer == name
            continue
        bound = 0
        for mod in _nlslab_modules():
            for attr, value in vars(mod).items():
                assert value is not original, f"{mod.__name__}.{attr} is unwrapped"
                if getattr(value, "perfbench_layer", None) == name:
                    bound += 1
        assert bound >= 1, name
    # names bound under another name in cli and experiments
    from nlslab import cli, experiments
    assert cli.run_evolution.perfbench_layer == "evolve.evolve"
    assert cli.solve_ground.perfbench_layer == "ground.solve_ground"
    assert experiments.evolve.perfbench_layer == "evolve.evolve"


def test_uninstall_restores_originals():
    importlib.import_module("nlslab.cli")
    before = {id(v) for m in _nlslab_modules() for v in vars(m).values()}
    spans.uninstall(spans.install(spans.SpanRecorder()))
    after = {id(v) for m in _nlslab_modules() for v in vars(m).values()}
    assert before == after


def test_self_times_sum_to_traced_wall(installed, tmp_path, monkeypatch):
    recorder, _ = installed
    from nlslab import cli
    monkeypatch.chdir(tmp_path)
    for argv in (["evolve", "--N", "1", "--p", "5.2", "--n", "1500",
                  "--t-end", "0.05", "--initial", "ground", "--out", "ev"],
                 ["modulate", "--N", "1", "--p", "5.2", "--n", "1500",
                  "--snapshots", "ev/snapshots", "--out", "mod"]):
        assert cli.cli_dispatch(argv) == 0
    metrics = spans.layer_metrics(recorder.spans)
    wall = spans.traced_wall(recorder.spans)
    total_self = sum(metrics[f"{n}.self_s"] for n in spans.LAYER_NAMES)
    assert metrics["cli.cli_dispatch.calls"] == 2
    assert metrics["evolve.step_values.calls"] == 50
    assert {s[2] for s in recorder.spans} == {0, 1}
    assert abs(total_self - wall) <= 0.01 * wall + 0.005


def test_layer_metrics_self_time():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("grid.read_field_csv", lambda: None)
    outer = rec.wrap("cli.cli_dispatch", lambda: (inner(), inner()))
    outer()      # starts 0, children 1-2 and 3-4, ends 5
    m = spans.layer_metrics(rec.spans)
    assert m["cli.cli_dispatch.s"] == 5.0
    assert m["cli.cli_dispatch.self_s"] == 3.0
    assert m["grid.read_field_csv.calls"] == 2
    assert m["grid.read_field_csv.self_s"] == 2.0
    assert spans.traced_wall(rec.spans) == 5.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    for m in spec["end_to_end"]:
        assert run.END_TO_END[m["name"]] == m["unit"]
    for m in spec["per_layer"]:
        assert run.per_layer_units()[m["name"]] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_repeat_and_stay_in_family():
    for workload in workloads.WORKLOADS:
        assert workloads.draw(workload, 7) == workloads.draw(workload, 7)
    for seed in range(1, 50):
        spectral = workloads.draw("spectral", seed)
        assert 28.0 <= spectral["rmax"] <= 32.0
        assert 0.08 <= spectral["delta"] <= 0.12
        evolution = workloads.draw("evolution", seed)
        assert 0.08 <= evolution["eps_plus"] <= 0.12
        assert -0.12 <= evolution["eps_minus"] <= -0.08
        assert 5.1 <= evolution["p"] <= 5.3
    assert workloads.draw("spectral", 0) == {"rmax": 30.0, "delta": 0.1}
