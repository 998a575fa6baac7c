"""Tests of the benchmark's pure helpers: seed mixing, percentile selection,
self-time arithmetic over nested spans, and the span wrapper.

    python3 -m pytest privbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import layers  # noqa: E402
from measure import Span, Tracer, self_times, tail_percentile  # noqa: E402


def test_mix64_matches_splitmix64_reference_outputs():
    # the first three outputs of splitmix64 started from state 0
    assert inputs.mix64(0, 1) == 0xE220A8397B1DCDAF
    assert inputs.mix64(0, 2) == 0x6E789E6AA1B965F4
    assert inputs.mix64(0, 3) == 0x06C45D188009454F


def test_mix64_wraps_at_64_bits():
    assert inputs.mix64(inputs.MASK64 + 5, 0) == inputs.mix64(4, 0)
    assert all(0 <= inputs.mix64(s, k) <= inputs.MASK64 for s in (0, 1, 2**63) for k in range(4))


def test_corpus_entry_visits_every_dataset_once_per_pass():
    assert inputs.corpus_entry(7, 3, None) == (7, 3)
    for seed in (0, 1, 12345):
        entries = [inputs.corpus_entry(seed, k, 8) for k in range(1, 9)]
        assert {s for s, _ in entries} == {inputs.CORPUS_SEED}
        assert sorted(j for _, j in entries) == list(range(8))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(0) is None
    assert tail_percentile(9) is None
    assert tail_percentile(20) is None  # p50 is the median itself
    assert tail_percentile(21) == 52
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    for count in range(21, 400):
        p = tail_percentile(count)
        assert count * (100 - p) >= 10 * 100
        assert count * (100 - p - 1) < 10 * 100


def test_self_times_subtract_direct_children_only():
    spans = [
        Span(0, None, "root", 0, 100),
        Span(1, 0, "child", 10, 40),
        Span(2, 1, "leaf", 20, 30),
        Span(3, 0, "leaf", 50, 60),
        Span(4, None, "root", 200, 205),
    ]
    assert self_times(spans) == {"root": 60 + 5, "child": 20, "leaf": 20}


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner(x):
        return x + 1

    def outer(x):
        return a.inner(x) * 2

    a.inner, a.outer = inner, outer
    b.inner = inner  # as if imported by name into a second module
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


def test_tracer_wraps_every_namespace_nests_and_restores(monkeypatch):
    modules = _fake_package()
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    a, b = modules["fakepkg.a"], modules["fakepkg.b"]
    original = a.inner
    counted = []
    tracer = Tracer({
        "a.outer": ("a", "outer", None),
        "a.inner": ("a", "inner", lambda t, span, args, result: counted.append(result)),
        "a.deleted": ("a", "no_such_function", None),
    })
    with tracer.installed("fakepkg"):
        assert a.outer(1) == 4
        assert b.inner(5) == 6
    assert a.inner is original and b.inner is original
    assert a.outer(1) == 4  # no spans once uninstalled
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("a.outer", None), ("a.inner", 0), ("a.inner", None)]
    assert counted == [2, 6]
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)


def test_tracer_closes_span_when_function_raises(monkeypatch):
    module = types.ModuleType("fakepkg.c")

    def boom():
        raise RuntimeError("boom")

    module.boom = boom
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.c", module)
    tracer = Tracer({"c.boom": ("c", "boom", None)})
    with tracer.installed("fakepkg"), pytest.raises(RuntimeError):
        module.boom()
    assert tracer.stack == [] and tracer.spans[0].end_ns >= tracer.spans[0].start_ns
    assert module.boom is boom


def test_benchmark_json_lists_the_per_layer_metrics():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
