"""Self-test of the benchmark's tracer and layer map.

    python3 -m pytest -q bench/test_tracer.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import plapbench.cli  # noqa: E402  (loads every plapbench module)

import layers  # noqa: E402
from tracer import Span, Tracer, outermost, self_times  # noqa: E402


def test_every_binding_is_wrapped_then_restored():
    modules = layers.program_modules()
    targets = layers.targets()
    before = {(m.__name__, a): v for m in modules for a, v in vars(m).items()}
    originals = {fn for fn, _ in targets.values()}
    bound = {key for key, v in before.items() if any(v is fn for fn in originals)}

    tracer = Tracer()
    with tracer.installed(modules, targets):
        wrapped = {(m.__name__, a) for m, a, _ in tracer.bindings}
        assert wrapped == bound
        # the names the modules call through, not just the defining module
        for key in [("plapbench.plap_solver", "solve"), ("plapbench.scheme", "solve"),
                    ("plapbench.cli", "solve"), ("plapbench", "solve")]:
            assert key in wrapped
        for m in modules:
            for a, v in vars(m).items():
                assert not any(v is fn for fn in originals), f"{m.__name__}.{a} left unwrapped"
    after = {(m.__name__, a): v for m in modules for a, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_workload_names_match():
    import run
    import workloads

    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_every_wrapped_function_exists_and_is_public():
    for layer, names in layers.WRAPPED.items():
        module = sys.modules[f"plapbench.{layer}"]
        for name in names:
            assert not name.startswith("_") and callable(getattr(module, name))


def test_spans_nest_restore_on_exceptions_and_write_out(tmp_path):
    import types

    mod = types.ModuleType("fake")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    with tracer.installed([mod], {"m.outer": (outer, None), "m.inner": (inner, lambda a, k, r: {"x": r})}):
        assert mod.outer(2) == 4
        with pytest.raises(ValueError):
            mod.outer(-1)
    assert mod.inner is inner and mod.outer is outer
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("m.outer", None), ("m.inner", 0), ("m.inner", 0), ("m.outer", None), ("m.inner", 3)]
    assert tracer.spans[1].info == {"x": 2}
    assert all(s.end >= s.start for s in tracer.spans)
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["parent"]) for r in rows] == names


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("d", 7.0, 9.5, 0),
        Span("e", 20.0, 21.0, None),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0 - 2.5, 2.0, 1.0, 1.0, 2.5, 1.0])
    # overlapping children (possible only across threads) count once
    overlap = [Span("p", 0.0, 4.0, None), Span("x", 1.0, 3.0, 0), Span("y", 2.0, 3.5, 0)]
    assert self_times(overlap)[0] == pytest.approx(4.0 - 2.5)
    assert [s.name for s in outermost(spans, {"b", "c"})] == ["b", "b"]
    assert [s.name for s in outermost(spans, {"c", "e"})] == ["c", "e"]


def test_layer_metrics_are_the_declared_per_layer_metrics():
    spans = [Span("cli.main", 0.0, 2.0, None), Span("plap_solver.solve", 0.5, 1.5, 0,
                                                       {"outer": 3, "cg": 30, "converged": True})]
    m = layers.layer_metrics(spans, 0, timed_s=2.0, untraced_s=1.9)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(m) == {metric["name"] for metric in declared}
    assert m["plap_solver.cg_per_outer"] == 10
    assert m["plap_solver.solve.share"] == pytest.approx(0.5)
    assert m["cli.main.self_s"] == pytest.approx(1.0)
    assert m["trace.coverage"] == pytest.approx(1.0)
    assert m["trace.overhead_s"] == pytest.approx(0.1)

