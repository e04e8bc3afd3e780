"""Tests of the benchmark's tracer and metric lists.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gordian  # noqa: E402
import gordian.cli  # noqa: E402,F401  (cli binds traced functions too)
import pytest  # noqa: E402
import run  # noqa: E402
from gordian.braid import BraidWord, braid_closure  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.phase = "job"
    t.install()
    yield t
    t.uninstall()


def test_every_binding_is_wrapped(tracer):
    assert tracer.unwrapped() == []


def test_a_stale_binding_is_reported(tracer):
    original = tracer._originals[("gordian.invariants", "fingerprint")]
    wrapper = gordian.search.fingerprint
    gordian.search.fingerprint = original
    try:
        assert tracer.unwrapped() == ["gordian.search.fingerprint"]
    finally:
        gordian.search.fingerprint = wrapper


def test_uninstall_restores_the_originals():
    t = Tracer()
    t.install()
    t.uninstall()
    for (module, func), original in t._originals.items():
        assert getattr(sys.modules[module], func) is original
    assert t.unwrapped() != []


def test_spans_nest_and_self_times_add_up(tracer):
    trefoil = braid_closure(BraidWord.from_letters((1, 1, 1)))
    sys.modules["gordian.identify"].fingerprint(trefoil)  # another binding
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.layer for s in roots] == ["fingerprint"]
    by_layer = {s.layer: s for s in tracer.spans}
    assert by_layer["bracket"].parent is roots[0]
    assert by_layer["seifert"].parent.layer in ("alexander", "signature")
    assert by_layer["bracket"].counts == {"crossings": 3}
    stats = tracer.layer_stats("job")
    total_self = sum(st["self_s"] for st in stats.values())
    assert total_self == pytest.approx(roots[0].duration)
    assert stats["fingerprint"]["s"] == pytest.approx(roots[0].duration)
    assert set(stats) <= set(LAYERS)


def test_moves_count_into_the_enclosing_simplify_span(tracer):
    d = gordian.torus_diagram(5)
    bigger = gordian.backtrack_randomize(d, 10, seed=3)
    gordian.simplify_global(bigger, budget=50, seed=0)
    simplify = [s for s in tracer.spans if s.layer == "simplify"]
    scramble = [s for s in tracer.spans if s.layer == "scramble"]
    assert len(simplify) == 1 and simplify[0].counts["moves"] > 0
    assert "moves" not in scramble[0].counts


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER) + list(
        run.TRACE_METRICS
    )
