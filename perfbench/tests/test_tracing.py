"""Self-time arithmetic, span parentage across threads, and restoration
of every wrapped function."""

import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import femrisk.cli
from tracing import (LAYER_METRICS, ROOT, WRAPS, Span, Tracer, _resolve,
                     layer_metrics, self_times, union_length)


def _span(name, start, end, parent, thread=1):
    return Span(name, start, end, 0.0, 0.0, parent, "r", thread)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 5), (3, 8)], 0, 10) == 7
    assert union_length([(1, 2), (4, 6), (5, 7)], 0, 10) == 4
    assert union_length([(-2, 3), (9, 12)], 0, 10) == 4
    assert union_length([], 0, 10) == 0


def test_self_time_counts_overlapping_children_from_two_threads_once():
    spans = [
        _span("parent", 0.0, 10.0, None),
        _span("child", 1.0, 5.0, 0, thread=2),   # pool thread 2
        _span("child", 3.0, 8.0, 0, thread=3),   # pool thread 3, overlaps
        _span("grandchild", 2.0, 4.0, 1, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0)   # union [1, 8], not 4 + 5
    assert selfs[1] == pytest.approx(4.0 - 2.0)    # grandchild only
    assert selfs[2] == pytest.approx(5.0)
    assert selfs[3] == pytest.approx(2.0)


def _fake_module():
    mod = types.ModuleType("perfbench_fake_layer")

    def child(delay):
        time.sleep(delay)
        return delay

    def parent(delay):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.child, [delay, delay]))

    mod.child, mod.parent = child, parent
    sys.modules[mod.__name__] = mod
    return mod


def test_pool_thread_spans_hang_off_the_waiting_call():
    mod = _fake_module()
    wraps = ((mod.__name__, "child", "fake.child", None),
             (mod.__name__, "parent", "fake.parent", None))
    try:
        with Tracer(wraps=wraps) as tracer:
            assert mod.parent(0.2) == [0.2, 0.2]
    finally:
        del sys.modules[mod.__name__]
    spans = tracer.ordered_spans()
    assert [s.name for s in spans] == ["fake.parent", "fake.child", "fake.child"]
    assert [s.parent for s in spans] == [None, 0, 0]
    assert spans[1].thread != spans[2].thread
    # The two children ran side by side: their busy time exceeds the
    # parent's wall time, yet the parent's self time stays small.
    parent_self = self_times(spans)[0]
    assert spans[1].duration + spans[2].duration > spans[0].duration
    assert 0.0 <= parent_self < 0.1


def test_tracer_restores_every_wrapped_function():
    def lookup():
        out = []
        for target, attr, _, _ in WRAPS:
            holder = _resolve(target)
            out.append(holder.__dict__[attr] if isinstance(holder, type)
                       else getattr(holder, attr))
        return out

    before = lookup()
    with Tracer():
        during = lookup()
    assert all(d is not b for d, b in zip(during, before))
    assert all(getattr(d, "__wrapped__", None) is b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(lookup(), before))

    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(a is b for a, b in zip(lookup(), before))


def test_traced_fe_run_matches_untraced_and_counts_solves(tmp_path):
    import femrisk.femodel as fm
    fm.save_grid(fm.uniform_grid((2, 2, 3), 0.5), tmp_path / "g.txt")
    fm.material_to_file(fm.MaterialModel(),
                        fm.SolveControl(increment=0.01, max_increments=2),
                        tmp_path / "m.json")

    def run(out):
        return femrisk.cli.dispatch(
            ["fe", "--grid", str(tmp_path / "g.txt"), "--material",
             str(tmp_path / "m.json"), "--yield-policy", "ultimate",
             "--out", str(tmp_path / out)])

    assert run("plain.json") == 0
    with Tracer() as tracer:
        with tracer.span(ROOT):
            assert run("traced.json") == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()

    layers = layer_metrics(tracer.ordered_spans(), tracer.counters)
    assert sorted(layers) == sorted(LAYER_METRICS)
    assert layers["femodel.solver.solve.calls"] == 4
    assert layers["femodel.solver.increments"] == 8
    assert layers["femodel.solver.spsolve.per_increment"] == 1.0
    assert layers["femodel._kernel.radial_return_batch.plastic_share"] == 0.0
    assert 0.0 <= layers["femodel.solver.solve.self_s"] <= layers["femodel.solver.solve.busy_s"]
    assert layers["stats.logistic.fit_logistic.calls"] == 0
