import types

import pytest

from tracing import Tracer, self_times, span_totals


def span(i, name, parent, start, end, case=0):
    return {"id": i, "name": name, "parent": parent, "case": case, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 3.0),
        span(2, "b", 0, 4.0, 8.0),
        span(3, "a.x", 1, 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 1.0, 2: 4.0, 3: 1.0}


def test_overlapping_and_clipped_children_count_once():
    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "c1", 0, 2.0, 6.0),
        span(2, "c2", 0, 5.0, 7.0),  # overlaps c1 by 1
        span(3, "c3", 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_totals_are_per_name_and_filtered_by_case():
    spans = [
        span(0, "cli", None, 0.0, 4.0, case=0),
        span(1, "fit", 0, 1.0, 3.0, case=0),
        span(2, "cli", None, 5.0, 6.0, case=1),
        span(3, "cli", None, 0.0, 100.0, case="setup"),
    ]
    totals = span_totals(spans, {0, 1})
    assert totals["cli"] == {"calls": 2, "s": 5.0, "self_s": 3.0}
    assert totals["fit"] == {"calls": 1, "s": 2.0, "self_s": 2.0}


def test_patched_call_records_a_nested_span_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer.case = 7
    tracer.patch(mod, "inner", lambda x: f"inner.{x}", after=lambda t, r, x: t.count("n", r))
    tracer.patch(mod, "outer", "outer")
    assert mod.outer(3) == 8
    names = [(s["name"], s["parent"], s["case"]) for s in tracer.spans]
    assert names == [("outer", None, 7), ("inner.3", 0, 7)]
    assert tracer.counts == {(7, "n"): 4}


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    mod = types.ModuleType("fake")

    def boom():
        raise RuntimeError("x")

    mod.boom = boom
    tracer.patch(mod, "boom", "boom")
    with pytest.raises(RuntimeError):
        mod.boom()
    assert tracer.spans[0]["end"] is not None
    tracer.restore()
    assert mod.boom is boom


def test_install_and_restore_put_back_every_attribute():
    import layers

    tracer = Tracer()
    seen = []
    tracer.patch = lambda owner, attr, *a, **k: seen.append((owner, attr, owner.__dict__[attr]))
    layers.install(tracer)
    assert len(seen) == len({(id(o), a) for o, a, _ in seen}) > 20

    tracer = Tracer()
    layers.install(tracer)
    for owner, attr, original in seen:
        assert owner.__dict__[attr] is not original
    tracer.restore()
    for owner, attr, original in seen:
        assert owner.__dict__[attr] is original
    assert tracer._patched == []
