"""Span recording and self-time aggregation.

    python3 -m pytest perfbench/test_tracing.py
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from tracing import Recorder, Spans


def spans_of(rows) -> Spans:
    """Hand-made spans: (name, start, end, parent, thread, count)."""
    names = sorted({row[0] for row in rows})
    return Spans({"names": names,
                  "spans": [[names.index(n), s, e, p, t, c]
                            for n, s, e, p, t, c in rows]})


def test_self_time_subtracts_same_thread_children():
    spans = spans_of([
        ("outer", 0.0, 10.0, -1, 1, 0),
        ("inner", 1.0, 3.0, 0, 1, 0),
        ("inner", 4.0, 8.0, 0, 1, 0),
        ("leaf", 5.0, 6.0, 2, 1, 0),
    ])
    assert spans.self_time == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert spans.total(spans.select("inner"), "self_time") == \
        pytest.approx(5.0)


def test_child_on_other_thread_is_not_subtracted():
    spans = spans_of([
        ("outer", 0.0, 10.0, -1, 1, 0),
        ("inner", 1.0, 3.0, 0, 2, 0),
    ])
    assert spans.self_time == pytest.approx([10.0, 2.0])


def test_select_window_and_top_level():
    spans = spans_of([
        ("q", 0.0, 5.0, -1, 1, 3),
        ("q", 1.0, 2.0, 0, 1, 7),
        ("q", 6.0, 7.0, -1, 1, 2),
    ])
    assert spans.select("q") == [0, 1, 2]
    assert spans.select("q", top_level=True) == [0, 2]
    assert spans.select("q", window=(0.5, 6.5)) == [1, 2]
    assert spans.rows(spans.select("q", top_level=True)) == 5


class Layer:
    def outer(self, batch):
        return self.inner(batch) + 1

    def inner(self, batch):
        time.sleep(0.01)
        return len(batch)

    async def wait(self):
        await asyncio.sleep(0.01)
        return "done"


def test_recorder_nests_and_restores():
    recorder = Recorder()
    original = Layer.__dict__["outer"]
    recorder.wrap(Layer, "outer", "core.query_batch")
    recorder.wrap(Layer, "inner", "kernels.merge")
    recorder.wrap(Layer, "wait", "serve.submit")
    try:
        layer = Layer()
        assert layer.outer([1, 2, 3]) == 4
        assert asyncio.run(layer.wait()) == "done"
        worker = threading.Thread(target=layer.inner, args=([1],))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    finally:
        recorder.uninstall()
    assert Layer.__dict__["outer"] is original
    spans = Spans(recorder.export())
    names = [spans.name(i) for i in range(len(spans.spans))]
    assert names == ["core.query_batch", "kernels.merge", "serve.submit",
                     "kernels.merge"]
    outer, inner, wait, other = spans.spans
    assert inner[3] == 0          # nested under outer
    assert outer[5] == 3          # row count of the batch argument
    assert wait[3] == -1          # coroutines never nest
    assert other[3] == -1 and other[4] != outer[4]
    assert spans.self_time[0] < spans.duration[1]
    assert spans.duration[0] >= spans.duration[1] >= 0.01
