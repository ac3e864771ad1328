"""Self-time arithmetic of the benchmark's span recorder, on synthetic trees.

Run with ``python3 -m pytest perfbench``.
"""

import math
import threading

from spans import Recorder, Span, covered_length, layer_metrics, outermost, self_times


def tree():
    # request (0..10)
    # +- strategy.ga (1..9)
    #    +- evaluator.evaluate_batch (2..4)
    #    |  +- evaluator.submit_batch (2.5..3.5)
    #    +- delta.score_moves (5..6)
    #    +- delta.commit (5.5..7)      overlaps its sibling
    return [
        Span("dse.run", 0.0, 10.0),
        Span("strategy.ga", 1.0, 9.0, parent=0, info={"evals": 7}),
        Span("evaluator.evaluate_batch", 2.0, 4.0, parent=1),
        Span("evaluator.submit_batch", 2.5, 3.5, parent=2, info={"rows": 5}),
        Span("delta.score_moves", 5.0, 6.0, parent=1, info={"moves": 4}),
        Span("delta.commit", 5.5, 7.0, parent=1),
    ]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered_length([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_union_of_direct_children_only():
    selfs = self_times(tree())
    assert selfs == [2.0, 8.0 - 2.0 - 2.0, 1.0, 1.0, 1.0, 1.5]
    # Self times partition the root's interval, except that the overlap
    # of the two delta siblings (0.5) is their own time twice.
    assert math.isclose(sum(selfs), 10.0 + 0.5)


def test_outermost_skips_nested_spans_of_the_same_layer():
    spans = tree()
    assert outermost(spans, 2)
    assert not outermost(spans, 3)  # submit_batch inside evaluate_batch
    assert outermost(spans, 5)


def test_layer_metrics_from_synthetic_tree():
    spans = tree()
    for span in spans:
        span.rid = 0
    out = layer_metrics(spans, n_requests=2, counters={})
    assert out["strategy.ga.run_ms"] == (8000.0, "ms")
    assert out["strategy.ga.self_ms"] == (4000.0, "ms")
    assert out["strategy.ga.evals"] == (7.0, "count")
    assert out["evaluator.batch_ms"] == (1000.0, "ms")  # 2 s over 2 requests
    assert out["evaluator.rows"] == (2.5, "count")
    assert out["delta.score_ms"] == (1250.0, "ms")  # outermost delta spans
    assert out["delta.us_per_move"] == (250000.0, "us")


def test_recorder_nests_per_thread_and_pauses():
    recorder = Recorder()
    recorder.request_id = 3
    outer = recorder.begin("dse.run")
    inner = recorder.begin("delta.reset")
    recorder.end(inner)
    recorder.paused = True
    assert recorder.begin("delta.commit") == -1
    recorder.paused = False
    recorder.end(outer)
    assert [s.parent for s in recorder.spans] == [None, 0]
    assert [s.rid for s in recorder.spans] == [3, 3]
    assert all(s.end >= s.start for s in recorder.spans)


def test_recorder_keeps_parents_right_under_concurrent_threads():
    recorder = Recorder()

    def record(tag):
        for _ in range(2000):
            outer = recorder.begin(f"outer.{tag}")
            inner = recorder.begin(f"inner.{tag}")
            recorder.end(inner)
            recorder.end(outer)

    threads = [threading.Thread(target=record, args=(tag,)) for tag in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    spans = recorder.spans
    assert len(spans) == 4 * 2000 * 2
    for span in spans:
        assert span.end >= span.start > 0.0
        tag = span.name.split(".")[1]
        if span.name.startswith("inner."):
            assert spans[span.parent].name == f"outer.{tag}"
        else:
            assert span.parent is None
