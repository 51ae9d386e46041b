"""Checks of the benchmark's own arithmetic.

Run from the repository root with ``python -m pytest perfbench``.
"""

import pytest

import layers
import run


def _span(sid, parent, name, start, end, phase="query"):
    return (sid, parent, name, start, end, 0, phase)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(2, 1, layers.CANON, 1.0, 2.0),  # grandchild
        _span(1, 0, layers.EXTRACT, 0.5, 3.0),
        _span(3, 0, layers.REWRITE, 3.0, 4.0),
        _span(0, -1, layers.DERIVE, 0.0, 5.0),
    ]
    own = layers.self_times(spans)
    assert own[2] == pytest.approx(1.0)
    assert own[1] == pytest.approx(1.5)
    assert own[3] == pytest.approx(1.0)
    assert own[0] == pytest.approx(5.0 - 2.5 - 1.0)
    assert sum(own.values()) == pytest.approx(5.0)


def test_layer_metrics_skip_check_phase_except_the_check_layer():
    tracer = layers.Tracer()
    tracer.spans = [
        _span(1, 0, layers.CANON, 0.0, 1.0),
        _span(0, -1, layers.DERIVE, 0.0, 3.0),
        _span(3, 2, layers.CANON, 4.0, 4.5, "check"),
        _span(2, -1, layers.CHECK, 4.0, 6.0, "check"),
    ]
    metrics = layers.layer_metrics(tracer, 1.0)
    assert metrics["canon.calls"] == 1
    assert metrics["canon.self_s"] == pytest.approx(1.0)
    assert metrics["calculus.derive.self_s"] == pytest.approx(2.0)
    assert metrics["calculus.check.self_s"] == pytest.approx(1.5)
    assert [name for name, _ in layers.METRICS] == list(metrics)


def test_traced_generator_charges_only_its_own_next_calls():
    tracer = layers.Tracer()

    def numbers():
        yield 1
        yield 2

    traced = layers._traced_generator(tracer, layers.DECOMP, numbers)
    with tracer.span(layers.DERIVE):
        for _ in traced():
            with tracer.span(layers.REWRITE):  # consumer work between items
                pass
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    derive_id = by_name[layers.DERIVE][0][0]
    assert len(by_name[layers.DECOMP]) == 3  # two items and the final StopIteration
    assert all(span[1] == derive_id for span in by_name[layers.DECOMP] + by_name[layers.REWRITE])
    assert tracer.counts[layers.DECOMP + ".calls"] == 1
    assert tracer.counts[layers.DECOMP + ".yielded"] == 2


def test_p90_of_100_samples_leaves_ten_beyond():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == (90, 10)
    assert run.percentile(list(reversed(values)), 50) == (50, 50)
    assert run.percentile(values[:99], 90)[1] < run.MIN_BEYOND


def test_error_rate_counts_failures_against_all_attempts():
    assert run.error_rate(0, 296) == 0.0
    assert run.error_rate(3, 300) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        run.error_rate(0, 0)


def test_scale_maps_wall_time_to_the_reference_speed():
    slow = (2 * run.REFERENCE_SLICE_S, 2 * run.REFERENCE_SLICE_S)
    assert run.scale(0.010, slow) == pytest.approx(0.005)
    assert run.scale(0.010, (run.REFERENCE_SLICE_S, 3 * run.REFERENCE_SLICE_S)) == pytest.approx(0.005)
