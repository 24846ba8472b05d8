"""Tests of the benchmark itself: inputs, statistics and spans.

Run with ``PYTHONPATH=src python -m pytest ddcbench``.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

import inputs
import operations
import run
import spans


def _bytes(data) -> bytes:
    return pickle.dumps(
        {k: sorted(v.items()) if isinstance(v, dict) else v for k, v in data.items()}
    )


@pytest.mark.parametrize("workload", sorted(operations.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert _bytes(inputs.generate(workload, 7)) == _bytes(inputs.generate(workload, 7))
    assert _bytes(inputs.generate(workload, 7)) != _bytes(inputs.generate(workload, 8))


@pytest.mark.parametrize("workload", sorted(operations.WORKLOADS))
def test_seeds_give_same_shapes(workload):
    a, b = inputs.generate(workload, 1), inputs.generate(workload, 2)
    assert a.keys() == b.keys()
    for key in a:
        left = a[key] if isinstance(a[key], dict) else {"": a[key]}
        right = b[key] if isinstance(b[key], dict) else {"": b[key]}
        assert left.keys() == right.keys()
        for name in left:
            assert left[name].shape == right[name].shape
            assert left[name].dtype == right[name].dtype


def test_adc_stream_is_12_bit():
    stream = inputs.adc_stream(3)
    assert stream.shape == (inputs.STREAM_BLOCKS, inputs.BLOCK_SAMPLES)
    assert stream.min() >= -2048 and stream.max() <= 2047


def test_population_seeds_are_distinct():
    seeds = inputs.population_inputs(5)["seeds"]
    assert len(set(seeds.tolist())) == len(seeds)


@pytest.fixture(scope="module")
def built():
    """Each workload set up once on two seeds; caches cleared afterwards."""
    made = {}
    for name, cls in operations.WORKLOADS.items():
        for seed in (1, 2):
            wl = cls(inputs.generate(name, seed))
            wl.setup()
            made[name, seed] = wl
    yield made
    for wl in made.values():
        for cache in wl.caches():
            cache.clear()


@pytest.mark.parametrize("workload", sorted(operations.WORKLOADS))
def test_seeds_give_same_work_per_operation(built, workload):
    """Every operation has one shape: same work, same counts, and its
    answer passes the checks, whatever the seed."""
    seen = set()
    for seed in (1, 2):
        wl = built[workload, seed]
        for k in (0, 1, 2):
            result = wl.op(k)
            wl.check(result)
            counts = wl.counts(result)
            seen.add((wl.work(result), tuple(sorted(counts.items()))))
    assert len(seen) == 1


def test_design_space_windows_refine_the_same_cells(built):
    """The explore windows all span the same feasibility thresholds."""
    wl = built["design_space", 1]
    evaluations = set()
    for lo in np.linspace(*inputs.EXPLORE_LO_BAND, 9):
        spec = wl.ExploreSpec(
            axis=("input_rate_hz", float(lo), float(lo) + inputs.EXPLORE_WIDTH_HZ)
        )
        evaluations.add(wl.refine.run_explore(spec).evaluations)
    assert evaluations == {wl.expected_evaluations}


def test_oracle_gate_passes(built):
    for name in operations.WORKLOADS:
        wl = built[name, 1]
        wl.before_gate(3)
        wl.record(3, wl.op(3))
        wl.gate(3)


def test_oracle_gate_catches_a_wrong_answer(built):
    wl = built["design_space", 2]
    sweeps, (spec, report, text) = wl.op(4)
    wl.record(4, (sweeps, (spec, report, text.replace("0", "1", 1))))
    with pytest.raises(operations.AnswerError):
        wl.gate(4)


@pytest.mark.parametrize("q", [10, 90])
@pytest.mark.parametrize("n", [110, 111, 119, 120, 250, 999, 1000])
def test_tail_rule_leaves_ten_samples_beyond(n, q):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    value, beyond = run.tail_percentile(values, q)
    assert beyond >= 10
    outside = [v > value if q >= 50 else v < value for v in values]
    assert beyond == sum(outside)
    assert value == sorted(values)[int(np.ceil(q / 100 * n)) - 1]


@pytest.mark.parametrize("q, n", [(90, 1), (90, 99), (10, 50), (10, 100)])
def test_tail_rule_refuses_short_runs(q, n):
    with pytest.raises(ValueError):
        run.tail_percentile([float(i) for i in range(n)], q)


def test_minimum_run_covers_both_tails():
    values = [float(i) for i in range(run.MIN_OPS)]
    assert run.tail_percentile(values, 10)[1] >= 10
    assert run.tail_percentile(values, 90)[1] >= 10


def test_self_time_subtracts_covered_child_time():
    s = spans.Span
    records = [
        s("root", 0.0, 10.0),
        s("a", 1.0, 3.0, parent=0),
        s("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
        s("c", 9.0, 12.0, parent=0),  # runs past the root: clipped
        s("a", 1.5, 2.5, parent=1),  # nested in a
    ]
    totals = spans.self_times(records)
    assert totals["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert totals["a"] == pytest.approx((2.0 - 1.0) + 1.0)
    assert totals["b"] == pytest.approx(3.0)
    assert totals["c"] == pytest.approx(3.0)


@pytest.mark.parametrize("workload", sorted(operations.WORKLOADS))
def test_every_wrapped_span_fires_on_its_workload(built, workload):
    wl = built[workload, 1]
    wl.op(10)  # warms the caches, as every window's first operation does
    tracer = spans.Tracer()
    points = spans.entry_points()
    before = {(id(o), a): vars(o).get(a) for o, a, _, _ in points}
    tracer.install(points)
    try:
        root = tracer.begin(spans.ROOT)
        wl.op(11)
        tracer.end(root)
    finally:
        tracer.uninstall()
    totals = tracer.drain()
    fired = {name for name in totals if name != spans.ROOT}
    assert fired == spans.EXPECTED[workload]
    assert all(totals[name] > 0 for name in fired)
    assert {(id(o), a): vars(o).get(a) for o, a, _, _ in points} == before


def test_metrics_match_the_benchmark_definition():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
