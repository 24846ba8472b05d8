"""Tests for repro.montecarlo: distributions, spec, engines, CLI.

The load-bearing property is *byte-identity*: the vectorised population
engine (dedup + chunked fused streaming) and the per-sample scalar
oracle loop must serialise to exactly the same JSON report, for every
workload, chunk size, worker count and pool backend — and fault
recovery under ``on_error="retry"`` must not perturb a byte either.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import faults
from repro.config import REFERENCE_DDC
from repro.energy.scenarios import (
    ScenarioCandidate,
    ScenarioAnalysis,
    check_duty_cycles,
)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.montecarlo import (
    Choice,
    LogNormal,
    Mixture,
    Normal,
    PopulationSpec,
    Trace,
    Uniform,
    battery_life_percentile,
    nearest_rank,
    parse_distribution,
    run_population,
)
from repro.montecarlo.__main__ import main as mc_main


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


SMALL = dict(n_samples=512, chunk_samples=128)


class TestDistributions:
    def test_uniform_bounds_and_determinism(self):
        d = Uniform(low=0.2, high=0.8)
        a, b = d.sample(rng(), 1000), d.sample(rng(), 1000)
        assert np.array_equal(a, b)
        assert a.min() >= 0.2 and a.max() <= 0.8
        assert d.bounds() == (0.2, 0.8)

    def test_uniform_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            Uniform(low=1.0, high=0.0)

    def test_normal_clips_to_declared_bounds(self):
        d = Normal(mean=0.5, std=10.0, low=0.0, high=1.0)
        x = d.sample(rng(), 1000)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert d.bounds() == (0.0, 1.0)
        assert Normal(mean=0.0, std=1.0).bounds() is None

    def test_clip_bounds_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            Normal(mean=0.0, std=1.0, low=1.0, high=0.0)
        with pytest.raises(ConfigurationError):
            LogNormal(mu=0.0, sigma=-1.0)

    def test_mixture_samples_within_component_bounds(self):
        d = Mixture(
            components=(
                (0.5, Uniform(low=0.0, high=0.1)),
                (0.5, Uniform(low=0.9, high=1.0)),
            )
        )
        x = d.sample(rng(), 2000)
        assert d.bounds() == (0.0, 1.0)
        # Both modes present, nothing in the gap.
        assert (x <= 0.1).any() and (x >= 0.9).any()
        assert not ((x > 0.1) & (x < 0.9)).any()

    def test_mixture_rejects_discrete_components(self):
        with pytest.raises(ConfigurationError):
            Mixture(components=((1.0, Choice(values=(1, 2))),))

    def test_choice_validation(self):
        with pytest.raises(ConfigurationError):
            Choice(values=())
        with pytest.raises(ConfigurationError):
            Choice(values=(1, 1))
        with pytest.raises(ConfigurationError):
            Choice(values=(1, 2), weights=(1.0,))
        with pytest.raises(ConfigurationError):
            Choice(values=(1, 2), weights=(-1.0, 2.0))

    def test_choice_weights_bias_sampling(self):
        d = Choice(values=(10, 20), weights=(0.9, 0.1))
        idx = d.sample_indices(rng(), 5000)
        assert set(np.unique(idx)) <= {0, 1}
        assert (idx == 0).mean() > 0.8

    def test_trace_cycle_replays_in_order(self):
        d = Trace(trace=(5, 7, 5), replay="cycle")
        assert d.support == (5, 7)
        idx = d.sample_indices(rng(), 7)
        # positions 0..6 mod 3 -> values 5,7,5,5,7,5,5 -> support rows.
        assert idx.tolist() == [0, 1, 0, 0, 1, 0, 0]

    def test_trace_bootstrap_follows_empirical_weights(self):
        d = Trace(trace=(1, 1, 1, 2), replay="bootstrap")
        idx = d.sample_indices(rng(), 4000)
        assert 0.6 < (idx == 0).mean() < 0.9

    def test_trace_validation(self):
        with pytest.raises(ConfigurationError):
            Trace(trace=())
        with pytest.raises(ConfigurationError):
            Trace(trace=(1,), replay="backwards")

    def test_describe_hides_internal_fields(self):
        doc = Trace(trace=(1, 2), replay="cycle").describe()
        assert doc["kind"] == "trace"
        assert not any(k.startswith("_") for k in doc)


class TestParseDistribution:
    def test_grammar_round_trip(self):
        assert parse_distribution("uniform(0,1)") == Uniform(0.0, 1.0)
        assert parse_distribution("normal(0.3,0.1)") == Normal(0.3, 0.1)
        assert parse_distribution("normal(0.3,0.1,0,1)") == Normal(
            0.3, 0.1, 0.0, 1.0
        )
        assert parse_distribution("lognormal(0,0.5)") == LogNormal(0.0, 0.5)
        assert parse_distribution("choice(63,125)") == Choice(values=(63, 125))
        assert parse_distribution("choice(1:0.6,2:0.4)") == Choice(
            values=(1, 2), weights=(0.6, 0.4)
        )
        assert parse_distribution("trace(63,125,63)") == Trace(
            trace=(63, 125, 63), replay="cycle"
        )
        assert parse_distribution("point(125)") == Choice(values=(125,))

    def test_integer_values_stay_integers(self):
        values = parse_distribution("choice(63,125)").values
        assert all(isinstance(v, int) for v in values)

    def test_bad_inputs_are_clean_errors(self):
        for text in (
            "nope(1)", "uniform(1)", "choice()", "choice(1:)",
            "point(1,2)", "uniform(a,b)", "just text",
        ):
            with pytest.raises(ConfigurationError):
                parse_distribution(text)


class TestPopulationSpec:
    def test_defaults_resolve_from_workload(self):
        spec = PopulationSpec(workload="ddc", n_samples=10)
        assert spec.duty_cycle == Uniform(0.0, 1.0)
        assert dict(spec.axes)["fir_taps"].support == (63, 125, 255)
        assert spec.base_config is REFERENCE_DDC
        assert spec.n_distinct_bound() == 3

    def test_chunk_size_is_not_part_of_the_population(self):
        a = PopulationSpec(n_samples=10, chunk_samples=4).describe()
        b = PopulationSpec(n_samples=10, chunk_samples=512).describe()
        assert a == b
        assert "chunk_samples" not in a

    def test_duty_distribution_must_be_bounded_in_unit_interval(self):
        with pytest.raises(ConfigurationError, match="bounded"):
            PopulationSpec(n_samples=10, duty_cycle=Normal(0.5, 0.1))
        with pytest.raises(ConfigurationError, match="bounded"):
            PopulationSpec(n_samples=10, duty_cycle=Uniform(0.0, 1.5))

    def test_axes_must_be_discrete(self):
        with pytest.raises(ConfigurationError, match="discrete"):
            PopulationSpec(
                n_samples=10, axes=(("fir_taps", Uniform(63, 255)),)
            )

    def test_unknown_axis_field_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationSpec(
                n_samples=10, axes=(("no_such_field", Choice(values=(1,))),)
            )

    def test_numeric_validation(self):
        for kwargs in (
            dict(n_samples=0),
            dict(n_samples=10, chunk_samples=0),
            dict(n_samples=10, duty_bins=0),
            dict(n_samples=10, standby_fraction=1.5),
            dict(n_samples=10, battery_wh=0.0),
            dict(n_samples=10, percentiles=()),
            dict(n_samples=10, percentiles=(0.0,)),
            dict(n_samples=10, on_error="explode"),
        ):
            with pytest.raises(ConfigurationError):
                PopulationSpec(**kwargs)


class TestDutyCycleValidation:
    """Satellite: batch evaluators must name the offending duty cycle."""

    def test_check_duty_cycles_names_value_and_index(self):
        with pytest.raises(ConfigurationError, match=r"1\.5 at index 2"):
            check_duty_cycles([0.0, 1.0, 1.5])
        with pytest.raises(ConfigurationError, match="nan"):
            check_duty_cycles([0.5, float("nan")])
        with pytest.raises(ConfigurationError):
            check_duty_cycles([])
        with pytest.raises(ConfigurationError):
            check_duty_cycles([[0.1], [0.2]])

    def test_analysis_batch_paths_validate(self):
        cand = ScenarioCandidate("x", active_power_w=1.0,
                                 standby_power_w=0.1)
        analysis = ScenarioAnalysis((cand,))
        with pytest.raises(ConfigurationError, match="-0.25"):
            analysis.cost_batch([0.5, -0.25])
        with pytest.raises(ConfigurationError, match="2.0"):
            analysis.evaluate_batch([2.0])

    def test_scalar_effective_power_names_value(self):
        cand = ScenarioCandidate("x", active_power_w=1.0,
                                 standby_power_w=0.1)
        with pytest.raises(ConfigurationError, match="1.25"):
            cand.effective_power_w(1.25)


class TestEngineByteIdentity:
    """Identical seeds must give byte-identical JSON everywhere."""

    @pytest.mark.parametrize("workload", ["ddc", "drm"])
    def test_vector_equals_scalar_oracle(self, workload):
        spec = PopulationSpec(workload=workload, seed=3, **SMALL)
        vector = run_population(spec, engine="vector").render()
        scalar = run_population(spec, engine="scalar").render()
        assert vector.encode() == scalar.encode()

    def test_chunk_size_workers_backend_do_not_change_bytes(self):
        spec = PopulationSpec(seed=5, **SMALL)
        want = run_population(spec).render()
        for variant in (
            dataclasses.replace(spec, chunk_samples=37),
            dataclasses.replace(spec, chunk_samples=10_000),
        ):
            assert run_population(variant).render() == want
        assert run_population(spec, workers=3).render() == want
        assert (
            run_population(spec, workers=2, backend="process").render()
            == want
        )

    def test_different_seed_different_bytes(self):
        a = run_population(PopulationSpec(seed=0, **SMALL)).render()
        b = run_population(PopulationSpec(seed=1, **SMALL)).render()
        assert a != b

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            run_population(PopulationSpec(**SMALL), engine="quantum")

    def test_report_document_schema(self):
        report = run_population(PopulationSpec(seed=2, **SMALL))
        doc = json.loads(report.render())
        assert doc["schema"] == "repro-montecarlo/v1"
        assert doc["n_valid_samples"] == SMALL["n_samples"]
        assert doc["partial"] is False
        assert len(doc["duty_bin_edges"]) == doc["spec"]["duty_bins"] + 1
        assert sum(doc["duty_bin_samples"]) == SMALL["n_samples"]
        for arch in doc["architectures"]:
            assert set(arch["power_w"]) == {"p50", "p95", "p99"}
            probs = [
                p for p in arch["win_probability_by_duty"] if p is not None
            ]
            assert all(0.0 <= p <= 1.0 for p in probs)
        total = sum(a["win_probability"] for a in doc["architectures"])
        assert total == pytest.approx(1.0)


class TestFailurePolicy:
    BAD_AXES = (("fir_taps", Choice(values=(63, 0))),)

    def test_raise_mode_raises_on_poisoned_config(self):
        spec = PopulationSpec(axes=self.BAD_AXES, **SMALL)
        with pytest.raises(ConfigurationError, match="fir_taps"):
            run_population(spec)

    def test_skip_mode_records_weighted_failures(self):
        spec = PopulationSpec(axes=self.BAD_AXES, on_error="skip", **SMALL)
        report = run_population(spec)
        assert report.partial
        assert report.n_dropped_samples > 0
        (failure,) = report.failures
        assert failure.phase == "build"
        assert failure.n_samples == report.n_dropped_samples
        assert "fir_taps" in failure.message
        assert report.n_valid_samples + report.n_dropped_samples == (
            SMALL["n_samples"]
        )

    def test_skip_mode_stays_byte_identical_across_engines(self):
        spec = PopulationSpec(
            axes=self.BAD_AXES, on_error="skip", seed=4, **SMALL
        )
        vector = run_population(spec, engine="vector").render()
        scalar = run_population(spec, engine="scalar").render()
        assert vector.encode() == scalar.encode()

    def test_retry_recovers_injected_chunk_fault_byte_identical(self):
        spec = PopulationSpec(seed=6, on_error="retry", **SMALL)
        want = run_population(spec)  # fault-free reference, same spec
        plan = FaultPlan((FaultSpec("montecarlo.chunk", keys=(1,)),))
        with faults.inject(plan):
            got = run_population(spec)
        assert got.render() == want.render()
        assert not got.partial

    def test_skip_records_injected_chunk_fault_as_partial(self):
        spec = PopulationSpec(seed=6, on_error="skip", **SMALL)
        plan = FaultPlan((FaultSpec("montecarlo.chunk", keys=(1,)),))
        with faults.inject(plan):
            report = run_population(spec)
        assert report.partial
        (chunk,) = report.chunk_failures
        assert chunk.index == 1
        assert chunk.stop - chunk.start == SMALL["chunk_samples"]
        assert report.n_dropped_samples == SMALL["chunk_samples"]


class TestReportHelpers:
    def test_nearest_rank_is_an_actual_sample_value(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert nearest_rank(x, 50.0) == 2.0
        assert nearest_rank(x, 100.0) == 4.0
        assert nearest_rank(x, 1.0) == 1.0
        assert nearest_rank(np.array([]), 50.0) is None

    def test_battery_life_comes_from_the_opposite_tail(self):
        x = np.array([0.5, 1.0, 2.0])
        # p50 life <- p50-from-the-top power (here the median, 1.0 W).
        assert battery_life_percentile(x, 50.0, 3.7) == 3.7 / 1.0
        assert battery_life_percentile(x, 100.0, 3.7) == 3.7 / 0.5
        assert battery_life_percentile(np.array([0.0]), 50.0, 3.7) is None

    def test_winner_tie_matches_scalar_first_minimum_rule(self):
        from repro.energy.scenarios import winner_counts

        powers = np.array([[1.0, 1.0], [np.nan, np.nan]])
        counts = winner_counts(powers, np.array([0, 0]), 1)
        # Tie goes to the first column; the all-nan row counts nowhere.
        assert counts.tolist() == [[1, 0]]


class TestCLI:
    def test_verify_mode_passes(self, capsys):
        assert mc_main(["--samples", "300", "--chunk-samples", "128",
                        "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verify OK" in out and "speedup" in out

    def test_json_output_and_summary(self, capsys, tmp_path):
        path = tmp_path / "pop.json"
        assert mc_main(["--samples", "200", "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["spec"]["n_samples"] == 200
        assert mc_main(["--samples", "200", "--summary"]) == 0
        assert "architecture" in capsys.readouterr().out

    def test_axis_and_duty_flags(self, capsys):
        assert mc_main([
            "--samples", "200", "--duty", "normal(0.2,0.1,0,1)",
            "--axis", "fir_taps=choice(63,125)", "--summary",
        ]) == 0

    def test_bad_distribution_is_a_clean_error(self, capsys):
        assert mc_main(["--duty", "nope(1)"]) == 2
        assert "error:" in capsys.readouterr().err
        # A non-finite battery must not print nan battery-life columns.
        for value in ("nan", "inf", "0"):
            argv = ["--samples", "200", "--battery-wh", value]
            assert mc_main(argv) == 2
            assert "error: battery_wh" in capsys.readouterr().err

    def test_unbounded_duty_is_a_clean_error(self, capsys):
        assert mc_main(["--duty", "normal(0.5,0.2)"]) == 2
        assert "bounded" in capsys.readouterr().err

    def test_partial_run_exits_3(self, capsys):
        code = mc_main([
            "--samples", "200", "--axis", "fir_taps=choice(63,0)",
            "--on-error", "skip",
        ])
        assert code == 3
        assert "partial" in capsys.readouterr().err

    def test_bench_list_names_population_bench(self, capsys):
        from repro.bench.__main__ import main as bench_main

        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "montecarlo_population  [guarded]" in out
        assert "ddc_gold\n" in out  # unguarded entries are unmarked
