"""In-memory spans around the program's public entry points.

The traced run wraps each entry point listed in :func:`entry_points` and
records a span per call: name, start, end and parent.  A layer's self
time is its span's duration minus the part of that interval its child
spans cover, so nested calls (an engine calling a model, a DRM model
calling the DDC model inside it) are never counted twice.

Two rules decide where a wrapper must go:

- a method is wrapped on its class; it is looked up at call time, so the
  wrapper also sees the calls the engines make internally;
- a function that a caller imported by name is wrapped in the caller's
  module (``repro.montecarlo.engine.winner_counts``, not the definition
  in ``repro.energy.scenarios``).

A span whose wrapper sits in the wrong place silently never fires; the
benchmark's tests check that every span fires on the workload that uses
it.
"""

from __future__ import annotations

import gc
import importlib
import time
from dataclasses import dataclass

#: Root span of one operation; its self time is the unattributed time.
ROOT = "op"

#: Spans of the analytic model layer (``archs.configs`` counts the
#: configurations entering the outermost of these).
MODEL_SPANS = (
    "archs.montium.model_s",
    "archs.fpga.model_s",
    "archs.gpp.model_s",
    "archs.asic.model_s",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the union of its direct
    children's intervals, clipped to the span.  Children of one span
    may overlap (for example work handed to threads), so the union is
    taken instead of the sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = (span.end - span.start) - covered
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


class Tracer:
    """Records spans of the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.gc_s = 0.0
        self._gc_start = 0.0
        self._patches: list[tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------------- spans
    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def inside(self, names: tuple[str, ...]) -> bool:
        """Whether a span named in ``names`` is open."""
        return any(self.spans[i].name in names for i in self.stack)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def drain(self) -> dict[str, float]:
        """Self time per span name since the last drain; forgets spans."""
        totals = self_times(self.spans)
        for span in self.spans:
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
        self.spans.clear()
        return totals

    # ------------------------------------------------------------- wrapping
    def wrap(self, fn, name: str, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                counter(tracer, args)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        traced.__wrapped__ = fn
        return traced

    def install(self, points) -> None:
        """Wrap every ``(owner, attribute, span, counter)`` entry point."""
        for owner, attr, name, counter in points:
            had = attr in vars(owner)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, vars(owner).get(attr), had))
            setattr(owner, attr, self.wrap(original, name, counter))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start


def _count_configs(tracer: Tracer, args: tuple) -> None:
    # Models nest (a DRM model asks the DDC model inside it); count the
    # configurations only where they enter the model layer.
    if not tracer.inside(MODEL_SPANS):
        tracer.count("archs.configs", len(args[1]))


def entry_points() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span, counter)`` for every traced entry point.

    Importing the owners here is fine: the traced run calls this after
    the untraced set-up has already imported them.
    """
    mod = importlib.import_module
    points: list[tuple[object, str, str, object]] = []

    def add(module: str, owner: str | None, attr: str, span: str, counter=None):
        target = mod(module)
        if owner is not None:
            target = getattr(target, owner)
        points.append((target, attr, span, counter))

    models = {
        "archs.montium.model_s": [
            ("repro.archs.montium.model", "MontiumModel"),
            ("repro.workloads.drm", "DRMMontiumModel"),
            ("repro.workloads.ofdm", "OFDMMontiumModel"),
        ],
        "archs.fpga.model_s": [
            ("repro.archs.fpga.model", "CycloneModel"),
            ("repro.workloads.drm", "DRMCycloneModel"),
            ("repro.workloads.ofdm", "OFDMCycloneModel"),
        ],
        "archs.gpp.model_s": [
            ("repro.archs.gpp.arm9", "ARM9Model"),
            ("repro.workloads.drm", "DRMARM9Model"),
            ("repro.workloads.ofdm", "OFDMARM9Model"),
        ],
        "archs.asic.model_s": [
            ("repro.archs.asic.lowpower", "LowPowerDDCModel"),
            ("repro.archs.asic.gc4016", "GC4016Model"),
        ],
    }
    for span, classes in models.items():
        for module, cls in classes:
            add(module, cls, "implement_batch", span, _count_configs)

    evaluator = "repro.core.evaluator"
    for attr in (
        "report_batches",
        "scenario_candidates_batch",
        "scenario_candidates_from_batches",
        "scenario_candidate_outcomes_from_batches",
    ):
        add(evaluator, "DDCEvaluator", attr, "core.candidates_s")

    scenarios = "repro.energy.scenarios"
    add(scenarios, "ScenarioAnalysis", "evaluate_batch", "energy.grid_s")
    add(scenarios, "ScenarioAnalysis", "cost_batch", "energy.grid_s")

    mc = "repro.montecarlo.engine"
    add(mc, None, "effective_power_samples", "energy.samples_s")
    add(mc, None, "winner_counts", "energy.winners_s")
    add(mc, None, "sample_population", "montecarlo.sample_s")
    add(mc, None, "dedup_axis_indices", "montecarlo.dedup_s")
    add(mc, None, "build_candidate_table", "montecarlo.table_s")
    add(mc, None, "run_population", "montecarlo.engine_s")
    # run_population imports build_report from its module at call time.
    add("repro.montecarlo.report", None, "build_report", "montecarlo.report_s")
    add("repro.montecarlo.report", "PopulationReport", "render", "montecarlo.render_s")

    add("repro.sweep.engine", None, "run_sweep", "sweep.engine_s")
    add("repro.sweep.report", "SweepReport", "to_json", "sweep.render_s")
    add("repro.explore.refine", None, "run_explore", "explore.engine_s")
    add("repro.explore.refine", None, "frontier_from_batches", "explore.pareto_s")
    add("repro.explore.report", "ExploreReport", "to_json", "explore.render_s")

    add("repro.dsp.ddc", "FixedDDC", "process", "dsp.fixed_ddc_s")
    add("repro.archs.fpga.rtl_ddc", "RTLDDC", "run", "archs.fpga.rtl_s")
    add(
        "repro.archs.montium.ddc_mapping",
        None,
        "run_ddc_on_tile",
        "archs.montium.tile_s",
    )
    add("repro.archs.gpp.profiler", None, "profile_ddc", "archs.gpp.iss_s")
    return points


#: Self-time spans each workload should fire (the rest should read zero).
EXPECTED = {
    "design_space": {
        *MODEL_SPANS,
        "core.candidates_s",
        "energy.grid_s",
        "sweep.engine_s",
        "sweep.render_s",
        "explore.engine_s",
        "explore.pareto_s",
        "explore.render_s",
    },
    "population": {
        "core.candidates_s",
        "energy.samples_s",
        "energy.winners_s",
        "montecarlo.sample_s",
        "montecarlo.dedup_s",
        "montecarlo.table_s",
        "montecarlo.report_s",
        "montecarlo.render_s",
        "montecarlo.engine_s",
    },
    "signal_stream": {
        "dsp.fixed_ddc_s",
        "archs.fpga.rtl_s",
        "archs.montium.tile_s",
        "archs.gpp.iss_s",
    },
}

#: Every span name the entry points can record.
SPAN_NAMES = sorted(set().union(*EXPECTED.values()))
