"""The three benchmark workloads: set-up, one operation, checks, oracles.

Each workload class splits its life into the phases the runner times
separately:

- ``setup()`` imports ``repro`` and builds the objects the operations
  use.  It is what ``setup_s`` measures, in a fresh process;
  ``build_s`` is the part of it after the imports.
- ``op(k)`` runs operation ``k`` on the seeded inputs and returns its
  answer.  It is the only code inside the latency timer.
- ``check(result)`` verifies every answer cheaply; ``work(result)`` is
  the work the answer represents; ``counts(result)`` are the per-layer
  counts read from it.
- ``before_gate(k)``, ``record(k, result)`` and ``gate(k)`` re-run a
  seeded subset of operations through the in-tree oracles after the
  timed window.

Nothing here imports ``repro`` at module level: the set-up probe must
pay for every import inside ``setup()``.  Program entry points are
called through their modules' attributes, so the per-layer spans that
:mod:`spans` installs on those attributes fire.
"""

from __future__ import annotations

import copy
import time

import inputs as gen


class AnswerError(AssertionError):
    """An operation's answer failed a check or an oracle comparison."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AnswerError(message)


def stats_tuple(stats) -> tuple:
    """An ISS run's counters in comparable form."""
    return (
        stats.instructions,
        stats.cycles,
        dict(stats.region_instructions),
        dict(stats.region_cycles),
    )


class Workload:
    """Defaults for the hooks a workload may leave out."""

    def __init__(self, data: dict | None = None) -> None:
        self.data = data
        self.recorded: dict[int, object] = {}

    def caches(self) -> list:
        """Report caches read and cleared on the runner's cadence."""
        return []

    def before_gate(self, k: int) -> None:
        """Keep what the oracle needs from before operation ``k``."""

    def record(self, k: int, result) -> None:
        """Keep the answer of a gated operation for :meth:`gate`."""
        self.recorded[k] = result


# --------------------------------------------------------------------------
# design_space
# --------------------------------------------------------------------------
class DesignSpace(Workload):
    """Fresh design queries: three sweeps plus one adaptive explore.

    Every configuration misses the report cache, so the operation drives
    the ``archs`` analytic models and report rendering.
    """

    name = "design_space"
    work_unit = "duty-grid cells"
    duty_steps = 101
    #: Points the skip policy records per sweep (see inputs.SWEEP_RATE_BANDS).
    expected_skips = {"ddc": 0, "drm": 0, "ofdm": 1}
    #: Cells the adaptive explore evaluates in every window of the band.
    expected_evaluations = 13

    def setup(self) -> None:
        from repro.explore import refine
        from repro.explore.spec import ExploreSpec
        from repro.sweep import engine
        from repro.sweep.spec import SweepSpec
        from repro.workloads import get

        self.sweep_engine = engine
        self.refine = refine
        self.SweepSpec = SweepSpec
        self.ExploreSpec = ExploreSpec
        start = time.perf_counter()
        self.workloads = {w: get(w) for w in gen.SWEEP_RATE_FIELD}
        self.evaluators = [
            wl.shared_evaluator() for wl in self.workloads.values()
        ]
        self.build_s = time.perf_counter() - start

    def caches(self) -> list:
        return [ev.cache for ev in self.evaluators]

    def specs(self, k: int):
        k %= gen.N_OPS
        sweeps = []
        for name, field in gen.SWEEP_RATE_FIELD.items():
            axes = dict(self.workloads[name].scenario_axes())
            axes[field] = tuple(float(r) for r in self.data["rates"][name][k])
            sweeps.append(
                self.SweepSpec.from_axes(
                    axes,
                    workload=name,
                    duty_cycle_steps=self.duty_steps,
                    on_error="skip",
                )
            )
        lo = float(self.data["explore_lo"][k])
        explore = self.ExploreSpec(
            axis=("input_rate_hz", lo, lo + gen.EXPLORE_WIDTH_HZ),
            duty_cycle_steps=self.duty_steps,
            workload="ddc",
        )
        return sweeps, explore

    def op(self, k: int):
        sweep_specs, explore_spec = self.specs(k)
        sweeps = []
        for spec in sweep_specs:
            report = self.sweep_engine.run_sweep(spec)
            sweeps.append((spec, report, report.to_json()))
        report = self.refine.run_explore(explore_spec)
        return sweeps, (explore_spec, report, report.to_json())

    def work(self, result) -> int:
        sweeps, (spec, _, _) = result
        cells = sum(
            len(report.points) * s.duty_cycle_steps for s, report, _ in sweeps
        )
        return cells + spec.n_cells * spec.duty_cycle_steps

    def check(self, result) -> None:
        sweeps, (spec, report, text) = result
        for s, sweep, doc in sweeps:
            expect(
                len(sweep.failures) == self.expected_skips[s.workload],
                f"{s.workload} sweep skipped {len(sweep.failures)} points",
            )
            expect(
                len(sweep.points) + len(sweep.failures) == s.n_points,
                f"{s.workload} sweep lost points",
            )
            expect(
                all(len(p.winners) == self.duty_steps for p in sweep.points),
                f"{s.workload} sweep has a short duty grid",
            )
            expect(doc.startswith("{"), f"{s.workload} sweep JSON")
        expect(
            report.evaluations == self.expected_evaluations,
            f"explore evaluated {report.evaluations} cells",
        )
        expect(
            [len(p.cells) for p in report.points] == [spec.target_steps],
            "explore cell count",
        )
        expect(not report.partial and text.startswith("{"), "explore JSON")

    def counts(self, result) -> dict[str, float]:
        sweeps, (spec, report, _) = result
        return {
            "sweep.skipped_points": sum(len(r.failures) for _, r, _ in sweeps),
            "explore.evaluated_ratio": report.evaluations / spec.n_cells,
        }

    def record(self, k: int, result) -> None:
        sweeps, (_, _, text) = result
        self.recorded[k] = ([doc for _, _, doc in sweeps], text)

    def gate(self, k: int) -> None:
        """Scalar sweeps and the dense explore must match byte for byte."""
        sweep_docs, explore_doc = self.recorded[k]
        sweep_specs, explore_spec = self.specs(k)
        for spec, doc in zip(sweep_specs, sweep_docs):
            oracle = self.sweep_engine.run_sweep(spec, engine="scalar")
            expect(oracle.to_json() == doc, f"{spec.workload} sweep != scalar")
        dense = self.refine.run_explore(explore_spec, engine="dense")
        expect(dense.to_json() == explore_doc, "explore != dense")


# --------------------------------------------------------------------------
# population
# --------------------------------------------------------------------------
class Population(Workload):
    """Repeated population studies on the ``drm`` workload's defaults.

    Only four distinct configurations exist, so after the first
    operation the evaluator cache answers every model query: the
    operation exercises sampling, the chunked energy math, the
    percentile sort and memory while the model layer idles.
    """

    name = "population"
    work_unit = "users"
    users = gen.POPULATION_USERS
    oracle_users = 10_000

    def setup(self) -> None:
        from repro.montecarlo import engine
        from repro.montecarlo.spec import PopulationSpec
        from repro.workloads import get

        self.engine = engine
        self.PopulationSpec = PopulationSpec
        start = time.perf_counter()
        self.evaluator = get("drm").shared_evaluator()
        self.build_s = time.perf_counter() - start

    def caches(self) -> list:
        return [self.evaluator.cache]

    def spec(self, k: int, users: int | None = None):
        return self.PopulationSpec(
            workload="drm",
            n_samples=users or self.users,
            seed=int(self.data["seeds"][k % gen.N_OPS]),
        )

    def op(self, k: int):
        report = self.engine.run_population(self.spec(k))
        return report, report.render()

    def work(self, result) -> int:
        return result[0].spec.n_samples

    def check(self, result) -> None:
        report, text = result
        expect(report.n_valid_samples == self.users, "users dropped")
        expect(not report.partial, "population report is partial")
        expect(sum(report.duty_bin_samples) == self.users, "duty bins")
        total = sum(report.winners().values())
        expect(abs(total - 1.0) < 1e-9, f"winner probabilities sum to {total}")
        expect(text.startswith("{"), "population JSON")

    def counts(self, result) -> dict[str, float]:
        return {"montecarlo.distinct_configs": result[0].n_distinct_configs}

    def gate(self, k: int) -> None:
        """The per-user scalar oracle on a 10^4-user copy of the spec."""
        spec = self.spec(k, self.oracle_users)
        fast = self.engine.run_population(spec).render()
        oracle = self.engine.run_population(spec, engine="scalar").render()
        expect(fast == oracle, "population vector != scalar")


# --------------------------------------------------------------------------
# signal_stream
# --------------------------------------------------------------------------
class SignalStream(Workload):
    """One seeded ADC stream, block by block, through four executors.

    These are the executor halves of the ``archs`` packages whose
    analytic models ``design_space`` drives.  ``FixedDDC`` and the RTL
    design stream: their state carries from one block to the next.
    """

    name = "signal_stream"
    work_unit = "ADC samples"
    #: Burst the cycle-accurate RTL oracle runs (two output periods).
    rtl_burst = 2 * gen.OUTPUT_PERIOD

    def __init__(self, data: dict | None = None) -> None:
        super().__init__(data)
        self.snapshots: dict[int, object] = {}
        self.expected_profile = None

    def setup(self) -> None:
        from repro.archs.fpga import rtl_ddc
        from repro.archs.gpp import profiler
        from repro.archs.montium import ddc_mapping
        from repro.dsp.ddc import FixedDDC

        self.rtl_ddc = rtl_ddc
        self.profiler = profiler
        self.ddc_mapping = ddc_mapping
        start = time.perf_counter()
        self.fixed = FixedDDC()
        self.rtl = rtl_ddc.RTLDDC()
        self.build_s = time.perf_counter() - start

    def block(self, k: int):
        stream = self.data["stream"]
        return stream[k % len(stream)]

    def op(self, k: int):
        block = self.block(k)
        i, q = self.fixed.process(block)
        rtl = self.rtl.run(block, engine="block")
        tile = self.ddc_mapping.run_ddc_on_tile(block, engine="block")
        head = block[: gen.OUTPUT_PERIOD]
        gpp = self.profiler.profile_ddc(input_samples=head)
        return i, q, rtl, tile, gpp

    def work(self, result) -> int:
        return gen.BLOCK_SAMPLES

    def check(self, result) -> None:
        i, q, rtl, tile, gpp = result
        periods = gen.BLOCK_SAMPLES // gen.OUTPUT_PERIOD
        expect(len(i) == len(q) == periods, "FixedDDC output count")
        # The RTL design and FixedDDC implement the same bit-true chain.
        expect((rtl.i == i).all() and (rtl.q == q).all(), "RTL != FixedDDC")
        expect(len(tile.i) == len(tile.q) == periods, "tile output count")
        expect(tile.cycles == gen.BLOCK_SAMPLES, "tile cycle count")
        if self.expected_profile is None:
            # The closed-form twin: statistics without execution.  First
            # computed on the warm-up operation, outside the window.
            ref = self.profiler.profile_ddc_analytic(
                n_samples=gen.OUTPUT_PERIOD
            )
            self.expected_profile = (ref.stats.instructions, ref.stats.cycles)
        expect(
            (gpp.stats.instructions, gpp.stats.cycles) == self.expected_profile,
            "ISS statistics != closed form",
        )

    def counts(self, result) -> dict[str, float]:
        _, _, rtl, tile, gpp = result
        return {
            "archs.fpga.sim_cycles": rtl.cycles,
            "archs.montium.sim_cycles": tile.cycles,
            "archs.gpp.sim_instructions": gpp.stats.instructions,
        }

    def before_gate(self, k: int) -> None:
        # FixedDDC carries state between blocks: keep the state the
        # operation starts from so the oracle tier can replay it.
        self.snapshots[k] = copy.deepcopy(self.fixed)

    def gate(self, k: int) -> None:
        """Oracle tiers and engines must match the fast paths exactly."""
        i, q, _, tile, gpp = self.recorded[k]
        block = self.block(k)
        oi, oq = self.snapshots.pop(k).process(block, engine="python")
        expect((oi == i).all() and (oq == q).all(), "FixedDDC fused != python")

        burst = block[: self.rtl_burst]
        fast = self.rtl_ddc.RTLDDC().run(burst, engine="block")
        cycle = self.rtl_ddc.RTLDDC().run(burst, engine="cycle")
        expect(
            (fast.i == cycle.i).all()
            and (fast.q == cycle.q).all()
            and fast.cycles == cycle.cycles
            and fast.activity == cycle.activity,
            "RTL block != cycle-accurate",
        )

        step = self.ddc_mapping.run_ddc_on_tile(block, engine="step")
        expect(
            (step.i == tile.i).all()
            and (step.q == tile.q).all()
            and step.cycles == tile.cycles,
            "tile block != step",
        )

        interp = self.profiler.profile_ddc(
            input_samples=block[: gen.OUTPUT_PERIOD], engine="interp"
        )
        expect(
            (interp.out_samples == gpp.out_samples).all()
            and stats_tuple(interp.stats) == stats_tuple(gpp.stats),
            "ISS fast != interpreter",
        )


WORKLOADS = {cls.name: cls for cls in (DesignSpace, Population, SignalStream)}
