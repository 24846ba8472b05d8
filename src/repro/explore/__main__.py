"""CLI entry point: ``PYTHONPATH=src python -m repro.explore``.

With no arguments it explores the reference space — the paper's DDC over
an input-rate axis spanning both Cyclone f_max thresholds — adaptively
and prints the JSON frontier report.  ``--store PATH`` warm-starts the
report cache from (and spills it back to) an on-disk store so repeated
explorations across processes skip re-running the models; ``--verify``
runs the adaptive engine *and* the dense scalar oracle, requires their
reports byte-identical, and reports the measured speedup and how few
cells the adaptive engine actually evaluated.  Shared flags, verify and
exit codes: :mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import sys

from ..cli import Frontend, parse_axis, split_names
from ..core.evaluator import ReportCache
from ..errors import ConfigurationError
from ..workloads import get as get_workload
from .refine import run_explore
from .report import FORMATS
from .spec import ExploreSpec
from .store import ReportStore


def _parse_axis(text: str) -> tuple[str, float, float]:
    """``field=lo:hi`` for the continuous axis."""
    name, sep, raw = text.partition("=")
    lo, sep2, hi = raw.partition(":")
    if not sep or not sep2:
        raise ConfigurationError(
            f"--axis expects field=lo:hi, got {text!r}"
        )
    try:
        return name.strip(), float(lo), float(hi)
    except ValueError:
        raise ConfigurationError(
            f"axis bounds must be numbers, got {raw!r}"
        ) from None


class ExploreCLI(Frontend):
    prog = "python -m repro.explore"
    description = (
        "Design-space exploration: Pareto frontiers over configuration "
        "axes with adaptive refinement."
    )
    verb = "explore"
    unit = "cell"
    engines = ("adaptive", "dense")
    pair = "adaptive and dense-oracle frontier"
    formats = FORMATS

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--axis", default=None, metavar="FIELD=LO:HI",
            help="continuous refinement axis (default: the workload's "
            "reference axis; for ddc, input_rate_hz over the reference "
            "space)",
        )
        parser.add_argument(
            "--coarse", type=int, default=5,
            help="initial coarse grid size (default: %(default)s)",
        )
        parser.add_argument(
            "--target", type=int, default=65,
            help="target axis resolution; (target-1) must be "
            "(coarse-1)*2^k (default: %(default)s)",
        )
        parser.add_argument(
            "--discrete-axis", action="append", default=[],
            metavar="FIELD=V1,V2,...",
            help="add a discrete DDCConfig axis (repeatable)",
        )
        parser.add_argument(
            "--steps", type=int, default=101,
            help="duty-cycle grid size over [0, 1] (default: %(default)s)",
        )
        parser.add_argument(
            "--objectives", default=None, metavar="NAME,NAME,...",
            help="Pareto objectives (default: power_w,area_mm2)",
        )
        parser.add_argument(
            "--architectures", default=None, metavar="NAME,NAME,...",
            help="restrict candidates to these architecture names",
        )
        parser.add_argument(
            "--probes", type=int, default=0,
            help="extra seeded round-0 probe cells (default: %(default)s)",
        )
        parser.add_argument(
            "--seed", type=int, default=0,
            help="probe-draw seed (default: %(default)s)",
        )
        parser.add_argument(
            "--budget", type=int, default=None,
            help="max evaluated cells per discrete point (default: none)",
        )
        parser.add_argument(
            "--store", default=None, metavar="PATH",
            help="on-disk report store: warm-start the report cache from "
            "it and spill the cache (plus this frontier) back after the run",
        )

    def build_spec(self, args: argparse.Namespace) -> ExploreSpec:
        kwargs: dict = {}
        if args.axis:
            kwargs["axis"] = _parse_axis(args.axis)
        for name in ("architectures", "objectives"):
            names = split_names(getattr(args, name))
            if names is not None:
                kwargs[name] = names
        spec = ExploreSpec(
            coarse_steps=args.coarse,
            target_steps=args.target,
            discrete_axes=tuple(
                parse_axis(a, flag="--discrete-axis")
                for a in args.discrete_axis
            ),
            duty_cycle_steps=args.steps,
            standby_fraction=args.standby_fraction,
            probe_points=args.probes,
            seed=args.seed,
            max_evaluations=args.budget,
            on_error=args.on_error,
            workload=args.workload,
            **kwargs,
        )
        if args.store and (args.verify or args.engine != "adaptive"):
            # Silently skipping persistence would strand the user's next
            # warm start; say so instead.
            raise ConfigurationError(
                "--store needs the adaptive engine (the dense oracle and "
                "--verify run deliberately uncached)"
            )
        return spec

    def run(self, spec, engine, **pool):
        # Fresh caches/evaluators per engine so the verify comparison
        # (and its timing) is cold-start honest on both sides.
        workload = get_workload(spec.workload)
        cache = ReportCache() if engine == "adaptive" else None
        return run_explore(spec, engine, workload.evaluator(cache=cache))

    def warm_spec(self, spec):
        return ExploreSpec(
            axis=spec.axis, coarse_steps=2, target_steps=2,
            duty_cycle_steps=2, workload=spec.workload,
        )

    def verified(self, spec, fast, oracle) -> str:
        return f"{spec.n_cells} cells at target resolution"

    def timing(self, spec, fast, oracle) -> str:
        return (
            f"adaptive evaluated {fast.evaluations}/{spec.n_cells} cells "
            f"in {{fast}} ms; dense oracle {oracle.evaluations} cells in "
            "{oracle} ms; speedup {speedup}x"
        )

    def lost(self, report) -> str:
        failed = sum(
            1 for p in report.points for cell in p.cells if cell.failed
        )
        return f"{failed} cell(s) failed"

    def execute(self, args, spec, before):
        """The shared-evaluator run, warm-started from and spilled to
        ``--store`` when given."""
        if args.engine == "dense":
            return run_explore(spec, engine="dense"), []
        evaluator = get_workload(spec.workload).shared_evaluator()
        if not args.store:
            return run_explore(spec, evaluator=evaluator), []
        store = ReportStore(args.store)
        loaded = store.load(evaluator.cache, evaluator.models)
        print(
            f"store: warm-started {loaded} report(s) from {args.store}",
            file=sys.stderr,
        )
        if store.last_salvaged:
            print(
                "store: salvaged a damaged store file — "
                f"{store.last_salvaged} bad line(s) quarantined "
                f"to {store.quarantine_path}",
                file=sys.stderr,
            )
        checkpoint = store.load_checkpoint(spec, evaluator.models)
        if checkpoint is not None:
            done = sum(len(cells) for cells in checkpoint["evaluated"])
            print(
                "store: resuming from checkpoint — round "
                f"{checkpoint['round']}, {done} cell(s) already "
                f"evaluated, {len(checkpoint['pending'])} pending",
                file=sys.stderr,
            )
        report = run_explore(spec, evaluator=evaluator, store=store)
        total = store.save(evaluator.cache)
        store.save_frontier(spec, evaluator.models, report.to_json_doc())
        print(
            f"store: spilled cache ({total} report(s)) and frontier "
            f"to {args.store}",
            file=sys.stderr,
        )
        hits = evaluator.cache.hits - before[0]
        misses = evaluator.cache.misses - before[1]
        lookups = hits + misses
        if not lookups:
            return report, []
        return report, [
            f"store warm-hit rate: {hits / lookups:.1%} "
            f"({hits}/{lookups} lookups served without a model run)"
        ]


def main(argv: list[str] | None = None) -> int:
    return ExploreCLI().main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
