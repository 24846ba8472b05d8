"""CLI entry point: ``PYTHONPATH=src python -m repro.sweep``.

With no arguments it regenerates the Table 7 scenario grid — the paper's
feasible architectures against the 0..1 duty-cycle grid — through the
batched engine and prints the JSON report.  ``--axis`` adds configuration
axes, ``--backend process --workers N`` fans points out over a process
pool, and ``--verify`` proves the batched run byte-identical to the
scalar oracle while timing both.  Shared flags, verify and exit codes:
:mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from ..cli import Frontend, parse_axis, split_names
from .engine import run_sweep
from .report import FORMATS
from .spec import SweepSpec


class SweepCLI(Frontend):
    prog = "python -m repro.sweep"
    description = "Batched scenario sweeps over configuration grids."
    verb = "sweep"
    unit = "point"
    engines = ("batch", "scalar")
    pair = "batched and scalar"
    formats = FORMATS
    pooled = "configuration points"

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--axis", action="append", default=[], metavar="FIELD=V1,V2,...",
            help="add a configuration sweep axis over the workload's fields "
            "(repeatable); no axes = the workload's reference configuration "
            "(for ddc, the Table 7 scenario grid)",
        )
        parser.add_argument(
            "--steps", type=int, default=101,
            help="duty-cycle grid size over [0, 1] (default: %(default)s)",
        )
        parser.add_argument(
            "--architectures", default=None, metavar="NAME,NAME,...",
            help="restrict candidates to these architecture names",
        )

    def build_spec(self, args: argparse.Namespace) -> SweepSpec:
        return SweepSpec.from_axes(
            dict(parse_axis(a) for a in args.axis),
            duty_cycle_steps=args.steps,
            architectures=split_names(args.architectures),
            standby_fraction=args.standby_fraction,
            on_error=args.on_error,
            workload=args.workload,
        )

    def run(self, spec, engine, **pool):
        return run_sweep(spec, engine=engine, **pool)

    def warm_spec(self, spec):
        return replace(spec, duty_cycle_steps=2)

    def verified(self, spec, fast, oracle) -> str:
        return f"{spec.n_grid_cells} grid cells"

    def lost(self, report) -> str:
        return f"{len(report.failures)} point(s) failed"


def main(argv: list[str] | None = None) -> int:
    return SweepCLI().main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
