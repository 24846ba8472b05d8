"""The exit-code contract the sweep, explore and montecarlo CLIs share.

0 = success, 1 = ``--verify`` mismatch, 2 = error, 3 = partial report
(see :mod:`repro.cli`).
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.explore.__main__ import ExploreCLI, main as explore_main
from repro.faults import FaultPlan, FaultSpec
from repro.montecarlo.__main__ import MonteCarloCLI, main as mc_main
from repro.sweep.__main__ import SweepCLI, main as sweep_main

#: name -> (main, front end, small clean argv, bad argv, fault site, key)
CASES = {
    "sweep": (
        sweep_main, SweepCLI,
        ["--steps", "5", "--axis", "fir_taps=63,125"],
        ["--axis", "nonsense"],
        "sweep.point", 1,
    ),
    "explore": (
        explore_main, ExploreCLI,
        ["--coarse", "2", "--target", "3", "--steps", "2"],
        ["--axis", "nonsense"],
        "explore.cell", (0, 0),
    ),
    "montecarlo": (
        mc_main, MonteCarloCLI,
        ["--samples", "200", "--chunk-samples", "100"],
        ["--duty", "nope(1)"],
        "montecarlo.chunk", 1,
    ),
}


class _Tampered:
    """An oracle report whose rendering no longer matches the fast one."""

    def __init__(self, report) -> None:
        self.report = report

    def render(self, *args) -> str:
        return self.report.render(*args) + " "


@pytest.mark.parametrize("name", sorted(CASES))
def test_exit_codes(name, monkeypatch, capsys):
    main, frontend, argv, bad, site, key = CASES[name]
    assert main(argv) == 0
    assert main(argv + ["--verify"]) == 0
    assert "verify OK" in capsys.readouterr().out

    assert main(bad) == 2
    assert capsys.readouterr().err.startswith("error: ")

    with faults.inject(FaultPlan((FaultSpec(site, keys=(key,)),))):
        assert main(argv + ["--on-error", "skip"]) == 3
    assert "warning: partial report" in capsys.readouterr().err

    oracle_engine = frontend.engines[1]
    real_run = frontend.run

    def run(self, spec, engine, **pool):
        report = real_run(self, spec, engine, **pool)
        return _Tampered(report) if engine == oracle_engine else report

    monkeypatch.setattr(frontend, "run", run)
    assert main(argv + ["--verify"]) == 1
    assert "VERIFY FAILED" in capsys.readouterr().err
