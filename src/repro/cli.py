"""The one driver under the sweep, explore and montecarlo CLIs.

Each front end subclasses :class:`Frontend`, keeps its spec builder, its
own flags, its summary and the phrase saying what ``--verify`` checked,
and inherits the contract every front end answers the same way:

- **shared flags** — ``--workload``, ``--standby-fraction``,
  ``--workers``/``--backend`` (where the engine fans out), ``--engine``
  (the front end's fast engine and its oracle), ``--format`` (where the
  report has several), ``--output``, ``--on-error``, ``--summary``,
  ``--verify``, ``--trace`` and ``--metrics``;
- **verify** — warm both engines on a tiny spec, time the fast engine
  and then the oracle on the real one, render both reports and compare
  them byte for byte;
- **exit codes** — 0 success, 1 ``--verify`` found the two reports
  different, 2 any library error (printed as ``error: ...``), 3 a partial
  report (failures recorded under ``--on-error skip``/``retry``).

``--metrics`` output goes to stderr only: it must never touch the stdout
report stream the ``--verify`` byte-identity contract covers.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from .errors import ConfigurationError, ReproError
from .resilience import ON_ERROR_POLICIES
from .telemetry import tracing


def parse_axis(text: str, flag: str = "--axis") -> tuple[str, tuple]:
    """``name=v1,v2,...`` with int-then-float value coercion.

    The sweep's ``--axis`` and explore's ``--discrete-axis`` grammar
    (``flag`` names the option in error messages).
    """
    name, sep, raw = text.partition("=")
    if not sep or not raw:
        raise ConfigurationError(
            f"{flag} expects name=v1,v2,... got {text!r}"
        )

    def coerce(token: str):
        try:
            return int(token)
        except ValueError:
            try:
                return float(token)
            except ValueError:
                raise ConfigurationError(
                    f"axis {name!r}: {token!r} is not a number"
                ) from None

    return name.strip(), tuple(coerce(t) for t in raw.split(",") if t)


def split_names(text: str | None) -> tuple[str, ...] | None:
    """``NAME,NAME,...`` as a tuple (``None`` when the flag is unset)."""
    if not text:
        return None
    return tuple(n.strip() for n in text.split(",") if n.strip())


# ------------------------------------------------------------- --metrics
def cache_counts(workload: str | None) -> tuple[int, int]:
    """``(hits, misses)`` of the workload's shared per-process cache."""
    from .workloads import get

    cache = getattr(get(workload).shared_evaluator(), "cache", None)
    if cache is None:
        return (0, 0)
    return (cache.hits, cache.misses)


def cache_stats_line(
    before: tuple[int, int], workload: str | None
) -> str:
    """One line of cache behaviour since the ``before`` snapshot.

    Scalar-oracle paths run on fresh uncached evaluators by design, so a
    zero-lookup run is stated rather than divided by.
    """
    h0, m0 = before
    hits, misses = cache_counts(workload)
    dh, dm = hits - h0, misses - m0
    lookups = dh + dm
    if not lookups:
        return (
            "report-cache: no shared-cache lookups in this run "
            "(scalar paths run uncached by design)"
        )
    return (
        f"report-cache: {dh} hit(s), {dm} miss(es) — "
        f"{dh / lookups:.1%} hit rate over {lookups} lookup(s)"
    )


def kernel_tier_line() -> str:
    """The resolved engine tier per kernel primitive, one line."""
    from .kernels.dispatch import active_engines

    return "kernel tiers: " + " ".join(
        f"{primitive}={engine}" for primitive, engine in active_engines().items()
    )


def print_metrics(
    before: tuple[int, int], workload: str | None, extra: Sequence[str] = ()
) -> None:
    """The ``--metrics`` epilogue (stderr only — see module docstring)."""
    print(cache_stats_line(before, workload), file=sys.stderr)
    for line in extra:
        print(line, file=sys.stderr)
    print(kernel_tier_line(), file=sys.stderr)


# ---------------------------------------------------------------- driver
class Frontend:
    """One CLI on the shared driver: the class attributes and hooks a
    front end fills in; :meth:`main` is the driver itself."""

    prog: str
    description: str
    #: "workload to <verb>" in ``--workload``'s help.
    verb: str
    #: What one ``--on-error`` failure loses ("point", "cell", ...).
    unit: str
    #: ``(fast, oracle)`` engine names; the fast one is the default.
    engines: tuple[str, str]
    #: "VERIFY FAILED: <pair> reports differ".
    pair: str
    #: Report formats behind ``--format`` (``None``: one format, no flag).
    formats: tuple[str, ...] | None = None
    #: What ``--workers`` fans out (``None``: the engine never pools).
    pooled: str | None = None

    # ----------------------------------------------------------- hooks
    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        """Register the front end's own flags."""

    def build_spec(self, args: argparse.Namespace) -> Any:
        raise NotImplementedError

    def run(self, spec: Any, engine: str, **pool: Any) -> Any:
        """One run of ``engine`` on ``spec`` (``pool``: workers/backend)."""
        raise NotImplementedError

    def warm_spec(self, spec: Any) -> Any:
        """A tiny spec that warms both engines' first-call paths."""
        raise NotImplementedError

    def verified(self, spec: Any, fast: Any, oracle: Any) -> str:
        """What ``--verify`` compared, e.g. ``"101 grid cells"``."""
        raise NotImplementedError

    def timing(self, spec: Any, fast: Any, oracle: Any) -> str:
        """The verify timing line, with ``{fast}``/``{oracle}`` ms and
        ``{speedup}`` fields the driver fills in."""
        fast_engine, oracle_engine = self.engines
        return (
            f"{fast_engine} {{fast}} ms, {oracle_engine} {{oracle}} ms, "
            "speedup {speedup}x"
        )

    def lost(self, report: Any) -> str:
        """What a partial report lost, e.g. ``"2 point(s) failed"``."""
        raise NotImplementedError

    def execute(
        self, args: argparse.Namespace, spec: Any, before: tuple[int, int]
    ) -> tuple[Any, list[str]]:
        """The normal (non-verify) run: the report plus extra lines for
        the summary and ``--metrics``."""
        return self.run(spec, args.engine, **self._pool(args)), []

    # ---------------------------------------------------------- driver
    def parser(self) -> argparse.ArgumentParser:
        from .workloads import available, default_name

        parser = argparse.ArgumentParser(
            prog=self.prog, description=self.description
        )
        parser.add_argument(
            "--workload", default=default_name(), metavar="NAME",
            help=f"workload to {self.verb}, one of: "
            f"{', '.join(available())} (default: %(default)s, i.e. "
            "$REPRO_WORKLOAD or ddc)",
        )
        self.add_arguments(parser)
        parser.add_argument(
            "--standby-fraction", type=float, default=0.05,
            help="fixed-function idle power as a fraction of active power "
            "(default: %(default)s)",
        )
        if self.pooled:
            parser.add_argument(
                "--workers", type=int, default=None,
                help=f"fan {self.pooled} out over a pool (default: serial)",
            )
            parser.add_argument(
                "--backend", choices=("thread", "process"),
                default="thread",
                help="pool type for --workers (default: %(default)s)",
            )
        fast, oracle = self.engines
        parser.add_argument(
            "--engine", choices=self.engines, default=fast,
            help=f"evaluation path ({oracle} = the oracle --verify "
            "compares against; default: %(default)s)",
        )
        if self.formats:
            parser.add_argument(
                "--format", choices=self.formats, default="json",
                help="report format (default: %(default)s)",
            )
        parser.add_argument(
            "--output", default="-", metavar="PATH",
            help="report path, '-' = stdout (default: stdout)",
        )
        parser.add_argument(
            "--on-error", choices=ON_ERROR_POLICIES, default="raise",
            help=f"{self.unit}-failure policy: raise = abort on the first "
            "failure, skip = record it and continue, retry = retry the "
            f"{self.unit} first and record only if every attempt fails; a "
            "report with recorded failures is marked partial and exits "
            "with status 3 (default: %(default)s)",
        )
        parser.add_argument(
            "--summary", action="store_true",
            help="print the human-readable summary instead of the report",
        )
        parser.add_argument(
            "--verify", action="store_true",
            help="run BOTH engines, require byte-identical reports, report "
            "the measured speedup; exits 1 on any divergence",
        )
        parser.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a merged JSONL execution trace of this run (pool "
            "workers included) to PATH; summarise it with "
            "`python -m repro.telemetry PATH`",
        )
        parser.add_argument(
            "--metrics", action="store_true",
            help="print report-cache hit rates and resolved kernel tiers "
            "to stderr after the run (never touches the report on stdout)",
        )
        return parser

    def main(self, argv: list[str] | None = None) -> int:
        args = self.parser().parse_args(argv)
        try:
            with tracing(args.trace):
                spec = self.build_spec(args)
                before = cache_counts(spec.workload)
                if args.verify:
                    return self._verify(args, spec, before)
                return self._report(args, spec, before)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    def render(self, args: argparse.Namespace, report: Any) -> str:
        if self.formats:
            return report.render(args.format)
        return report.render()

    def _pool(self, args: argparse.Namespace) -> dict[str, Any]:
        if not self.pooled:
            return {}
        return {"workers": args.workers, "backend": args.backend}

    def _verify(
        self, args: argparse.Namespace, spec: Any, before: tuple[int, int]
    ) -> int:
        fast_engine, oracle_engine = self.engines
        # Warm the model/numpy import paths so the timed runs compare the
        # engines, not first-call import costs.
        warm = self.warm_spec(spec)
        self.run(warm, fast_engine)
        self.run(warm, oracle_engine)
        t0 = time.perf_counter()
        fast = self.run(spec, fast_engine, **self._pool(args))
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        oracle = self.run(spec, oracle_engine)
        t_oracle = time.perf_counter() - t0
        fast_bytes = self.render(args, fast).encode()
        if fast_bytes != self.render(args, oracle).encode():
            print(f"VERIFY FAILED: {self.pair} reports differ", file=sys.stderr)
            return 1
        print(
            f"verify OK: {len(fast_bytes)} bytes identical across engines "
            f"({self.verified(spec, fast, oracle)})"
        )
        print(
            "  "
            + self.timing(spec, fast, oracle).format(
                fast=f"{t_fast * 1e3:.2f}",
                oracle=f"{t_oracle * 1e3:.2f}",
                speedup=f"{t_oracle / t_fast:.1f}",
            )
        )
        if args.metrics:
            print_metrics(before, spec.workload)
        return 0

    def _report(
        self, args: argparse.Namespace, spec: Any, before: tuple[int, int]
    ) -> int:
        report, extra = self.execute(args, spec, before)
        if args.summary:
            print(report.summary())
            print(cache_stats_line(before, spec.workload))
            for line in extra:
                print(line)
        else:
            text = self.render(args, report)
            if args.output == "-":
                sys.stdout.write(text)
            else:
                Path(args.output).write_text(text, encoding="utf-8")
                print(f"wrote {args.output}")
        if args.metrics:
            print_metrics(before, spec.workload, extra=extra)
        if report.partial:
            print(
                f"warning: partial report — {self.lost(report)} under "
                f"--on-error {spec.on_error}",
                file=sys.stderr,
            )
            return 3
        return 0
