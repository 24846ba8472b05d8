"""Retry policies and the error-policy contract of the execution layer.

PRs 3-5 made the design-space stack fast; this module makes it survive
production-scale operation: flaky tasks, wedged workers and dying
processes must degrade or recover instead of throwing away a whole run.
The primitives here are shared by :func:`repro.parallel.parallel_map`
and the sweep, explore and montecarlo engines:

- :class:`RetryPolicy` — a frozen, picklable description of *how* to
  retry: attempt budget, deterministic exponential backoff and an
  optional per-task timeout.  The policy never sleeps or reads a clock
  itself; callers pass an injectable ``sleep`` so tests (and the chaos
  suite) run wall-clock free.  **Determinism rule**: retrying must not
  change results — a task that succeeds on attempt 3 returns exactly
  what it would have returned on attempt 1, and nothing derived from
  attempt counts, timestamps or backoff delays may enter a report's
  serialised output.
- :data:`ON_ERROR_POLICIES` / :func:`check_on_error` — the shared
  ``on_error`` vocabulary of the sweep, explore and population specs,
  which every engine applies through :func:`run_guarded` and closes with
  :func:`check_not_all_failed`:

  - ``"raise"`` (default) — the strict mode: the first failing cell
    aborts the run, exactly the pre-resilience behaviour;
  - ``"skip"`` — a failing cell is recorded on the run's error channel
    and the report is marked partial; the run survives;
  - ``"retry"`` — like ``"skip"``, but each failing cell is first
    retried under :data:`DEFAULT_RETRY`; only a cell that fails every
    attempt is recorded.

Transient faults (injected or real) therefore leave ``"retry"`` runs
byte-identical to fault-free runs — the chaos suite in
``tests/test_faults.py`` asserts exactly that.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from .errors import ConfigurationError, PartialResultError, TaskFailedError

R = TypeVar("R")

#: Cell-failure policies accepted by the sweep/explore specs.
ON_ERROR_POLICIES = ("raise", "skip", "retry")


def check_on_error(policy: str) -> str:
    """Validate an ``on_error`` policy name (shared by both specs)."""
    if policy not in ON_ERROR_POLICIES:
        raise ConfigurationError(
            f"unknown on_error policy {policy!r}; expected one of "
            f"{ON_ERROR_POLICIES}"
        )
    return policy


def check_engine(kind: str, engine: str, engines: tuple[str, ...]) -> None:
    """Validate the ``engine=`` name of a ``kind`` run (sweep, explore, ...)."""
    if engine not in engines:
        raise ConfigurationError(
            f"unknown {kind} engine {engine!r}; expected one of {engines}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry a failing task (frozen, picklable, clock-free).

    Parameters
    ----------
    max_attempts:
        Total times a task may run (>= 1; ``1`` disables retrying).
    backoff_s:
        Delay before the first retry.  Subsequent retries wait
        ``backoff_s * backoff_factor**(k-1)`` after the ``k``-th failure
        — a pure function of the attempt number, never of the clock.
    backoff_factor:
        Exponential growth of the backoff (>= 1).
    timeout_s:
        Optional per-task timeout, enforced through the futures API by
        the pooled path of :func:`repro.parallel.parallel_map`
        (``Future.result(timeout=...)``).  A timed-out attempt counts as
        a failure and is retried like any other; the serial path cannot
        preempt a running call and ignores it.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        # NaN fails every comparison, so each bound is stated positively.
        if not (math.isfinite(self.backoff_s) and self.backoff_s >= 0.0):
            raise ConfigurationError(
                f"backoff_s must be finite and >= 0, got {self.backoff_s}"
            )
        if not (
            math.isfinite(self.backoff_factor) and self.backoff_factor >= 1.0
        ):
            raise ConfigurationError(
                "backoff_factor must be finite and >= 1, got "
                f"{self.backoff_factor}"
            )
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0.0
        ):
            raise ConfigurationError(
                "timeout_s must be None or finite and > 0, got "
                f"{self.timeout_s}"
            )

    def delay_s(self, failures: int) -> float:
        """Backoff before the retry that follows the ``failures``-th
        failure (1-based) — deterministic exponential schedule."""
        if failures < 1:
            raise ConfigurationError(
                f"delay_s counts failures from 1, got {failures}"
            )
        return self.backoff_s * self.backoff_factor ** (failures - 1)

    def delays(self) -> tuple[float, ...]:
        """Every backoff delay the policy can produce, in order."""
        return tuple(
            self.delay_s(k) for k in range(1, self.max_attempts)
        )


#: The policy ``on_error="retry"`` runs cells under: three attempts,
#: no backoff (cell evaluation is CPU-bound and deterministic — waiting
#: cannot help it, and benches must not sleep).
DEFAULT_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)


def call_with_retry(
    fn: Callable[[], R],
    policy: RetryPolicy = DEFAULT_RETRY,
    sleep: Callable[[float], None] = time.sleep,
    label: str = "task",
) -> R:
    """Run ``fn()`` under ``policy``; the serial retry primitive.

    Returns the first successful result.  After ``max_attempts``
    failures raises :class:`~repro.errors.TaskFailedError` with the last
    exception as ``__cause__``.  ``sleep`` is injectable so tests assert
    the deterministic backoff schedule without waiting it out.  (The
    policy's ``timeout_s`` is not enforced here — a serial caller cannot
    preempt its own call; see :func:`repro.parallel.parallel_map` for
    the pooled enforcement.)
    """
    last: Exception | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except Exception as exc:
            last = exc
            if attempt == policy.max_attempts:
                raise TaskFailedError(
                    f"{label} failed on every one of {attempt} attempt(s): "
                    f"{exc}",
                    attempts=attempt,
                ) from exc
            sleep(policy.delay_s(attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def run_guarded(
    fn: Callable[[], R], on_error: str, label: str
) -> "R | Exception":
    """Run ``fn()`` under an ``on_error`` policy (the engines' one ladder).

    ``"raise"`` calls ``fn`` directly, so its error propagates;
    ``"retry"`` calls it through :func:`call_with_retry` under
    :data:`DEFAULT_RETRY`; ``"skip"`` calls it once.  Under the two
    tolerant policies a failure is *returned*, not raised: the caller
    records it on its error channel, reading the underlying error with
    :func:`failure_cause` (and :func:`failure_attempts`).  ``fn`` never
    returns an exception itself, so ``isinstance(out, Exception)`` tells
    the two outcomes apart.
    """
    if on_error == "raise":
        return fn()
    try:
        if on_error == "retry":
            return call_with_retry(fn, DEFAULT_RETRY, label=label)
        return fn()
    except Exception as exc:  # noqa: BLE001 — the error channel records it
        return exc


def check_not_all_failed(
    succeeded: bool,
    failed: str,
    on_error: str,
    first_error: Callable[[], tuple[str, str]],
) -> None:
    """Raise :class:`~repro.errors.PartialResultError` if nothing succeeded.

    A tolerant run whose every cell failed helps nobody.  ``failed``
    states what was lost (``"3 sweep point(s) failed"``);
    ``first_error`` returns the first recorded ``(type name, message)``
    and is only called when the run is lost.
    """
    if succeeded:
        return
    error_type, message = first_error()
    raise PartialResultError(
        f"all {failed} under on_error={on_error!r}; first error: "
        f"{error_type}: {message}"
    )


def failure_cause(exc: Exception) -> Exception:
    """The underlying error of a retry failure (or the error itself).

    Error channels record *what went wrong*, not the retry wrapper:
    a :class:`~repro.errors.TaskFailedError` is unwrapped to its cause.
    """
    if isinstance(exc, TaskFailedError) and isinstance(
        exc.__cause__, Exception
    ):
        return exc.__cause__
    return exc


def failure_attempts(exc: Exception) -> int:
    """How many times the failed task ran (1 when never retried)."""
    if isinstance(exc, TaskFailedError):
        return exc.attempts
    return 1
