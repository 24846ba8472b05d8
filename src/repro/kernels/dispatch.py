"""Kernel registry and engine dispatch for the hot DSP primitives.

The streaming front end (NCO, CIC, FIR, the fused ``FixedDDC`` chain and
the ``Simulator`` latch loop) ships two implementations per primitive:

``python``
    The original, line-for-line oracle — the bit-true reference every
    other tier is pinned against.
``fused``
    A restructured single-pass numpy kernel: no per-call staging copies,
    no dtype churn, wrapping hoisted out of the per-stage loop.

Selection:

- explicitly, via the ``engine=`` keyword every hot ``process``/
  ``generate``/``compile`` method grew (``None`` means "use the
  environment default");
- globally, via the ``REPRO_KERNELS`` environment variable.  The value
  is either one engine name (``REPRO_KERNELS=python``) or a
  comma-separated list of ``primitive=engine`` overrides with an
  optional bare default, e.g. ``REPRO_KERNELS=fused,cic=python``;
- by default (``auto``): ``fused`` where registered, else ``python``.

Every tier of one primitive is bit-identical by contract (pinned by the
Hypothesis suites in ``tests/test_kernels.py``), so dispatch is a pure
performance decision.
"""

from __future__ import annotations

import os
from typing import Callable

from .. import telemetry
from ..errors import ConfigurationError

#: Environment variable consulted when no explicit ``engine=`` is given.
ENV_VAR = "REPRO_KERNELS"

#: Engine tiers, slowest to fastest.
ENGINES = ("python", "fused")

#: Recognised selector values (``auto`` resolves to the fastest tier).
SELECTORS = ENGINES + ("auto",)

# primitive -> engine -> callable.  ``python`` entries are optional: the
# oracle usually lives on the class itself and dispatch only returns the
# tier *name* for it.
_REGISTRY: dict[str, dict[str, Callable]] = {}


def register(primitive: str, engine: str, fn: Callable) -> Callable:
    """Register ``fn`` as the ``engine`` tier of ``primitive``.

    Returns ``fn`` so it can be used as a decorator.  Re-registering
    replaces the previous entry.
    """
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown kernel engine {engine!r}")
    _REGISTRY.setdefault(primitive, {})[engine] = fn
    return fn


def registered(primitive: str) -> tuple[str, ...]:
    """Engine tiers registered for ``primitive`` (always incl. python)."""
    tiers = {"python", *_REGISTRY.get(primitive, ())}
    return tuple(e for e in ENGINES if e in tiers)


def _env_selector(primitive: str) -> str:
    """Parse ``REPRO_KERNELS`` for this primitive (default ``auto``)."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return "auto"
    selected = "auto"
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            key, _, value = item.partition("=")
            if key.strip() == primitive:
                selected = value.strip()
        else:
            selected = item
    if selected not in SELECTORS:
        raise ConfigurationError(
            f"{ENV_VAR}: unknown engine {selected!r} "
            f"(expected one of {', '.join(SELECTORS)})"
        )
    return selected


def resolve(primitive: str, engine: str | None = None) -> str:
    """Resolve the engine tier to run ``primitive`` on.

    ``engine=None`` consults :data:`ENV_VAR`; ``auto`` picks the fastest
    registered tier; ``fused`` degrades to ``python`` for a primitive
    with no fused kernel.
    """
    if engine is None:
        engine = _env_selector(primitive)
    if engine not in SELECTORS:
        raise ConfigurationError(
            f"unknown kernel engine {engine!r} for {primitive!r} "
            f"(expected one of {', '.join(SELECTORS)})"
        )
    if engine == "auto":
        engine = "fused"
    if engine == "fused" and "fused" not in _REGISTRY.get(primitive, {}):
        engine = "python"
    telemetry.counter("kernel.dispatch", primitive=primitive, engine=engine)
    return engine


def active_engines(engine: str | None = None) -> dict[str, str]:
    """The resolved tier per registered primitive, after degradation.

    The introspection face of :func:`resolve`: the silent ``fused`` →
    ``python`` fallback is otherwise invisible, so ``--metrics`` CLI
    users could not tell which tier actually served a run.  ``engine``
    follows the same selector semantics as :func:`resolve` (``None`` =
    environment).
    """
    return {
        primitive: resolve(primitive, engine)
        for primitive in sorted(_REGISTRY)
    }


def kernel(primitive: str, engine: str) -> Callable:
    """Return the registered callable for an exact ``(primitive, engine)``."""
    try:
        return _REGISTRY[primitive][engine]
    except KeyError:
        raise ConfigurationError(
            f"no {engine!r} kernel registered for {primitive!r}"
        ) from None
