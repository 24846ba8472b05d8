"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed and uses numpy only, so
the program under test receives generated values and nothing else.
Every operation of one workload has the same shape; only the seeded
values change.
"""

from __future__ import annotations

import numpy as np

#: Operation inputs generated per run.  Operation ``k`` uses input
#: ``k % N_OPS``; by the time a run wraps around, the report caches have
#: long been cleared.
N_OPS = 4096

# --------------------------------------------------------------------------
# design_space: fresh sweep and explore queries
# --------------------------------------------------------------------------
#: Sweep workloads and the rate field crossed with their scenario axes.
SWEEP_RATE_FIELD = {
    "ddc": "input_rate_hz",
    "drm": "input_rate_hz",
    "ofdm": "sample_rate_hz",
}

#: Two rate bands per sweep workload, one value drawn from each.  The
#: bands sit between feasibility thresholds, so which points have a
#: feasible candidate (and hence which points the skip policy records
#: as failures) is the same for every seed: only ``ofdm``'s
#: ``fft_size=8192`` point in its upper band, above the ARM9's
#: real-time rate, is skipped.
SWEEP_RATE_BANDS = {
    "ddc": ((30e6, 60e6), (68e6, 78e6)),
    "drm": ((30e6, 55e6), (84e6, 120e6)),
    "ofdm": ((1.0e6, 4.0e6), (6.5e6, 9.0e6)),
}

#: Width of the explore window and the band its lower edge is drawn
#: from.  Every such window spans both Cyclone f_max thresholds, so the
#: adaptive refinement evaluates the same number of cells each time.
EXPLORE_WIDTH_HZ = 36e6
EXPLORE_LO_BAND = (46e6, 62e6)


def design_space_inputs(seed: int, n_ops: int = N_OPS) -> dict:
    """Per-operation sweep rates and explore windows.

    ``rates[w][k]`` is the pair of rate values operation ``k`` crosses
    with workload ``w``'s scenario axes; ``explore_lo[k]`` is the lower
    edge of operation ``k``'s explore window.
    """
    rng = np.random.default_rng([seed, 1])
    rates = {}
    for name, bands in SWEEP_RATE_BANDS.items():
        rates[name] = np.stack(
            [rng.uniform(lo, hi, n_ops) for lo, hi in bands], axis=1
        )
    explore_lo = rng.uniform(*EXPLORE_LO_BAND, n_ops)
    return {"rates": rates, "explore_lo": explore_lo}


# --------------------------------------------------------------------------
# population: repeated population studies
# --------------------------------------------------------------------------
#: Users per population operation.
POPULATION_USERS = 400_000


def population_inputs(seed: int, n_ops: int = N_OPS) -> dict:
    """One population seed per operation (distinct within a run)."""
    rng = np.random.default_rng([seed, 2])
    seeds = rng.choice(2**31, size=n_ops, replace=False)
    return {"seeds": seeds.astype(np.int64)}


# --------------------------------------------------------------------------
# signal_stream: one ADC stream through the bit-true executors
# --------------------------------------------------------------------------
#: Input samples per output period of the reference DDC (16 * 21 * 8).
OUTPUT_PERIOD = 2688
#: One operation's block: 8 output periods.
BLOCK_SAMPLES = 8 * OUTPUT_PERIOD
#: Blocks in the stream; operations cycle through them in order.
STREAM_BLOCKS = 32
#: ADC sample rate and word length of the reference configuration.
ADC_RATE_HZ = 64_512_000.0
ADC_BITS = 12


def adc_stream(seed: int, n_blocks: int = STREAM_BLOCKS) -> np.ndarray:
    """A seeded 12-bit ADC stream: three tones near the NCO plus noise.

    Returns ``(n_blocks, BLOCK_SAMPLES)`` raw int64 samples.
    """
    rng = np.random.default_rng([seed, 3])
    n = n_blocks * BLOCK_SAMPLES
    t = np.arange(n) / ADC_RATE_HZ
    freqs = rng.uniform(9.95e6, 10.05e6, 3)
    phases = rng.uniform(0.0, 2 * np.pi, 3)
    amps = (0.35, 0.2, 0.1)
    x = rng.normal(0.0, 0.05, n)
    for a, f, p in zip(amps, freqs, phases):
        x += a * np.cos(2 * np.pi * f * t + p)
    full = (1 << (ADC_BITS - 1)) - 1
    raw = np.clip(np.round(x * full), -full - 1, full).astype(np.int64)
    return raw.reshape(n_blocks, BLOCK_SAMPLES)


def generate(workload: str, seed: int) -> dict:
    """The seeded inputs of one workload."""
    if workload == "design_space":
        return design_space_inputs(seed)
    if workload == "population":
        return population_inputs(seed)
    if workload == "signal_stream":
        return {"stream": adc_stream(seed)}
    raise ValueError(f"unknown workload {workload!r}")


def gate_indices(seed: int, n: int = 2, below: int = 60) -> list[int]:
    """Seeded operation indices the oracle gate re-runs.

    Drawn below ``below`` so they complete in every run (a run holds at
    least 110 operations).
    """
    rng = np.random.default_rng([seed, 4])
    return sorted(int(k) for k in rng.choice(below, size=n, replace=False))
