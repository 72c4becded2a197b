"""Event-level interaction latencies.

The paper's related-work pointers (Komatsubara's psychological limits of
system response time; Endo et al.'s latency-based OS evaluation) frame
interactivity as the latency of discrete interaction events — keystrokes,
clicks, frames.  The slowdown/jitter model summarizes that; this module
unrolls it back into events so the reproduction can also speak HCI:
given a contention trajectory, what response times did the user's
individual interactions actually see?

Each event's latency is

    latency = base_latency · slowdown(t) · (1 + jitter(t) · |N(0, 1)|)

with events arriving at the task's interaction grain (Poisson, mean
``interaction_period``) and ``base_latency`` the uncontended response
time (a fraction of the period — interactions complete comfortably within
their own cadence on a healthy machine).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.resources import Resource
from repro.errors import ValidationError
from repro.machine.machine import TaskInteractivityModel
from repro.util.rng import SeedLike, ensure_rng

__all__ = ["LatencyTrace", "simulate_interaction_latencies"]

#: Uncontended response time as a fraction of the interaction period.
_BASE_LATENCY_FRACTION = 0.3

#: Komatsubara's often-cited psychological limits, seconds.
HCI_COMFORT_LIMIT = 0.3
HCI_TOLERANCE_LIMIT = 1.0


@dataclass(frozen=True)
class LatencyTrace:
    """Per-event interaction latencies over one contention trajectory."""

    times: np.ndarray
    latencies: np.ndarray

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    def percentile(self, p: float) -> float:
        if self.n_events == 0:
            raise ValidationError("empty latency trace")
        return float(np.percentile(self.latencies, 100.0 * p))

    def fraction_over(self, limit: float) -> float:
        """Fraction of interactions slower than ``limit`` seconds."""
        if self.n_events == 0:
            raise ValidationError("empty latency trace")
        return float(np.mean(self.latencies > limit))

    def mean(self) -> float:
        if self.n_events == 0:
            raise ValidationError("empty latency trace")
        return float(self.latencies.mean())


def simulate_interaction_latencies(
    model: TaskInteractivityModel,
    levels: dict[Resource, np.ndarray],
    sample_rate: float,
    seed: SeedLike = None,
) -> LatencyTrace:
    """Unroll a contention trajectory into per-event latencies.

    ``levels`` maps resources to equal-length sample arrays at
    ``sample_rate`` (as produced by the batch study engine); events are
    generated across the covered duration at the task's grain.
    """
    if sample_rate <= 0:
        raise ValidationError(f"sample_rate must be positive, got {sample_rate}")
    lengths = {arr.shape[0] for arr in levels.values()}
    if len(lengths) > 1:
        raise ValidationError("level arrays must share a length")
    n = lengths.pop() if lengths else 0
    if n == 0:
        raise ValidationError("at least one non-empty level array is required")
    duration = n / sample_rate

    rng = ensure_rng(seed)
    task = model.task
    period = task.interaction_period
    expected = duration / period
    n_events = int(rng.poisson(expected))
    if n_events == 0:
        return LatencyTrace(np.empty(0), np.empty(0))
    times = np.sort(rng.uniform(0.0, duration, size=n_events))

    slowdown, jitter = model.interactivity_batch(levels, n)
    idx = np.minimum((times * sample_rate).astype(int), n - 1)
    base = _BASE_LATENCY_FRACTION * period
    noise = np.abs(rng.standard_normal(n_events))
    latencies = base * slowdown[idx] * (1.0 + jitter[idx] * noise)
    return LatencyTrace(times=times, latencies=latencies)
