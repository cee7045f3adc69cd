"""Pieces shared by the workloads: host-speed scaling, set-up timing, the outcome.

The host's speed drifts by up to a fifth over seconds (other tenants share
its cores), and process CPU time drifts with it, so raw wall times of the
same work differ from run to run by more than a change worth catching.
:class:`HostSpeed` therefore times a fixed reference kernel between units of
work and scales every timed interval to a host on which the kernel takes
:data:`REFERENCE_S`.  The scaled times are what the end-to-end metrics
report; the raw ones are recorded beside them.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from spans import Tracer

#: Reference-kernel time on the nominal host (a 2-core x86 VM at 2 GHz).
REFERENCE_S = 0.007
#: Calibrations on each side of a timed interval whose median sets its scale.
_HALF_WINDOW = 2


def _reference_kernel() -> None:
    """Fixed work mixing interpreter-bound dict updates and numpy sorts."""
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    values = np.arange(20_000.0)
    for _ in range(20):
        values = np.sort(values[::-1])


class HostSpeed:
    """Reference-kernel timings over a run, to scale intervals measured near them."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []

    def calibrate(self) -> None:
        """Time the reference kernel once (never inside a timed interval)."""
        start = time.perf_counter()
        _reference_kernel()
        end = time.perf_counter()
        self._at.append(0.5 * (start + end))
        self._took.append(end - start)

    def scale(self, at) -> np.ndarray:
        """Factor turning host seconds at time(s) ``at`` into nominal-host seconds."""
        took = np.asarray(self._took)
        local = np.array(
            [
                np.median(took[max(0, i - _HALF_WINDOW): i + _HALF_WINDOW + 1])
                for i in range(len(took))
            ]
        )
        index = np.clip(np.searchsorted(self._at, at), 0, len(took) - 1)
        return REFERENCE_S / local[index]

    def scaled(self, start, end) -> np.ndarray:
        """Nominal-host seconds of the intervals ``[start, end)``."""
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        return (end - start) * self.scale(0.5 * (start + end))

    @property
    def reference_ms(self) -> float:
        """Median reference-kernel time of the run, in ms."""
        return 1e3 * statistics.median(self._took)


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict
    tracer: Tracer | None = None


class SetupTimer:
    """Times a set-up ``repeats`` times, spread evenly over the run.

    The host's speed drifts over seconds, so set-ups timed back to back
    would all land in one phase; spreading them over the run and taking the
    median does not.  Each set-up starts from a collected heap, between two
    calibrations that scale it.
    """

    def __init__(
        self, build: Callable[[], Any], seconds: float, repeats: int, host: HostSpeed
    ) -> None:
        self.build = build
        self.host = host
        self.intervals: list[tuple[float, float]] = []
        self._due = [seconds * k / repeats for k in range(1, repeats)]

    def time(self) -> Any:
        """Build once, timed; returns what was built."""
        gc.collect()
        self.host.calibrate()
        start = time.perf_counter()
        built = self.build()
        self.intervals.append((start, time.perf_counter()))
        self.host.calibrate()
        return built

    def poll(self, elapsed_s: float) -> None:
        """Run the set-ups that are due ``elapsed_s`` into the run (discarding them)."""
        while self._due and elapsed_s >= self._due[0]:
            self._due.pop(0)
            self.time()

    def finish(self) -> tuple[float, float]:
        """Run any set-ups still due; returns the median (scaled, raw) set-up seconds."""
        while self._due:
            self._due.pop(0)
            self.time()
        start, end = np.array(self.intervals).T
        return float(np.median(self.host.scaled(start, end))), float(np.median(end - start))


def timing_metrics(
    host: HostSpeed, start, end, tokens: int
) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end timing metrics of the timed units ``[start, end)``: (scaled, raw)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)

    def metrics(seconds: np.ndarray) -> dict[str, float]:
        total = float(seconds.sum())
        return {
            "iter_ms_p50": 1e3 * float(np.median(seconds)),
            "iter_ms_p90": 1e3 * float(np.percentile(seconds, 90)),
            "iters_per_s": len(seconds) / total,
            "train_tokens_per_s": tokens / total,
        }

    return metrics(host.scaled(start, end)), metrics(end - start)
