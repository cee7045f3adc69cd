"""The simulator as an execution backend (the conformance oracle).

:class:`SimBackend` is a thin adapter putting
:class:`~repro.simulator.executor.InstructionExecutor` behind the
:class:`~repro.backends.base.ExecutionBackend` interface.  It adds no
semantics of its own: the executor already implements the full channel
model, so the adapter only derives the conformance report fields (event
order, per-channel matching order) from the executor's output.

:meth:`SimBackend.run` is the simulated execution hot path: the executor
lowers the plan's instruction columns into an integer-coded program once
and sweeps it, and the trace is built only if someone reads it.  The ``BackendOptions`` a
training run passes in come from
:meth:`repro.simulator.ground_truth.GroundTruth.backend_options`, whose
callbacks look up costs computed once per replica plan, so a backend is
built per replica plan and used for that plan.

Because the simulator executes each device's stream strictly in order, the
reported ``device_event_order`` of a completed run is the stream itself —
which is exactly the point: any backend that *really* runs the streams
concurrently must still complete each device's instructions in stream
order, and the differential suite checks that it reports the same.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.backends.base import (
    BackendExecutionReport,
    BackendOptions,
    ExecutionBackend,
    channel_order_from_log,
)
from repro.instructions.ops import PipelineInstruction
from repro.instructions.streams import KIND_VALUES, InstructionStreams, encode_streams
from repro.simulator.executor import ExecutionResult, InstructionExecutor


class SimBackend(ExecutionBackend):
    """Discrete-event reference backend (virtual time, analytic deadlocks)."""

    name = "sim"

    def __init__(self, options: BackendOptions | None = None) -> None:
        self.options = options or BackendOptions()
        self._executor = InstructionExecutor(
            compute_duration_fn=self.options.compute_duration_fn,
            transfer_time_fn=self.options.transfer_time_fn,
            activation_bytes_fn=self.options.activation_bytes_fn,
            static_bytes=self.options.static_bytes,
            device_capacity=self.options.device_capacity,
        )

    def run(
        self, device_instructions: InstructionStreams | Sequence[Sequence[PipelineInstruction]]
    ) -> ExecutionResult:
        return self._executor.run(device_instructions)

    def run_report(
        self, device_instructions: InstructionStreams | Sequence[Sequence[PipelineInstruction]]
    ) -> BackendExecutionReport:
        started = time.perf_counter()
        streams = encode_streams(device_instructions)
        result = self.run(streams)
        wall = time.perf_counter() - started
        return BackendExecutionReport(
            backend=self.name,
            result=result,
            device_event_order=[
                [
                    (KIND_VALUES[code], microbatch, stream.device, peer)
                    for code, microbatch, peer in zip(stream.op, stream.microbatch, stream.peer)
                ]
                for stream in streams
            ],
            channel_transfer_order=channel_order_from_log(result.transfer_log),
            wall_time_s=wall,
        )
