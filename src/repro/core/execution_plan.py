"""Execution plans (paper §3).

An execution plan is everything one executor (pipeline of one data-parallel
replica) needs for a training iteration: per-device instruction streams,
micro-batch shapes, the recomputation mode and the predictions the planner
made (iteration time, peak memory) so that they can later be compared with
the measured execution (Fig. 17/18).  The streams are held as integer
columns (:class:`~repro.instructions.streams.InstructionStreams`) and
serialise as such for the instruction store
(:mod:`repro.instructions.serialization`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.instructions.ops import PipelineInstruction
from repro.instructions.serialization import (
    PlanPayloadError,
    streams_from_payload,
    streams_to_payload,
)
from repro.instructions.streams import InstructionStreams, encode_streams
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape


@dataclass
class PlanMetadata:
    """Planner predictions and bookkeeping attached to an execution plan.

    Attributes:
        iteration: Training iteration index the plan belongs to.
        replica: Data-parallel replica index the plan targets.
        schedule_name: Schedule family used (``"1f1b"``, ``"memory-aware-adaptive"``...).
        recompute: Recomputation mode selected for the iteration.
        predicted_makespan_ms: Planner's simulated iteration time.
        predicted_peak_memory_bytes: Planner's per-stage peak memory estimate.
        num_microbatches: Number of micro-batches in the plan.
        planning_time_s: Wall-clock time spent planning this replica's plan.
    """

    iteration: int
    replica: int
    schedule_name: str
    recompute: RecomputeMode
    predicted_makespan_ms: float
    predicted_peak_memory_bytes: list[float] = field(default_factory=list)
    num_microbatches: int = 0
    planning_time_s: float = 0.0


class ExecutionPlan:
    """Per-replica execution plan: instruction streams plus metadata.

    Args:
        device_instructions: One stream per pipeline stage, as
            :class:`~repro.instructions.streams.InstructionStreams` (kept
            as is) or as instruction objects (encoded once, on first use:
            a plan that is never executed or serialised costs O(1)).
        microbatch_shapes: Padded shape of each micro-batch, indexed by the
            micro-batch ids used inside the instructions.
        metadata: Planner predictions and bookkeeping.
    """

    def __init__(
        self,
        device_instructions: InstructionStreams | Sequence[Sequence[PipelineInstruction]],
        microbatch_shapes: list[MicroBatchShape],
        metadata: PlanMetadata,
    ) -> None:
        self._streams = device_instructions
        self.microbatch_shapes = microbatch_shapes
        self.metadata = metadata

    @property
    def streams(self) -> InstructionStreams:
        """The instruction streams as columns."""
        if not isinstance(self._streams, InstructionStreams):
            self._streams = encode_streams(self._streams)
        return self._streams

    @property
    def device_instructions(self) -> list[list[PipelineInstruction]]:
        """The streams as instruction objects, built on first access and cached."""
        return self.streams.device_instructions()

    @property
    def num_stages(self) -> int:
        """Number of pipeline stages the plan spans."""
        return len(self.streams)

    def total_instructions(self) -> int:
        """Total instruction count across devices."""
        return sum(len(stream) for stream in self.streams)

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> dict[str, Any]:
        """Serialise the plan to a JSON-compatible dictionary."""
        return {
            "metadata": {
                "iteration": self.metadata.iteration,
                "replica": self.metadata.replica,
                "schedule_name": self.metadata.schedule_name,
                "recompute": self.metadata.recompute.value,
                "predicted_makespan_ms": self.metadata.predicted_makespan_ms,
                "predicted_peak_memory_bytes": list(self.metadata.predicted_peak_memory_bytes),
                "num_microbatches": self.metadata.num_microbatches,
                "planning_time_s": self.metadata.planning_time_s,
            },
            "microbatch_shapes": [
                {
                    "batch_size": shape.batch_size,
                    "enc_seq_len": shape.enc_seq_len,
                    "dec_seq_len": shape.dec_seq_len,
                }
                for shape in self.microbatch_shapes
            ],
            **streams_to_payload(self.streams),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any], job: str | None = None) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        Equal micro-batch shapes decode to one shared
        :class:`~repro.model.transformer.MicroBatchShape` per plan.

        Args:
            payload: The serialised plan.
            job: Job the payload was fetched for, named in errors.

        Raises:
            PlanPayloadError: If the payload is malformed or corrupt; the
                message names the missing or invalid field, the job,
                iteration and replica and, inside an instruction stream, the
                device and stream position.
        """
        iteration = replica = None
        try:
            meta = payload["metadata"]
            iteration, replica = int(meta["iteration"]), int(meta["replica"])
            metadata = PlanMetadata(
                iteration=iteration,
                replica=replica,
                schedule_name=str(meta["schedule_name"]),
                recompute=RecomputeMode(meta["recompute"]),
                predicted_makespan_ms=float(meta["predicted_makespan_ms"]),
                predicted_peak_memory_bytes=[
                    float(x) for x in meta["predicted_peak_memory_bytes"]
                ],
                num_microbatches=int(meta["num_microbatches"]),
                planning_time_s=float(meta["planning_time_s"]),
            )
            shapes = [
                MicroBatchShape(int(raw["batch_size"]), int(raw["enc_seq_len"]), int(raw["dec_seq_len"]))
                for raw in payload["microbatch_shapes"]
            ]
        except KeyError as err:
            raise PlanPayloadError(
                f"missing field {err.args[0]!r}", job, iteration, replica
            ) from err
        except (TypeError, ValueError) as err:
            raise PlanPayloadError(str(err), job, iteration, replica) from err
        streams = streams_from_payload(payload, len(shapes), job, iteration, replica)
        interned = {shape: shape for shape in streams.shapes}
        return cls(streams, [interned.get(shape, shape) for shape in shapes], metadata)
