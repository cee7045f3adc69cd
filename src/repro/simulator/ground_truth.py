"""What a plan really costs when it runs: the execution-time ground truth.

The planner predicts with the interpolated cost model; execution "measures"
with the analytic stage models (:class:`~repro.model.transformer.StageModel`)
on a noisy :class:`~repro.cluster.device.SimulatedGPU`, the way profiling
differs from real hardware.  :class:`GroundTruth` holds those models for one
pipeline and turns a replica plan into the
:class:`~repro.backends.base.BackendOptions` its execution needs.

Before the run, :meth:`GroundTruth.backend_options` reads the plan's
instruction columns and evaluates the analytic model once per distinct
``(cost class, shape, recompute)`` of its compute ops — stages with equal
layer slices share a cost class — for the noise-free forward and backward
kernel times, the tensor-parallel communication time and the activation
bytes, one table row each.  The executor prices every compute op by its row
(:class:`~repro.simulator.executor.RowCost`): a lookup plus the device's one
noise draw, in execution order — the same values, drawn in the same order,
as evaluating the stage model on every call.  The tables belong to the
options of one replica execution and go away with them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.backends.base import BackendOptions
from repro.cluster.device import SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.instructions.ops import BackwardPass, ForwardPass, PipelineInstruction
from repro.instructions.streams import (
    BACKWARD,
    RECOMPUTE_MODES,
    InstructionStreams,
    encode_streams,
)
from repro.model.transformer import StageModel, build_stage_models
from repro.simulator.executor import RowCost

if TYPE_CHECKING:
    from repro.costmodel.cost_model import CostModel


class GroundTruth:
    """Analytic stage models, static memory and links of one pipeline.

    Args:
        cost_model: The pipeline's :class:`~repro.costmodel.cost_model.CostModel`
            (model configuration, stage count, parallelism, device spec).
        network: Communication model for inter-stage transfers.
        same_node: Link class used for inter-stage transfers.
    """

    def __init__(
        self,
        cost_model: CostModel,
        network: NetworkModel | None = None,
        same_node: bool = True,
    ) -> None:
        self.stage_models: list[StageModel] = build_stage_models(
            cost_model.config,
            cost_model.num_stages,
            tensor_parallel=cost_model.tensor_parallel,
            zero_shards=cost_model.zero_shards,
        )
        # Stages that cost the same share one table row per shape.
        signatures: dict[tuple, int] = {}
        self.cost_class = [
            signatures.setdefault(model.cost_signature, stage)
            for stage, model in enumerate(self.stage_models)
        ]
        self.static_bytes = [
            cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages)
        ]
        self.network = network or NetworkModel()
        self.same_node = same_node

    def backend_options(
        self,
        device_instructions: InstructionStreams | Sequence[Sequence[PipelineInstruction]],
        gpu: SimulatedGPU,
    ) -> BackendOptions:
        """Options executing one replica plan on ``gpu``.

        The compute costs are :class:`~repro.simulator.executor.RowCost`
        tables built here from the plan's columns; any other compute
        instruction is evaluated on the spot, with the same result.
        """
        costs = _ReplicaCosts(
            self.stage_models, self.cost_class, gpu, encode_streams(device_instructions)
        )
        link = self.network.link_for(self.same_node)
        return BackendOptions(
            compute_duration_fn=RowCost(costs.rows, costs.row_of, costs.duration_at),
            transfer_time_fn=lambda nbytes, src, dst: link.transfer_time_ms(nbytes),
            activation_bytes_fn=RowCost(costs.rows, costs.row_of, costs.activation_at),
            static_bytes=self.static_bytes,
        )


class _ReplicaCosts:
    """Ground-truth cost tables of one replica plan.

    Row ``r`` is one distinct ``(cost class, shape, recompute)``; a compute
    op's argument ``2 * r`` (forward) or ``2 * r + 1`` (backward) indexes
    ``_kernel`` (noise-free kernel ms), ``_tp`` (tensor-parallel ms) and
    ``_activation`` (activation bytes).
    """

    def __init__(
        self,
        stage_models: Sequence[StageModel],
        cost_class: Sequence[int],
        gpu: SimulatedGPU,
        streams: InstructionStreams,
    ) -> None:
        self._stage_models, self._cost_class, self._gpu = stage_models, cost_class, gpu
        self._index: dict[tuple, int] = {}
        self._kernel: list[float] = []
        self._tp: list[float] = []
        self._activation: list[float] = []
        self._streams = streams
        self._rows = self._rows_of(streams)

    def _row(self, cost_class: int, shape, recompute) -> int:
        """The row of ``(cost_class, shape, recompute)``, evaluated on first use."""
        key = (cost_class, shape, recompute)
        row = self._index.get(key)
        if row is None:
            row = self._index[key] = len(self._index)
            model, spec = self._stage_models[cost_class], self._gpu.spec
            flops = model.forward_flops(shape)
            tp_ms = model.tensor_parallel_comm_ms(shape)
            activation = model.activation_bytes(shape, recompute)
            self._kernel += (
                model.pass_kernel_ms(spec, flops),
                model.pass_kernel_ms(spec, flops, recompute),
            )
            self._tp += (tp_ms, tp_ms)
            self._activation += (activation, activation)
        return row

    def _rows_of(self, streams: InstructionStreams) -> list[list[int]]:
        rows = []
        for stream in streams:
            cost_class = self._cost_class[stream.device]
            seen: dict[tuple[int, int], int] = {}
            args = []
            for code, shape, recompute in zip(stream.op, stream.shape, stream.recompute):
                if code > BACKWARD:
                    args.append(-1)
                    continue
                row = seen.get((shape, recompute))
                if row is None:
                    mode = RECOMPUTE_MODES[recompute]
                    row = seen[(shape, recompute)] = self._row(cost_class, streams.shapes[shape], mode)
                args.append(2 * row + code)
            rows.append(args)
        return rows

    def rows(self, streams: InstructionStreams) -> list[list[int]]:
        """Per device, the argument of each compute op of ``streams``."""
        return self._rows if streams is self._streams else self._rows_of(streams)

    def row_of(self, instr: PipelineInstruction) -> int:
        """The argument of one compute instruction."""
        if not isinstance(instr, (ForwardPass, BackwardPass)):
            raise TypeError(f"not a compute instruction: {type(instr).__name__}")
        row = self._row(self._cost_class[instr.stage], instr.shape, instr.recompute)
        return 2 * row + isinstance(instr, BackwardPass)

    def duration_at(self, arg: int) -> float:
        """Noisy execution time of a compute op (one noise draw)."""
        return self._gpu.apply_noise(self._kernel[arg]) + self._tp[arg]

    def activation_at(self, arg: int) -> float:
        """Activation bytes a compute op's micro-batch holds on its stage."""
        return self._activation[arg]
