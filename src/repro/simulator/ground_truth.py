"""What a plan really costs when it runs: the execution-time ground truth.

The planner predicts with the interpolated cost model; execution "measures"
with the analytic stage models (:class:`~repro.model.transformer.StageModel`)
on a noisy :class:`~repro.cluster.device.SimulatedGPU`, the way profiling
differs from real hardware.  :class:`GroundTruth` holds those models for one
pipeline and turns a replica plan into the
:class:`~repro.backends.base.BackendOptions` its execution needs.

Before the run, :meth:`GroundTruth.backend_options` evaluates the analytic
model once per distinct ``(stage, shape, recompute)`` of the plan's compute
instructions — stages with equal layer slices count as one — for the
noise-free forward and backward kernel times, the tensor-parallel
communication time and the activation bytes.  The duration
callback the executor calls is then a lookup plus the device's one noise
draw, in execution order — the same values, drawn in the same order, as
evaluating the stage model on every call.  The tables belong to the options
of one replica execution and go away with them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.backends.base import BackendOptions
from repro.cluster.device import SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.instructions.ops import BackwardPass, ForwardPass, PipelineInstruction
from repro.model.transformer import StageModel, build_stage_models

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
        device_instructions: Sequence[Sequence[PipelineInstruction]],
        gpu: SimulatedGPU,
    ) -> BackendOptions:
        """Options executing one replica plan on ``gpu``.

        The callbacks answer for the instructions of ``device_instructions``
        from tables built here; any other compute instruction is evaluated
        on the spot, with the same result.
        """
        costs = _ReplicaCosts(self.stage_models, self.cost_class, gpu, device_instructions)
        link = self.network.link_for(self.same_node)
        return BackendOptions(
            compute_duration_fn=costs.duration,
            transfer_time_fn=lambda nbytes, src, dst: link.transfer_time_ms(nbytes),
            activation_bytes_fn=costs.activation,
            static_bytes=self.static_bytes,
        )


class _ReplicaCosts:
    """Per-instruction ground-truth costs of one replica plan.

    ``_entries`` maps ``id(instr)`` of every compute instruction of the plan
    to ``(noise-free kernel ms, tensor-parallel ms, activation bytes)``; the
    plan's streams hold the instructions, so their ids stay unique while
    this object lives.
    """

    def __init__(
        self,
        stage_models: Sequence[StageModel],
        cost_class: Sequence[int],
        gpu: SimulatedGPU,
        device_instructions: Sequence[Sequence[PipelineInstruction]],
    ) -> None:
        self._stage_models = stage_models
        self._cost_class = cost_class
        self._gpu = gpu
        self._instructions = device_instructions
        self._memo: dict[tuple, tuple[float, float, float, float]] = {}
        self._entries = {
            id(instr): self._costs(instr)
            for stream in device_instructions
            for instr in stream
            if isinstance(instr, (ForwardPass, BackwardPass))
        }

    def _costs(self, instr: PipelineInstruction) -> tuple[float, float, float]:
        """(noise-free kernel ms, tensor-parallel ms, activation bytes) of a
        compute instruction, evaluated once per (stage cost class, shape,
        recompute)."""
        if not isinstance(instr, (ForwardPass, BackwardPass)):
            raise TypeError(f"not a compute instruction: {type(instr).__name__}")
        key = (self._cost_class[instr.stage], instr.shape, instr.recompute)
        costs = self._memo.get(key)
        if costs is None:
            costs = self._memo[key] = self._evaluate(*key)
        forward_ms, backward_ms, tp_ms, activation = costs
        return (backward_ms if isinstance(instr, BackwardPass) else forward_ms, tp_ms, activation)

    def _evaluate(self, stage, shape, recompute) -> tuple[float, float, float, float]:
        """(forward kernel ms, backward kernel ms, tensor-parallel ms,
        activation bytes) of one stage and micro-batch, before noise."""
        model = self._stage_models[stage]
        spec = self._gpu.spec
        cost = model.forward_flops(shape)
        return (
            model.pass_kernel_ms(spec, cost),
            model.pass_kernel_ms(spec, cost, recompute),
            model.tensor_parallel_comm_ms(shape),
            model.activation_bytes(shape, recompute),
        )

    def duration(self, instr: PipelineInstruction) -> float:
        """Noisy execution time of a compute instruction (one noise draw)."""
        entry = self._entries.get(id(instr)) or self._costs(instr)
        return self._gpu.apply_noise(entry[0]) + entry[1]

    def activation(self, instr: PipelineInstruction) -> float:
        """Activation bytes a compute instruction's micro-batch holds on its stage."""
        entry = self._entries.get(id(instr)) or self._costs(instr)
        return entry[2]
