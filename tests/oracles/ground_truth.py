"""Per-instruction ground-truth closures: the trainer's original cost callbacks.

``TrainingSession`` and ``ExecutorService`` each built these closures for
every replica execution, evaluating the analytic stage model on every call
(the forward FLOPs up to four times per micro-batch and stage).
``repro.simulator.ground_truth.GroundTruth`` replaces them with tables built
once per replica plan; driven through the same executor with the same noisy
device, both must give identical execution results.
"""

from __future__ import annotations

from repro.backends import BackendOptions
from repro.cluster.device import SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.instructions.ops import BackwardPass, ForwardPass, PipelineInstruction
from repro.model.transformer import build_stage_models


def closure_backend_options(
    cost_model, noisy_gpu: SimulatedGPU, network: NetworkModel, same_node: bool = True
) -> BackendOptions:
    """Backend options whose callbacks evaluate the stage models per call."""
    stage_models = build_stage_models(
        cost_model.config,
        cost_model.num_stages,
        tensor_parallel=cost_model.tensor_parallel,
        zero_shards=cost_model.zero_shards,
    )

    def forward_time_ms(stage_model, gpu, shape):
        cost = stage_model.forward_flops(shape)
        time = gpu.kernel_time_ms(cost.flops, cost.bytes_moved, max(cost.kernels, 1))
        return time + stage_model.tensor_parallel_comm_ms(shape)

    def backward_time_ms(stage_model, gpu, shape, recompute):
        cost = stage_model.forward_flops(shape)
        scaled = cost.scaled(recompute.backward_flop_factor)
        time = gpu.kernel_time_ms(scaled.flops, scaled.bytes_moved, max(cost.kernels, 1))
        return time + stage_model.tensor_parallel_comm_ms(shape)

    def duration(instr: PipelineInstruction) -> float:
        stage_model = stage_models[instr.stage]
        if isinstance(instr, ForwardPass):
            return forward_time_ms(stage_model, noisy_gpu, instr.shape)
        if isinstance(instr, BackwardPass):
            return backward_time_ms(stage_model, noisy_gpu, instr.shape, instr.recompute)
        raise TypeError(f"not a compute instruction: {type(instr).__name__}")

    def activation(instr: PipelineInstruction) -> float:
        return stage_models[instr.stage].activation_bytes(instr.shape, instr.recompute)

    def transfer(nbytes: float, src: int, dst: int) -> float:
        return network.p2p_time_ms(nbytes, same_node=same_node)

    static = [cost_model.stage_static_bytes(j) for j in range(cost_model.num_stages)]
    return BackendOptions(
        compute_duration_fn=duration,
        transfer_time_fn=transfer,
        activation_bytes_fn=activation,
        static_bytes=static,
    )
