"""Layer-level model structure and pipeline stage assignment.

A pipeline stage owns a contiguous slice of the model's Transformer layers.
For GPT all layers are decoder-only layers over a single sequence; for T5
the encoder stack is followed by the decoder stack, so early stages hold
encoder layers (processing the input sequence) and late stages hold decoder
layers (processing the target sequence, cross-attending to the encoder
output).  This split is why the paper's DP algorithm considers *both*
sequence lengths when constructing T5 micro-batches.

A :class:`StageModel` converts a micro-batch shape (batch size, encoder
sequence length, decoder sequence length) into forward/backward compute
descriptions and activation memory for that stage, using the analytic
formulas in :mod:`repro.model.flops` / :mod:`repro.model.memory` and a
:class:`~repro.cluster.device.SimulatedGPU` to obtain time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.device import DeviceSpec, SimulatedGPU
from repro.cluster.network import NetworkModel
from repro.model.config import ModelConfig
from repro.model.flops import (
    DTYPE_BYTES,
    LayerFlops,
    decoder_layer_flops,
    encoder_layer_flops,
)
from repro.model.memory import (
    RecomputeMode,
    activation_bytes_per_layer,
    static_stage_bytes,
)


class LayerKind(str, enum.Enum):
    """Which stack a Transformer layer belongs to."""

    ENCODER = "encoder"
    DECODER = "decoder"


@dataclass(frozen=True)
class LayerAssignment:
    """The slice of model layers owned by one pipeline stage.

    Attributes:
        stage: Pipeline stage index (0-based).
        encoder_layers: Number of encoder layers on this stage.
        decoder_layers: Number of decoder (or GPT decoder-only) layers.
        has_output_projection: Whether the final vocabulary projection runs
            on this stage (always the last stage).
    """

    stage: int
    encoder_layers: int
    decoder_layers: int
    has_output_projection: bool

    @property
    def total_layers(self) -> int:
        """Total Transformer layers on this stage."""
        return self.encoder_layers + self.decoder_layers


def assign_layers(config: ModelConfig, num_stages: int) -> list[LayerAssignment]:
    """Split the model's layers into ``num_stages`` contiguous slices.

    Layers are balanced as evenly as possible; remainders go to the earliest
    stages (matching Megatron-LM's behaviour).  For T5 the encoder stack
    precedes the decoder stack in the flattened layer order.
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    total = config.total_layer_count
    if num_stages > total:
        raise ValueError(
            f"cannot split {total} layers of {config.name} into {num_stages} pipeline stages"
        )
    base, remainder = divmod(total, num_stages)
    counts = [base + (1 if stage < remainder else 0) for stage in range(num_stages)]

    encoder_total = config.num_layers if config.is_encoder_decoder else 0
    assignments: list[LayerAssignment] = []
    consumed = 0
    for stage, count in enumerate(counts):
        enc = max(0, min(encoder_total - consumed, count))
        dec = count - enc
        assignments.append(
            LayerAssignment(
                stage=stage,
                encoder_layers=enc,
                decoder_layers=dec,
                has_output_projection=(stage == num_stages - 1),
            )
        )
        consumed += count
    return assignments


@dataclass(frozen=True)
class MicroBatchShape:
    """Shape of a padded micro-batch tensor.

    Attributes:
        batch_size: Number of samples in the micro-batch.
        enc_seq_len: Padded input (encoder) sequence length.  For GPT this is
            the full (input + target) sequence length.
        dec_seq_len: Padded target (decoder) sequence length; 0 for GPT.
    """

    batch_size: int
    enc_seq_len: int
    dec_seq_len: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.enc_seq_len < 0 or self.dec_seq_len < 0:
            raise ValueError("sequence lengths must be non-negative")

    @property
    def total_tokens(self) -> int:
        """Padded token count of the micro-batch (both sequences)."""
        return self.batch_size * (self.enc_seq_len + self.dec_seq_len)


class StageModel:
    """Compute/memory behaviour of one pipeline stage of a model replica."""

    def __init__(
        self,
        config: ModelConfig,
        assignment: LayerAssignment,
        tensor_parallel: int = 1,
        zero_shards: int = 1,
    ) -> None:
        if tensor_parallel < 1:
            raise ValueError(f"tensor_parallel must be >= 1, got {tensor_parallel}")
        self.config = config
        self.assignment = assignment
        self.tensor_parallel = tensor_parallel
        self.zero_shards = zero_shards

    @property
    def cost_signature(self) -> tuple:
        """What this stage's compute times and activation memory depend on.

        Stages with equal signatures (e.g. every stage of an evenly split
        GPT) cost the same for every micro-batch shape.
        """
        return (
            self.config,
            self.tensor_parallel,
            self.assignment.encoder_layers,
            self.assignment.decoder_layers,
        )

    # ------------------------------------------------------------------ FLOPs

    def forward_flops(self, shape: MicroBatchShape) -> LayerFlops:
        """Aggregate forward-pass cost of this stage for one micro-batch."""
        total = LayerFlops(0.0, 0.0, 0)
        if self.assignment.encoder_layers and shape.enc_seq_len:
            per = encoder_layer_flops(self.config, shape.batch_size, shape.enc_seq_len)
            total = total + per.scaled(self.assignment.encoder_layers)
        if self.assignment.decoder_layers:
            if self.config.is_encoder_decoder:
                if shape.dec_seq_len:
                    per = decoder_layer_flops(
                        self.config, shape.batch_size, shape.dec_seq_len, shape.enc_seq_len
                    )
                    total = total + per.scaled(self.assignment.decoder_layers)
            else:
                per = encoder_layer_flops(self.config, shape.batch_size, shape.enc_seq_len)
                total = total + per.scaled(self.assignment.decoder_layers)
        return LayerFlops(
            total.flops / self.tensor_parallel,
            total.bytes_moved / self.tensor_parallel,
            total.kernels,
        )

    # ------------------------------------------------------------------ time

    def forward_time_ms(self, gpu: SimulatedGPU, shape: MicroBatchShape) -> float:
        """Forward-pass time of this stage for one micro-batch."""
        kernel_ms = self.pass_kernel_ms(gpu.spec, self.forward_flops(shape))
        return gpu.apply_noise(kernel_ms) + self.tensor_parallel_comm_ms(shape)

    def backward_time_ms(
        self,
        gpu: SimulatedGPU,
        shape: MicroBatchShape,
        recompute: RecomputeMode = RecomputeMode.NONE,
    ) -> float:
        """Backward-pass time; recomputation re-runs (part of) the forward."""
        kernel_ms = self.pass_kernel_ms(gpu.spec, self.forward_flops(shape), recompute)
        return gpu.apply_noise(kernel_ms) + self.tensor_parallel_comm_ms(shape)

    @staticmethod
    def pass_kernel_ms(
        spec: DeviceSpec, forward_cost: LayerFlops, recompute: RecomputeMode | None = None
    ) -> float:
        """Noise-free kernel time of one pass given the stage's forward cost.

        ``recompute=None`` times the forward pass; a mode times the backward
        pass under that mode (the forward cost scaled by its FLOP factor,
        with the forward's kernel count).
        """
        kernels = max(forward_cost.kernels, 1)
        if recompute is not None:
            forward_cost = forward_cost.scaled(recompute.backward_flop_factor)
        return spec.kernel_time_ms(forward_cost.flops, forward_cost.bytes_moved, kernels)

    def tensor_parallel_comm_ms(self, shape: MicroBatchShape) -> float:
        """Per-micro-batch tensor-parallel all-reduce cost on this stage.

        Each Transformer layer performs two all-reduces of the layer
        activation per pass under Megatron-style tensor parallelism.
        """
        if self.tensor_parallel == 1:
            return 0.0
        network = NetworkModel()
        h = self.config.hidden_size
        total = 0.0
        if self.assignment.encoder_layers and shape.enc_seq_len:
            nbytes = DTYPE_BYTES * shape.batch_size * shape.enc_seq_len * h
            total += 2 * self.assignment.encoder_layers * network.allreduce_time_ms(
                nbytes, self.tensor_parallel, same_node=True
            )
        dec_len = shape.dec_seq_len if self.config.is_encoder_decoder else shape.enc_seq_len
        if self.assignment.decoder_layers and dec_len:
            nbytes = DTYPE_BYTES * shape.batch_size * dec_len * h
            total += 2 * self.assignment.decoder_layers * network.allreduce_time_ms(
                nbytes, self.tensor_parallel, same_node=True
            )
        return total

    # ------------------------------------------------------------------ memory

    def activation_bytes(
        self, shape: MicroBatchShape, recompute: RecomputeMode = RecomputeMode.NONE
    ) -> float:
        """Activation memory this stage must hold between the forward and
        backward pass of one micro-batch."""
        total = 0.0
        if self.assignment.encoder_layers and shape.enc_seq_len:
            total += self.assignment.encoder_layers * activation_bytes_per_layer(
                self.config,
                shape.batch_size,
                shape.enc_seq_len,
                recompute=recompute,
                tensor_parallel=self.tensor_parallel,
            )
        if self.assignment.decoder_layers:
            if self.config.is_encoder_decoder:
                if shape.dec_seq_len:
                    total += self.assignment.decoder_layers * activation_bytes_per_layer(
                        self.config,
                        shape.batch_size,
                        shape.dec_seq_len,
                        kv_len=shape.enc_seq_len,
                        recompute=recompute,
                        tensor_parallel=self.tensor_parallel,
                    )
            else:
                total += self.assignment.decoder_layers * activation_bytes_per_layer(
                    self.config,
                    shape.batch_size,
                    shape.enc_seq_len,
                    recompute=recompute,
                    tensor_parallel=self.tensor_parallel,
                )
        return total

    def static_bytes(self) -> float:
        """Static memory (parameters, gradients, optimizer state, workspace)."""
        return static_stage_bytes(
            self.config,
            max(self.assignment.total_layers, 1),
            tensor_parallel=self.tensor_parallel,
            zero_shards=self.zero_shards,
        )

    # ------------------------------------------------------------------ comm shapes

    def output_activation_bytes(self, shape: MicroBatchShape) -> float:
        """Bytes of the activation tensor this stage sends to the next stage.

        The boundary activation is ``batch × seq × hidden``; for T5 stages
        that still hold encoder layers the encoder output must also flow
        forward (the decoder cross-attends to it), so both tensors are sent.
        """
        h = self.config.hidden_size
        nbytes = DTYPE_BYTES * shape.batch_size * h
        if self.config.is_encoder_decoder:
            # Encoder output is forwarded until the decoder stages consume it.
            total = nbytes * shape.enc_seq_len
            if self.assignment.decoder_layers:
                total += nbytes * shape.dec_seq_len
            return total / self.tensor_parallel
        return nbytes * shape.enc_seq_len / self.tensor_parallel


def build_stage_models(
    config: ModelConfig,
    num_stages: int,
    tensor_parallel: int = 1,
    zero_shards: int = 1,
) -> list[StageModel]:
    """Build the per-stage models for a pipeline of ``num_stages`` stages."""
    assignments = assign_layers(config, num_stages)
    return [
        StageModel(config, a, tensor_parallel=tensor_parallel, zero_shards=zero_shards)
        for a in assignments
    ]
