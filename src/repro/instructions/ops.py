"""Pipeline instruction definitions.

Instructions are small frozen dataclasses; an execution plan is simply an
ordered list of them per device.  Communication instructions carry the peer
stage and the byte count of the transferred tensor so that executors never
need to exchange tensor shapes at runtime (paper §6, last paragraph).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape


class InstructionKind(str, enum.Enum):
    """Discriminator for instruction (de)serialisation and execution."""

    FORWARD = "forward"
    BACKWARD = "backward"
    SEND_ACT_START = "send_act_start"
    RECV_ACT_START = "recv_act_start"
    SEND_GRAD_START = "send_grad_start"
    RECV_GRAD_START = "recv_grad_start"
    WAIT_SEND_ACT = "wait_send_act"
    WAIT_RECV_ACT = "wait_recv_act"
    WAIT_SEND_GRAD = "wait_send_grad"
    WAIT_RECV_GRAD = "wait_recv_grad"


class CommDirection(str, enum.Enum):
    """Whether a transfer carries activations (forward) or gradients (backward)."""

    ACTIVATION = "activation"
    GRADIENT = "gradient"


@dataclass(frozen=True)
class PipelineInstruction:
    """Base class of all pipeline instructions.

    Attributes:
        microbatch: Index of the micro-batch the instruction operates on.
        stage: Pipeline stage (device) executing the instruction.
        is_compute: Whether the instruction occupies the compute stream.
        is_comm_start: Whether it launches a transfer on the comm stream.
        is_wait: Whether it blocks compute on a previously launched transfer.
    """

    microbatch: int
    stage: int

    kind: InstructionKind = field(init=False, repr=False, default=None)  # type: ignore[assignment]
    is_compute: ClassVar[bool] = False
    is_comm_start: ClassVar[bool] = False
    is_wait: ClassVar[bool] = False


@dataclass(frozen=True)
class ForwardPass(PipelineInstruction):
    """Run the forward computation of a micro-batch on this stage.

    Attributes:
        shape: Padded micro-batch tensor shape (drives execution time).
        recompute: Activation checkpointing mode used for this micro-batch.
    """

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.FORWARD)
    is_compute: ClassVar[bool] = True
    shape: MicroBatchShape = None  # type: ignore[assignment]
    recompute: RecomputeMode = RecomputeMode.NONE

    def __post_init__(self) -> None:
        if self.shape is None:
            raise ValueError("ForwardPass requires a micro-batch shape")


@dataclass(frozen=True)
class BackwardPass(PipelineInstruction):
    """Run the backward computation of a micro-batch on this stage."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.BACKWARD)
    is_compute: ClassVar[bool] = True
    shape: MicroBatchShape = None  # type: ignore[assignment]
    recompute: RecomputeMode = RecomputeMode.NONE

    def __post_init__(self) -> None:
        if self.shape is None:
            raise ValueError("BackwardPass requires a micro-batch shape")


@dataclass(frozen=True)
class _CommStart(PipelineInstruction):
    """Base class of Start communication instructions.

    Attributes:
        peer: The pipeline stage on the other side of the transfer.
        nbytes: Size of the transferred tensor in bytes.
        direction: Whether the transfer carries activations or gradients.
        is_send: Whether this device is the sender of the transfer.
    """

    peer: int = -1
    nbytes: float = 0.0
    is_comm_start: ClassVar[bool] = True
    direction: ClassVar[CommDirection]
    is_send: ClassVar[bool]

    def __post_init__(self) -> None:
        if self.peer < 0:
            raise ValueError(f"{type(self).__name__} requires a valid peer stage")
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")


@dataclass(frozen=True)
class _CommWait(PipelineInstruction):
    """Base class of Wait communication instructions."""

    peer: int = -1
    is_wait: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.peer < 0:
            raise ValueError(f"{type(self).__name__} requires a valid peer stage")


@dataclass(frozen=True)
class SendActStart(_CommStart):
    """Launch the send of a micro-batch's output activation to ``peer``."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.SEND_ACT_START)
    direction: ClassVar[CommDirection] = CommDirection.ACTIVATION
    is_send: ClassVar[bool] = True


@dataclass(frozen=True)
class RecvActStart(_CommStart):
    """Launch the receive of a micro-batch's input activation from ``peer``."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.RECV_ACT_START)
    direction: ClassVar[CommDirection] = CommDirection.ACTIVATION
    is_send: ClassVar[bool] = False


@dataclass(frozen=True)
class SendGradStart(_CommStart):
    """Launch the send of a micro-batch's input gradient to ``peer``."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.SEND_GRAD_START)
    direction: ClassVar[CommDirection] = CommDirection.GRADIENT
    is_send: ClassVar[bool] = True


@dataclass(frozen=True)
class RecvGradStart(_CommStart):
    """Launch the receive of a micro-batch's output gradient from ``peer``."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.RECV_GRAD_START)
    direction: ClassVar[CommDirection] = CommDirection.GRADIENT
    is_send: ClassVar[bool] = False


@dataclass(frozen=True)
class WaitSendAct(_CommWait):
    """Wait for a previously launched activation send to complete."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.WAIT_SEND_ACT)


@dataclass(frozen=True)
class WaitRecvAct(_CommWait):
    """Wait for a previously launched activation receive to complete."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.WAIT_RECV_ACT)


@dataclass(frozen=True)
class WaitSendGrad(_CommWait):
    """Wait for a previously launched gradient send to complete."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.WAIT_SEND_GRAD)


@dataclass(frozen=True)
class WaitRecvGrad(_CommWait):
    """Wait for a previously launched gradient receive to complete."""

    kind: InstructionKind = field(init=False, repr=False, default=InstructionKind.WAIT_RECV_GRAD)


#: Mapping from instruction kind to class, used by deserialisation.
INSTRUCTION_CLASSES: dict[InstructionKind, type[PipelineInstruction]] = {
    InstructionKind.FORWARD: ForwardPass,
    InstructionKind.BACKWARD: BackwardPass,
    InstructionKind.SEND_ACT_START: SendActStart,
    InstructionKind.RECV_ACT_START: RecvActStart,
    InstructionKind.SEND_GRAD_START: SendGradStart,
    InstructionKind.RECV_GRAD_START: RecvGradStart,
    InstructionKind.WAIT_SEND_ACT: WaitSendAct,
    InstructionKind.WAIT_RECV_ACT: WaitRecvAct,
    InstructionKind.WAIT_SEND_GRAD: WaitSendGrad,
    InstructionKind.WAIT_RECV_GRAD: WaitRecvGrad,
}
