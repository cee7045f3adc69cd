"""Pipeline instruction abstraction (paper §3, "Execution plans").

Execution plans are sequences of pipeline instructions per executor,
following the DeepSpeed design the paper adopts: ``ForwardPass`` /
``BackwardPass`` compute instructions plus communication instructions that
are split into a *Start* op (launches the transfer on the communication
stream) and a *Wait* op (blocks the compute stream until the transfer has
finished).  The split is what allows DynaPipe to overlap communication with
computation while still expressing a deterministic, deadlock-free order of
transfers on every device.

Plans hold the streams as integer columns (:mod:`repro.instructions.streams`)
and ship them as a checksummed column payload
(:mod:`repro.instructions.serialization`); the instruction objects are a
view built on demand.
"""

from repro.instructions.ops import (
    BackwardPass,
    CommDirection,
    ForwardPass,
    InstructionKind,
    PipelineInstruction,
    RecvActStart,
    RecvGradStart,
    SendActStart,
    SendGradStart,
    WaitRecvAct,
    WaitRecvGrad,
    WaitSendAct,
    WaitSendGrad,
)
from repro.instructions.serialization import PlanPayloadError, instruction_signature
from repro.instructions.streams import DeviceStream, InstructionStreams, encode_streams
from repro.instructions.store import (
    InstructionStore,
    PlanFailedError,
    PlanNotReadyError,
)

__all__ = [
    "PipelineInstruction",
    "InstructionKind",
    "CommDirection",
    "ForwardPass",
    "BackwardPass",
    "SendActStart",
    "RecvActStart",
    "SendGradStart",
    "RecvGradStart",
    "WaitSendAct",
    "WaitRecvAct",
    "WaitSendGrad",
    "WaitRecvGrad",
    "instruction_signature",
    "DeviceStream",
    "InstructionStreams",
    "encode_streams",
    "PlanPayloadError",
    "InstructionStore",
    "PlanNotReadyError",
    "PlanFailedError",
]
