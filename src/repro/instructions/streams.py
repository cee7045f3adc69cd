"""Instruction streams as integer columns: a plan's one stream representation.

Lowering writes, the plan payload carries, and the executors, the ground
truth and the local backend read every device's stream as six parallel
columns — opcode, micro-batch, peer, shape index, recompute code and
transfer bytes — over one shape table shared by the plan's devices.  The
instruction's stage is the device whose stream holds it, so it is not
stored.  Fields an instruction does not have read :data:`NONE` (the peer of
a compute op, the shape and recompute code of a communication op) or
``0.0`` (the bytes of everything but a ``*Start``).

Opcodes number :class:`~repro.instructions.ops.InstructionKind` in
declaration order: ``0``/``1`` compute, ``2``–``5`` ``*Start``, ``6``–``9``
``Wait*``; within communication ops, even opcodes are the sending side and
``2``, ``3``, ``6``, ``7`` carry activations.

A :class:`DeviceStream` is also a read-only sequence of the frozen
instruction objects it encodes, built on first access and cached — the view
``check_comm_order``, tests, examples and traces read.  Object streams
become columns through :func:`encode_streams`, the single encoder every
consumer calls at its boundary.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.instructions.ops import (
    INSTRUCTION_CLASSES,
    CommDirection,
    InstructionKind,
    PipelineInstruction,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape

#: Instruction kind of each opcode.
KINDS: tuple[InstructionKind, ...] = tuple(InstructionKind)
#: Wire value of each opcode's kind (the first item of an instruction signature).
KIND_VALUES: tuple[str, ...] = tuple(kind.value for kind in KINDS)
OPCODES: dict[type, int] = {INSTRUCTION_CLASSES[kind]: code for code, kind in enumerate(KINDS)}
FORWARD, BACKWARD, FIRST_START, FIRST_WAIT = 0, 1, 2, 6
SEND_ACT, RECV_ACT, SEND_GRAD, RECV_GRAD = 2, 3, 4, 5
WAIT_RECV_ACT, WAIT_RECV_GRAD = 7, 9
#: Transfer direction of each communication opcode (``None`` for compute).
DIRECTIONS: tuple[CommDirection | None, ...] = (None, None) + tuple(
    CommDirection.ACTIVATION if (code - 2) % 4 < 2 else CommDirection.GRADIENT
    for code in range(2, 10)
)
RECOMPUTE_MODES: tuple[RecomputeMode, ...] = tuple(RecomputeMode)
RECOMPUTE_CODES: dict[RecomputeMode, int] = {mode: code for code, mode in enumerate(RECOMPUTE_MODES)}
#: Column value of a field the instruction does not have.
NONE = -1


def transfer_key(code: int, device: int, peer: int, microbatch: int):
    """``(sender, receiver, microbatch, direction)`` of a communication op
    that ``device`` holds."""
    if code % 2 == 0:
        return (device, peer, microbatch, DIRECTIONS[code])
    return (peer, device, microbatch, DIRECTIONS[code])


class DeviceStream(Sequence):
    """One device's instruction stream as parallel columns.

    Attributes:
        device: The device (and stage) executing the stream.
        op / microbatch / peer / shape / recompute: Integer columns.
        nbytes: Transfer bytes of each ``*Start`` (``0.0`` elsewhere).
        shapes: The plan's shape table, indexed by the ``shape`` column.
    """

    __slots__ = ("device", "op", "microbatch", "peer", "shape", "recompute", "nbytes", "shapes", "_view")

    def __init__(self, device, op, microbatch, peer, shape, recompute, nbytes, shapes, view=None):
        self.device = device
        self.op: list[int] = op
        self.microbatch: list[int] = microbatch
        self.peer: list[int] = peer
        self.shape: list[int] = shape
        self.recompute: list[int] = recompute
        self.nbytes: list[float] = nbytes
        self.shapes: list[MicroBatchShape] = shapes
        self._view: list[PipelineInstruction] | None = view

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, index):
        return self.instructions()[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.instructions() == list(other)

    def instructions(self) -> list[PipelineInstruction]:
        """The instruction objects of the stream (built once, then cached;
        do not mutate)."""
        if self._view is None:
            device, shapes, view = self.device, self.shapes, []
            for code, microbatch, peer, shape, recompute, nbytes in zip(
                self.op, self.microbatch, self.peer, self.shape, self.recompute, self.nbytes
            ):
                cls = INSTRUCTION_CLASSES[KINDS[code]]
                if code < FIRST_START:
                    view.append(cls(microbatch, device, shapes[shape], RECOMPUTE_MODES[recompute]))
                elif code < FIRST_WAIT:
                    view.append(cls(microbatch, device, peer, nbytes))
                else:
                    view.append(cls(microbatch, device, peer))
            self._view = view
        return self._view


class InstructionStreams(list):
    """Every device's :class:`DeviceStream` of one plan (in device order),
    plus the plan's shape table as :attr:`shapes`."""

    def __init__(self, devices: list[DeviceStream], shapes: list[MicroBatchShape]) -> None:
        super().__init__(devices)
        self.shapes = shapes

    def device_instructions(self) -> list[list[PipelineInstruction]]:
        """The instruction objects of every device (see :meth:`DeviceStream.instructions`)."""
        return [stream.instructions() for stream in self]


def encode_streams(device_instructions) -> InstructionStreams:
    """The column form of per-device streams; column streams pass through.

    Raises:
        TypeError: For an object that is not a pipeline instruction.
        ValueError: For an instruction whose stage is not the device holding
            it (naming the device, kind, position and, for communication,
            the channel).
    """
    if isinstance(device_instructions, InstructionStreams):
        return device_instructions
    table: dict[MicroBatchShape, int] = {}
    shapes: list[MicroBatchShape] = []
    devices = []
    for device, stream in enumerate(device_instructions):
        view, rows = list(stream), []
        for position, instr in enumerate(view):
            code = OPCODES.get(type(instr))
            if code is None:
                raise TypeError(f"unknown instruction type {type(instr).__name__}")
            if instr.stage != device:
                raise ValueError(_stage_problem(device, position, instr, code))
            if code < FIRST_START:
                shape = table.setdefault(instr.shape, len(table))
                rows.append((code, instr.microbatch, NONE, shape, RECOMPUTE_CODES[instr.recompute], 0.0))
            else:
                nbytes = instr.nbytes if code < FIRST_WAIT else 0.0
                rows.append((code, instr.microbatch, instr.peer, NONE, NONE, nbytes))
        devices.append(DeviceStream(device, *columns_of(rows), shapes, view=view))
    shapes.extend(table)
    return InstructionStreams(devices, shapes)


def posted_orders(streams: InstructionStreams) -> dict[tuple[int, int], dict[int, list[tuple]]]:
    """Per channel (sorted device pair) and side, the ``(transfer key,
    is_send)`` of every Start op in posting order."""
    orders: dict[tuple[int, int], dict[int, list[tuple]]] = {}
    for device, stream in enumerate(streams):
        for code, microbatch, peer in zip(stream.op, stream.microbatch, stream.peer):
            if FIRST_START <= code < FIRST_WAIT:
                pair = (device, peer) if device < peer else (peer, device)
                sides = orders.setdefault(pair, {pair[0]: [], pair[1]: []})
                sides[device].append((transfer_key(code, device, peer, microbatch), code % 2 == 0))
    return orders


def columns_of(rows: list[tuple]) -> list[list]:
    """The six columns of ``(op, microbatch, peer, shape, recompute, nbytes)`` rows."""
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(6)]


def _stage_problem(device: int, position: int, instr: PipelineInstruction, code: int) -> str:
    kind = KINDS[code].value
    if code >= FIRST_START:
        pair = tuple(sorted((instr.stage, instr.peer)))
        if device not in pair:
            return (
                f"device {device} posts {kind} at position {position} on channel {pair}, "
                "which it is not an end of"
            )
    return f"device {device} holds {kind} at position {position} of stage {instr.stage}"
