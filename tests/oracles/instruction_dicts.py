"""The per-instruction dictionary codec: plans' original wire format.

Plans used to cross the store and the local backend's process boundary as
one dictionary per instruction (``{"kind", "microbatch", "stage", ...}``),
decoded back into instruction objects.  ``repro.instructions.serialization``
replaces it with integer columns; this codec stays only as the reference
the column path is diffed against (and for its own edge-case tests).
:func:`plan_to_dicts` / :func:`plan_from_dicts` are the old
``ExecutionPlan.to_dict`` / ``from_dict`` stream sections.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.instructions.ops import (
    INSTRUCTION_CLASSES,
    BackwardPass,
    ForwardPass,
    PipelineInstruction,
    _CommStart,
    _CommWait,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape


def instruction_to_dict(instruction: PipelineInstruction) -> dict[str, Any]:
    """Convert an instruction to a JSON-compatible dictionary."""
    payload: dict[str, Any] = {
        "kind": instruction.kind.value,
        "microbatch": instruction.microbatch,
        "stage": instruction.stage,
    }
    if isinstance(instruction, (ForwardPass, BackwardPass)):
        payload["shape"] = {
            "batch_size": instruction.shape.batch_size,
            "enc_seq_len": instruction.shape.enc_seq_len,
            "dec_seq_len": instruction.shape.dec_seq_len,
        }
        payload["recompute"] = instruction.recompute.value
    elif isinstance(instruction, _CommStart):
        payload["peer"] = instruction.peer
        payload["nbytes"] = instruction.nbytes
    elif isinstance(instruction, _CommWait):
        payload["peer"] = instruction.peer
    return payload


#: Wire ``kind`` -> (instruction class, payload layout).
_COMPUTE, _START, _WAIT = range(3)
_DECODERS: dict[str, tuple[type[PipelineInstruction], int]] = {
    kind.value: (
        cls,
        _COMPUTE
        if cls in (ForwardPass, BackwardPass)
        else _START if issubclass(cls, _CommStart) else _WAIT,
    )
    for kind, cls in INSTRUCTION_CLASSES.items()
}
_RECOMPUTE_MODES = {mode.value: mode for mode in RecomputeMode}


def shape_from_dict(
    payload: dict[str, Any], shapes: dict[tuple, MicroBatchShape]
) -> MicroBatchShape:
    """The shape a ``{batch_size, enc_seq_len, dec_seq_len}`` dictionary
    describes; ``shapes`` interns equal shapes into one object."""
    key = (payload["batch_size"], payload["enc_seq_len"], payload["dec_seq_len"])
    shape = shapes.get(key)
    if shape is None:
        shape = shapes[key] = MicroBatchShape(int(key[0]), int(key[1]), int(key[2]))
    return shape


def _decode(
    payload: dict[str, Any], shapes: dict[tuple, MicroBatchShape]
) -> PipelineInstruction:
    """One instruction from its dictionary; ``shapes`` interns equal shapes."""
    kind = payload["kind"]
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ValueError(f"unknown instruction kind {kind!r}")
    cls, layout = decoder
    microbatch, stage = int(payload["microbatch"]), int(payload["stage"])
    if layout == _COMPUTE:
        shape = shape_from_dict(payload["shape"], shapes)
        value = payload.get("recompute", "none")
        recompute = _RECOMPUTE_MODES.get(value) or RecomputeMode(value)
        return cls(microbatch, stage, shape, recompute)  # type: ignore[call-arg]
    if layout == _START:
        return cls(microbatch, stage, int(payload["peer"]), float(payload["nbytes"]))  # type: ignore[call-arg]
    return cls(microbatch, stage, int(payload["peer"]))  # type: ignore[call-arg]


def instruction_from_dict(payload: dict[str, Any]) -> PipelineInstruction:
    """Rebuild an instruction from :func:`instruction_to_dict` output.

    Raises:
        ValueError: If the payload is malformed (unknown kind, missing or
            invalid field); the message names the device (the payload's
            stage), the stream position and the field.
    """
    return instructions_from_dicts([payload])[0]


def instructions_to_dicts(instructions: Iterable[PipelineInstruction]) -> list[dict[str, Any]]:
    """Serialise a sequence of instructions."""
    return [instruction_to_dict(instruction) for instruction in instructions]


def instructions_from_dicts(
    payloads: Sequence[dict[str, Any]],
    device: int | None = None,
    shapes: dict[tuple, MicroBatchShape] | None = None,
) -> list[PipelineInstruction]:
    """Deserialise one device's instruction stream.

    Equal micro-batch shapes decode to one shared
    :class:`~repro.model.transformer.MicroBatchShape`; pass the same
    ``shapes`` dictionary for every stream of a plan to share them across
    devices.

    Raises:
        ValueError: If a payload is malformed; the message names the device
            (``device``, else the payload's stage), the payload's position
            in the stream and the field.
    """
    if shapes is None:
        shapes = {}
    decoded = []
    try:
        for payload in payloads:
            decoded.append(_decode(payload, shapes))
    except (KeyError, TypeError, ValueError) as err:
        payload = payloads[len(decoded)]
        if device is None:
            device = payload.get("stage", "?") if isinstance(payload, dict) else "?"
        problem = f"missing field {err.args[0]!r}" if isinstance(err, KeyError) else str(err)
        raise ValueError(
            f"malformed instruction payload on device {device} at stream position "
            f"{len(decoded)}: {problem}"
        ) from err
    return decoded


def plan_to_dicts(device_instructions) -> list[list[dict[str, Any]]]:
    """The old ``device_instructions`` payload section of a plan."""
    return [instructions_to_dicts(stream) for stream in device_instructions]


def plan_from_dicts(raw_streams) -> list[list[PipelineInstruction]]:
    """Decode :func:`plan_to_dicts` output, sharing equal shapes."""
    interned: dict[tuple, MicroBatchShape] = {}
    return [
        instructions_from_dicts(stream, device, shapes=interned)
        for device, stream in enumerate(raw_streams)
    ]
