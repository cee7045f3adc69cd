"""The column payload of instruction streams, and instruction signatures.

The real DynaPipe pushes execution plans to a Redis instance where the
executors fetch them, so plans must be serialisable.  A plan's streams
travel as their integer columns (see :mod:`repro.instructions.streams`):
JSON int lists per device plus one float list of transfer bytes, the shape
table as ``[batch_size, enc_seq_len, dec_seq_len]`` triples, a format
version and a CRC32 checksum over the table's and the columns' little-endian
int64/float64 bytes.  Decoding checks the version, the column lengths and types, every
value's range and the checksum, and reports a bad payload as a
:class:`PlanPayloadError` naming job, iteration, replica, device and stream
position.
"""

from __future__ import annotations

import struct
import zlib
from itertools import chain
from typing import Any

import numpy as np

from repro.instructions.ops import PipelineInstruction
from repro.instructions.streams import (
    FIRST_START,
    KINDS,
    NONE,
    RECOMPUTE_MODES,
    DeviceStream,
    InstructionStreams,
)
from repro.model.transformer import MicroBatchShape

#: Version of the plan payload layout (the per-instruction dictionaries that
#: came before it were version 1).
PLAN_FORMAT = 2
#: Columns of a device stream; the integer ones first, in checksum order.
COLUMNS = ("op", "microbatch", "peer", "shape", "recompute", "nbytes")


class PlanPayloadError(ValueError):
    """A plan payload is malformed or corrupt.

    Attributes:
        job / iteration / replica: The plan the payload claims to be
            (``None`` where unknown).
        device / position: Where in the instruction streams the fault is
            (``None`` when it is not in one stream position).
    """

    def __init__(self, problem, job=None, iteration=None, replica=None, device=None, position=None):
        def show(value):
            return "?" if value is None else value

        super().__init__(
            f"malformed plan payload: {problem} (job {show(job)!r}, iteration {show(iteration)}, "
            f"replica {show(replica)}, device {show(device)}, position {show(position)})"
        )
        self.job, self.iteration, self.replica = job, iteration, replica
        self.device, self.position = device, position


def instruction_signature(instruction: PipelineInstruction) -> tuple[str, int, int, int]:
    """Canonical identity of an instruction: ``(kind, microbatch, stage, peer)``.

    Signatures carry no shapes or byte counts, so execution backends use them
    to report per-device completion order and differential harnesses compare
    the reports across backends.  Compute instructions use ``peer = -1``,
    exactly the column value, so a column stream's signatures are
    ``(KIND_VALUES[op], microbatch, device, peer)``.
    """
    return (
        instruction.kind.value,
        instruction.microbatch,
        instruction.stage,
        int(getattr(instruction, "peer", -1)),
    )


def _packed(devices: list[list[list]]) -> tuple[bytes, bytes]:
    """Every device's integer columns, column by column, as little-endian
    int64, then every device's bytes column as float64 (``struct.error`` on
    a value that is not one)."""
    count = sum(len(columns[0]) for columns in devices)
    ints = chain.from_iterable(columns[c] for c in range(5) for columns in devices)
    floats = chain.from_iterable(columns[5] for columns in devices)
    return struct.pack(f"<{5 * count}q", *ints), struct.pack(f"<{count}d", *floats)


def _checksum(table: list[list[int]], ints: bytes, floats: bytes) -> int:
    """CRC32 over the shape table's and the columns' little-endian bytes."""
    flat = struct.pack(f"<{3 * len(table)}q", *chain.from_iterable(table))
    return zlib.crc32(floats, zlib.crc32(ints, zlib.crc32(flat)))


def streams_to_payload(streams: InstructionStreams) -> dict[str, Any]:
    """The JSON-compatible payload fields of ``streams``."""
    table = [[s.batch_size, s.enc_seq_len, s.dec_seq_len] for s in streams.shapes]
    devices = [[getattr(stream, name) for name in COLUMNS] for stream in streams]
    return {
        "format": PLAN_FORMAT,
        "shapes": table,
        "device_instructions": [
            {name: list(column) for name, column in zip(COLUMNS, columns)} for columns in devices
        ],
        "checksum": _checksum(table, *_packed(devices)),
    }


def streams_from_payload(
    payload: dict[str, Any],
    num_microbatches: int,
    job=None,
    iteration=None,
    replica=None,
) -> InstructionStreams:
    """Decode and verify the streams of a :func:`streams_to_payload` payload.

    Micro-batch ids must lie in ``[0, num_microbatches)``.

    Raises:
        PlanPayloadError: On an unknown format version, a missing field,
            columns of unequal length, a non-integer entry, an unknown
            opcode, a micro-batch, peer, shape index or recompute code out
            of range, negative bytes or a checksum mismatch.
    """

    def fail(problem, device=None, position=None):
        return PlanPayloadError(problem, job, iteration, replica, device, position)

    if payload.get("format") != PLAN_FORMAT:
        raise fail(f"unknown format version {payload.get('format')!r} (expected {PLAN_FORMAT})")
    try:
        raw_table, raw_devices, checksum = (
            payload["shapes"], payload["device_instructions"], payload["checksum"]
        )
        if any(not isinstance(entry, list) or len(entry) != 3 for entry in raw_table):
            raise ValueError("a shape is not 3 integers")
        struct.pack(f"<{3 * len(raw_table)}q", *chain.from_iterable(raw_table))  # int64s only
        shapes = [MicroBatchShape(*entry) for entry in raw_table]
        limits = (num_microbatches, len(raw_devices), len(shapes))
    except KeyError as err:
        raise fail(f"missing field {err.args[0]!r}") from None
    except (TypeError, ValueError, struct.error) as err:
        raise fail(f"bad shape table or streams: {err}") from None
    devices = []
    for device, raw in enumerate(raw_devices):
        try:
            columns = [list(raw[name]) for name in COLUMNS]
        except KeyError as err:
            raise fail(f"missing field {err.args[0]!r}", device) from None
        except TypeError:
            raise fail("device stream is not a mapping of column lists", device) from None
        lengths = [len(column) for column in columns]
        if min(lengths) != max(lengths):
            shown = ", ".join(f"{name} {length}" for name, length in zip(COLUMNS, lengths))
            raise fail(f"columns of unequal length ({shown})", device, min(lengths))
        devices.append(columns)
    try:
        ints, floats = _packed(devices)
        bad = _out_of_range(ints, floats, *limits)
    except struct.error:
        bad = True
    if bad:
        device, position, problem = next(
            (device, position, problem)
            for device, columns in enumerate(devices)
            for position, values in enumerate(zip(*columns))
            if (problem := _problem(values, *limits))
        )
        raise fail(problem, device, position)
    computed = _checksum(raw_table, ints, floats)
    if computed != checksum:
        raise fail(f"checksum mismatch (payload {checksum!r}, columns {computed})")
    return InstructionStreams(
        [DeviceStream(device, *columns, shapes) for device, columns in enumerate(devices)], shapes
    )


def _out_of_range(ints: bytes, floats: bytes, num_microbatches, num_devices, num_shapes) -> bool:
    """Whether any stream position holds a value out of its field's range."""
    op, microbatch, peer, shape, recompute = np.frombuffer(ints, dtype="<i8").reshape(5, -1)
    compute = op < FIRST_START
    bad = (op < 0) | (op >= len(KINDS)) | (microbatch < 0) | (microbatch >= num_microbatches)
    bad |= ~(np.frombuffer(floats, dtype="<f8") >= 0.0)
    bad |= np.where(
        compute,
        (peer != NONE) | (shape < 0) | (shape >= num_shapes)
        | (recompute < 0) | (recompute >= len(RECOMPUTE_MODES)),
        (peer < 0) | (peer >= num_devices) | (shape != NONE) | (recompute != NONE),
    )
    return bool(bad.any())


def _problem(values, num_microbatches, num_devices, num_shapes) -> str | None:
    """What is wrong with one stream position's values (``None``: nothing)."""
    for name, value in zip(COLUMNS, values):
        if name == "nbytes":
            if type(value) not in (int, float):
                return f"nbytes entry {value!r} is not a number"
        elif type(value) is not int or not -(2**63) <= value < 2**63:
            return f"{name} entry {value!r} is not an integer"
    code, microbatch, peer, shape, recompute, nbytes = values
    if not 0 <= code < len(KINDS):
        return f"unknown opcode {code}"
    if not 0 <= microbatch < num_microbatches:
        return f"micro-batch {microbatch} out of range [0, {num_microbatches})"
    if not nbytes >= 0.0:
        return f"nbytes {nbytes!r} is negative"
    if code < FIRST_START:
        if peer != NONE:
            return f"compute op with peer {peer}"
        if not 0 <= shape < num_shapes:
            return f"shape index {shape} out of range [0, {num_shapes})"
        if not 0 <= recompute < len(RECOMPUTE_MODES):
            return f"recompute code {recompute} out of range [0, {len(RECOMPUTE_MODES)})"
    elif not 0 <= peer < num_devices:
        return f"peer {peer} out of range [0, {num_devices})"
    elif shape != NONE or recompute != NONE:
        return f"communication op with shape index {shape} or recompute code {recompute}"
    return None
