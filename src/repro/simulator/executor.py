"""Instruction-stream executor with NCCL-like communication semantics.

Each (virtual) device executes its instruction stream in order:

* ``ForwardPass`` / ``BackwardPass`` occupy the compute stream for the
  duration given by the caller's duration function;
* ``*Start`` communication instructions post a transfer onto the single
  communication channel shared with the peer device and return immediately
  (asynchronous launch on the communication stream);
* ``Wait*`` instructions block the compute stream until the corresponding
  transfer has completed.

The channel between each pair of adjacent devices processes transfers
strictly in the order they were posted by each side — the NCCL constraint
the paper describes in §2.3/§6.  If the two sides post mismatching heads
(device 1's next posted op is "send activation of micro-batch 1" while
device 2's next posted op is "send gradient of micro-batch 7"), neither
transfer can ever complete and the execution deadlocks.  The executor
detects this and raises :class:`CommunicationDeadlockError`, which is how
the reproduction demonstrates that naive communication ordering breaks
dynamic pipelines while DynaPipe's planned ordering does not.

:meth:`InstructionExecutor.run` takes the streams as integer columns
(:mod:`repro.instructions.streams`; object streams are encoded once at the
call) and lowers them into a flat program of steps: each ``*Start``/``Wait*``
carries the integer id of its transfer, and each ``*Start`` the integer id
of its channel.  The execution is then a round-robin sweep over the devices
— each runs until it blocks on a ``Wait*`` whose transfer has not completed
— followed by FIFO head matching over the channels in the order they were
first posted to.  That order is also the order in which the compute
duration is drawn, so a noisy duration draws its noise in a fixed,
reproducible order.  Compute costs come either from per-instruction
callbacks or from a :class:`RowCost`, which prices each compute op by row
straight from the columns.  Trace events are kept as tuples and built into
:class:`~repro.simulator.trace.TraceEvent` objects only when
:attr:`ExecutionResult.trace` is read.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from repro.instructions.ops import CommDirection, PipelineInstruction
from repro.instructions.streams import (
    BACKWARD,
    FIRST_WAIT,
    FORWARD,
    KIND_VALUES,
    InstructionStreams,
    encode_streams,
    transfer_key,
)
from repro.simulator.memory_tracker import MemoryTracker
from repro.simulator.trace import ExecutionTrace, TraceEvent

#: Duration provider for compute instructions, in milliseconds.
ComputeDurationFn = Callable[[PipelineInstruction], float]
#: Transfer time provider: (nbytes, src_stage, dst_stage) -> milliseconds.
TransferTimeFn = Callable[[float, int, int], float]

#: A transfer is identified by (sender, receiver, microbatch, direction).
TransferKey = tuple[int, int, int, CommDirection]


class CommunicationDeadlockError(RuntimeError):
    """Raised when the posted communication orders can never be matched.

    Attributes:
        blocked_devices: Devices whose streams could not run to completion.
        blocked_detail: One dictionary per blocked device describing the
            instruction it is stuck on (a ``Wait*`` op): ``device``, ``kind``
            (:class:`~repro.instructions.ops.InstructionKind` value),
            ``microbatch``, ``stage`` and ``peer``.  Execution backends other
            than the simulator raise the same type with the same fields, so
            differential harnesses can assert on *which* op hung.
    """

    def __init__(
        self,
        message: str,
        blocked_devices: list[int] | None = None,
        blocked_detail: list[dict] | None = None,
    ) -> None:
        super().__init__(message)
        self.blocked_devices = blocked_devices or []
        self.blocked_detail = blocked_detail or []


def blocked_detail(device: int, code: int, microbatch: int, peer: int) -> dict:
    """The :attr:`CommunicationDeadlockError.blocked_detail` entry for a
    device stuck on the op with opcode ``code`` (shared by the simulator and
    real backends)."""
    return {
        "device": device,
        "kind": KIND_VALUES[code],
        "microbatch": microbatch,
        "stage": device,
        "peer": peer,
    }


def describe_blocked_detail(blocked_detail: list[dict]) -> str:
    """Human-readable summary of blocked instructions for error messages."""
    return "; ".join(
        f"device {d['device']} stuck on {d['kind']} "
        f"(microbatch={d['microbatch']}, stage={d['stage']}, peer={d['peer']})"
        for d in blocked_detail
    )


#: A trace event before it is built: (device, name prefix, microbatch,
#: start, end, category); the event's name is the prefix plus the micro-batch.
TraceRow = tuple[int, str, int, float, float, str]


class ExecutionResult:
    """Output of :meth:`InstructionExecutor.run`.

    Attributes:
        makespan_ms: Completion time of the last instruction.
        device_finish_ms: Per-device completion time.
        device_compute_ms: Per-device total compute-stream busy time.
        peak_memory_bytes: Per-device peak (static + activation) memory.
        transfer_log: Completed transfers as (key, start, end) tuples.
        trace: Execution trace of compute and communication events; when the
            result was built from ``trace_rows`` it is materialised on first
            access.
    """

    def __init__(
        self,
        makespan_ms: float,
        device_finish_ms: list[float],
        device_compute_ms: list[float],
        peak_memory_bytes: list[float],
        transfer_log: list[tuple[TransferKey, float, float]],
        trace: ExecutionTrace | None = None,
        *,
        trace_rows: list[TraceRow] | None = None,
    ) -> None:
        self.makespan_ms = makespan_ms
        self.device_finish_ms = device_finish_ms
        self.device_compute_ms = device_compute_ms
        self.peak_memory_bytes = peak_memory_bytes
        self.transfer_log = transfer_log
        self._trace = trace
        self._trace_rows = trace_rows

    @property
    def trace(self) -> ExecutionTrace:
        if self._trace is None:
            self._trace = ExecutionTrace(
                [
                    TraceEvent(device, f"{prefix}{microbatch}", start, end, category, microbatch)
                    for device, prefix, microbatch, start, end, category in self._trace_rows or ()
                ]
            )
            self._trace_rows = None
        return self._trace

    @property
    def bubble_fraction(self) -> float:
        """Average idle fraction of the compute streams."""
        if self.makespan_ms <= 0:
            return 0.0
        idle = [
            max(self.makespan_ms - busy, 0.0) for busy in self.device_compute_ms
        ]
        return sum(idle) / (len(idle) * self.makespan_ms)


class RowCost:
    """A compute cost priced by row straight from the instruction columns.

    ``rows(streams)[device][position]`` is the row of each compute op of
    ``streams``, ``row_of(instr)`` that of one instruction object (in the
    streams or not) and ``at(row)`` the cost, so a :class:`RowCost` also
    serves as a per-instruction callback.  The executors price a compute op
    as ``at(row)``, called exactly where they would call a per-instruction
    callback.
    """

    def __init__(
        self,
        rows: Callable[[InstructionStreams], list[list[int]]],
        row_of: Callable[[PipelineInstruction], int],
        at: Callable[[int], float],
    ) -> None:
        self.rows, self.row_of, self.at = rows, row_of, at

    def __call__(self, instr: PipelineInstruction) -> float:
        return self.at(self.row_of(instr))


def compute_pricing(
    cost: Callable[[PipelineInstruction], float], streams: InstructionStreams
) -> tuple[Callable, list[list]]:
    """``(call, args)`` pricing the compute op at ``(device, position)`` of
    ``streams`` as ``call(args[device][position])``."""
    if isinstance(cost, RowCost):
        return cost.at, cost.rows(streams)
    return cost, streams.device_instructions()


# Opcodes of a lowered program step.
_FORWARD, _BACKWARD, _START, _WAIT = range(4)

_SEND_PREFIX = {CommDirection.ACTIVATION: "send-act-", CommDirection.GRADIENT: "send-grad-"}


class _Program:
    """Column streams lowered to integer-coded steps.

    A step is a tuple whose first item is the opcode:

    * ``(_FORWARD, cost, microbatch, activation_bytes)`` and
      ``(_BACKWARD, cost, microbatch, 0.0)``, where ``cost`` is the
      duration pricing's argument for the op;
    * ``(_START, transfer, channel, side, is_send, nbytes)``, where ``side``
      picks the channel's FIFO this device posts to;
    * ``(_WAIT, transfer)``.

    ``transfers[t]`` is transfer ``t``'s :data:`TransferKey` and
    ``channels[c]`` channel ``c``'s ``(low, high)`` device pair.
    """

    def __init__(self, streams: InstructionStreams, duration_args: list[list], activation) -> None:
        transfer_ids: dict[TransferKey, int] = {}
        channel_ids: dict[tuple[int, int], int] = {}
        self.transfers: list[TransferKey] = []
        self.channels: list[tuple[int, int]] = []
        self.steps: list[list[tuple]] = []
        activation_fn, activation_args = activation or (None, None)
        for device, stream in enumerate(streams):
            costs = duration_args[device]
            sizes = activation_args[device] if activation_fn is not None else None
            steps = []
            for position, (code, microbatch, peer, nbytes) in enumerate(
                zip(stream.op, stream.microbatch, stream.peer, stream.nbytes)
            ):
                if code == FORWARD:
                    size = activation_fn(sizes[position]) if sizes is not None else 0.0
                    steps.append((_FORWARD, costs[position], microbatch, size))
                    continue
                if code == BACKWARD:
                    steps.append((_BACKWARD, costs[position], microbatch, 0.0))
                    continue
                key = transfer_key(code, device, peer, microbatch)
                transfer = transfer_ids.get(key)
                if transfer is None:
                    transfer = transfer_ids[key] = len(self.transfers)
                    self.transfers.append(key)
                if code >= FIRST_WAIT:
                    steps.append((_WAIT, transfer))
                    continue
                pair = (device, peer) if device < peer else (peer, device)
                channel = channel_ids.get(pair)
                if channel is None:
                    channel = channel_ids[pair] = len(self.channels)
                    self.channels.append(pair)
                steps.append(
                    (_START, transfer, channel, 0 if device == pair[0] else 1, code % 2 == 0, nbytes)
                )
            self.steps.append(steps)


class InstructionExecutor:
    """Executes per-device instruction streams against simulated devices.

    Args:
        compute_duration_fn: Maps Forward/Backward instructions to ms (or a
            :class:`RowCost`).  It is called once per compute instruction,
            in execution order.
        transfer_time_fn: Maps (nbytes, src, dst) to transfer ms; called once
            per completed transfer, in completion order.
        activation_bytes_fn: Maps a ForwardPass to the activation bytes it
            allocates on its stage (its BackwardPass frees them); optional.
            It must not depend on call order: it is called once per
            ForwardPass while the streams are lowered, before the run.  A
            :class:`RowCost` prices it from the columns instead.
        static_bytes: Per-device static memory for the trackers.
        device_capacity: Optional per-device capacity; exceeding it is
            recorded in the memory trackers (not fatal, matching how the
            planner treats predicted OOM as a constraint rather than the
            executor crashing).
    """

    def __init__(
        self,
        compute_duration_fn: ComputeDurationFn,
        transfer_time_fn: TransferTimeFn | None = None,
        activation_bytes_fn: Callable[[PipelineInstruction], float] | None = None,
        static_bytes: Sequence[float] | None = None,
        device_capacity: float | None = None,
    ) -> None:
        self.compute_duration_fn = compute_duration_fn
        self.transfer_time_fn = transfer_time_fn or (lambda nbytes, src, dst: 0.0)
        self.activation_bytes_fn = activation_bytes_fn
        self.static_bytes = static_bytes
        self.device_capacity = device_capacity

    def run(
        self, device_instructions: InstructionStreams | Sequence[Sequence[PipelineInstruction]]
    ) -> ExecutionResult:
        """Execute the instruction streams of all devices.

        Raises:
            ValueError: If an instruction object sits in the stream of a
                device other than its stage.
            CommunicationDeadlockError: If the communication orders posted by
                adjacent devices can never be matched, or every device is
                blocked on a transfer that will never be posted.
            ~repro.simulator.memory_tracker.MemoryAccountingError: If a stream
                frees activations it never allocated or allocates a
                micro-batch's activations twice.
        """
        streams = encode_streams(device_instructions)
        duration_fn, duration_args = compute_pricing(self.compute_duration_fn, streams)
        activation = (
            compute_pricing(self.activation_bytes_fn, streams)
            if self.activation_bytes_fn is not None
            else None
        )
        program = _Program(streams, duration_args, activation)
        programs = program.steps
        transfers = program.transfers
        num_devices = len(programs)
        transfer_time_fn = self.transfer_time_fn
        track_memory = self.activation_bytes_fn is not None

        pointers = [0] * num_devices
        clocks = [0.0] * num_devices
        compute_busy = [0.0] * num_devices
        trackers = [
            MemoryTracker(
                capacity=self.device_capacity,
                static_bytes=(self.static_bytes[d] if self.static_bytes else 0.0),
            )
            for d in range(num_devices)
        ]

        # Per channel, one FIFO of posted (transfer, is_send, post time,
        # nbytes) per side; a device talking to itself has a single FIFO.
        fifos = []
        for low, high in program.channels:
            fifo: deque = deque()
            fifos.append((fifo, fifo) if low == high else (fifo, deque()))
        channel_free = [0.0] * len(fifos)
        posted_order: list[int] = []  # channels in the order first posted to
        posted = [False] * len(fifos)
        completed_at: list[float | None] = [None] * len(transfers)
        transfer_log: list[tuple[TransferKey, float, float]] = []
        rows: list[TraceRow] = []

        total_instructions = sum(len(steps) for steps in programs)
        executed = 0

        while executed < total_instructions:
            progressed = False
            for device in range(num_devices):
                steps = programs[device]
                end = len(steps)
                pc = first = pointers[device]
                clock = clocks[device]
                while pc < end:
                    step = steps[pc]
                    code = step[0]
                    if code == _WAIT:
                        finish = completed_at[step[1]]
                        if finish is None:
                            break  # device blocked on an incomplete transfer
                        if finish > clock:
                            clock = finish
                    elif code == _START:
                        channel = step[2]
                        if not posted[channel]:
                            posted[channel] = True
                            posted_order.append(channel)
                        fifos[channel][step[3]].append((step[1], step[4], clock, step[5]))
                    else:
                        duration = duration_fn(step[1])
                        if duration < 0.0:
                            duration = 0.0
                        start = clock
                        clock = start + duration
                        compute_busy[device] += duration
                        microbatch = step[2]
                        if code == _FORWARD:
                            if track_memory:
                                trackers[device].allocate(("act", microbatch), step[3])
                            rows.append((device, "F", microbatch, start, clock, "compute"))
                        else:
                            if track_memory:
                                trackers[device].free(("act", microbatch))
                            rows.append((device, "B", microbatch, start, clock, "compute"))
                    pc += 1
                if pc != first:
                    pointers[device] = pc
                    clocks[device] = clock
                    executed += pc - first
                    progressed = True

            # Complete transfers whose heads match on both sides.
            for channel in posted_order:
                side_a, side_b = fifos[channel]
                while side_a and side_b:
                    head_a, head_b = side_a[0], side_b[0]
                    if head_a[0] != head_b[0] or head_a[1] == head_b[1]:
                        break
                    start = head_a[2]
                    if head_b[2] > start:
                        start = head_b[2]
                    if channel_free[channel] > start:
                        start = channel_free[channel]
                    nbytes = head_a[3]
                    if head_b[3] > nbytes:
                        nbytes = head_b[3]
                    key = transfers[head_a[0]]
                    sender = key[0]
                    transfer_ms = transfer_time_fn(nbytes, sender, key[1])
                    if transfer_ms < 0.0:
                        transfer_ms = 0.0
                    finish = start + transfer_ms
                    completed_at[head_a[0]] = finish
                    transfer_log.append((key, start, finish))
                    channel_free[channel] = finish
                    rows.append((sender, _SEND_PREFIX[key[3]], key[2], start, finish, "comm"))
                    side_a.popleft()
                    side_b.popleft()
                    progressed = True

            if not progressed:
                self._raise_deadlock(streams, pointers, program, fifos, posted_order)

        return ExecutionResult(
            makespan_ms=max(clocks) if clocks else 0.0,
            device_finish_ms=clocks,
            device_compute_ms=compute_busy,
            peak_memory_bytes=[tracker.peak_bytes for tracker in trackers],
            transfer_log=transfer_log,
            trace_rows=rows,
        )

    @staticmethod
    def _raise_deadlock(streams, pointers, program, fifos, posted_order) -> None:
        """Raise the :class:`CommunicationDeadlockError` of a stalled run."""
        # Channels whose heads are both posted but can never match.
        mismatched = []
        for channel in posted_order:
            side_a, side_b = fifos[channel]
            if side_a and side_b:
                head_a, head_b = side_a[0], side_b[0]
                if head_a[0] != head_b[0] or head_a[1] == head_b[1]:
                    mismatched.append(program.channels[channel])
        blocked = [d for d in range(len(streams)) if pointers[d] < len(streams[d])]
        # A blocked device always sits on a Wait (everything else executes
        # eagerly), so the head of its remaining stream is the op that hung.
        details = []
        for d in blocked:
            stream, position = streams[d], pointers[d]
            details.append(
                blocked_detail(
                    d, stream.op[position], stream.microbatch[position], stream.peer[position]
                )
            )
        blocked_summary = describe_blocked_detail(details)
        if mismatched:
            detail = ", ".join(f"devices {a}<->{b}" for a, b in mismatched)
            raise CommunicationDeadlockError(
                f"communication order mismatch on channel(s): {detail}; "
                "the posted send/receive orders of the two sides can never "
                f"match: {blocked_summary}",
                blocked_devices=blocked,
                blocked_detail=details,
            )
        raise CommunicationDeadlockError(
            "execution stalled: devices are waiting on transfers whose peer "
            "operation is never posted (missing or mis-ordered Start ops): "
            f"{blocked_summary}",
            blocked_devices=blocked,
            blocked_detail=details,
        )
