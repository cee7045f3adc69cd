"""Malformed plan payloads fail with an attributed ``ValueError``.

Plans cross process and store boundaries as dictionaries.  A payload with a
missing or invalid field must not surface as a bare ``KeyError`` from deep
inside the decoder: the error names the device, the stream position and
the field, so a corrupted plan can be traced to where it went wrong.
"""

from __future__ import annotations

import pytest

from repro.core.execution_plan import ExecutionPlan, PlanMetadata
from repro.instructions.ops import ForwardPass, SendActStart, WaitSendAct
from repro.instructions.serialization import (
    instruction_from_dict,
    instruction_to_dict,
    instructions_from_dicts,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape

SHAPE = MicroBatchShape(batch_size=2, enc_seq_len=128, dec_seq_len=32)


def small_plan() -> ExecutionPlan:
    streams = [
        [ForwardPass(0, 0, shape=SHAPE), SendActStart(0, 0, peer=1, nbytes=64.0)],
        [ForwardPass(0, 1, shape=SHAPE), WaitSendAct(0, 1, peer=0)],
    ]
    metadata = PlanMetadata(
        iteration=3,
        replica=1,
        schedule_name="1f1b",
        recompute=RecomputeMode.NONE,
        predicted_makespan_ms=1.0,
        predicted_peak_memory_bytes=[1.0, 2.0],
        num_microbatches=1,
    )
    return ExecutionPlan(streams, [SHAPE], metadata)


class TestInstructionPayloads:
    def test_compute_without_shape(self):
        with pytest.raises(ValueError, match=r"device 0 at stream position 0: missing field 'shape'"):
            instruction_from_dict({"kind": "forward", "microbatch": 0, "stage": 0})

    def test_start_without_nbytes(self):
        with pytest.raises(ValueError, match=r"device 2 .*position 0: missing field 'nbytes'"):
            instruction_from_dict(
                {"kind": "send_act_start", "microbatch": 1, "stage": 2, "peer": 3}
            )

    def test_wait_without_peer(self):
        with pytest.raises(ValueError, match=r"missing field 'peer'"):
            instruction_from_dict({"kind": "wait_recv_grad", "microbatch": 1, "stage": 2})

    def test_shape_without_a_length(self):
        payload = instruction_to_dict(ForwardPass(0, 1, shape=SHAPE))
        del payload["shape"]["dec_seq_len"]
        with pytest.raises(ValueError, match=r"device 1 .*missing field 'dec_seq_len'"):
            instruction_from_dict(payload)

    def test_stream_without_stage_names_its_device(self):
        with pytest.raises(ValueError, match=r"device 5 at stream position 0: missing field 'stage'"):
            instructions_from_dicts([{"kind": "forward", "microbatch": 0}], device=5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=r"unknown instruction kind 'collective_allreduce'"):
            instruction_from_dict({"kind": "collective_allreduce", "microbatch": 0, "stage": 0})

    def test_invalid_recompute(self):
        payload = instruction_to_dict(ForwardPass(0, 0, shape=SHAPE))
        payload["recompute"] = "sometimes"
        with pytest.raises(ValueError, match=r"position 0: 'sometimes' is not a valid RecomputeMode"):
            instruction_from_dict(payload)

    def test_constructor_checks_still_apply(self):
        payload = instruction_to_dict(SendActStart(0, 0, peer=1, nbytes=64.0))
        payload["nbytes"] = -1.0
        with pytest.raises(ValueError, match="nbytes must be non-negative"):
            instruction_from_dict(payload)

    def test_stream_position_counts_from_first_bad_payload(self):
        good = instruction_to_dict(ForwardPass(0, 0, shape=SHAPE))
        bad = dict(good)
        del bad["microbatch"]
        with pytest.raises(ValueError, match=r"device 4 at stream position 2: missing field 'microbatch'"):
            instructions_from_dicts([good, good, bad], device=4)

    def test_not_a_dictionary(self):
        with pytest.raises(ValueError, match="device 0 at stream position 1"):
            instructions_from_dicts([instruction_to_dict(ForwardPass(0, 0, shape=SHAPE)), 7], device=0)

    def test_equal_shapes_are_shared(self):
        payloads = [
            instruction_to_dict(ForwardPass(mb, 0, shape=MicroBatchShape(2, 128, 32)))
            for mb in range(3)
        ]
        decoded = instructions_from_dicts(payloads)
        assert decoded[0].shape is decoded[1].shape is decoded[2].shape
        assert decoded[0].shape == SHAPE


class TestPlanPayloads:
    def test_empty_metadata(self):
        with pytest.raises(ValueError, match=r"missing field 'iteration'"):
            ExecutionPlan.from_dict({"metadata": {}})

    def test_missing_sections(self):
        payload = small_plan().to_dict()
        del payload["device_instructions"]
        with pytest.raises(ValueError, match=r"missing field 'device_instructions'"):
            ExecutionPlan.from_dict(payload)
        with pytest.raises(ValueError, match=r"missing field 'metadata'"):
            ExecutionPlan.from_dict({})

    def test_invalid_metadata_value(self):
        payload = small_plan().to_dict()
        payload["metadata"]["recompute"] = "sometimes"
        with pytest.raises(ValueError, match="malformed plan payload"):
            ExecutionPlan.from_dict(payload)

    def test_bad_microbatch_shape(self):
        payload = small_plan().to_dict()
        del payload["microbatch_shapes"][0]["batch_size"]
        with pytest.raises(ValueError, match=r"malformed plan payload: missing field 'batch_size'"):
            ExecutionPlan.from_dict(payload)

    def test_bad_instruction_names_device_and_position(self):
        payload = small_plan().to_dict()
        del payload["device_instructions"][1][1]["peer"]
        with pytest.raises(ValueError, match=r"device 1 at stream position 1: missing field 'peer'"):
            ExecutionPlan.from_dict(payload)

    def test_round_trip_shares_shapes(self):
        plan = small_plan()
        restored = ExecutionPlan.from_dict(plan.to_dict())
        assert restored.to_dict() == plan.to_dict()
        assert restored.device_instructions == plan.device_instructions
        shapes = {id(restored.microbatch_shapes[0])}
        shapes |= {id(stream[0].shape) for stream in restored.device_instructions}
        assert len(shapes) == 1
