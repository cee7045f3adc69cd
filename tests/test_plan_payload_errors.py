"""Malformed plan payloads fail with an attributed ``ValueError``.

Plans cross process and store boundaries as dictionaries of integer
columns.  A payload with a missing, invalid or corrupted field must not
surface as a bare ``KeyError`` from deep inside the decoder: the
:class:`PlanPayloadError` names the job, iteration, replica, device, stream
position and the field, so a corrupted plan can be traced to where it went
wrong.  The per-instruction dictionary codec the plans used before is kept
in ``tests/oracles/instruction_dicts.py``; its cases run against it.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core.execution_plan import ExecutionPlan, PlanMetadata
from repro.instructions.serialization import PlanPayloadError
from repro.instructions.ops import ForwardPass, SendActStart, WaitSendAct
from oracles.instruction_dicts import (
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
        payload["device_instructions"][1]["peer"][1] = 7
        with pytest.raises(
            PlanPayloadError,
            match=r"peer 7 out of range \[0, 2\) \(job 'jobA', iteration 3, replica 1, "
            r"device 1, position 1\)",
        ):
            ExecutionPlan.from_dict(payload, job="jobA")

    def test_round_trip_shares_shapes(self):
        plan = small_plan()
        restored = ExecutionPlan.from_dict(plan.to_dict())
        assert restored.to_dict() == plan.to_dict()
        assert restored.device_instructions == plan.device_instructions
        shapes = {id(restored.microbatch_shapes[0])}
        shapes |= {id(stream[0].shape) for stream in restored.device_instructions}
        assert len(shapes) == 1


def bad_payload(column=None, device=1, position=1, value=None):
    payload = small_plan().to_dict()
    if column is not None:
        payload["device_instructions"][device][column][position] = value
    return payload


#: (payload mutation, expected problem, device, position).
ATTRIBUTED = "job 'jobA', iteration 3, replica 1, device {device}, position {position}"


class TestColumnPayloads:
    def expect(self, payload, problem, device="?", position="?"):
        where = re.escape(ATTRIBUTED.format(device=device, position=position))
        with pytest.raises(PlanPayloadError, match=problem + r".*\(" + where + r"\)") as info:
            ExecutionPlan.from_dict(payload, job="jobA")
        assert isinstance(info.value, ValueError)
        assert (info.value.job, info.value.iteration, info.value.replica) == ("jobA", 3, 1)
        return info.value

    def test_unknown_format_version(self):
        payload = bad_payload()
        payload["format"] = 1
        self.expect(payload, r"unknown format version 1 \(expected 2\)")
        del payload["format"]
        self.expect(payload, r"unknown format version None")

    def test_checksum_mismatch(self):
        payload = bad_payload("nbytes", device=0, position=1, value=65.0)
        error = self.expect(payload, r"checksum mismatch")
        assert error.device is None and error.position is None
        payload = bad_payload()
        payload["shapes"][0][0] = 3
        self.expect(payload, r"checksum mismatch")

    def test_unequal_column_lengths(self):
        payload = bad_payload()
        del payload["device_instructions"][1]["microbatch"][1]
        self.expect(payload, r"columns of unequal length .*microbatch 1", device=1, position=1)

    def test_missing_column(self):
        payload = bad_payload()
        del payload["device_instructions"][0]["recompute"]
        self.expect(payload, r"missing field 'recompute'", device=0)

    def test_unknown_opcode(self):
        self.expect(bad_payload("op", 0, 0, 10), r"unknown opcode 10", device=0, position=0)
        self.expect(bad_payload("op", 1, 1, -1), r"unknown opcode -1", device=1, position=1)

    def test_microbatch_out_of_range(self):
        self.expect(
            bad_payload("microbatch", 1, 0, 1), r"micro-batch 1 out of range \[0, 1\)", 1, 0
        )
        self.expect(bad_payload("microbatch", 0, 1, -3), r"micro-batch -3 out of range", 0, 1)

    def test_shape_index_out_of_range(self):
        self.expect(bad_payload("shape", 0, 0, 1), r"shape index 1 out of range \[0, 1\)", 0, 0)
        self.expect(bad_payload("shape", 1, 0, -1), r"shape index -1 out of range", 1, 0)

    def test_peer_out_of_range(self):
        self.expect(bad_payload("peer", 0, 1, 2), r"peer 2 out of range \[0, 2\)", 0, 1)
        self.expect(bad_payload("peer", 0, 1, -1), r"peer -1 out of range", 0, 1)
        self.expect(bad_payload("peer", 1, 0, 0), r"compute op with peer 0", 1, 0)

    def test_recompute_code_out_of_range(self):
        self.expect(bad_payload("recompute", 0, 0, 3), r"recompute code 3 out of range", 0, 0)

    def test_negative_nbytes(self):
        self.expect(bad_payload("nbytes", 0, 1, -1.0), r"nbytes -1.0 is negative", 0, 1)

    @pytest.mark.parametrize("value", [1.5, 1.0, "1", None, 2**64])
    def test_non_integer_entries(self, value):
        self.expect(
            bad_payload("microbatch", 1, 1, value),
            rf"microbatch entry {re.escape(repr(value))} is not an integer",
            1,
            1,
        )

    def test_non_number_bytes(self):
        self.expect(bad_payload("nbytes", 0, 1, "64"), r"nbytes entry .64. is not a number", 0, 1)

    def test_valid_payload_round_trips_through_json(self):
        payload = json.loads(json.dumps(small_plan().to_dict()))
        assert ExecutionPlan.from_dict(payload).to_dict() == payload

