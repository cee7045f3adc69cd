"""Tests for repro.instructions.ops and serialization."""

from __future__ import annotations

import pytest

from repro.instructions.ops import (
    BackwardPass,
    CommDirection,
    ForwardPass,
    InstructionKind,
    RecvActStart,
    RecvGradStart,
    SendActStart,
    SendGradStart,
    WaitRecvAct,
    WaitRecvGrad,
    WaitSendAct,
    WaitSendGrad,
)
from oracles.instruction_dicts import (
    instruction_from_dict,
    instruction_to_dict,
    instructions_from_dicts,
    instructions_to_dicts,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape

SHAPE = MicroBatchShape(batch_size=2, enc_seq_len=128, dec_seq_len=32)


class TestComputeInstructions:
    def test_forward_pass_kind(self):
        instr = ForwardPass(microbatch=3, stage=1, shape=SHAPE)
        assert instr.kind is InstructionKind.FORWARD
        assert instr.is_compute
        assert not instr.is_comm_start
        assert not instr.is_wait

    def test_backward_pass_kind(self):
        instr = BackwardPass(microbatch=3, stage=1, shape=SHAPE, recompute=RecomputeMode.FULL)
        assert instr.kind is InstructionKind.BACKWARD
        assert instr.recompute is RecomputeMode.FULL

    def test_shape_required(self):
        with pytest.raises(ValueError):
            ForwardPass(microbatch=0, stage=0, shape=None)

    def test_frozen(self):
        instr = ForwardPass(microbatch=0, stage=0, shape=SHAPE)
        with pytest.raises(AttributeError):
            instr.stage = 2  # type: ignore[misc]


class TestCommInstructions:
    def test_send_act_direction(self):
        instr = SendActStart(microbatch=0, stage=1, peer=2, nbytes=100.0)
        assert instr.direction is CommDirection.ACTIVATION
        assert instr.is_send
        assert instr.is_comm_start

    def test_recv_grad_direction(self):
        instr = RecvGradStart(microbatch=0, stage=1, peer=2, nbytes=100.0)
        assert instr.direction is CommDirection.GRADIENT
        assert not instr.is_send

    def test_wait_is_wait(self):
        assert WaitRecvAct(microbatch=0, stage=1, peer=0).is_wait
        assert WaitSendGrad(microbatch=0, stage=1, peer=0).is_wait

    def test_peer_required(self):
        with pytest.raises(ValueError):
            SendActStart(microbatch=0, stage=1)
        with pytest.raises(ValueError):
            WaitRecvGrad(microbatch=0, stage=1)

    def test_negative_nbytes_rejected(self):
        with pytest.raises(ValueError):
            SendGradStart(microbatch=0, stage=1, peer=0, nbytes=-1.0)


class TestSerialization:
    ALL_INSTRUCTIONS = [
        ForwardPass(microbatch=1, stage=0, shape=SHAPE),
        BackwardPass(microbatch=1, stage=0, shape=SHAPE, recompute=RecomputeMode.SELECTIVE),
        SendActStart(microbatch=1, stage=0, peer=1, nbytes=1024.0),
        RecvActStart(microbatch=1, stage=1, peer=0, nbytes=1024.0),
        SendGradStart(microbatch=1, stage=1, peer=0, nbytes=2048.0),
        RecvGradStart(microbatch=1, stage=0, peer=1, nbytes=2048.0),
        WaitSendAct(microbatch=1, stage=0, peer=1),
        WaitRecvAct(microbatch=1, stage=1, peer=0),
        WaitSendGrad(microbatch=1, stage=1, peer=0),
        WaitRecvGrad(microbatch=1, stage=0, peer=1),
    ]

    @pytest.mark.parametrize("instr", ALL_INSTRUCTIONS, ids=lambda i: type(i).__name__)
    def test_roundtrip(self, instr):
        assert instruction_from_dict(instruction_to_dict(instr)) == instr

    def test_dict_is_json_compatible(self):
        import json

        payloads = instructions_to_dicts(self.ALL_INSTRUCTIONS)
        restored = instructions_from_dicts(json.loads(json.dumps(payloads)))
        assert restored == self.ALL_INSTRUCTIONS

    def test_forward_dict_contains_shape(self):
        payload = instruction_to_dict(ForwardPass(microbatch=1, stage=0, shape=SHAPE))
        assert payload["shape"]["enc_seq_len"] == 128
        assert payload["recompute"] == "none"
