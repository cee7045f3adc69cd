"""The column path from lowering to execution against the old object/dict path.

Plans now hold their instruction streams as integer columns from lowering
(``repro.comm.planner.build_instruction_streams``) through the payload
(``ExecutionPlan.to_dict``/``from_dict``) to execution (``InstructionExecutor``
priced by ``GroundTruth``'s row tables).  The path they replaced is kept in
``tests/oracles/``: the object lowering (``oracles.lowering``), the
per-instruction dictionary codec (``oracles.instruction_dicts``), the scalar
executor loop and the per-instruction ground-truth closures.

For 100 seeded iterations of each training workload (the perfbench
``gpt-pp4-search`` and ``t5-pp2-recompute`` shapes on the tiny test models)
every replica plan must give, on both paths: equal instruction sequences
(``==`` on the frozen objects), bit-identical predicted and measured
iteration times and memory peaks, equal conformance fingerprints, and —
for streams corrupted into a deadlock — identical failure messages.  The
local backend runs the column streams of real plans to the simulator's
fingerprint, and the hot path never builds the instruction objects.
"""

from __future__ import annotations

import json

import pytest

import strategies_instructions
from oracles.ground_truth import closure_backend_options
from oracles.instruction_dicts import plan_from_dicts, plan_to_dicts
from oracles.instruction_executor import ScalarInstructionExecutor
from oracles.lowering import build_instruction_streams as object_lowering
from repro.backends import BackendExecutionReport, LocalBackend, SimBackend
from repro.backends.base import channel_order_from_log
from repro.cluster.device import SimulatedGPU
from repro.core import planner as planner_module
from repro.core.execution_plan import ExecutionPlan
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.data.sampler import MiniBatchSampler
from repro.instructions.serialization import instruction_signature
from repro.instructions.streams import DeviceStream
from repro.simulator.executor import CommunicationDeadlockError, InstructionExecutor
from repro.training import trainer as trainer_module
from repro.training.trainer import TrainerConfig, TrainingSession
from repro.utils.rng import new_rng

ITERATIONS = 100
NOISE_STD = 0.05
SEED = 11

#: name -> (architecture, data-parallel replicas, order search, device memory
#: bytes).  The T5 memory makes every plan fail NONE recomputation and most
#: fail SELECTIVE and fit with FULL, as in the perfbench workload.
WORKLOADS = {
    "gpt-pp4-search": ("gpt", 2, True, None),
    "t5-pp2-recompute": ("t5", 4, False, 1.92e9),
}


def minibatches(samples, seed: int):
    """``ITERATIONS`` mini-batches, epoch after epoch, without under-full tails."""
    sampler = MiniBatchSampler(samples, 4096, seed=seed, drop_last=True)
    batches, epoch = [], 0
    while len(batches) < ITERATIONS:
        batches.extend(batch.samples for batch in sampler.epoch(epoch))
        epoch += 1
    return batches[:ITERATIONS]


def oracle_report(streams, result) -> BackendExecutionReport:
    """The conformance report of an object-path run."""
    return BackendExecutionReport(
        backend="oracle",
        result=result,
        device_event_order=[[instruction_signature(i) for i in stream] for stream in streams],
        channel_transfer_order=channel_order_from_log(result.transfer_log),
    )


def deadlock_outcome(run, streams):
    try:
        run(streams)
    except CommunicationDeadlockError as err:
        return (str(err), err.blocked_devices, err.blocked_detail)
    raise AssertionError("corrupted streams ran to completion")


@pytest.fixture(scope="module")
def cost_models(tiny_gpt_config, tiny_t5_config, small_device, gpt_cost_model):
    t5_pp2 = CostModel(
        tiny_t5_config,
        num_stages=2,
        device_spec=small_device,
        max_profile_batch_size=32,
        max_profile_seq_len=2048,
    )
    return {"gpt-pp4-search": gpt_cost_model, "t5-pp2-recompute": t5_pp2}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_column_path_matches_object_path(
    workload, cost_models, flan_samples, flan_samples_gpt, monkeypatch
):
    arch, data_parallel, order_search, memory = WORKLOADS[workload]
    cost_model = cost_models[workload]
    samples = flan_samples_gpt if arch == "gpt" else flan_samples
    planner = DynaPipePlanner(
        cost_model,
        data_parallel_size=data_parallel,
        config=PlannerConfig(
            order_search=order_search, tmax_sample_count=8, device_memory_bytes=memory
        ),
    )
    session = TrainingSession(
        planner,
        samples,
        global_batch_tokens=4096,
        config=TrainerConfig(max_iterations=None, noise_std=NOISE_STD, seed=SEED),
    )
    oracle_seeds = new_rng(SEED)
    lowered = []

    def capture(schedule, op_times, shapes, transfer_shapes, recompute):
        lowered.append((schedule, op_times, shapes, transfer_shapes, recompute))
        return build(schedule, op_times, shapes, transfer_shapes, recompute=recompute)

    build = planner_module.build_instruction_streams
    monkeypatch.setattr(
        planner_module,
        "build_instruction_streams",
        lambda schedule, op_times, shapes, transfer_shapes, recompute: capture(
            schedule, op_times, shapes, transfer_shapes, recompute
        ),
    )
    modes = set()
    for iteration, batch in enumerate(minibatches(samples, SEED)):
        lowered.clear()
        plan = planner.plan(batch, iteration=iteration)
        payload = json.loads(json.dumps(plan.to_dict()))

        # Column path; it never builds the instruction objects.
        with monkeypatch.context() as hot:
            hot.setattr(DeviceStream, "instructions", lambda self: pytest.fail("view built"))
            record, _stats = session.record_from_payload(iteration, payload)

        # Object path: object lowering, dictionary payload, scalar executor
        # with per-instruction closures and the same noise seeds.
        makespans, peaks = [], []
        for replica, (schedule, (starts, ends), shapes, transfer, mode) in enumerate(lowered):
            op_times = dict(zip(schedule.all_ops(), zip(starts.tolist(), ends.tolist())))
            objects = object_lowering(schedule, op_times, shapes, transfer, recompute=mode)
            decoded = plan_from_dicts(json.loads(json.dumps(plan_to_dicts(objects))))
            assert decoded == objects
            column_plan = ExecutionPlan.from_dict(payload["replicas"][replica])
            assert column_plan.device_instructions == objects, (iteration, replica)
            assert column_plan.to_dict() == payload["replicas"][replica]

            gpu = SimulatedGPU(
                cost_model.device_spec,
                noise_std=NOISE_STD,
                seed=int(oracle_seeds.integers(0, 2**31 - 1)),
            )
            options = closure_backend_options(cost_model, gpu, session.network)
            result = ScalarInstructionExecutor(
                options.compute_duration_fn,
                options.transfer_time_fn,
                options.activation_bytes_fn,
                options.static_bytes,
            ).run(decoded)
            makespans.append(result.makespan_ms)
            peaks.append(max(result.peak_memory_bytes))

            quiet = session.ground_truth.backend_options(
                column_plan.streams, SimulatedGPU(cost_model.device_spec)
            )
            column_report = SimBackend(quiet).run_report(column_plan.streams)
            assert (
                column_report.conformance_fingerprint()
                == oracle_report(decoded, result).conformance_fingerprint()
            )

            if iteration % 10 == 0 and replica == 0:
                pairs = strategies_instructions._swappable_start_pairs(objects)
                corrupted = strategies_instructions.swap_starts(objects, *pairs[0])
                round_trip = ExecutionPlan.from_dict(
                    ExecutionPlan(corrupted, list(shapes), column_plan.metadata).to_dict()
                )
                assert deadlock_outcome(
                    InstructionExecutor(lambda instr: 1.0).run, round_trip.streams
                ) == deadlock_outcome(ScalarInstructionExecutor(lambda instr: 1.0).run, corrupted)

        exposed = float(payload["data_parallel_comm_ms"]) * trainer_module._EXPOSED_DP_FRACTION
        assert record.measured_ms == max(makespans) + exposed, iteration
        assert record.measured_peak_bytes == max(peaks), iteration
        assert record.predicted_ms == plan.predicted_iteration_ms
        assert record.predicted_peak_bytes == max(
            max(replica.plan.metadata.predicted_peak_memory_bytes) for replica in plan.replicas
        )
        modes.add(record.recompute)
    assert len(lowered) == data_parallel
    assert modes == {"none"} if arch == "gpt" else modes == {"selective", "full"}


def test_local_backend_runs_column_streams(gpt_cost_model, flan_samples_gpt):
    """The local backend's workers read the plan's columns and report the
    simulator's conformance fingerprint."""
    planner = DynaPipePlanner(
        gpt_cost_model,
        data_parallel_size=2,
        config=PlannerConfig(order_search=True, tmax_sample_count=8),
    )
    plan = ExecutionPlan.from_dict(planner.plan(flan_samples_gpt[:40]).plans[0].to_dict())
    options = trainer_module.GroundTruth(gpt_cost_model).backend_options(
        plan.streams, SimulatedGPU(gpt_cost_model.device_spec)
    )
    local = LocalBackend(options, timeout_s=60.0).run_report(plan.streams)
    simulated = SimBackend(options).run_report(plan.streams)
    assert local.payload_errors == 0
    assert local.conformance_fingerprint() == simulated.conformance_fingerprint()
