"""The width-bounded DP recurrence against the recurrences it replaced.

``repro.core.dp_solver`` solves each end over its widest admissible prefix
only; ``tests/oracles/dp_solver.py`` keeps the full-width vectorised
recurrence and the scalar callback DP.  On adversarial window cost tables —
window times that are not monotone in size, feasibility holes mid-row,
equal-cost ties, candidates that admit no partition, one sample, a
micro-batch cap below the sample count — and on tables built from real
decoder-only and encoder-decoder window geometry, all three must agree
exactly (``==`` on every solution field).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dp_solver as oracle
from repro.core.dp_solver import (
    PartitionError,
    WindowCostTable,
    _partitions_for_tmax_batch,
    solve_partition,
)
from repro.core.microbatch import DynamicMicroBatcher
from repro.core.ordering import order_samples
from repro.data.tasks import Sample

#: Window-time shapes: padded-token monotone, arbitrary (non-monotone), and
#: drawn from a few values so that many partitions tie.
TIME_KINDS = ("monotone", "random", "ties")


def adversarial_table(
    seed: int, num_samples: int, width: int, kind: str, hole_rate: float, inf_rate: float
) -> WindowCostTable:
    """A ``(num_samples, width)`` table; windows past the end are inf / infeasible."""
    rng = np.random.default_rng(seed)
    if kind == "monotone":
        lengths = rng.integers(1, 64, size=num_samples)
        times = np.array(
            [
                [(size + 1) * lengths[start : start + size + 1].max() for size in range(width)]
                for start in range(num_samples)
            ],
            dtype=float,
        )
    elif kind == "random":
        times = rng.uniform(0.5, 40.0, size=(num_samples, width))
    else:
        times = rng.choice([1.0, 2.0, 3.0, 4.0], size=(num_samples, width))
    times[rng.random(times.shape) < inf_rate] = np.inf
    feasible = rng.random(times.shape) >= hole_rate
    feasible[:, 0] = True
    starts = np.arange(num_samples)[:, None]
    sizes = np.arange(1, width + 1)[None, :]
    past_end = starts + sizes > num_samples
    times[past_end] = np.inf
    feasible[past_end] = False
    return WindowCostTable(times=times, feasible=feasible, unique_shape_evaluations=7)


def solve_all_three(table, num_samples, num_stages, sum_weight, max_microbatch_size, count):
    """Solutions (or PartitionError messages) of the three implementations."""
    calls = {
        "width_bounded": lambda: solve_partition(
            num_samples, num_stages, table, sum_weight, max_microbatch_size, count
        ),
        "full_width": lambda: oracle.solve_partition_table(
            num_samples, num_stages, table, sum_weight, max_microbatch_size, count
        ),
        "scalar": lambda: oracle.solve_partition_scalar(
            num_samples,
            num_stages,
            table.time,
            table.is_feasible,
            sum_weight,
            max_microbatch_size,
            count,
        ),
    }
    outcomes = {}
    for name, call in calls.items():
        try:
            outcomes[name] = call()
        except PartitionError as exc:
            outcomes[name] = ("PartitionError", str(exc))
    return outcomes


def assert_same_solution(outcomes):
    reference = outcomes["width_bounded"]
    for name, other in outcomes.items():
        if isinstance(reference, tuple) or isinstance(other, tuple):
            assert other == reference, name
            continue
        assert other.boundaries == reference.boundaries, name
        assert other.times == reference.times, name
        assert other.objective == reference.objective, name
        assert other.tmax_used == reference.tmax_used, name
        assert other.candidates_evaluated == reference.candidates_evaluated, name


table_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "num_samples": st.integers(1, 24),
        "cap_below": st.booleans(),
        "extra_width": st.integers(0, 2),
        "kind": st.sampled_from(TIME_KINDS),
        "hole_rate": st.sampled_from([0.0, 0.1, 0.35]),
        "inf_rate": st.sampled_from([0.0, 0.0, 0.05]),
        "num_stages": st.integers(1, 6),
        "sum_weight": st.sampled_from([1.0, 0.5, 0.125]),
        "count": st.sampled_from([1, 2, 5, 16, 64]),
    }
)


@given(case=table_cases, cap=st.integers(1, 24))
@settings(max_examples=250, deadline=None)
def test_solve_matches_full_width_and_scalar(case, cap):
    n = case["num_samples"]
    max_microbatch_size = min(cap, n - 1) if case["cap_below"] and n > 1 else n + 2
    width = min(max_microbatch_size, n) + case["extra_width"]
    table = adversarial_table(
        case["seed"], n, width, case["kind"], case["hole_rate"], case["inf_rate"]
    )
    outcomes = solve_all_three(
        table, n, case["num_stages"], case["sum_weight"], max_microbatch_size, case["count"]
    )
    assert_same_solution(outcomes)


@given(
    case=table_cases,
    picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=20),
    low=st.integers(0, 3),
)
@settings(max_examples=250, deadline=None)
def test_recurrence_matches_per_candidate(case, picks, low):
    """Arbitrary ascending candidate sets, including ones below some
    singleton time (no partition: ``None``), equal every per-candidate DP."""
    n = case["num_samples"]
    table = adversarial_table(
        case["seed"], n, n, case["kind"], case["hole_rate"], case["inf_rate"]
    )
    finite = np.sort(np.append(table.times[np.isfinite(table.times)], 1.0))
    below = [float(finite[0]) * (i + 1) / 8 for i in range(low)]
    tmaxes = sorted(set(below + [float(finite[p % len(finite)]) for p in picks]))

    bounded = _partitions_for_tmax_batch(table.times, table.feasible, tmaxes)
    end_times, end_feasible = oracle.end_major_tables(table)
    full = oracle.partitions_for_tmax_batch(end_times, end_feasible, n, tmaxes)
    cache = oracle._CostCache(table.time, table.is_feasible)
    scalar = [oracle.partition_for_tmax(cache, n, tmax, n) for tmax in tmaxes]
    assert bounded == full == scalar
    if below and table.times[:, 0].min() > below[0]:
        assert bounded[0] is None


def test_recurrence_rejects_unsorted_candidates():
    table = adversarial_table(0, 4, 4, "monotone", 0.0, 0.0)
    with pytest.raises(ValueError, match="ascending"):
        _partitions_for_tmax_batch(table.times, table.feasible, [5.0, 1.0])


def _samples(lengths, encoder_decoder):
    if encoder_decoder:
        return [Sample(input_tokens=a, target_tokens=b) for a, b in lengths]
    return [Sample(input_tokens=a, target_tokens=0) for a, _ in lengths]


@pytest.mark.parametrize("model", ["gpt", "t5"])
@given(
    lengths=st.lists(
        st.tuples(st.integers(1, 1024), st.integers(1, 256)), min_size=1, max_size=40
    ),
    max_microbatch_size=st.sampled_from([1, 3, 8, 256]),
    memory_divisor=st.sampled_from([1, 4, 16]),
)
@settings(max_examples=30, deadline=None)
def test_real_geometry_tables(
    model, lengths, max_microbatch_size, memory_divisor, gpt_cost_model, t5_cost_model
):
    """Tables from the planner's own window geometry and cost model."""
    cost_model = {"gpt": gpt_cost_model, "t5": t5_cost_model}[model]
    batcher = DynamicMicroBatcher(
        cost_model,
        tmax_sample_count=16,
        max_microbatch_size=max_microbatch_size,
        per_microbatch_memory_bytes=cost_model.min_activation_budget_bytes() / memory_divisor,
    )
    samples = _samples(lengths, encoder_decoder=model == "t5")
    ordered = order_samples(samples, batcher.ordering, decoder_only=batcher.decoder_only)
    try:
        table = batcher.build_window_cost_table(ordered)
    except PartitionError:
        with pytest.raises(PartitionError):
            oracle.scalar_split(batcher, samples)
        return
    outcomes = solve_all_three(
        table,
        len(ordered),
        cost_model.num_stages,
        batcher.sum_weight,
        max_microbatch_size,
        batcher.tmax_sample_count,
    )
    assert_same_solution(outcomes)
    _, scalar = oracle.scalar_split(batcher, samples)
    assert scalar.boundaries == outcomes["width_bounded"].boundaries
    assert scalar.times == outcomes["width_bounded"].times
