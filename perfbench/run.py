"""Benchmark of the DynaPipe iteration pipeline and the fleet trace replay.

Run from the repository root:

    python3 perfbench/run.py --workload gpt-pp4-search --seed 0 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``gpt-pp4-search``, ``t5-pp2-recompute``: closed-loop training iterations
  (plan -> serialise -> store -> deserialise -> execute), see ``training.py``.
* ``fleet-priority-1k``: replay of a generated 1000-job trace with the
  priority policy, see ``fleet_replay.py``.

Everything runs in this one process: no planner-pool workers and no
``local`` backend, and BLAS is pinned to one thread.  ``--trace 0`` times
the untouched program and prints the end-to-end metrics; ``--trace 1`` runs
every unit of work twice, untraced then traced with spans around the calls
into each layer, and prints the per-layer metrics and the tracing overhead.

Correctness checks run outside the timed regions; a failed check or an
exception counts the iteration (or replay) as failed.  The last line of
standard output is the result as one JSON object.  A JSON record with the
run metadata, the output digest and the metrics goes to
``perfbench/results/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRAINING_WORKLOADS = ("gpt-pp4-search", "t5-pp2-recompute")
FLEET_WORKLOADS = ("fleet-priority-1k",)


def catalogue(section: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json.

    Per-layer times are shares (%) of the traced unit of work (a training
    iteration or a fleet replay); per-layer counts are per unit.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in spec[section]]


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` (``unknown`` outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def layer_metrics(outcome) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans and extra measurements."""
    totals = outcome.tracer.totals()
    root = "iteration" if "iteration" in totals else "replay"
    root_s = totals[root]["s"]
    units = totals[root]["calls"]

    def entry(span: str) -> dict[str, float]:
        return totals.get(span, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {
        "traced_unit_ms": 1e3 * root_s / units,
        "other.pct": 100.0 * entry(root)["self_s"] / root_s,
        "fleet.loop_self.pct": 100.0 * entry("replay")["self_s"] / root_s,
        "dp_split.useful_ratio": ratio(entry("plan")["calls"], entry("dp_split")["calls"]),
        "fleet.gang_alloc.hit_ratio": ratio(
            entry("fleet.gang_alloc")["count"], entry("fleet.gang_alloc")["calls"]
        ),
    }
    for name, _unit in catalogue("per_layer"):
        if name in values or name in outcome.metrics:
            continue
        span, _, field = name.rpartition(".")
        if field == "pct":
            values[name] = 100.0 * entry(span)["s"] / root_s
        elif field == "self_pct":
            values[name] = 100.0 * entry(span)["self_s"] / root_s
        elif field == "calls":
            values[name] = entry(span)["calls"] / units
        else:
            # A work count; a workload that never reaches the layer (or, for
            # pred_error_pct and fleet.evictions, never plans or evicts) reads 0.
            values[name] = entry(span)["count"] / units
    values.update(outcome.metrics)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=TRAINING_WORKLOADS + FLEET_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    from repro.obs import state as telemetry

    if telemetry.enabled():
        print("REPRO_TELEMETRY is on; the benchmark times the program with telemetry off",
              file=sys.stderr)
        return 2
    if args.workload in TRAINING_WORKLOADS:
        import training as workload
    else:
        import fleet_replay as workload

    trace = bool(args.trace)
    outcome = workload.run(args.workload, args.seed, args.seconds, trace)
    if trace:
        metrics = layer_metrics(outcome)
        names = catalogue("per_layer")
    else:
        metrics = dict(outcome.metrics)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        names = catalogue("end_to_end")
    if telemetry.enabled():
        print("telemetry was switched on during the run", file=sys.stderr)
        return 2

    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    record = {"metadata": metadata, "detail": outcome.detail, **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        outcome.tracer.write(RESULTS / f"{stem}-spans.jsonl")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    print("# metadata " + json.dumps(metadata, sort_keys=True))
    print("# detail " + json.dumps(outcome.detail, sort_keys=True))
    print(f"# op_fail_ratio {outcome.failed / outcome.attempted:.4f} "
          f"({outcome.failed} of {outcome.attempted})")
    for name, unit in names:
        print(f"{name:28s} {metrics[name]:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
