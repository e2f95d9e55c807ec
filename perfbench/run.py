"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lr_strong --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` times untraced runs and prints the end-to-end metrics;
``--trace 1`` runs the per-layer ledger (see ledger.py). Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric definitions and the reasons behind each workload are in README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")

#: (name, unit) of every end-to-end metric, printed with --trace 0
END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("makespan_s", "s"), ("iter_ms", "ms"), ("job_p50_s", "s"),
    ("job_p95_s", "s"),
)

#: (name, unit) of every per-layer metric, printed with --trace 1
PER_LAYER = (
    ("sim.events", "count"), ("sim.events_per_s", "1/s"),
    ("sim.host_share", "ratio"),
    ("net.messages", "count"), ("net.bytes", "B"),
    ("net.host_share", "ratio"),
    ("protocol.retries", "count"), ("protocol.host_share", "ratio"),
    ("controller.busy_steady", "ratio"), ("controller.busy_s", "s"),
    ("controller.msgs_per_task_steady", "msg/task"),
    ("controller.queue_max", "count"), ("controller.host_share", "ratio"),
    ("shard.busy_steady_max", "ratio"), ("shard.busy_steady_mean", "ratio"),
    ("shard.host_share", "ratio"),
    ("worker.busy_steady_max", "ratio"),
    ("worker.busy_steady_mean", "ratio"),
    ("worker.host_us_per_task", "us"), ("worker.host_share", "ratio"),
    ("worker.plans_compiled", "count"),
    ("core.instantiations", "count"), ("core.host_share", "ratio"),
    ("validation.auto", "count"), ("validation.full", "count"),
    ("validation.host_share", "ratio"),
    ("patching.computed", "count"), ("patching.hit_ratio", "ratio"),
    ("policy.grants", "count"), ("policy.self_instances", "count"),
    ("policy.host_share", "ratio"),
    ("multijob.wait_p95_s", "s"), ("multijob.rejected", "count"),
    ("multijob.host_share", "ratio"),
    ("driver.blocks", "count"), ("driver.host_share", "ratio"),
    ("data.host_share", "ratio"), ("apps.host_share", "ratio"),
    ("bench.host_share", "ratio"),
    ("trace.overhead", "ratio"), ("failed_frac", "ratio"),
)

#: set-up is repeated at least this often, and for at least this long,
#: before and again after the timed runs; its metric is the median of all
#: set-ups, those of the timed runs included
SETUP_REPS = 5
SETUP_MIN_S = 1.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("lr_strong", "water", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="host seconds of timed runs (at least one run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: the scaled-down shape the self-test uses")
    return p.parse_args(argv)


def _timed_setup(workload, inputs, setups):
    gc.collect()
    start = time.perf_counter()
    r = workload.setup(inputs)
    setups.append(time.perf_counter() - start)
    return r


def _setup_reps(workload, inputs, setups):
    """Set-ups with no run after them: at least SETUP_REPS, SETUP_MIN_S long."""
    spent, reps = 0.0, 0
    while (reps < SETUP_REPS or spent < SETUP_MIN_S) and reps < 200:
        _timed_setup(workload, inputs, setups)
        spent += setups[-1]
        reps += 1


def measure(workload, inputs, seconds):
    """Untraced timed runs for ``seconds``; returns (metrics, correct,
    attempted, failed, notes)."""
    setups = []
    _setup_reps(workload, inputs, setups)
    walls, outcomes, errors = [], [], 0
    budget_start = time.perf_counter()
    while True:
        r = _timed_setup(workload, inputs, setups)
        start = time.perf_counter()
        try:
            workload.run(r)
        except Exception as exc:  # a failed run is counted, not fatal
            print(f"run failed: {exc!r}", file=sys.stderr)
            errors += 1
        else:
            walls.append(time.perf_counter() - start)
            outcomes.append(workload.outcome(r))
        del r
        elapsed = time.perf_counter() - budget_start
        last = walls[-1] if walls else 0.0
        if elapsed + last > seconds:
            break
    # a second batch of set-ups after the timed runs, so the median spans
    # the run rather than one moment of a machine whose speed drifts
    _setup_reps(workload, inputs, setups)
    if not outcomes:
        raise RuntimeError("every timed run failed")
    first = outcomes[0]
    repeated = all(o.key() == first.key() for o in outcomes)
    p50, tail, q, n = first.job_percentiles()
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "makespan_s": first.makespan_s,
        "iter_ms": first.iter_ms,
        "job_p50_s": p50,
        "job_p95_s": tail,
    }
    attempted = errors + sum(o.attempted for o in outcomes)
    failed = errors + sum(o.failed for o in outcomes)
    notes = [
        f"{len(walls)} timed run(s) of "
        f"{', '.join(f'{w:.3f}' for w in walls)} s; {len(setups)} set-ups; "
        f"virtual results repeat exactly: {repeated}",
        f"digest {json.dumps(first.digest)}; events {first.events}",
        f"tail job latency is p{q * 100:g} of {n} jobs; {first.note}",
    ]
    return metrics, repeated and failed == 0, attempted, failed, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(PACKAGE_DIR):
        print(f"cannot find the program: no {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(PACKAGE_DIR))
    import workloads  # noqa: E402  (needs src/ on the path)

    with open(os.path.join(BENCH_DIR, "golden.json")) as fh:
        golden = json.load(fh)
    workload = workloads.make(args.workload, args.size, golden)
    inputs = workload.inputs(args.seed)
    if args.trace:
        import ledger  # noqa: E402

        values, correct, out, notes = ledger.traced_run(
            workload, inputs, PACKAGE_DIR, BENCH_DIR)
        layer_sum = sum(v for k, v in values.items()
                        if k.endswith(".host_share"))
        correct = (correct and out.failed == 0
                   and abs(layer_sum - 1.0) <= 0.01)
        attempted, failed = out.attempted, out.failed
        table = PER_LAYER
    else:
        values, correct, attempted, failed, notes = measure(
            workload, inputs, args.seconds)
        table = END_TO_END
    print(f"perfbench {args.workload} size={args.size} seed={args.seed} "
          f"trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in table:
        print(f"  {name:<34} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
