"""Module -> layer map for attributing host time.

Every module under ``src/repro`` is listed here. A module that is not
listed makes the traced run fail (``check_map``), so a new module can never
be silently charged to the wrong layer. Frames outside ``repro`` (the
standard library, numpy) are charged to the nearest ``repro`` caller, and
C builtins never appear as frames at all, so they too land on the layer
that called them. Frames from the benchmark's own files are the ``bench``
layer: the stepping loop and samplers of the traced run.
"""

from __future__ import annotations

import os
from typing import Dict, List

#: layers in the order the ledger prints them
LAYERS = (
    "sim", "net", "protocol", "controller", "shard", "worker", "core",
    "validation", "policy", "multijob", "driver", "data", "apps", "bench",
)

MODULE_LAYERS: Dict[str, str] = {
    # simulation substrate: event loop, actors, counters
    "sim/__init__.py": "sim",
    "sim/engine.py": "sim",
    "sim/actor.py": "sim",
    "sim/fastpath.py": "sim",
    "sim/metrics.py": "sim",
    "sim/rng.py": "sim",
    "obs/__init__.py": "sim",
    "obs/trace.py": "sim",
    "obs/export.py": "sim",
    "obs/registry.py": "sim",
    # network model (the chaos network is a subclass)
    "sim/network.py": "net",
    "chaos/__init__.py": "net",
    "chaos/network.py": "net",
    "chaos/plan.py": "net",
    # reliable channels: sequence numbers, acks, retransmission
    "nimbus/protocol.py": "protocol",
    # coordinator decisions (baselines are alternative coordinators)
    "nimbus/controller.py": "controller",
    "nimbus/costs.py": "controller",
    "baselines/__init__.py": "controller",
    "baselines/mpi.py": "controller",
    "baselines/naiad.py": "controller",
    "baselines/spark.py": "controller",
    "nimbus/shard.py": "shard",
    # worker per-task bookkeeping and task execution
    "nimbus/worker.py": "worker",
    "nimbus/commands.py": "worker",
    "nimbus/runtime.py": "worker",
    # execution templates: capture, generation, compiled plans, edits
    "core/__init__.py": "core",
    "core/compiled.py": "core",
    "core/worker_template.py": "core",
    "core/controller_template.py": "core",
    "core/spec.py": "core",
    "core/edits.py": "core",
    "core/validation.py": "validation",
    "core/patching.py": "validation",
    # scheduling policies: self-schedule grants, rebalancing, autoscaling
    "sched/__init__.py": "policy",
    "sched/policy.py": "policy",
    "sched/rebalance.py": "policy",
    "scale/__init__.py": "policy",
    "scale/controller.py": "policy",
    "scale/policy.py": "policy",
    "nimbus/multijob.py": "multijob",
    "nimbus/driver.py": "driver",
    "nimbus/cluster.py": "driver",
    "nimbus/__init__.py": "driver",
    "nimbus/data.py": "data",
    "apps/__init__.py": "apps",
    "apps/datasets.py": "apps",
    "apps/kmeans.py": "apps",
    "apps/lr.py": "apps",
    "apps/reductions.py": "apps",
    "apps/regression.py": "apps",
    "apps/rotation.py": "apps",
    "apps/water.py": "apps",
    # tooling the workloads never call; charged with the benchmark itself
    "__init__.py": "bench",
    "__main__.py": "bench",
    "cli.py": "bench",
    "analysis/__init__.py": "bench",
    "analysis/breakdown.py": "bench",
    "analysis/critical_path.py": "bench",
    "analysis/render.py": "bench",
    "perf/__init__.py": "bench",
    "perf/harness.py": "bench",
    "perf/rebalance_bench.py": "bench",
    "perf/scale_bench.py": "bench",
    "perf/serve_bench.py": "bench",
}


def repro_modules(package_dir: str) -> List[str]:
    """Every ``.py`` file under the ``repro`` package, relative, sorted."""
    found = []
    for dirpath, _dirs, files in os.walk(package_dir):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), package_dir)
                found.append(rel.replace(os.sep, "/"))
    return sorted(found)


def check_map(package_dir: str) -> None:
    """Raise if any module of the package has no layer."""
    missing = [m for m in repro_modules(package_dir) if m not in MODULE_LAYERS]
    if missing:
        raise RuntimeError(
            "repro modules missing from perfbench/layers.py MODULE_LAYERS: "
            + ", ".join(missing))
