"""The traced run: a per-layer ledger in both clocks.

Virtual time is read from public state between steps: the run advances
``STEP_S`` of virtual time at a time and after each step samples every
actor's ``busy_time`` plus the message and task counters. Occupancy over
the workload's steady window is the busy-time difference across the
window over its length.

Host time is sampled: a ``SIGPROF`` timer fires every ``SAMPLE_S`` of
process CPU time and charges the interrupted frame to its layer through
``layers.MODULE_LAYERS``. A layer's share is its fraction of all samples.

Stepping and sampling change no simulated value; the traced run checks
its digest, event count and virtual metrics against an untraced run of
the same inputs in the same process.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import time
from array import array
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from layers import LAYERS, MODULE_LAYERS, check_map
from workloads import Outcome, Run, nearest_rank, tail_quantile

#: virtual seconds between occupancy samples
STEP_S = 0.002
#: host CPU seconds between layer samples
SAMPLE_S = 0.001


class HostSampler:
    """Statistical host self-time per layer (a ``SIGPROF`` sampler)."""

    def __init__(self, package_dir: str, bench_dir: str):
        self._package = os.path.abspath(package_dir) + os.sep
        self._bench = os.path.abspath(bench_dir) + os.sep
        self.counts: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.unattributed = 0
        self.unmapped: set = set()
        self._layer_of: Dict[str, Optional[str]] = {}
        self._previous = None

    def _layer(self, filename: str) -> Optional[str]:
        layer = self._layer_of.get(filename, False)
        if layer is not False:
            return layer
        path = os.path.abspath(filename)
        layer = None
        if path.startswith(self._package):
            module = path[len(self._package):].replace(os.sep, "/")
            layer = MODULE_LAYERS.get(module)
            if layer is None:
                self.unmapped.add(module)
        elif path.startswith(self._bench):
            layer = "bench"
        self._layer_of[filename] = layer
        return layer

    def _on_sample(self, _signum, frame) -> None:
        # the innermost repro (or benchmark) frame owns the sample; stdlib
        # and numpy frames, like C builtins, count for their caller
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.unattributed += 1

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def samples(self) -> int:
        return sum(self.counts.values()) + self.unattributed

    def shares(self) -> Dict[str, float]:
        total = max(1, self.samples)
        return {layer: count / total for layer, count in self.counts.items()}


class OccupancySampler:
    """Actor busy time and control-plane counters at each step."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.groups = {
            "controller": [cluster.controller],
            "shard": [cluster.shards[k] for k in sorted(cluster.shards)],
            "worker": [cluster.workers[k] for k in sorted(cluster.workers)],
        }
        self.times = array("d")
        self.busy = {group: [array("d") for _ in actors]
                     for group, actors in self.groups.items()}
        # job-0 stream: grants and instances only exist for a
        # self-scheduling job 0 (lr_strong)
        self.counters = {name: array("d") for name in (
            "controller.messages_in", "controller.messages_out",
            "tasks_executed", "self_schedule_grants",
            "self_schedule_instances")}
        self.queue_max = 0

    def record(self) -> None:
        cluster = self.cluster
        self.times.append(cluster.sim.now)
        for group, actors in self.groups.items():
            for series, actor in zip(self.busy[group], actors):
                series.append(actor.busy_time)
        count = cluster.metrics.count
        for name, series in self.counters.items():
            series.append(count(name))
        queued = cluster.controller.control_queue_length
        if queued > self.queue_max:
            self.queue_max = queued

    def _index(self, t: float) -> int:
        """The last sample taken at or before ``t``."""
        return max(0, bisect_right(self.times, t) - 1)

    def window(self, t0: float, t1: float) -> "Window":
        return Window(self, self._index(t0), self._index(t1))


class Window:
    """Differences of the sampled series between two sample indices."""

    def __init__(self, occ: OccupancySampler, i0: int, i1: int):
        self.occ = occ
        self.i0, self.i1 = i0, i1
        self.span = occ.times[i1] - occ.times[i0]

    def delta(self, name: str) -> float:
        series = self.occ.counters[name]
        return series[self.i1] - series[self.i0]

    def occupancy(self, group: str) -> List[float]:
        if self.span <= 0:
            return [0.0 for _ in self.occ.busy[group]]
        return [(s[self.i1] - s[self.i0]) / self.span
                for s in self.occ.busy[group]]


def _streams(cluster) -> list:
    """Job 0's metrics plus every served job's own stream."""
    return [cluster.metrics] + [rec.metrics for rec in
                                cluster.jobs.records.values()
                                if rec.metrics is not None]


def _total(cluster, name: str) -> float:
    return sum(m.count(name) for m in _streams(cluster))


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def traced_run(workload, inputs, package_dir: str,
               bench_dir: str) -> Tuple[Dict[str, float], bool, Outcome,
                                        List[str]]:
    """One untraced reference run, then one stepped and sampled run.

    Returns (per-layer metrics, whether the traced run reproduced the
    reference, the traced outcome, human-readable notes).
    """
    check_map(package_dir)
    gc.collect()
    ref_run = workload.setup(inputs)
    start = time.perf_counter()
    workload.run(ref_run)
    wall_untraced = time.perf_counter() - start
    reference = workload.outcome(ref_run)
    del ref_run
    gc.collect()

    r: Run = workload.setup(inputs)
    occ = OccupancySampler(r.cluster)
    occ.record()
    with HostSampler(package_dir, bench_dir) as host:
        start = time.perf_counter()
        workload.start(r)
        until, done = 0.0, False
        while not done:
            until += STEP_S
            done = workload.advance(r, until)
            occ.record()
        wall_traced = time.perf_counter() - start
    if host.unmapped:
        raise RuntimeError("unmapped repro modules sampled: "
                           + ", ".join(sorted(host.unmapped)))
    out = workload.outcome(r)
    reproduced = out.key() == reference.key()

    cluster = r.cluster
    win = occ.window(*out.window)
    shares = host.shares()
    tasks = cluster.metrics.count("tasks_executed")
    ctrl = win.occupancy("controller")[0]
    shard_occ = win.occupancy("shard")
    worker_occ = win.occupancy("worker")
    msgs = (win.delta("controller.messages_in")
            + win.delta("controller.messages_out"))
    steady_tasks = win.delta("tasks_executed")
    hits = _total(cluster, "patch_cache_hits")
    computed = _total(cluster, "patches_computed")
    waits = out.waits
    metrics = {
        "sim.events": cluster.sim.events_run,
        "sim.events_per_s": cluster.sim.events_run / wall_untraced,
        "sim.host_share": shares["sim"],
        "net.messages": cluster.network.messages_sent,
        "net.bytes": cluster.network.bytes_sent,
        "net.host_share": shares["net"],
        "protocol.retries": _total(cluster, "protocol.retries"),
        "protocol.host_share": shares["protocol"],
        "controller.busy_steady": ctrl,
        "controller.busy_s": cluster.controller.busy_time,
        "controller.msgs_per_task_steady":
            msgs / steady_tasks if steady_tasks else 0.0,
        "controller.queue_max": occ.queue_max,
        "controller.host_share": shares["controller"],
        "shard.busy_steady_max": max(shard_occ, default=0.0),
        "shard.busy_steady_mean": _mean(shard_occ),
        "shard.host_share": shares["shard"],
        "worker.busy_steady_max": max(worker_occ),
        "worker.busy_steady_mean": _mean(worker_occ),
        "worker.host_us_per_task":
            shares["worker"] * wall_traced / tasks * 1e6,
        "worker.host_share": shares["worker"],
        "worker.plans_compiled": sum(w.plans_compiled for w in
                                     cluster.workers.values()),
        "core.instantiations": (_total(cluster, "template_instantiations")
                                + _total(cluster, "self_schedule_instances")),
        "core.host_share": shares["core"],
        "validation.auto": _total(cluster, "auto_validations"),
        "validation.full": _total(cluster, "full_validations"),
        "validation.host_share": shares["validation"],
        "patching.computed": computed,
        "patching.hit_ratio":
            hits / (hits + computed) if hits + computed else 0.0,
        "policy.grants": _total(cluster, "self_schedule_grants"),
        "policy.self_instances": _total(cluster, "self_schedule_instances"),
        "policy.host_share": shares["policy"],
        "multijob.wait_p95_s":
            nearest_rank(waits, tail_quantile(len(waits))) if waits else 0.0,
        "multijob.rejected": out.rejected,
        "multijob.host_share": shares["multijob"],
        "driver.blocks": sum(len(m.intervals.get("driver_block", []))
                             for m in _streams(cluster)),
        "driver.host_share": shares["driver"],
        "data.host_share": shares["data"],
        "apps.host_share": shares["apps"],
        "bench.host_share": shares["bench"],
        "trace.overhead": wall_traced / wall_untraced,
        "failed_frac": out.failed / out.attempted,
    }
    grants, instances = (win.delta("self_schedule_grants"),
                         win.delta("self_schedule_instances"))
    if grants:
        method = (f"whole-grant window: {grants:.0f} grant(s), "
                  f"{instances:.0f} instances inside it")
    else:
        method = "window with no self-schedule grants"
    notes = [
        f"steady window [{out.window[0]:.6f}, {out.window[1]:.6f}] virtual s "
        f"({method}); samples every {STEP_S * 1e3:g} ms virtual",
        f"host samples {host.samples} "
        f"(unattributed {host.unattributed}); "
        f"shares sum {sum(shares.values()):.4f}",
        f"untraced wall {wall_untraced:.3f} s, traced wall "
        f"{wall_traced:.3f} s; traced run reproduced the reference: "
        f"{reproduced}; digest {json.dumps(out.digest)}; "
        f"events {out.events}",
    ]
    return metrics, reproduced, out, notes
