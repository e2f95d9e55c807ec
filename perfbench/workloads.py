"""The benchmark's workloads: lr_strong, water and serve.

Each workload is built from the public app and cluster API only
(``repro.apps``, ``NimbusCluster``, ``cluster.jobs.submit_at``), never
from ``repro.perf``. The seed makes the inputs and nothing else:

* lr_strong: the dataset size, 100 GB +- 1%;
* water: the grid scale (every stage duration), 1.5 +- 1%;
* serve: the arrival times of the jobs.

None of these inputs changes a computed value, so each workload has one
golden results digest (``golden.json``) whatever the seed.

A workload object has two ways to run a set-up cluster: ``run`` goes to
completion in one call (the timed, untraced path), while ``start`` plus
repeated ``advance(until)`` steps virtual time so the ledger can sample
actor state between steps.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.apps import (
    KMeansApp,
    KMeansSpec,
    LRApp,
    LRSpec,
    RotationApp,
    RotationSpec,
    WaterApp,
    WaterSpec,
)
from repro.nimbus import Driver, NimbusCluster, merged_registry

#: workload configurations per size. "full" is what the benchmark
#: measures; "small" is the scaled-down shape the self-test runs.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        # 65 iterations = 1 capture + 3 central + a 29-instance first grant
        # + one whole 32-instance grant, which is the steady window
        "lr_strong": dict(workers=400, partitions=80, iterations=65,
                          mode="sharded"),
        "water": dict(workers=64, partitions=5, scale=1.5, frames=3),
        "serve": dict(workers=16, jobs=500, interarrival=0.1,
                      iterations=6),
    },
    "small": {
        "lr_strong": dict(workers=8, partitions=4, iterations=65,
                          mode="sharded"),
        "water": dict(workers=8, partitions=2, scale=0.2, frames=3),
        "serve": dict(workers=4, jobs=30, interarrival=0.1, iterations=3),
    },
}


def _canon(value):
    """JSON-serializable bit-exact form of a task result."""
    if isinstance(value, np.ndarray):
        return {"__ndarray__": [value.dtype.str, list(value.shape),
                                value.tobytes().hex()]}
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in
                sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def results_digest(history) -> str:
    """sha256 (truncated) over an ordered ``[(block_id, results)]`` list."""
    payload = json.dumps([_canon([block_id, results])
                          for block_id, results in history], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """The highest of p95/p90/p75/p50 with at least ten samples beyond
    it; 1.0 (the maximum) when fewer than twenty samples exist."""
    for q in (0.95, 0.9, 0.75, 0.5):
        if n * (1.0 - q) >= 10:
            return q
    return 1.0


def _block_ends(metrics, block_id: str) -> List[float]:
    """Completion times of one block's driver requests, in request order."""
    ivs = [iv for iv in metrics.intervals.get("driver_block", [])
           if iv.labels.get("block_id") == block_id]
    ivs.sort(key=lambda iv: iv.labels["request_id"])
    return [iv.end for iv in ivs]


class Outcome:
    """What one run computed, in virtual time, plus its failure count."""

    def __init__(self, makespan_s: float, iter_ms: float,
                 latencies: List[float], window: Tuple[float, float],
                 digest: Any, events: int, attempted: int, failed: int,
                 waits: Optional[List[float]] = None, rejected: int = 0,
                 note: str = ""):
        self.makespan_s = makespan_s
        self.iter_ms = iter_ms
        self.latencies = latencies
        self.window = window
        self.digest = digest
        self.events = events
        self.attempted = attempted
        self.failed = failed
        self.waits = waits or []
        self.rejected = rejected
        self.note = note

    def key(self) -> Tuple:
        """Everything that must repeat exactly across runs of one seed."""
        return (json.dumps(self.digest, sort_keys=True), self.events,
                self.makespan_s, self.iter_ms, tuple(self.latencies),
                self.window, self.attempted, self.failed)

    def job_percentiles(self) -> Tuple[float, float, float, int]:
        """(p50, tail value, tail quantile, samples) of job latency."""
        n = len(self.latencies)
        q = tail_quantile(n)
        return (nearest_rank(self.latencies, 0.5),
                nearest_rank(self.latencies, q), q, n)


class Run:
    """A set-up cluster and the handles a workload needs to read it."""

    def __init__(self, cluster: NimbusCluster, **handles: Any):
        self.cluster = cluster
        self.__dict__.update(handles)


class _SingleJob:
    """Shared run paths for the workloads driven by the job-0 driver."""

    name = ""

    def __init__(self, cfg: Dict[str, Any], golden: Optional[str]):
        self.cfg = cfg
        self.golden = golden

    def run(self, r: Run) -> None:
        r.cluster.run_until_finished(max_seconds=1e7)

    def start(self, r: Run) -> None:
        r.cluster.driver.halt_on_finish = True
        r.cluster.driver.start()

    def advance(self, r: Run, until: float) -> bool:
        sim = r.cluster.sim
        sim.run(until=until)
        if r.cluster.job.finished:
            return True
        if sim.peek_time() is None:
            raise RuntimeError(f"{self.name}: simulation drained before "
                               f"the driver program finished")
        return False

    def _outcome(self, r: Run, iter_ms: float,
                 window: Tuple[float, float]) -> Outcome:
        cluster = r.cluster
        digest = results_digest(cluster.controller.jobs[0].results_history)
        makespan = cluster.sim.now
        return Outcome(makespan, iter_ms, [makespan], window, digest,
                       cluster.sim.events_run, attempted=1,
                       failed=int(digest != self.golden),
                       note="one job: job latency is the makespan (n=1)")


class LRStrong(_SingleJob):
    """fig07 logistic regression, strong scaling, sharded control plane."""

    name = "lr_strong"

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(seed)
        return {"data_bytes": 100e9 * (1.0 + 0.01 * rng.uniform(-1, 1))}

    def setup(self, inputs: Dict[str, Any]) -> Run:
        cfg = self.cfg
        app = LRApp(LRSpec(num_workers=cfg["workers"],
                           partitions_per_worker=cfg["partitions"],
                           iterations=cfg["iterations"],
                           data_bytes=inputs["data_bytes"]))
        cluster = NimbusCluster(cfg["workers"], app.program(blocking=False),
                                registry=app.registry, trace=False,
                                mode=cfg["mode"])
        return Run(cluster, app=app)

    def outcome(self, r: Run) -> Outcome:
        # the last window_size iterations: in a periodic self-scheduling
        # regime this span holds exactly one grant renewal, whatever the
        # phase; with the configured count it is exactly the second grant
        ends = _block_ends(r.cluster.metrics, r.app.iteration_block.block_id)
        span = Driver.window_size
        if len(ends) <= span:
            raise RuntimeError(f"lr_strong needs more than {span} "
                               f"iterations, got {len(ends)}")
        window = (ends[-1 - span], ends[-1])
        return self._outcome(r, (window[1] - window[0]) / span * 1e3,
                             window)


class Water(_SingleJob):
    """The PhysBAM proxy in its Fig. 11 configuration, centralized."""

    name = "water"

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(seed)
        return {"scale": self.cfg["scale"] * (1.0 + 0.01 * rng.uniform(-1, 1))}

    def setup(self, inputs: Dict[str, Any]) -> Run:
        cfg = self.cfg
        app = WaterApp(WaterSpec(num_workers=cfg["workers"],
                                 partitions_per_worker=cfg["partitions"],
                                 scale=inputs["scale"],
                                 frame_duration=0.004,
                                 frames=cfg["frames"]))
        frame_log: List[float] = []
        cluster = NimbusCluster(cfg["workers"],
                                app.program(frame_log=frame_log),
                                registry=app.registry, trace=False)
        return Run(cluster, app=app, frame_log=frame_log)

    def outcome(self, r: Run) -> Outcome:
        log = r.frame_log
        if len(log) < 2:
            raise RuntimeError("water needs at least two frames")
        window = (log[0], log[-1])  # every frame after the first
        return self._outcome(
            r, (window[1] - window[0]) / (len(log) - 1) * 1e3, window)


#: serve job mix, cycled in arrival order
JOB_MIX = ("fig07_lr", "fig08_kmeans", "patch_rotation")


class Serve:
    """Open-loop multi-tenant serving of a fig07/fig08/rotation job mix."""

    name = "serve"

    def __init__(self, cfg: Dict[str, Any], golden: Optional[Dict[str, str]]):
        self.cfg = cfg
        self.golden = golden or {}

    def inputs(self, seed: int) -> Dict[str, Any]:
        """A Poisson process of the configured rate, conditioned on
        exactly ``jobs`` arrivals in ``[0, jobs * interarrival)``: sorted
        uniform times. Conditioning fixes the horizon, so the makespan
        does not swing with the sum of the gaps."""
        rng = random.Random(seed)
        horizon = self.cfg["jobs"] * self.cfg["interarrival"]
        return {"arrivals": sorted(rng.uniform(0.0, horizon)
                                   for _ in range(self.cfg["jobs"]))}

    def setup(self, inputs: Dict[str, Any]) -> Run:
        cfg = self.cfg
        n, its = cfg["workers"], cfg["iterations"]
        apps = {
            "fig07_lr": LRApp(LRSpec(num_workers=n, iterations=its,
                                     partitions_per_worker=4,
                                     data_bytes=1e9)),
            "fig08_kmeans": KMeansApp(KMeansSpec(
                num_workers=n, iterations=its, partitions_per_worker=4,
                data_bytes=1e9)),
            "patch_rotation": RotationApp(RotationSpec(num_workers=n,
                                                       iterations=its)),
        }
        programs = {
            "fig07_lr": apps["fig07_lr"].program(blocking=False),
            "fig08_kmeans": apps["fig08_kmeans"].program(blocking=False),
            "patch_rotation": apps["patch_rotation"].program(),
        }
        cluster = NimbusCluster(
            n, program=None,
            registry=merged_registry([a.registry for a in apps.values()]),
            trace=False, max_concurrent_jobs=4, job_queue_cap=16,
            dispatch_inflight_cap=4)
        for i, due in enumerate(inputs["arrivals"]):
            cluster.jobs.submit_at(due, programs[JOB_MIX[i % len(JOB_MIX)]])
        kind_of = {id(p): kind for kind, p in programs.items()}
        return Run(cluster, apps=apps, kind_of=kind_of,
                   arrivals=inputs["arrivals"])

    def run(self, r: Run) -> None:
        r.cluster.run_until_jobs_finished(max_seconds=1e6)

    def start(self, r: Run) -> None:
        pass

    def advance(self, r: Run, until: float) -> bool:
        # run_until_all_finished halts the simulator the instant the last
        # job ends, exactly as the untraced run does; a stop at `until`
        # with jobs still open is reported as an error we step past
        cluster = r.cluster
        try:
            cluster.jobs.run_until_all_finished(max_seconds=until)
        except RuntimeError:
            if cluster.sim.peek_time() is None:
                raise
        return cluster.jobs.all_done()

    def outcome(self, r: Run) -> Outcome:
        cluster = r.cluster
        records = sorted(cluster.jobs.records.values(),
                         key=lambda rec: rec.job_id)
        finished = [rec for rec in records if rec.state == "finished"]
        digests = set()
        mismatched = 0
        steps = []
        for rec in finished:
            kind = r.kind_of[id(rec.program)]
            digest = results_digest(
                cluster.controller.jobs[rec.job_id].results_history)
            digests.add((kind, digest))
            mismatched += digest != self.golden.get(kind)
            ends = _block_ends(rec.metrics,
                               r.apps[kind].iteration_block.block_id)
            steps.append((ends[-1] - ends[0]) / (len(ends) - 1))
        submitted = len(r.arrivals)
        rejected = len(cluster.jobs.rejections)
        unfinished = submitted - rejected - len(finished)
        makespan = max(rec.finish_time for rec in finished)
        note = f"{len(finished)} finished, {rejected} rejected"
        if rejected == 0:
            # job ids follow arrival order when nothing was refused
            late = max(rec.submit_time - r.arrivals[rec.job_id - 1]
                       for rec in records)
            note += f", generator lateness {late:.3g} s"
        return Outcome(
            makespan, sum(steps) / len(steps) * 1e3,
            [rec.latency for rec in finished], (0.0, makespan),
            sorted(digests), cluster.sim.events_run, attempted=submitted,
            failed=rejected + unfinished + mismatched,
            waits=[rec.start_time - rec.submit_time for rec in records
                   if rec.start_time is not None],
            rejected=rejected, note=note)


WORKLOADS = {"lr_strong": LRStrong, "water": Water, "serve": Serve}


def make(name: str, size: str, golden: Dict[str, Any]):
    """The named workload at ``size``, checked against its golden digest."""
    return WORKLOADS[name](SIZES[size][name], golden.get(size, {}).get(name))
