"""Test-only oracles: re-derivations of decisions the runtime caches.

The runtime takes one path for each of these, and these oracles re-derive
its answers the slow, obvious way:

* :class:`InterpretedWorker` is the straightforward reading of the worker
  protocol. The runtime replays a compiled plan (``repro.core.compiled``)
  for every template instance and patch; this worker rebuilds fresh
  commands through ``instantiate_entries`` and resolves them in two passes
  against the dict-based conflict tracker. Running a cluster under
  :func:`interpreted_workers` and comparing its observables with a normal
  run proves the plans are semantics-preserving.
* :class:`CrossCheckedWorker` (:func:`cross_checked_workers`) recompiles
  each plan it replays and compares every command of every instantiation,
  field by field, with a fresh ``instantiate_entries`` build.
* :func:`checked_fused_hops` re-derives every clock claim that
  ``Simulator.try_advance`` grants (the fused drain chains of
  ``Actor._drain``) from the raw event queues.
* :func:`checked_validation` compares every incremental template
  validation the controller performs with the brute-force scan.

Two recorders observe what the runtime charges and grants, so tests can
compare scheduling modes:

* :func:`charge_spy` files every control-thread charge under its actor
  and the cost-model rate it scales.
* :func:`recorded_grants` records every self-schedule window a worker
  opens.

None of them changes what a run computes, so each can be installed in any
sweep that compares virtual results.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import fields
from unittest import mock

from repro.core.compiled import compile_plan
from repro.core.validation import brute_force_validate
from repro.core.worker_template import instantiate_entries
from repro.nimbus import cluster as cluster_mod
from repro.nimbus import controller as controller_mod
from repro.nimbus import worker as worker_mod
from repro.nimbus.commands import CommandKind
from repro.nimbus.costs import PAPER_COSTS, CostModel
from repro.nimbus.worker import Worker, _InstanceRecord
from repro.sim.actor import Actor
from repro.sim.engine import Simulator


class InterpretedWorker(Worker):
    """A worker that interprets instances and patches instead of replaying
    compiled plans. Never increments ``plans_compiled``."""

    def _start_instance(self, half, block_id, version, instance_id,
                        cid_base, block_seq, params, key, grant=None) -> None:
        commands = half.instantiate(self.worker_id, instance_id, cid_base,
                                    params)
        self.charge(self.costs.worker_instantiate_per_command * len(commands))
        report_cids = {cid_base + idx for idx in half.reports
                       if half.entries[idx] is not None}
        record = _InstanceRecord(
            block_id, instance_id, block_seq,
            remaining=len(commands), report_cids=report_cids,
            version=version, cid_base=cid_base,
            task_times={} if self.report_task_times else None,
            grant=grant,
        )
        self._instances[key] = record
        meta_key = ("instance", key)
        self._enqueue_batch(
            commands,
            [(meta_key, cmd.cid in report_cids, record) for cmd in commands])
        if not commands:
            self._finish_instance(record)

    def _run_patch(self, patch_id, entries, instance_id, cid_base) -> None:
        commands = instantiate_entries(entries, self.worker_id, instance_id,
                                       cid_base, {})
        self.charge(self.costs.worker_instantiate_per_command * len(commands))
        self._enqueue_batch(commands, [(None, False, None)] * len(commands))

    def _enqueue_batch(self, commands, metas) -> None:
        """Register the whole batch, then resolve it.

        Registering first lets cached before sets reference *forward*
        indices within the batch (a migrated read-modify-write task's
        result RECV waits for an input SEND appended at a higher index,
        Fig. 6). The before sets are the complete intra-batch order, so the
        conflict tracker only adds dependencies on commands outside it.
        """
        batch = {cmd.cid for cmd in commands}
        for cmd, meta in zip(commands, metas):
            self._pending[cmd.cid] = cmd
            cmd._wmeta = meta
            if self._trace is not None:
                record = meta[2]
                self._trace.cmd_enqueue(
                    cmd.cid, cmd.kind, cmd.function, self.name,
                    record.block_seq if record is not None else None)
        for cmd in commands:
            self._resolve_outside(cmd, batch)

    def _resolve_outside(self, cmd, batch) -> None:
        cid = cmd.cid
        pending = self._pending
        last_writer = self._last_writer
        readers_since = self._readers_since
        deps = {dep for dep in cmd.before if dep != cid and dep in pending}
        for oid in cmd.read + cmd.write:
            writer = last_writer.get(oid)
            if writer in pending and writer != cid and writer not in batch:
                deps.add(writer)
        for oid in cmd.write:
            for reader in readers_since.get(oid, ()):
                if reader in pending and reader != cid and reader not in batch:
                    deps.add(reader)
        for oid in cmd.read:
            readers_since.setdefault(oid, []).append(cid)
        for oid in cmd.write:
            last_writer[oid] = cid
            readers_since[oid] = []
        remaining = len(deps)
        if cmd.kind == CommandKind.RECV and cmd.tag not in self._data_buffer:
            self._expected[cmd.tag] = cid
            remaining += 1
        cmd._rem = remaining
        for dep in deps:
            self._dependents.setdefault(dep, []).append(cid)
        if remaining == 0:
            if self._trace is not None:
                self._trace_release = self._advance_release
            self._on_ready(cmd)


def interpreted_workers():
    """Context manager: every cluster worker created inside it (autoscaler
    provisions included) is an :class:`InterpretedWorker`."""
    return mock.patch.object(cluster_mod, "Worker", InterpretedWorker)


class CrossCheckedWorker(Worker):
    """A worker that re-derives every compiled instantiation it runs.

    Right after each replay the plan is recompiled from the entry array
    (equal signatures, or the cached plan is stale — a missed
    invalidation), and every arena command is compared, field by field,
    with the command a fresh ``instantiate_entries`` build produces.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (entries, reports) of the plans being replayed, innermost last
        #: (a synchronous completion can start the next instance mid-sweep)
        self._sources = []
        self.instantiations_checked = 0

    def _start_instance(self, half, *args, **kwargs) -> None:
        self._sources.append((half.entries, half.reports))
        try:
            super()._start_instance(half, *args, **kwargs)
        finally:
            self._sources.pop()

    def _run_patch(self, patch_id, entries, instance_id, cid_base) -> None:
        self._sources.append((entries, ()))
        try:
            super()._run_patch(patch_id, entries, instance_id, cid_base)
        finally:
            self._sources.pop()

    def _run_compiled_plan(self, plan, cid_base, instance_id, params,
                           wm0, wm1):
        entries, reports = self._sources[-1]
        arena = super()._run_compiled_plan(plan, cid_base, instance_id,
                                           params, wm0, wm1)
        if compile_plan(entries, reports).signature() != plan.signature():
            raise AssertionError(
                "compiled plan is stale: recompiling the entry array "
                "produced a different plan (missing invalidation?)")
        ref = instantiate_entries(entries, self.worker_id, instance_id,
                                  cid_base, params)
        if len(ref) != plan.m:
            raise AssertionError(
                f"compiled plan has {plan.m} commands; interpreted "
                f"instantiation produced {len(ref)}")
        for i, want in enumerate(ref):
            got = arena.cmds[i]
            for field in ("cid", "kind", "read", "write", "function",
                          "params", "dst_worker", "src_worker", "tag",
                          "size_bytes"):
                g, w = getattr(got, field), getattr(want, field)
                if g != w:
                    raise AssertionError(
                        f"compiled command {i} (cid {got.cid}) differs from "
                        f"interpreted: {field}={g!r} != {w!r}")
        self.instantiations_checked += 1
        return arena


def cross_checked_workers():
    """Context manager: every cluster worker created inside it is a
    :class:`CrossCheckedWorker`."""
    return mock.patch.object(cluster_mod, "Worker", CrossCheckedWorker)


@contextlib.contextmanager
def checked_fused_hops():
    """Context manager: every clock claim ``Simulator.try_advance`` grants
    inside it is re-derived from the raw event queues.

    The unfused loop would schedule the next drain at the claimed time
    with the next sequence number; that event runs next iff no zero-delay
    work is pending, every heap entry is due strictly later (an entry *at*
    that time has a smaller seq and would run first), and the time is
    within the run's deadline. Yields a dict counting the claims checked.
    """
    real = Simulator.try_advance
    stats = {"claims": 0}

    def try_advance(sim, time):
        if not real(sim, time):
            return False
        heap = sim._heap
        until = sim._until
        if sim._now != time or sim._zero:
            raise AssertionError(
                "fused hop claimed the clock past pending zero-delay work")
        if heap and heap[0][0] <= time:
            raise AssertionError("fused hop would reorder pending events")
        if until is not None and time > until:
            raise AssertionError("fused hop crossed the run deadline")
        stats["claims"] += 1
        return True

    with mock.patch.object(Simulator, "try_advance", try_advance):
        yield stats


@contextlib.contextmanager
def checked_validation():
    """Context manager: every ``full_validate`` the controller performs
    inside it is compared with :func:`brute_force_validate`.

    Yields a dict counting the validations that took the incremental path
    (a cached pass against the same directory).
    """
    real = controller_mod.full_validate
    stats = {"incremental": 0}

    def full_validate(template_set, directory):
        cache = template_set.validation_cache
        incremental = cache is not None and cache[0] == directory.token
        violations = real(template_set, directory)
        reference = brute_force_validate(template_set, directory)
        if violations != reference:
            raise AssertionError(
                f"incremental validation diverged for template "
                f"{template_set.key}: incremental={violations} "
                f"brute-force={reference}")
        stats["incremental"] += incremental
        return violations

    with mock.patch.object(controller_mod, "full_validate", full_validate):
        yield stats


class _Rate(float):
    """A cost-model rate that keeps its field name through scaling."""

    def __new__(cls, value, name):
        rate = super().__new__(cls, value)
        rate.name = name
        return rate

    def __mul__(self, other):
        return _Rate(float(self) * other, self.name)

    __rmul__ = __mul__


@contextlib.contextmanager
def charge_spy():
    """Context manager: file every ``Actor.charge`` under its actor and rate.

    Yields ``(costs, ledger)``. Build clusters with ``costs``: the paper
    model with every time rate replaced by a float that remembers its
    field name through multiplication, so virtual results are unchanged.
    ``ledger[(actor_name, rate_name)]`` is ``[seconds, calls]``; a charge
    not scaled from a rate is filed under ``None``. Charges accumulated
    without ``Actor.charge`` (the central dispatch loop, worker
    completions) are not seen.
    """
    costs = CostModel(**{
        f.name: _Rate(getattr(PAPER_COSTS, f.name), f.name)
        for f in fields(CostModel)
        if isinstance(getattr(PAPER_COSTS, f.name), float)
        and f.name != "storage_bandwidth"  # a divisor, not a charge
    })
    ledger = defaultdict(lambda: [0.0, 0])
    real = Actor.charge

    def charge(actor, seconds):
        entry = ledger[(actor.name, getattr(seconds, "name", None))]
        entry[0] += seconds
        entry[1] += 1
        real(actor, seconds)

    with mock.patch.object(Actor, "charge", charge):
        yield costs, ledger


@contextlib.contextmanager
def recorded_grants():
    """Context manager: record every self-schedule window a worker opens.

    Yields ``worker_id -> [(window_id, version, epoch, instances)]`` in
    opening order, with ``instances`` the tuple of ``(instance_id,
    cid_base, block_seq, params)`` the worker runs. A window is opened
    when the worker creates its grant state; a window parked behind the
    causal barrier counts once, when it is replayed, and a redelivery
    never counts.
    """
    opened = defaultdict(list)
    opening = []
    real_open = Worker._on_self_schedule

    class RecordedGrant(worker_mod._WorkerGrant):
        def __init__(self, key, block_id, version, half, instances, epoch,
                     **kwargs):
            super().__init__(key, block_id, version, half, instances, epoch,
                             **kwargs)
            opened[opening[-1]].append(
                (key[1], version, epoch, tuple(instances)))

    def on_self_schedule(worker, msg):
        opening.append(worker.worker_id)
        try:
            real_open(worker, msg)
        finally:
            opening.pop()

    with mock.patch.object(worker_mod, "_WorkerGrant", RecordedGrant), \
            mock.patch.object(Worker, "_on_self_schedule", on_self_schedule):
        yield opened
