"""Test-only oracle for the worker's compiled execution plans.

The runtime worker runs every template instance and patch by replaying a
compiled plan (``repro.core.compiled``). :class:`InterpretedWorker` is the
straightforward reading of the same protocol: it rebuilds fresh commands
from the entry array through ``instantiate_entries`` and resolves them in
two passes against the worker's dict-based conflict tracker. Running a
cluster under :func:`interpreted_workers` and comparing its observables
with a normal run proves the plans are semantics-preserving.
"""

from __future__ import annotations

from unittest import mock

from repro.core.worker_template import instantiate_entries
from repro.nimbus import cluster as cluster_mod
from repro.nimbus.commands import CommandKind
from repro.nimbus.worker import Worker, _InstanceRecord


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
