"""Edits: in-place modification of installed worker templates (§2.3, §4.3).

An edit adds or removes tasks in an existing worker template. Edits ride as
metadata on the next instantiation message and mutate the cached template
*persistently* on both halves, so the cost of a scheduling change scales
with the size of the change rather than the size of the template.

Task migration (Figure 6) is the canonical edit: the task's slot on the
source worker is replaced by the RECV of its result — keeping the same
index inside the command-identifier array, so no other entry's before set
changes — and the task plus its input RECVs and result SEND are appended to
the destination worker.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..nimbus.commands import CommandKind
from .worker_template import TemplateEntry, WorkerTemplateSet


class MigrationError(ValueError):
    """Raised when a task cannot be migrated with a template edit."""


class EditOp:
    """One edit primitive applied to a worker half's entry array."""

    REPLACE = "replace"
    APPEND = "append"
    REMOVE = "remove"

    __slots__ = ("op", "index", "entry")

    def __init__(self, op: str, index: int,
                 entry: Optional[TemplateEntry] = None):
        self.op = op
        self.index = index
        self.entry = entry

    def clone(self) -> "EditOp":
        """Deep-enough copy for applying the op to a second entry array
        (the worker half) without sharing TemplateEntry objects with the
        first (the controller half)."""
        entry = self.entry.clone() if self.entry is not None else None
        return EditOp(self.op, self.index, entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EditOp {self.op} @{self.index}>"


def apply_edits(entries: List[Optional[TemplateEntry]],
                ops: List[EditOp]) -> None:
    """Apply edit ops to an entry array, in order. Mutates ``entries``."""
    for op in ops:
        if op.op == EditOp.REPLACE:
            if entries[op.index] is None:
                raise ValueError(f"replacing tombstoned entry {op.index}")
            op.entry.index = op.index
            entries[op.index] = op.entry
        elif op.op == EditOp.APPEND:
            if op.entry.index != len(entries):
                raise ValueError(
                    f"append index {op.entry.index} != array length {len(entries)}"
                )
            entries.append(op.entry)
        elif op.op == EditOp.REMOVE:
            entries[op.index] = None
        else:
            raise ValueError(f"unknown edit op {op.op!r}")


def _provider_of(entries: List[Optional[TemplateEntry]], upto: int,
                 oid: int) -> Optional[int]:
    """Local index of the entry providing the current version of ``oid``
    at position ``upto`` (None = precondition-fresh)."""
    for i in range(upto - 1, -1, -1):
        entry = entries[i]
        if entry is not None and oid in entry.write:
            return i
    return None


def _sole_reader(entries: List[Optional[TemplateEntry]], reader_idx: int,
                 oid: int) -> bool:
    """True when no entry other than ``reader_idx`` reads or writes ``oid``."""
    for i, entry in enumerate(entries):
        if i == reader_idx or entry is None:
            continue
        if oid in entry.read or oid in entry.write:
            return False
    return True


def migration_conflict(
    template_set: WorkerTemplateSet,
    ct_index: int,
    dst: int,
) -> Optional[str]:
    """Non-mutating feasibility check for migrating ``ct_index`` to ``dst``.

    Mirrors the validation :func:`plan_migration` performs without touching
    the template set. ``plan_migration`` mutates the controller half
    immediately, so callers batching speculative moves (the adaptive
    rebalancer) must filter candidates *before* committing — a mid-batch
    :class:`MigrationError` would leave the halves inconsistent. Returns
    ``None`` when the move is safe, else a human-readable reason.
    """
    location = template_set.task_locations.get(ct_index)
    if location is None:
        return f"no task with controller index {ct_index}"
    src, src_idx = location
    if src == dst:
        return "task already on destination"
    src_entries = template_set.entries[src]
    task = src_entries[src_idx]
    if task is None or task.kind != CommandKind.TASK:
        return f"entry {src_idx} on worker {src} is not a task"
    if len(task.write) != 1:
        return f"task writes {task.write}; only single-write tasks migrate"
    dst_preconds = template_set.preconditions.get(dst, frozenset())
    touched = set(task.write)
    for oid in task.read:
        pre_block = _provider_of(src_entries, src_idx, oid) is None
        if pre_block and oid in dst_preconds:
            continue  # shared read: no copy, no conflict surface
        touched.add(oid)
    for entry in template_set.entries.get(dst, []):
        if entry is not None and touched & (set(entry.read) | set(entry.write)):
            return (f"destination worker {dst} already touches objects "
                    f"{sorted(touched & (set(entry.read) | set(entry.write)))}")
    return None


def plan_migration(
    template_set: WorkerTemplateSet,
    ct_index: int,
    dst: int,
    object_sizes: Dict[int, int],
) -> Dict[int, List[EditOp]]:
    """Plan the edits migrating the task with controller-template index
    ``ct_index`` to worker ``dst`` (Figure 6).

    Mutates the controller half (``template_set``) immediately and returns
    the per-worker edit ops to attach to the next instantiation messages.
    The template's external contract — preconditions and directory delta —
    is preserved: inputs are shipped from their original location each
    instantiation and the result is shipped back, so validation state stays
    clean and downstream templates are unaffected.
    """
    location = template_set.task_locations.get(ct_index)
    if location is None:
        raise MigrationError(f"no task with controller index {ct_index}")
    src, src_idx = location
    if src == dst:
        return {}
    src_entries = template_set.entries[src]
    task = src_entries[src_idx]
    if task is None or task.kind != CommandKind.TASK:
        raise MigrationError(f"entry {src_idx} on worker {src} is not a task")
    if len(task.write) != 1:
        raise MigrationError(
            "edit-based migration supports single-write tasks; "
            f"task writes {task.write}"
        )
    result_oid = task.write[0]
    dst_entries = template_set.entries.setdefault(dst, [])

    # Classify the task's inputs:
    # * shared reads — preconditions on the destination too (e.g. the model
    #   coefficients every gradient task reads): no copy needed, the
    #   destination already holds the pre-block version;
    # * relocatable reads — pre-block objects this task is the *sole*
    #   reader of (its training-data partition): the object's home moves
    #   with the task, a one-time data transfer the caller performs,
    #   instead of re-shipping the input every instantiation;
    # * copied reads — everything else ships per instantiation (Fig. 6 S1).
    dst_preconds = template_set.preconditions.get(dst, frozenset())
    shared_reads = []
    relocated_reads = []
    copy_reads = []
    for oid in task.read:
        pre_block = _provider_of(src_entries, src_idx, oid) is None
        if pre_block and oid in dst_preconds:
            shared_reads.append(oid)
        elif pre_block and _sole_reader(src_entries, src_idx, oid):
            relocated_reads.append(oid)
        else:
            copy_reads.append(oid)

    touched = set(copy_reads) | set(relocated_reads) | set(task.write)
    for entry in dst_entries:
        if entry is not None and touched & (set(entry.read) | set(entry.write)):
            raise MigrationError(
                f"destination worker {dst} already touches objects {touched}"
            )

    ops: Dict[int, List[EditOp]] = {src: [], dst: []}

    # Is the migrated task the *final* writer of its result on the source?
    # Only then does the copied-back result leave the destination holding
    # the block's final version (checked before the entry array mutates).
    final_local_provider = _provider_of(src_entries, len(src_entries),
                                        result_oid)
    task_writes_final = final_local_provider == src_idx

    # Input copies: S1 on src (appended), R1 on dst (appended).
    input_recv_indices: List[int] = []
    input_send_indices: List[int] = []
    next_dst = len(dst_entries)
    next_src = len(src_entries)
    for oid in copy_reads:
        provider = _provider_of(src_entries, src_idx, oid)
        size = object_sizes.get(oid, 0)
        recv_index = next_dst
        send = TemplateEntry(
            index=next_src, kind=CommandKind.SEND, read=(oid,),
            before=(provider,) if provider is not None else (),
            dst_worker=dst, dst_index=recv_index, size_bytes=size,
        )
        ops[src].append(EditOp(EditOp.APPEND, next_src, send))
        input_send_indices.append(next_src)
        next_src += 1
        recv = TemplateEntry(
            index=recv_index, kind=CommandKind.RECV, write=(oid,),
            src_worker=src, size_bytes=size,
        )
        ops[dst].append(EditOp(EditOp.APPEND, recv_index, recv))
        input_recv_indices.append(recv_index)
        next_dst += 1

    # The task itself, on the destination. Relocated inputs are read
    # locally (they become preconditions of the destination).
    task_index = next_dst
    migrated = task.clone()
    migrated.index = task_index
    migrated.before = tuple(input_recv_indices)
    migrated.report = False
    ops[dst].append(EditOp(EditOp.APPEND, task_index, migrated))
    next_dst += 1

    # Anti-dependencies for the shared (uncopied) inputs: any destination
    # entry that overwrites such an object — e.g. the postcondition-closure
    # RECV of the model coefficients — must now wait until the migrated
    # task has read the pre-block version. The reference points *forward*
    # in the index array (compiled plans resolve the whole batch at once).
    for shared_oid in shared_reads:
        for k, entry in enumerate(dst_entries):
            if entry is not None and shared_oid in entry.write:
                guarded = entry.clone()
                guarded.before = tuple(entry.before) + (task_index,)
                ops[dst].append(EditOp(EditOp.REPLACE, k, guarded))

    # Result copy back: S2 on dst, R2 replacing the task's slot on src so
    # the task's dependents (which name this index in their before sets)
    # transparently depend on the received result instead.
    result_size = object_sizes.get(result_oid, 0)
    send_back = TemplateEntry(
        index=next_dst, kind=CommandKind.SEND, read=(result_oid,),
        before=(task_index,), dst_worker=src, dst_index=src_idx,
        size_bytes=result_size,
    )
    ops[dst].append(EditOp(EditOp.APPEND, next_dst, send_back))
    # the result RECV overwrites the task's slot; it must not land before
    # the input SENDs have read the old values (a read-modify-write task's
    # input and result are the same object). These before references point
    # *forward* in the index array — workers resolve instantiation batches
    # in two passes to support exactly this.
    recv_back = TemplateEntry(
        index=src_idx, kind=CommandKind.RECV, write=(result_oid,),
        before=tuple(task.before) + tuple(input_send_indices),
        src_worker=dst, size_bytes=result_size,
        report=task.report,
    )
    ops[src].append(EditOp(EditOp.REPLACE, src_idx, recv_back))

    # Mirror onto the controller half.
    apply_edits(src_entries, ops[src])
    apply_edits(dst_entries, ops[dst])
    template_set.task_locations[ct_index] = (dst, task_index)

    # The result also resides on the destination after the block — but
    # only if no later entry overwrites it on the source (otherwise the
    # destination's copy is an intermediate version, not the final one).
    holders = template_set.delta.final_holders.get(result_oid)
    if holders is not None and src in holders and task_writes_final:
        template_set.delta.final_holders[result_oid] = holders | {dst}

    # Precondition updates for relocated inputs: required at the
    # destination from now on, and no longer at the source (the task was
    # the sole reader there). The caller must move the data itself.
    if relocated_reads:
        template_set.preconditions[src] = (
            template_set.preconditions.get(src, frozenset())
            - frozenset(relocated_reads))
        template_set.preconditions[dst] = (
            template_set.preconditions.get(dst, frozenset())
            | frozenset(relocated_reads))
    template_set.last_relocations = list(relocated_reads)
    return ops


def plan_migrations(
    template_set: WorkerTemplateSet,
    moves: List[Tuple[int, int]],
    object_sizes: Dict[int, int],
) -> Tuple[Dict[int, List[EditOp]], int, List[Tuple[int, int]]]:
    """Plan a batch of (ct_index, dst) migrations.

    Returns the merged per-worker edit lists, the total number of edit
    operations (the unit Table 3 prices at 41 µs each), and the list of
    (oid, dst) input relocations the caller must perform (one-time data
    moves for sole-reader inputs).
    """
    merged: Dict[int, List[EditOp]] = {}
    total_ops = 0
    relocations: List[Tuple[int, int]] = []
    for ct_index, dst in moves:
        ops = plan_migration(template_set, ct_index, dst, object_sizes)
        for worker, lst in ops.items():
            merged.setdefault(worker, []).extend(lst)
            total_ops += len(lst)
        relocations.extend(
            (oid, dst) for oid in template_set.last_relocations)
    return merged, total_ops, relocations
