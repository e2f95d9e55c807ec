"""Compiled execution plans for worker-template halves.

The paper's thesis is that repeated control-plane decisions should be made
once and replayed cheaply. Rebuilding a template instance from its entry
array would still pay full object churn per instantiation: one fresh
:class:`Command` per entry, dict registration, and per-edge dependency
resolution. This module extends the caching one level down, from
*decisions* to the *dispatch data structures*:

* :func:`compile_plan` turns a worker half's entry array into a
  struct-of-arrays :class:`CompiledPlan` — flat arrays of initial
  dependency counts, a CSR successor adjacency (offsets + targets),
  precomputed send/recv tag ingredients, parameter slots, and the *net*
  effect of the batch on the worker's object-conflict tracker;
* :class:`CommandArena` is a pooled array of :class:`Command` objects
  matching the plan. Instantiating a template rewrites only the
  per-instance fields (cid, tag, params, scheduling state) in place; the
  static fields (kind, read/write sets, function, destination) are written
  once when the arena is built. Arenas are pooled per plan because the
  driver pipelines instances, so several instances of the same block can
  be in flight on a worker at once.

Plans are the worker's only way to run a template instance or a patch.
Their semantics are pinned by two test-only oracles (``tests/oracle.py``):
one rebuilds every instance through ``instantiate_entries`` and resolves
it in two passes, and virtual results (iteration times, decision
counters, chaos snapshots) must be bit-identical; the other re-derives
every compiled instantiation through ``instantiate_entries`` and compares
it field by field, recompiling the plan to catch stale-plan-after-edit
bugs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..nimbus.commands import Command, CommandKind


class CommandArena:
    """A reusable array of Command objects for one compiled plan.

    ``sweep_pos`` is the index the owning worker's resolution sweep has
    reached for the instance currently occupying the arena; successors at
    positions not yet swept must not be decremented directly (their
    dependency counts are not initialized yet) — completions during the
    sweep park adjustments in ``early`` instead, and the sweep subtracts
    them when it reaches the position. ``outstanding`` counts commands not
    yet completed; the arena returns to its plan's pool at zero.
    """

    __slots__ = ("plan", "cmds", "sweep_pos", "early", "outstanding")

    def __init__(self, plan: "CompiledPlan", cmds: List[Command]):
        self.plan = plan
        self.cmds = cmds
        self.sweep_pos = -1
        self.early: Dict[int, int] = {}
        self.outstanding = 0

    def release(self) -> None:
        self.early.clear()
        self.outstanding = 0
        self.plan.pool.append(self)


class CompiledPlan:
    """Struct-of-arrays execution plan for one worker half's entry array.

    All arrays are indexed by *batch position* (live entries in entry
    order); ``index[pos]`` maps back to the original entry index, which is
    what command ids are based on (tombstoned indices stay reserved).
    """

    __slots__ = (
        "live", "reports", "m", "index", "kinds", "recv_flags",
        "init_before", "before_pos", "succ_offsets", "succ_targets",
        "sends", "recvs", "param_slots", "report_flags", "report_positions",
        "ext_checks", "writes_final", "readers_reset", "readers_append",
        "rows", "pool",
    )

    def __init__(self) -> None:
        self.pool: List[CommandArena] = []

    # ------------------------------------------------------------------
    # Arena pooling
    # ------------------------------------------------------------------
    def acquire(self, worker_id: int, registry=None) -> CommandArena:
        pool = self.pool
        if pool:
            arena = pool.pop()
        else:
            arena = self._build_arena(worker_id, registry)
        arena.sweep_pos = -1
        arena.outstanding = self.m
        return arena

    def _build_arena(self, worker_id: int, registry) -> CommandArena:
        cmds: List[Command] = []
        for e in self.live:
            cmd = Command(
                -1, e.kind, worker_id, read=e.read, write=e.write,
                function=e.function, dst_worker=e.dst_worker,
                src_worker=e.src_worker, size_bytes=e.size_bytes,
            )
            cmds.append(cmd)
        arena = CommandArena(self, cmds)
        offsets, targets = self.succ_offsets, self.succ_targets
        for pos, cmd in enumerate(cmds):
            cmd._cpos = pos
            cmd._carena = arena
            cmd._csucc = [cmds[t] for t in targets[offsets[pos]:offsets[pos + 1]]]
            if registry is not None and cmd.kind == CommandKind.TASK:
                try:
                    cmd._cfn = registry.get(cmd.function)
                except KeyError:
                    pass
        return arena

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Small summary dict (trace labels, debugging) — no entry data."""
        return {
            "commands": self.m,
            "sends": len(self.sends),
            "recvs": len(self.recvs),
            "reports": len(self.report_positions),
            "param_slots": len(self.param_slots),
            "ext_checks": len(self.ext_checks),
        }

    # ------------------------------------------------------------------
    # Cross-check support
    # ------------------------------------------------------------------
    def signature(self) -> Tuple:
        """Everything derived from the entry array, as plain values —
        equal signatures mean the plan matches the (possibly re-edited)
        entries it claims to represent."""
        return (
            self.m, tuple(self.index), tuple(self.kinds),
            tuple(self.recv_flags), tuple(self.init_before),
            tuple(self.before_pos), tuple(self.succ_offsets),
            tuple(self.succ_targets), tuple(self.sends), tuple(self.recvs),
            tuple(self.param_slots), tuple(self.report_flags),
            tuple(self.report_positions), tuple(self.ext_checks),
            tuple(self.writes_final), tuple(self.readers_reset),
            tuple(self.readers_append),
        )


def compile_plan(entries: List[Optional[Any]], reports) -> CompiledPlan:
    """Compile a worker half's entry array into a :class:`CompiledPlan`.

    The compilation simulates a per-command resolution sweep over the
    batch symbolically: which before-set edges survive tombstoning, which
    read/write accesses face *pre-batch* state (and therefore need the
    runtime conflict tracker consulted), and what net update the batch
    applies to the tracker (intra-batch churn collapses to the final
    writer plus the trailing readers of each object).
    """
    plan = CompiledPlan()
    live = [e for e in entries if e is not None]
    m = len(live)
    plan.live = live
    plan.reports = frozenset(reports)
    plan.m = m
    pos_of: Dict[int, int] = {}
    for pos, e in enumerate(live):
        pos_of[e.index] = pos
    plan.index = [e.index for e in live]
    plan.kinds = [e.kind for e in live]
    plan.recv_flags = [e.kind == CommandKind.RECV for e in live]

    # --- before-set edges (intra-batch dependency graph, CSR) ---------
    before_pos: List[Tuple[int, ...]] = []
    for pos, e in enumerate(live):
        deps: List[int] = []
        seen = set()
        for j in e.before:
            p = pos_of.get(j)
            if p is not None and p != pos and p not in seen:
                seen.add(p)
                deps.append(p)
        before_pos.append(tuple(deps))
    plan.before_pos = before_pos
    plan.init_before = [len(d) for d in before_pos]
    counts = [0] * m
    for deps in before_pos:
        for p in deps:
            counts[p] += 1
    offsets = [0] * (m + 1)
    for p in range(m):
        offsets[p + 1] = offsets[p] + counts[p]
    targets = [0] * offsets[m]
    fill = offsets[:m]
    # dependents are appended in resolution (position) order, matching the
    # order a per-command resolution builds its dependents lists in
    for pos, deps in enumerate(before_pos):
        for p in deps:
            targets[fill[p]] = pos
            fill[p] += 1
    plan.succ_offsets = offsets
    plan.succ_targets = targets

    # --- per-kind instantiation data ----------------------------------
    plan.sends = [
        (pos, e.dst_worker, e.dst_index)
        for pos, e in enumerate(live) if e.kind == CommandKind.SEND
    ]
    plan.recvs = [
        (pos, e.index)
        for pos, e in enumerate(live) if e.kind == CommandKind.RECV
    ]
    plan.param_slots = [
        (pos, e.param_slot)
        for pos, e in enumerate(live)
        if e.kind == CommandKind.TASK and e.param_slot
    ]
    plan.report_flags = [e.index in plan.reports for e in live]
    plan.report_positions = [
        pos for pos, flag in enumerate(plan.report_flags) if flag
    ]

    # --- external (cross-batch) conflict checks -----------------------
    # Only accesses that face pre-batch tracker state need runtime checks:
    # reads before the first in-batch write of their object, and the first
    # in-batch write of each object (later writes see in-batch state,
    # which the batch's own before sets already order completely).
    ext_checks: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
    written: set = set()
    readers: Dict[int, List[int]] = {}
    final_writer_pos: Dict[int, int] = {}
    for pos, e in enumerate(live):
        roids: List[int] = []
        woids: List[int] = []
        for oid in e.read:
            if oid not in written and oid not in roids:
                roids.append(oid)
        for oid in e.write:
            if oid not in written and oid not in woids:
                woids.append(oid)
        if roids or woids:
            ext_checks.append((pos, tuple(roids), tuple(woids)))
        for oid in e.read:
            lst = readers.get(oid)
            if lst is None:
                readers[oid] = [pos]
            else:
                lst.append(pos)
        for oid in e.write:
            written.add(oid)
            final_writer_pos[oid] = pos
            readers[oid] = []
    plan.ext_checks = ext_checks

    # --- net conflict-tracker update ----------------------------------
    plan.writes_final = list(final_writer_pos.items())
    plan.readers_reset = [
        (oid, tuple(readers[oid])) for oid in final_writer_pos
    ]
    plan.readers_append = [
        (oid, tuple(lst)) for oid, lst in readers.items()
        if oid not in written and lst
    ]
    # fused per-position row for the runtime sweep: one list index + unpack
    # instead of four parallel-array loads per command
    plan.rows = list(zip(plan.index, plan.report_flags, plan.init_before,
                         plan.recv_flags))
    return plan
