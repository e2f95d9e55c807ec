"""Controller shards: the sharded control plane's per-task tier (§16).

A :class:`ControllerShard` owns a fixed slice of the worker set
(``worker_id % num_shards``) and that slice's O(tasks) steady-state
control work. Per self-schedule window the coordinator ships one
:class:`~repro.nimbus.protocol.ShardWindow` per shard: the window's
instance list, each with one contiguous command-id range, plus every
owned worker's id offset. The shard builds each worker's
``SelfScheduleWindow`` (``cid_base + offset``, the ids a per-worker
allocation would have handed out) and charges the grant and fill rates
for that worker's tasks. On the way back it charges and folds its
workers' ``WindowSummary`` rows into one
:class:`~repro.nimbus.protocol.WindowFold` per message, which the
coordinator consumes without touching a row.

Every *decision* stays on the coordinator: validation, the directory
delta, run/instance/id-range allocation, ``pm_epoch``, re-grants and
aborts (DESIGN.md §16 explains why bit-identity forces this split).
Shards with no traffic schedule no events, so a shard vanishes from the
protocol when no sharded job is running.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..sim.actor import Actor
from ..sim.metrics import Metrics
from .costs import CostModel
from . import protocol as P


class _ShardWindowState:
    """One window's fan-in bookkeeping on one shard."""

    __slots__ = ("expected", "fold")

    def __init__(self) -> None:
        self.expected: Set[int] = set()
        self.fold = P.WindowFold()


class ControllerShard(P.ReliableEndpoint, Actor):
    """One shard of the sharded control plane.

    Holds a reference to the coordinator (for the worker directory and
    the summary return path) but never mutates coordinator state — all
    communication is by message, over the same reliable channels the
    rest of the control plane uses.
    """

    def __init__(self, sim, shard_id: int, controller, costs: CostModel,
                 metrics: Metrics):
        super().__init__(sim, f"shard-{shard_id}")
        self._init_reliable(metrics)
        self.shard_id = shard_id
        self.controller = controller
        self.costs = costs
        self.metrics = metrics
        #: (job_id, window_id) -> fan-in state for windows in flight
        self._windows: Dict[Tuple[int, int], _ShardWindowState] = {}
        self.windows_relayed = 0
        self.summaries_folded = 0

    # ------------------------------------------------------------------
    def handle(self, msg) -> None:
        if isinstance(msg, P.WindowSummary):
            self._on_summary(msg)
        elif isinstance(msg, P.ShardWindow):
            self._on_window(msg)
        elif isinstance(msg, P.ShardRegrant):
            self._on_regrant(msg)
        elif isinstance(msg, P.ShardAbort):
            self._on_abort(msg)
        else:
            raise TypeError(f"shard-{self.shard_id}: unexpected {msg!r}")

    # ------------------------------------------------------------------
    def _on_window(self, msg: P.ShardWindow) -> None:
        """Build and send this shard's workers' windows.

        Each worker's window is the shared instance list with the
        worker's id offset applied. The worker-template fill and the
        per-instance grant work for the worker's tasks are charged here,
        worker by worker, so each window departs as soon as its own slice
        is paid for — N shards fill in parallel where the decentralized
        coordinator serialized the whole window.
        """
        state = _ShardWindowState()
        self._windows[(msg.job_id, msg.window_id)] = state
        costs = self.costs
        workers = self.controller.workers
        for worker_id, offset, entries, tasks, barrier_seq, edits in (
                msg.workers):
            self.charge(costs.instantiate_worker_template_auto_per_task
                        * tasks)
            self.charge(costs.self_schedule_grant_per_task * tasks
                        * len(msg.instances))
            state.expected.add(worker_id)
            window = P.SelfScheduleWindow.for_worker(
                msg.window_id, msg.block_id, msg.version, msg.epoch,
                msg.instances, offset, entries, job_id=msg.job_id,
                edits=edits, reply_to=self.name, barrier_seq=barrier_seq)
            self.send_reliable(workers[worker_id], window)
        self.windows_relayed += 1

    def _on_regrant(self, msg: P.ShardRegrant) -> None:
        """Relay a stalled worker's re-granted remainder.

        The coordinator built the remainder (its ids were paid for at
        grant time), so relaying costs one message handling. The worker
        stayed in ``expected`` when its stalled summary was forwarded, so
        no fan-in state changes here. A missing window means the job was
        released (or the window aborted) between stall and re-grant —
        drop it; the worker never sees the grant and the coordinator's
        abort already cleaned up.
        """
        window = msg.window
        state = self._windows.get((msg.job_id, window.window_id))
        if state is None or msg.worker_id not in state.expected:
            self.metrics.incr("shard.orphan_regrants")
            return
        self.charge(self.costs.message_handling)
        self.send_reliable(self.controller.workers[msg.worker_id], window)

    def _on_summary(self, msg: P.WindowSummary) -> None:
        """Fold one worker's summary into the window's aggregate.

        The shard pays what the decentralized coordinator pays per direct
        summary: one coarse completion plus one fold per row. Stalled
        summaries are folded alone and forwarded immediately (the
        re-grant must not wait for the shard's other workers) and the
        worker stays expected. Completed summaries accumulate until the
        shard's whole slice has reported, then travel as one message.
        """
        key = (msg.job_id, msg.window_id)
        state = self._windows.get(key)
        if state is None or msg.worker_id not in state.expected:
            self.metrics.incr("shard.orphan_summaries")
            return
        self.charge(self.costs.controller_block_completion)
        for _row in msg.rows:
            self.charge(self.costs.controller_completion_per_task)
        self.summaries_folded += 1
        if msg.stalled:
            fold = P.WindowFold()
            fold.add(msg)
            self.send_reliable(self.controller, P.ShardWindowSummary(
                self.shard_id, msg.window_id, fold, job_id=msg.job_id))
            return
        state.expected.discard(msg.worker_id)
        state.fold.add(msg)
        if not state.expected:
            del self._windows[key]
            self.send_reliable(self.controller, P.ShardWindowSummary(
                self.shard_id, msg.window_id, state.fold,
                job_id=msg.job_id))

    def _on_abort(self, msg: P.ShardAbort) -> None:
        if msg.window_id is None:
            keys = [k for k in self._windows if k[0] == msg.job_id]
        else:
            key = (msg.job_id, msg.window_id)
            keys = [key] if key in self._windows else []
        for key in keys:
            del self._windows[key]
            self.metrics.incr("shard.aborted_windows")

    def outstanding_windows(self) -> int:
        return len(self._windows)


def default_shard_count(num_workers: int) -> int:
    """sqrt scaling, clamped to [2, 16]: 4 workers → 2 shards, 100 → 10,
    1000 → 16. Square root balances coordinator fan-out (S messages)
    against per-shard fan-out (W/S messages)."""
    import math

    return min(16, max(2, math.isqrt(max(1, num_workers))))
