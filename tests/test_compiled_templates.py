"""Compiled-plan equivalence: the compiled worker execution path is invisible.

The worker runs every template instance and patch by replaying a compiled
plan (``repro.core.compiled``): pooled command arenas instead of fresh
commands per instantiation. It must be *semantics-preserving by
construction*: every run — fault-free, under chaos, or with mid-run
edits/migration, in every scheduling mode — produces bit-identical virtual
results to the test-only interpreted oracle (``tests/oracle.py``). These
tests sweep 20 seeds of randomized programs through both and compare
everything observable: the full metrics counter snapshot, virtual end
time, events run, and the final value of every data object.
"""

import itertools

import pytest

from repro.apps import LRApp, LRSpec
from repro.chaos import PROFILES, FaultPlan
from repro.nimbus import NimbusCluster
from repro.nimbus import protocol as P

from .helpers import (
    assert_identical as _assert_identical,
    cluster_observables,
    combine_program,
    combine_registry,
    worker_values,
)
from .oracle import (
    CrossCheckedWorker,
    InterpretedWorker,
    cross_checked_workers,
    interpreted_workers,
)

NUM_OBJECTS = 8
OIDS = list(range(1, NUM_OBJECTS + 1))
SEEDS = range(20)
MODES = ("centralized", "decentralized", "sharded")
#: (mode, blocking) pairs every sweep runs: the blocking driver on the
#: centralized control plane, then posted programs in each mode
VARIANTS = [("centralized", True)] + [(mode, False) for mode in MODES]


def _finish(build, oracle):
    """Build a cluster and run it to completion, on the oracle if asked.

    Compiled runs replay on :class:`CrossCheckedWorker`, which re-derives
    every instantiation field by field. Checks the run really took the
    path it claims: every worker of an oracle run is an
    :class:`InterpretedWorker` and compiles no plan.
    """
    with interpreted_workers() if oracle else cross_checked_workers():
        cluster = build()
        cluster.run_until_finished(max_seconds=1e6)
    workers = cluster.workers.values()
    assert all(isinstance(w, InterpretedWorker) == oracle for w in workers)
    if oracle:
        assert sum(w.plans_compiled for w in workers) == 0
    else:
        assert all(isinstance(w, CrossCheckedWorker) for w in workers)
    return cluster


def _run(seed, oracle, mode="centralized", blocking=True,
         chaos_profile=None, num_workers=3):
    """One randomized combine program (:func:`combine_program`) to
    completion."""
    kwargs = {}
    if chaos_profile is not None:
        kwargs["chaos_plan"] = FaultPlan.from_profile(chaos_profile,
                                                      seed=seed)
    cluster = _finish(
        lambda: NimbusCluster(num_workers,
                              combine_program(seed, OIDS, blocking),
                              registry=combine_registry(), mode=mode,
                              **kwargs),
        oracle)
    return cluster_observables(cluster, OIDS)


def _sweep(*axes):
    """pytest params: every combination of ``axes`` in every variant (the
    blocking variant keeps the bare id)."""
    cases = []
    for values in itertools.product(*axes):
        label = "-".join(str(v) for v in values)
        for mode, blocking in VARIANTS:
            cases.append(pytest.param(
                *values, mode, blocking,
                id=label if blocking else f"{label}-{mode}-posted"))
    return cases


@pytest.mark.parametrize("seed,mode,blocking", _sweep(SEEDS))
def test_compiled_matches_interpreted(seed, mode, blocking):
    _assert_identical(_run(seed, False, mode, blocking),
                      _run(seed, True, mode, blocking),
                      f"seed {seed} mode {mode} blocking {blocking}")


@pytest.mark.parametrize("seed,profile,mode,blocking",
                         _sweep([3, 11], sorted(PROFILES)))
def test_compiled_matches_interpreted_under_chaos(seed, profile, mode,
                                                  blocking):
    _assert_identical(
        _run(seed, False, mode, blocking, chaos_profile=profile),
        _run(seed, True, mode, blocking, chaos_profile=profile),
        f"seed {seed} profile {profile} mode {mode} blocking {blocking}",
    )


def test_cross_checked_worker_checks_every_instantiation():
    """Every compiled run in these sweeps replays on
    :class:`CrossCheckedWorker`, which checks each template instance and
    patch it runs; prove the check really fires in every variant."""
    for mode, blocking in VARIANTS:
        cluster = _finish(
            lambda: NimbusCluster(3, combine_program(9, OIDS, blocking),
                                  registry=combine_registry(), mode=mode),
            oracle=False)
        checked = sum(w.instantiations_checked
                      for w in cluster.workers.values())
        assert checked > 0, f"mode {mode}: no instantiation was checked"


# ---------------------------------------------------------------------------
# The fig10 path: mid-run migration edits the installed templates; the
# compiled plans must be invalidated, recompiled, and still bit-identical.
# ---------------------------------------------------------------------------
def _run_lr_with_migrations(oracle=False, mode="centralized", num_workers=4,
                            iterations=15):
    spec = LRSpec(num_workers=num_workers, iterations=iterations)
    app = LRApp(spec)
    box = {}
    state = {"round": 0}

    def migrate(controller):
        if controller.jobs[0].policy.outstanding_grants():
            # self-scheduling modes move the partition map only at a
            # window boundary: retry until the grant in flight drains
            controller.sim.schedule(1e-3, controller.deliver,
                                    P.ManagerDirective(migrate))
            return
        offset = state["round"]
        state["round"] += 1
        moves = [(offset % spec.num_partitions,
                  (offset + num_workers // 2) % num_workers)]
        controller.migrate_tasks("lr.iteration", moves)

    def program(job):
        yield job.define(app.variables.definitions)
        yield job.run(app.init_block)
        params = {"step": spec.step_size}
        for _ in range(6):  # past warm-up (3): templates are installed
            yield job.run(app.iteration_block, params)
        _req, submitted, completed = job.iteration_log[-1]
        cluster = box["cluster"]
        cluster.controller.deliver(P.ManagerDirective(migrate))
        for _ in range(iterations - 6):
            job.post(app.iteration_block, params)
        # the second migration lands while the posted iterations run
        cluster.sim.schedule(3 * (completed - submitted),
                             cluster.controller.deliver,
                             P.ManagerDirective(migrate))
        yield job.drain()

    def build():
        cluster = box["cluster"] = NimbusCluster(
            num_workers, program, registry=app.registry, mode=mode)
        cluster.driver.window_size = 3  # several window boundaries
        return cluster

    return _finish(build, oracle)


@pytest.mark.parametrize("seed,mode", [
    pytest.param(seed, mode,
                 id=str(seed) if mode == "centralized" else f"{seed}-{mode}")
    for seed in range(3) for mode in MODES])
def test_compiled_matches_interpreted_across_migration(seed, mode):
    # seed only varies the worker count; the LR program is deterministic,
    # so one pair suffices per seed to catch pooling-state carryover
    compiled = _run_lr_with_migrations(False, mode, num_workers=4 + seed)
    oracle = _run_lr_with_migrations(True, mode, num_workers=4 + seed)
    assert compiled.metrics.count("edits_applied") > 0
    assert sum(w.instantiations_checked
               for w in compiled.workers.values()) > 0
    oids = [obj.oid for obj in compiled.controller.directory.objects()]
    _assert_identical(
        (compiled.metrics.counters_snapshot(), compiled.sim.now,
         compiled.sim.events_run, worker_values(compiled, oids)),
        (oracle.metrics.counters_snapshot(), oracle.sim.now,
         oracle.sim.events_run, worker_values(oracle, oids)),
        f"migration run, {4 + seed} workers, mode {mode}",
    )


def test_migration_invalidates_and_recompiles_plans():
    cluster = _run_lr_with_migrations()
    recompiles = sum(w.plans_compiled for w in cluster.workers.values())
    workers = len(cluster.workers)
    # every worker compiles its half once; the two edit rounds force
    # recompiles on the edited workers, so the total must exceed one-per-worker
    assert recompiles > workers, (
        f"expected plan recompiles after migration edits, got "
        f"{recompiles} compilations across {workers} workers"
    )
