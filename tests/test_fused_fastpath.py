"""Fused fast-path equivalence: batching and fusion are invisible.

Untraced runs take three wall-clock-only mechanisms — fused actor drain
chains (``Actor._drain`` + ``Simulator.try_advance``), the trusted-transport
send path (no retransmission bookkeeping while the network is provably
lossless), and worker task-start cohorts. Traced runs take none of them:
one event per hop, every reliable send framed. So a traced run is the
unfused reference, and every untraced run must match it on every
*virtual* observable: virtual end time, every metrics counter, and the
final value of every data object. Event counts are the one legitimate
difference — the trusted transport elides retransmission-timer wakes that
genuinely never fire — so the sweeps assert only that the fused count
never exceeds the unfused one.

Every fused run executes under two test-only oracles
(``tests/oracle.py``): each clock claim a fused drain hop makes is
re-derived from the raw event queues, and each compiled instantiation is
re-derived field by field. The sweeps cover seeded random programs in
every scheduling mode, chaos profiles, the rebalancer configuration, and
co-scheduled tenants.
"""

import contextlib
import itertools

import pytest

from repro.chaos import PROFILES, FaultPlan
from repro.nimbus import NimbusCluster

from .helpers import (
    cluster_observables,
    combine_program,
    combine_registry,
    run_lr,
    virtual_results,
)
from .oracle import checked_fused_hops, cross_checked_workers

NUM_OBJECTS = 8
OIDS = list(range(1, NUM_OBJECTS + 1))
SEEDS = range(10)
MODES = ("centralized", "decentralized", "sharded")
#: (mode, blocking) pairs: the blocking driver on the centralized control
#: plane, then posted programs in each mode
VARIANTS = [("centralized", True)] + [(mode, False) for mode in MODES]


@contextlib.contextmanager
def _fused_oracles():
    """Both oracles for one fused run; yields the hop-claim counter."""
    with checked_fused_hops() as hops, cross_checked_workers():
        yield hops


def _run(seed, traced, mode="centralized", blocking=True,
         chaos_profile=None, num_workers=3):
    """One random combine program: (virtual observables, events run).

    The untraced (fused) run executes under both oracles.
    """
    kwargs = {}
    if chaos_profile is not None:
        kwargs["chaos_plan"] = FaultPlan.from_profile(chaos_profile,
                                                      seed=seed)
    with contextlib.nullcontext() if traced else _fused_oracles():
        cluster = NimbusCluster(num_workers,
                                combine_program(seed, OIDS, blocking),
                                registry=combine_registry(), mode=mode,
                                trace=traced, **kwargs)
        cluster.run_until_finished(max_seconds=1e6)
    counters, now, events, values = cluster_observables(cluster, OIDS)
    return (counters, now, values), events


def _assert_fused_matches(seed, label, **kwargs):
    fused, fused_events = _run(seed, False, **kwargs)
    unfused, unfused_events = _run(seed, True, **kwargs)
    assert fused == unfused, f"{label}: virtual results diverged"
    assert fused_events <= unfused_events, \
        f"{label}: fusion may only elide events, never add them"


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
def test_fused_matches_unfused(seed, mode, blocking):
    _assert_fused_matches(seed, f"seed {seed} mode {mode}", mode=mode,
                          blocking=blocking)


@pytest.mark.parametrize("seed,profile,mode,blocking",
                         _sweep([3, 11], sorted(PROFILES)))
def test_fused_matches_unfused_under_chaos(seed, profile, mode, blocking):
    # chaos networks are never lossless, so this exercises drain fusion
    # and task cohorts with the trusted transport forced off
    _assert_fused_matches(seed, f"seed {seed} profile {profile} mode {mode}",
                          mode=mode, blocking=blocking,
                          chaos_profile=profile)


def _lr_virtuals(cluster):
    mean_iter, now, _events, counters = virtual_results(
        cluster, "lr.iteration", skip=4)
    return mean_iter, now, counters


@pytest.mark.parametrize("seed", [0, 5])
def test_fused_lr_with_rebalancer_on(seed):
    scales = {seed % 4: 3.0}
    with _fused_oracles():
        fused = _lr_virtuals(run_lr(seed=seed, rebalance=True,
                                    straggler_scales=scales))
    unfused = _lr_virtuals(run_lr(seed=seed, rebalance=True, trace=True,
                                  straggler_scales=scales))
    assert fused == unfused, f"seed {seed}: rebalancer run diverged"


@pytest.mark.parametrize("seed", [1, 7])
def test_fused_multitenant_pair_identical(seed):
    from .test_multitenant import run_pair, small_lr_app

    app = small_lr_app(seed=seed)
    with _fused_oracles():
        fused = run_pair(app, seed=seed)
    unfused = run_pair(app, seed=seed, trace=True)
    assert fused == unfused, f"seed {seed}: co-tenant values diverged"


def test_every_fused_hop_claim_is_checked():
    """The hop oracle sees real claims in every variant, and traced runs
    never fuse a hop (they are the unfused reference)."""
    for mode, blocking in VARIANTS:
        with _fused_oracles() as hops:
            NimbusCluster(3, combine_program(7, OIDS, blocking),
                          registry=combine_registry(),
                          mode=mode).run_until_finished(max_seconds=1e6)
        assert hops["claims"] > 0, f"mode {mode}: no fused hop was checked"
        with checked_fused_hops() as traced_hops:
            NimbusCluster(3, combine_program(7, OIDS, blocking),
                          registry=combine_registry(), mode=mode,
                          trace=True).run_until_finished(max_seconds=1e6)
        assert traced_hops["claims"] == 0, f"mode {mode}: traced run fused"


def test_trusted_transport_stays_off_after_partition():
    """A partition flips Network.lossless off permanently, so the fused
    send path can never race a heal."""
    from repro.sim.engine import Simulator
    from repro.sim.network import Network

    net = Network(Simulator())
    assert net.lossless
    net.partition("w0")
    net.heal("w0")
    assert not net.lossless
