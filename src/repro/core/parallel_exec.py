"""Deterministic multi-core campaign execution (OS-process sharding).

The paper's parallel TopoShot (Section 5, Figure 5) cuts *measurement* time
by probing K-node groups concurrently inside one simulated clock. This
module exploits the orthogonal axis: the reproduction's schedule iterations
are independent given a pristine post-setup world, so they can be executed
as **shards** — slices of the schedule replayed against a snapshot of that
world — on a pool of worker processes.

Determinism contract
--------------------

The shard plan is a function of the campaign alone (never of the worker
count), each shard is a pure function of its :class:`ShardSpec` (the world
is pristine or snapshot-restored to the same bits, then re-seeded under the
shard's spawn seed), and the merge walks shards in index order. Hence the
merged :class:`~repro.core.results.NetworkMeasurement` is **bit-identical
for any worker count** — ``workers=4`` reproduces ``workers=1`` exactly,
and a crashed worker's shard can be run again in the driver without
changing the output. The contract covers every field of the spec: fault
plans (wire and RPC), Byzantine mix, RPC client stance, cross-validation.

:func:`build_world` is the only place that knows the order a world is
assembled in, and :meth:`CampaignReplica._reset` the only place that knows
what a reset must rewind. The driver builds the one replica; shard workers
are forked from it (:class:`WorkerPool`) and inherit it copy-on-write,
still pristine. A replica's first shard runs on the pristine world, every
later one on a snapshot restore: the post-setup snapshot, a new RPC client,
then the re-seed.

:mod:`repro.sim.snapshot` guarantees the restored network is bit-identical
to the pristine one; the resilient RPC client's breakers, health scores
and pacing live outside that snapshot, so the reset replaces it — a shard never inherits another shard's view of the
measurement plane. A shard therefore pays O(state restore), never
O(network build), wherever it runs.

:func:`run_campaign` is the only way a spec becomes a scored topology (CLI,
job service, benchmarks; ``workers=1`` runs the same shards in-process);
:meth:`TopoShot.measure_network` remains the in-place library entry for
callers that already hold a network. Observers — an ``Observability``
bundle, an ``InvariantChecker`` — are not part of the world, so they are
arguments of :func:`run_campaign`, never spec fields: each shard runs under
fresh ones and ships what they recorded in its :class:`ShardResult`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from concurrent.futures import BrokenExecutor, Executor, Future, ProcessPoolExecutor
from copy import deepcopy
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import io as repro_io
from repro.core.campaign import TopoShot
from repro.core.config import MeasurementConfig
from repro.core.results import NetworkMeasurement
from repro.errors import CheckpointError, MeasurementError
from repro.eth.behaviors import BehaviorMix
from repro.eth.network import Network
from repro.eth.rpc import HARDENED_POLICY, RAW_POLICY
from repro.eth.supernode import Supernode
from repro.netgen.ethereum import NetworkSpec, generate_network
from repro.obs import NULL, Observability, wiring
from repro.sim.faults import FaultPlan
from repro.sim.invariants import InvariantChecker
from repro.sim.rng import spawn_seed

PathLike = Union[str, Path]

PARALLEL_CHECKPOINT_VERSION = 5

# Default shard-plan granularity: enough slices to keep a typical pool busy
# without shrinking slices below the per-shard reset cost. Deliberately NOT
# derived from the worker count — the plan must be campaign-only so output
# is invariant under N.
DEFAULT_MAX_SHARDS = 8

ShardProgress = Callable[[int, int, "ShardResult"], None]


def _hash_blake2b(payload: str) -> str:
    import hashlib

    return hashlib.blake2b(payload.encode("utf-8"), digest_size=32).hexdigest()


# ----------------------------------------------------------------------
# Serializable specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to rebuild a deterministic campaign replica.

    Pure data with a JSON round trip: a service job or an arena protocol
    receives (a serialized form of) this spec and builds the same world
    from it. :func:`build_world` turns ``network``,
    ``prefill``, ``rpc_raw`` and ``behaviors`` into a network with a
    joined supernode; :meth:`measurement_config` applies
    ``repeats``/``max_retries``/``future_count``/``cross_validate``; a
    :class:`CampaignReplica` then pre-processes (if ``preprocess``),
    drains the event queue and snapshots. ``max_retries``
    is the probe retry budget of every ``measurePar`` round (simulated
    rounds inside a shard; a crashed shard worker is no retry, its shard
    simply runs in the driver).

    The fault plan is *not* part of setup: it is armed per shard, after the
    snapshot point, so faults draw from the shard's seed universe.
    """

    network: NetworkSpec
    prefill: bool = True
    preprocess: bool = True
    group_size: Optional[int] = None
    repeats: int = 1
    max_retries: int = 0
    future_count: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    validate: bool = True
    n_shards: Optional[int] = None
    behaviors: Optional[BehaviorMix] = None
    rpc_raw: bool = False
    cross_validate: int = 0

    def __post_init__(self) -> None:
        # Specs arrive from service clients: refuse overrides no
        # MeasurementConfig accepts here, not after the network is built.
        self.measurement_config(MeasurementConfig())

    @property
    def seed(self) -> int:
        return self.network.seed

    def measurement_config(self, base: MeasurementConfig) -> MeasurementConfig:
        """``base`` with this spec's repeat, retry and cross-validation
        budgets, and its Z when it sets one (``None`` keeps the target
        policy's L)."""
        overrides = {}
        if self.future_count is not None:
            overrides["future_count"] = self.future_count
        return replace(
            base,
            repeats=self.repeats,
            max_retries=self.max_retries,
            cross_validate=self.cross_validate,
            **overrides,
        )

    def to_dict(self) -> dict:
        """JSON form, derived from the dataclass fields so a field added
        to the spec cannot be left out of the fingerprint."""
        if self.network.latency is not None:
            raise MeasurementError(
                "CampaignSpec requires NetworkSpec.latency=None (latency "
                "models are not serializable); use region_mix or the default"
            )
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["network"] = asdict(self.network)
        payload["network"].pop("latency")
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        if self.behaviors is not None:
            payload["behaviors"] = asdict(self.behaviors)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        values = dict(payload)
        values["network"] = NetworkSpec(**payload["network"])
        if payload.get("fault_plan") is not None:
            values["fault_plan"] = FaultPlan.from_dict(payload["fault_plan"])
        if payload.get("behaviors") is not None:
            values["behaviors"] = BehaviorMix(**payload["behaviors"])
        return cls(**values)

    def fingerprint(self) -> str:
        """Stable digest of the canonical JSON form (checkpoint identity)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return _hash_blake2b(canonical)


def build_world(spec: CampaignSpec) -> Tuple[Network, Supernode]:
    """Assemble the world ``spec`` describes, in the one canonical order:
    generate → prefill → RPC client → behaviors → supernode join.

    The caller arms the fault plan *after* this returns — the only order a
    snapshotting caller can use (a snapshot refuses an armed plan).
    """
    network = generate_network(spec.network)
    if spec.prefill:
        from repro.netgen.workloads import prefill_mempools

        prefill_mempools(network)
    _fresh_rpc_client(network, spec)
    if spec.behaviors is not None and spec.behaviors.enabled:
        network.install_behaviors(spec.behaviors)
    return network, Supernode.join(network)


def _fresh_rpc_client(network: Network, spec: CampaignSpec) -> None:
    """Replace the network's RPC client with a new one in the spec's
    stance: no breaker, health score or pacing state carries over."""
    network.rpc_client(RAW_POLICY if spec.rpc_raw else HARDENED_POLICY)


@dataclass(frozen=True)
class ShardSpec:
    """One slice ``[start, stop)`` of the campaign's schedule iterations."""

    campaign: CampaignSpec
    index: int
    n_shards: int
    start: int
    stop: int

    @property
    def seed(self) -> int:
        """The shard's child master seed (a spawn key off the campaign seed)."""
        return spawn_seed(self.campaign.seed, "shard", self.index)


@dataclass
class ShardResult:
    """One shard's header plus the partial measurement of its slice.

    Mergeable in shard-index order. The tally reads through, so
    ``result.edges``, ``result.failures``, ``result.duration`` … are the
    embedded measurement's.
    """

    index: int
    start: int
    stop: int
    measurement: NetworkMeasurement
    wall_time: float = 0.0
    obs_snapshot: Optional[dict] = None
    invariants: Optional[dict] = None  # an InvariantChecker.report()

    def __getattr__(self, name: str) -> object:
        if name == "measurement":  # not set yet (copy/unpickle): no recursion
            raise AttributeError(name)
        return getattr(self.measurement, name)

    def to_dict(self) -> dict:
        payload = {
            "index": self.index,
            "start": self.start,
            "stop": self.stop,
            "measurement": repro_io.measurement_to_dict(self.measurement),
            "wall_time": self.wall_time,
            "obs_snapshot": self.obs_snapshot,
        }
        if self.invariants is not None:
            payload["invariants"] = self.invariants
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardResult":
        return cls(
            index=int(payload["index"]),
            start=int(payload["start"]),
            stop=int(payload["stop"]),
            measurement=repro_io.measurement_from_dict(payload["measurement"]),
            wall_time=float(payload["wall_time"]),
            obs_snapshot=payload.get("obs_snapshot"),
            invariants=payload.get("invariants"),
        )


def merge_shards(results: Sequence[ShardResult]) -> NetworkMeasurement:
    """Fold ``results`` (at least one), in the order given, into one tally.

    Every partial carries the campaign's header and opens at the shared
    snapshot instant, so the first one seeds the merge. Shards run in
    disjoint copies of the same simulated world, so their simulated
    durations are laid end to end after the shared setup.
    """
    merged = deepcopy(results[0].measurement)
    sim_total = merged.duration
    for result in results[1:]:
        merged.merge(result.measurement)
        sim_total += result.duration
    merged.sim_time_end = merged.sim_time_start + sim_total
    return merged


def build_shard_plan(
    n_iterations: int, n_shards: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split ``n_iterations`` into contiguous ``[start, stop)`` slices.

    The plan depends only on the iteration count and the requested shard
    count (default: ``min(n_iterations, DEFAULT_MAX_SHARDS)``) — never on
    how many workers will execute it. Earlier shards get the remainder, so
    sizes differ by at most one.
    """
    if n_iterations <= 0:
        return []
    shards = n_shards if n_shards is not None else DEFAULT_MAX_SHARDS
    shards = max(1, min(shards, n_iterations))
    base, remainder = divmod(n_iterations, shards)
    plan: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < remainder else 0)
        plan.append((start, start + size))
        start += size
    return plan


# ----------------------------------------------------------------------
# Replica: canonical build + snapshot/reset between shards
# ----------------------------------------------------------------------
class CampaignReplica:
    """A deterministic instantiation of a :class:`CampaignSpec`.

    Runs the canonical setup sequence once, snapshots the quiescent
    post-setup world, and then serves any number of shards by restoring the
    snapshot (O(state restore)) instead of rebuilding (O(network build)).
    """

    def __init__(self, campaign: CampaignSpec) -> None:
        self.campaign = campaign
        self.network, supernode = build_world(campaign)
        self.shot = TopoShot(self.network, supernode)
        self.shot.config = campaign.measurement_config(self.shot.config)

        # The campaign's empty tally and its work items, one per iteration.
        self.header, self.schedule = self.shot.open(
            group_size=campaign.group_size, preprocess=campaign.preprocess
        )
        self.network.settle()
        # Pin the ambient fee level before any shard touches a pool, as
        # measure_network does at its top.
        self.shot.pin_ambient()
        # Ground truth is fixed at the snapshot point: per-shard churn
        # faults move links afterwards, but each shard starts from (and is
        # validated against) this pristine overlay.
        self.truth_edges = self.network.ground_truth_edges(
            among=self.header.node_ids
        )
        # A reset rewinds the clock too: every shard's window opens here.
        self.header.sim_time_start = self.header.sim_time_end = self.network.sim.now
        self._snapshot = self.shot.snapshot_state()
        self._pristine = True

    def _reset(
        self, seed: int, checker: Optional[InvariantChecker] = None
    ) -> None:
        """Put the world into the universe of ``seed``: pristine state + seed.

        Fresh-build and restore paths converge here. The restore rewinds
        everything :func:`build_world` and the setup installed (the RPC
        client lives outside the snapshot, so it is replaced); both paths
        end with every existing RNG stream re-seeded under ``seed``
        (streams created later derive from it lazily) and the fault plan
        and ``checker`` — if any — armed *after* the pristine state is in
        place (a restore refuses either, so both are cleared before it).
        """
        if not self._pristine:
            self.network.clear_faults()
            self.network.clear_invariants()
            self.shot.restore_state(self._snapshot)
            _fresh_rpc_client(self.network, self.campaign)
        self.network.sim.rng.reseed(seed)
        if self.campaign.fault_plan is not None:
            self.network.install_faults(self.campaign.fault_plan)
        if checker is not None:
            self.network.install_invariants(checker)
        self._pristine = False

    def run_shard(
        self,
        shard: ShardSpec,
        collect_obs: bool = False,
        check_invariants: bool = False,
    ) -> ShardResult:
        """Reset to the shard's universe and run its schedule slice.

        With ``collect_obs`` a fresh :class:`~repro.obs.Observability`
        bundle is installed for the shard and its snapshot (metrics plus
        the retained event records) rides along in the result (merged by
        :meth:`~repro.obs.metrics.MetricsRegistry.absorb`). Counter values
        mirror the replica's cumulative simulation counters, which restore
        to their post-setup baseline at every reset — so per-shard counts
        include that shared baseline by construction. With
        ``check_invariants`` a fresh ``InvariantChecker`` watches the shard;
        its report rides along too.
        """
        wall_start = perf_counter()
        checker = InvariantChecker() if check_invariants else None
        self._reset(shard.seed, checker)
        shot = self.shot
        shot.obs = Observability() if collect_obs else NULL
        if collect_obs:
            self.network.install_observability(shot.obs)
        measurement = deepcopy(self.header)
        shot.run(measurement, self.schedule[shard.start : shard.stop])
        obs_snapshot = None
        if collect_obs:
            obs_snapshot = shot.obs.snapshot()
            obs_snapshot["events"]["records"] = [
                list(record) for record in shot.obs.events.records()
            ]
        return ShardResult(
            index=shard.index,
            start=shard.start,
            stop=shard.stop,
            measurement=measurement,
            wall_time=perf_counter() - wall_start,
            obs_snapshot=obs_snapshot,
            invariants=checker.report() if checker is not None else None,
        )


# ----------------------------------------------------------------------
# The fork pool
# ----------------------------------------------------------------------
def _worker_init(
    parent_pid: int, initializer: Optional[Callable], initargs: tuple
) -> None:
    """First code in every pool worker: it is killed with the process that
    forked it (Linux ``PR_SET_PDEATHSIG``), then runs the pool's own
    ``initializer``. An idle worker blocks on its task queue for good once
    its parent is SIGKILLed; this ends it instead, and a worker's own pool
    dies with it in turn."""
    import signal

    try:
        import ctypes

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (AttributeError, OSError):  # pragma: no cover - not Linux
        pass
    if os.getppid() != parent_pid:  # the parent died before prctl took
        os._exit(1)
    if initializer is not None:
        initializer(*initargs)


class WorkerPool(Executor):
    """The one process pool: ``size`` workers forked from this process.

    The ``fork`` start method is required (there is no fallback): a worker
    inherits what its parent held when the pool forked — the service's
    imported campaign stack, :func:`run_campaign`'s built replica — by
    copy-on-write, with no pickle on the way. Every worker dies with its
    parent (see :func:`_worker_init`), nested pools included, and runs
    ``initializer(*initargs)`` before its first task.

    Every worker forks on the first submit (or :meth:`start`), from the
    thread that calls it. A worker that dies (an OOM kill, a signal)
    breaks a process pool for good; the next submit forks a fresh one.
    """

    def __init__(
        self,
        size: int,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ) -> None:
        self.size = max(1, int(size))
        self._init = (initializer, tuple(initargs))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def _forked(self) -> ProcessPoolExecutor:
        if self._pool is None:
            pool = ProcessPoolExecutor(
                max_workers=self.size,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_worker_init,
                initargs=(os.getpid(), *self._init),
            )
            pool.submit(int).result()  # forks every worker, now
            self._pool = pool
        return self._pool

    def start(self) -> None:
        with self._lock:
            self._forked()

    def submit(self, fn, /, *args, **kwargs) -> Future:
        with self._lock:
            try:
                return self._forked().submit(fn, *args, **kwargs)
            except BrokenExecutor:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
                return self._forked().submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)
                self._pool = None

    def kill(self) -> None:
        """SIGKILL every worker and drop the pool: what the death of its
        parent does to it (in-process crash stand-ins use this)."""
        with self._lock:
            if self._pool is not None:
                for process in list(self._pool._processes.values()):
                    process.kill()
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None


#: The replica a shard worker was forked with (set in the worker only).
_inherited: Optional[CampaignReplica] = None


def _inherit(replica: CampaignReplica) -> None:
    global _inherited
    _inherited = replica


def _run_inherited_shard(
    shard: ShardSpec, collect_obs: bool, check_invariants: bool
) -> ShardResult:
    return _inherited.run_shard(shard, collect_obs, check_invariants)


# ----------------------------------------------------------------------
# Checkpoint (shard-granular; boundaries ARE iteration boundaries)
# ----------------------------------------------------------------------
@dataclass
class ParallelCheckpoint(repro_io.CheckpointFile):
    """Completed shards of a sharded campaign, written atomically.

    Shard boundaries are schedule-iteration ranges: a completed shard
    covers exactly its ``[start, stop)`` iterations, so a kill loses at
    most the shard in flight (``CampaignSpec.n_shards`` sets that
    granularity). Resume verifies the campaign fingerprint and re-runs
    only the missing shards.
    """

    fingerprint: str
    n_shards: int
    completed: Dict[int, ShardResult] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format_version": PARALLEL_CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "n_shards": self.n_shards,
            "completed": {
                str(index): result.to_dict()
                for index, result in sorted(self.completed.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ParallelCheckpoint":
        try:
            if "completed_iterations" in payload and "fingerprint" not in payload:
                raise CheckpointError(
                    "checkpoint was written by the removed serial executor; "
                    "re-run without --resume"
                )
            version = payload["format_version"]
            if version != PARALLEL_CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported parallel checkpoint version {version}"
                )
            return cls(
                fingerprint=str(payload["fingerprint"]),
                n_shards=int(payload["n_shards"]),
                completed={
                    int(index): ShardResult.from_dict(result)
                    for index, result in payload["completed"].items()
                },
            )
        except (KeyError, TypeError, ValueError, repro_io.SerializationError) as exc:
            raise CheckpointError(
                f"malformed parallel checkpoint: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_campaign(
    campaign: CampaignSpec,
    workers: int = 1,
    checkpoint_path: Optional[PathLike] = None,
    resume: bool = False,
    obs: Optional[Observability] = None,
    progress: Optional[ShardProgress] = None,
    invariants: Optional[InvariantChecker] = None,
) -> NetworkMeasurement:
    """Execute a sharded campaign and deterministically merge the shards.

    ``workers <= 1`` runs every shard in this process against one replica,
    resetting via snapshot restore between shards. ``workers > 1`` forks a
    :class:`WorkerPool` once the replica is built, and each worker runs
    shards on the copy it inherited, likewise resetting via restore.
    The merged measurement is bit-identical for every ``workers`` value,
    and so is what the observers receive: ``obs`` the merged metrics and
    the shards' event records replayed in shard order (each shard's
    overwritten records counted in ``obs.events.dropped``), ``invariants`` (a
    fresh, uninstalled checker) every shard's report, absorbed in shard
    order; both then watch the cross-validation pass live. A shard resumed
    from a checkpoint written without an observer contributes nothing.

    A shard whose worker fails (a crash, an OOM kill, a broken pool) runs
    in this process on the driver's replica; only if that fails too does
    it surface as a ``shard_error`` failure in the merged result (the
    campaign never aborts).

    With ``checkpoint_path`` set a :class:`ParallelCheckpoint` is written
    atomically after every completed shard; ``resume=True`` verifies the
    campaign fingerprint and skips completed shards.
    """
    collect_obs = obs is not None and obs.enabled
    check_invariants = invariants is not None
    replica = CampaignReplica(campaign)
    plan = build_shard_plan(len(replica.schedule), campaign.n_shards)
    fingerprint = campaign.fingerprint()

    completed: Dict[int, ShardResult] = {}
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume=True requires a checkpoint_path")
        if Path(checkpoint_path).exists():
            checkpoint = ParallelCheckpoint.load(checkpoint_path)
            if checkpoint.fingerprint != fingerprint:
                raise CheckpointError(
                    "parallel checkpoint belongs to a different campaign "
                    f"(fingerprint {checkpoint.fingerprint[:12]}... != "
                    f"{fingerprint[:12]}...)"
                )
            if checkpoint.n_shards != len(plan):
                raise CheckpointError(
                    f"parallel checkpoint has {checkpoint.n_shards} shards, "
                    f"this campaign plans {len(plan)}"
                )
            completed = dict(checkpoint.completed)

    shards = [
        ShardSpec(
            campaign=campaign,
            index=index,
            n_shards=len(plan),
            start=start,
            stop=stop,
        )
        for index, (start, stop) in enumerate(plan)
    ]
    pending = [shard for shard in shards if shard.index not in completed]

    def _record(shard: ShardSpec, result: ShardResult) -> None:
        completed[shard.index] = result
        if checkpoint_path is not None:
            ParallelCheckpoint(
                fingerprint=fingerprint,
                n_shards=len(plan),
                completed=completed,
            ).save(checkpoint_path)
        if progress is not None:
            progress(shard.index, len(plan), result)

    def _run_inprocess(shard: ShardSpec) -> ShardResult:
        try:
            return replica.run_shard(shard, collect_obs, check_invariants)
        except MeasurementError as exc:
            failed = deepcopy(replica.header)
            failed.add_failure(
                "shard_error", iteration=shard.start, detail=str(exc)
            )
            return ShardResult(
                index=shard.index,
                start=shard.start,
                stop=shard.stop,
                measurement=failed,
            )

    if workers <= 1 or len(pending) <= 1:
        for shard in pending:
            _record(shard, _run_inprocess(shard))
    else:
        pool = WorkerPool(min(workers, len(pending)), _inherit, (replica,))
        try:
            futures: List[Tuple[ShardSpec, Future]] = [
                (
                    shard,
                    pool.submit(
                        _run_inherited_shard, shard, collect_obs, check_invariants
                    ),
                )
                for shard in pending
            ]
            for shard, future in futures:
                try:
                    result = future.result()
                except Exception:
                    # A broken pool, a worker OOM-kill, pickling trouble:
                    # the driver runs the shard itself.
                    result = _run_inprocess(shard)
                _record(shard, result)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    results = [completed[shard.index] for shard in shards]
    measurement = merge_shards(results)
    obs_snapshots = [r.obs_snapshot for r in results if r.obs_snapshot]
    if check_invariants:
        for result in results:
            if result.invariants is not None:
                invariants.absorb(result.invariants)

    if collect_obs and obs_snapshots:
        for snapshot in obs_snapshots:
            obs.metrics.absorb(snapshot.get("metrics", ()))
            events = snapshot.get("events", {})
            for record in events.get("records", ()):
                obs.emit(*record)
            # What the shard's ring overwrote counts as overwritten here:
            # a merged log never reads complete when a shard's was not.
            obs.events.recorded += events.get("dropped", 0)
        # Distinct-edge count is a cross-shard fact, so the driver sets it
        # after the merge rather than trusting any shard's gauge.
        obs.metrics.gauge(wiring.CAMPAIGN_EDGES).set(len(measurement.edges))

    # The campaign's tail: confidence labels from the merged evidence,
    # then the score. Cross-validation probes the world, so it gets a seed
    # universe of its own, whatever shards this replica ran in-process,
    # and its push sites report straight to the caller's bundle (set, not
    # installed: pull collectors would overwrite the merged totals).
    replica.shot.obs = replica.network.obs = obs if collect_obs else NULL
    if replica.shot.config.cross_validate > 0:
        replica._reset(spawn_seed(campaign.seed, "harden"), invariants)
    replica.shot.close(
        measurement, validate=campaign.validate, truth=replica.truth_edges
    )
    replica.network.clear_invariants()  # hand the caller's checker back
    return measurement
