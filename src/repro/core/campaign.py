"""Whole-network measurement orchestration (Section 6).

:class:`TopoShot` glues everything together: it attaches a supernode to a
network, pre-processes targets, runs the parallel schedule, unions the
per-iteration detections, and scores the measured topology against the
simulator's ground truth.

Every campaign walks three public stages — :meth:`TopoShot.open` (targets
and schedule: the empty tally under the campaign header plus its work
items, optionally restricted to a pair list), :meth:`TopoShot.run` (the one
campaign loop) and :meth:`TopoShot.close` (hardening, sim window, score) —
and every entry is a composition of them and nothing else.
:meth:`TopoShot.measure_network` is open → run(all) → close inside the
caller's one evolving world (pools churn between iterations, state carries
over); :meth:`TopoShot.measure_pairs` is open(pairs) → run → close;
:func:`repro.core.parallel_exec.run_campaign`, the executor behind the CLI
and the job service, opens once, runs schedule slices from a pristine
post-setup snapshot (:meth:`TopoShot.snapshot_state` /
:meth:`TopoShot.restore_state`), merges them and closes. In-place and
sharded campaigns measure the same schedule; they differ in the background
state each iteration sees, so their edge sets agree in the common case but
are not defined to be bit-identical to each other.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.config import DEFAULT_GAS_PRICE_Y, MeasurementConfig
from repro.core.parallel import ParallelProbeReport, measure_par_with_repeats
from repro.core.preprocess import (
    PreprocessReport,
    calibrate_future_count,
    preprocess_targets,
)
from repro.core.primitive import (
    cleanup,
    confirmed_direct,
    measure_link_with_repeats,
    measure_one_link,
    probe_wallet,
)
from repro.core.results import (
    CONFIDENCE_CROSS_VALIDATED,
    CONFIDENCE_HIGH,
    CONFIDENCE_QUARANTINED,
    CONFIDENCE_SUSPECT,
    Edge,
    EdgeEvidence,
    NetworkMeasurement,
)
from repro.core.schedule import ScheduleIteration, build_schedule
from repro.errors import MeasurementError
from repro.eth.account import Wallet
from repro.eth.network import Network
from repro.eth.supernode import Supernode
from repro.obs import NULL, Observability, wiring

T = TypeVar("T")
ProgressCallback = Callable[[int, int, ScheduleIteration, ParallelProbeReport], None]

# One ``measurePar`` round: (schedule index, the round — cut to the wanted
# pairs when the campaign is a pair list, and to the slot budget always).
WorkItem = Tuple[int, ScheduleIteration]

# K of a pair list, unless the caller passes one.
PAIR_LIST_GROUP_SIZE = 4


class TopoShot:
    """A measurement session against one network.

    Typical use::

        net = quick_network(n_nodes=40, seed=7)
        shot = TopoShot.attach(net)
        measurement = shot.measure_network()
        print(measurement.summary())
    """

    def __init__(
        self,
        network: Network,
        supernode: Supernode,
        config: Optional[MeasurementConfig] = None,
        wallet: Optional[Wallet] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.network = network
        self.supernode = supernode
        self.config = config or self._default_config(network)
        self.wallet = wallet or Wallet("toposhot")
        # Observability: passing a live bundle wires the whole stack
        # (network collectors + the campaign's own push instruments).
        self.obs = obs if obs is not None else NULL
        if self.obs.enabled:
            network.install_observability(self.obs)
        self.last_preprocess: Optional[PreprocessReport] = None
        self.measurement_senders: List[str] = []
        # Per-target flood-size overrides discovered by calibration
        # (Section 5.2.3: "use a 'right' parameter on the connections
        # involving node A'").
        self.z_overrides: Dict[str, int] = {}
        # Ambient background price, pinned at the first pool refresh so the
        # compressed churn does not ratchet the fee level upward (each
        # measurement evicts the cheap half of a pool, biasing its median).
        self.ambient_price: Optional[int] = None

    @staticmethod
    def _default_config(network: Network) -> MeasurementConfig:
        """Derive Z/R/U from the dominant measurable client in the network
        (the paper configures them per target client, Table 3)."""
        policies = [
            network.node(nid).config.policy
            for nid in network.measurable_node_ids()
        ]
        measurable = [p for p in policies if p.measurable]
        if not measurable:
            raise MeasurementError("network has no measurable clients (R > 0)")
        # The most common *exact* policy wins. Counting by full identity
        # matters: selecting a node's custom high-R variant would price txA
        # at (1 + R_custom/2) * Y, enough to replace txC on default-R nodes
        # and silently break isolation network-wide.
        counts = Counter(measurable)
        dominant, _ = counts.most_common(1)[0]
        return MeasurementConfig.for_policy(dominant)

    @classmethod
    def attach(
        cls,
        network: Network,
        config: Optional[MeasurementConfig] = None,
        targets: Optional[Sequence[str]] = None,
        obs: Optional[Observability] = None,
    ) -> "TopoShot":
        """Create and connect a measurement supernode, then wrap it.

        Pass ``obs=Observability()`` to wire metrics/events through the
        network, engine and the campaign loop in one step.
        """
        supernode = Supernode.join(network, targets=targets)
        return cls(network, supernode, config=config, obs=obs)

    def restore_ambient(self) -> None:
        """Compressed organic churn: drain every pool back to the ambient
        fee level (see :func:`repro.netgen.workloads.refresh_mempools`).

        The campaign applies it between iterations and repeats; a
        continuous-monitoring loop calls it between a traffic window and
        the next delta round — probing straight into a workload's own
        (typically pricier) leftovers with a Y estimated against the
        pre-workload ambient turns whole rounds into false negatives. The
        refill keeps the *original* ambient price level, pinned from a
        target node's pool — not the measurement price Y, which may sit
        deliberately below it (Section 6.3's conservatively low mainnet Y).
        """
        from repro.netgen.workloads import refresh_mempools

        self.pin_ambient()
        refresh_mempools(
            self.network,
            median_price=self.ambient_price or DEFAULT_GAS_PRICE_Y,
        )

    def pin_ambient(self) -> None:
        """Pin the ambient price from the first node with a priced pool.

        Called before the first measurement touches any pool, so later
        refreshes restore the *original* fee level rather than the
        measurement-biased one.
        """
        if self.ambient_price is not None:
            return
        for node_id in self.network.measurable_node_ids():
            median = self.network.node(node_id).mempool.median_pending_price()
            if median:
                self.ambient_price = median
                return

    # ------------------------------------------------------------------
    # Snapshot/reset (sharded execution support)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Freeze the session (network + measurement bookkeeping).

        Taken after setup/pre-processing at a quiescent instant (see
        :meth:`repro.eth.network.Network.snapshot` for the preconditions);
        :meth:`restore_state` rewinds to it, which is how the sharded
        executor resets the world between schedule slices instead of
        rebuilding the network.
        """
        return {
            "network": self.network.snapshot(),
            "wallet": self.wallet.capture_state(),
            "ambient_price": self.ambient_price,
            "z_overrides": dict(self.z_overrides),
            "measurement_senders": list(self.measurement_senders),
            "last_preprocess": self.last_preprocess,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rewind the session to a :meth:`snapshot_state` capture."""
        self.network.restore(state["network"])
        self.wallet.restore_state(state["wallet"])
        self.ambient_price = state["ambient_price"]
        self.z_overrides = dict(state["z_overrides"])
        self.measurement_senders = list(state["measurement_senders"])
        self.last_preprocess = state["last_preprocess"]

    # ------------------------------------------------------------------
    # Single links (serial primitive)
    # ------------------------------------------------------------------
    def measure_link(self, a: str, b: str) -> List[EdgeEvidence]:
        """Measure one undirected link with the serial primitive and
        return every round's record: up to ``config.repeats`` rounds, plus
        set-up retries, stopping at the first detection — so the link is
        detected iff the last record is."""
        self.pin_ambient()
        return self._serial_probe(
            lambda wallet: measure_link_with_repeats(
                self.network,
                self.supernode,
                a,
                b,
                self._config_for_iteration([(a, b)]),
                wallet,
                refresh=self.restore_ambient,
            )
        )

    def _serial_probe(self, probe: Callable[[Wallet], T]) -> T:
        """Run ``probe`` on the wallet serial probes mint from — the
        session's once it holds accounts, else a new
        :func:`~repro.core.primitive.probe_wallet` (an empty session wallet
        stands for none) — and record the seed and flood accounts it
        minted as measurement senders."""
        wallet = self.wallet or probe_wallet(self.network)
        minted = len(wallet)
        result = probe(wallet)
        self.measurement_senders.extend(
            account.address for account in islice(wallet, minted, None)
        )
        return result

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------
    def preprocess(
        self, candidates: Optional[Sequence[str]] = None, **kwargs: object
    ) -> PreprocessReport:
        """Run the pre-processing phase and cache its report."""
        if candidates is None:
            candidates = self.network.measurable_node_ids()
        self.last_preprocess = preprocess_targets(
            self.network,
            self.supernode,
            candidates,
            self.config,
            self.wallet,
            **kwargs,  # type: ignore[arg-type]
        )
        cleanup(self.network, self.supernode)
        return self.last_preprocess

    # ------------------------------------------------------------------
    # Campaign entries: compositions of open -> run -> close
    # ------------------------------------------------------------------
    def measure_network(
        self,
        targets: Optional[Sequence[str]] = None,
        group_size: Optional[int] = None,
        preprocess: bool = True,
        validate: bool = True,
        churn_between_iterations: bool = True,
        progress: Optional[ProgressCallback] = None,
    ) -> NetworkMeasurement:
        """Measure the topology among ``targets`` (default: all nodes that
        survive pre-processing) using the two-round parallel schedule, in
        place: the caller's network evolves across the whole walk.

        The campaign degrades gracefully instead of aborting: crashed or
        unreachable targets and failed iterations are recorded in
        ``NetworkMeasurement.failures`` and the walk continues. For a
        killable, resumable campaign use
        :func:`repro.core.parallel_exec.run_campaign`.
        """
        self.pin_ambient()
        measurement, items = self.open(targets, group_size, preprocess)
        self.run(
            measurement, items, churn=churn_between_iterations, progress=progress
        )
        return self.close(measurement, validate=validate)

    def measure_pairs(self, pairs: Sequence[Tuple[str, str]]) -> NetworkMeasurement:
        """Measure an explicit pair list (the mainnet critical-subnetwork
        study of Section 6.3, the monitor's delta rounds) through the same
        pipeline. Returns the hardened measurement — ``edges`` is a subset
        of the listed pairs — unscored: what to list is the caller's call.
        """
        self.pin_ambient()
        measurement, items = self.open(pairs=pairs)
        self.run(measurement, items)
        return self.close(measurement, validate=False)

    # ------------------------------------------------------------------
    # The three stages
    # ------------------------------------------------------------------
    def open(
        self,
        targets: Optional[Sequence[str]] = None,
        group_size: Optional[int] = None,
        preprocess: bool = True,
        pairs: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> Tuple[NetworkMeasurement, List[WorkItem]]:
        """Stage one: the empty tally under the campaign header, and the
        work items :meth:`run` walks.

        Targets default to every measurable node, pre-processed unless
        disabled; K to the config's ``budget // N``. With ``pairs`` the
        targets are the list's endpoints in order of first appearance, K
        defaults to :data:`PAIR_LIST_GROUP_SIZE` and the schedule is cut to
        the wanted pairs. Either way no item exceeds
        ``mempool_slots_budget``: :func:`~repro.core.schedule.build_schedule`
        splits an iteration that would.
        """
        skipped: List[str] = []
        if pairs is not None:
            targets = list(dict.fromkeys(nid for pair in pairs for nid in pair))
        else:
            if targets is None:
                targets = self.network.measurable_node_ids()
            if preprocess:
                report = self.preprocess(targets)
                skipped = report.rejected
                targets = report.accepted
            targets = list(targets)
            if len(targets) < 2:
                raise MeasurementError("need at least two targets to measure")

        if group_size is None and pairs is not None:
            group_size = PAIR_LIST_GROUP_SIZE
        elif group_size is None:
            group_size = self.config.group_size_for(len(targets))
        schedule = build_schedule(
            targets, group_size, self.config.mempool_slots_budget, wanted=pairs
        )
        now = self.network.sim.now
        measurement = NetworkMeasurement(
            node_ids=targets,
            iterations=len(schedule),
            sim_time_start=now,
            sim_time_end=now,
            skipped_nodes=skipped,
        )
        return measurement, [item for item in enumerate(schedule) if item[1].edges]

    def run(
        self,
        measurement: NetworkMeasurement,
        items: Sequence[WorkItem],
        churn: bool = True,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Stage two, the campaign loop: run each work item's ``measurePar``
        round and fold it into ``measurement``.

        In-place campaigns, schedule shards and explicit pair lists all walk
        their items through here. Pools churn between consecutive executed
        items (and between repeats) unless ``churn`` is off; a round that
        raises is recorded as an ``iteration_error`` and the walk
        continues. ``progress(index, iterations, iteration, report)`` runs
        after every round that completed, while the supernode's
        observations of that round are still in place.
        """
        obs = self.obs
        if obs.enabled:
            metrics = obs.metrics
            iterations_total = metrics.counter(wiring.CAMPAIGN_ITERATIONS)
            edges_gauge = metrics.gauge(wiring.CAMPAIGN_EDGES)
            txs_total = metrics.counter(wiring.CAMPAIGN_TXS)
            trimmed_total = metrics.counter(wiring.CAMPAIGN_FLOOD_TRIMMED)
            short_total = metrics.counter(wiring.CAMPAIGN_FLOOD_SHORT)
            setup_failures_total = metrics.counter(wiring.CAMPAIGN_SETUP_FAILURES)
            send_timeouts_total = metrics.counter(wiring.CAMPAIGN_SEND_TIMEOUTS)
            iter_sim_hist = metrics.histogram(wiring.CAMPAIGN_ITER_SIM_SECONDS)
            iter_wall_hist = metrics.histogram(wiring.CAMPAIGN_ITER_WALL_SECONDS)

            def count_failures(kind: str, amount: int) -> None:
                if amount:
                    metrics.counter(
                        wiring.CAMPAIGN_FAILURES, labels={"kind": kind}
                    ).inc(amount)

        refresh = self.restore_ambient if churn else None
        sim = self.network.sim
        for position, (index, iteration) in enumerate(items):
            pairs = iteration.edges
            if refresh is not None and position > 0:
                refresh()
            sim_start = sim.now
            wall_start = perf_counter()
            try:
                report: Optional[ParallelProbeReport] = measure_par_with_repeats(
                    self.network,
                    self.supernode,
                    pairs,
                    self._config_for_iteration(pairs),
                    self.wallet,
                    refresh=refresh,
                )
            except MeasurementError as exc:
                # One broken iteration must not kill the campaign; its
                # pairs stay unmeasured and the failure is reported.
                report = None
                measurement.add_failure(
                    "iteration_error", iteration=index, detail=str(exc)
                )
                if obs.enabled:
                    obs.emit(sim.now, "campaign.iteration_error", index, str(exc))
                    count_failures("iteration_error", 1)
            else:
                adverse = measurement.absorb(report, index)
                self.measurement_senders.extend(report.seed_senders)
                if obs.enabled:
                    iterations_total.inc()
                    edges_gauge.set(len(measurement.edges))
                    txs_total.inc(report.transactions_sent)
                    trimmed_total.inc(report.flood_trimmed)
                    short_total.inc(report.flood_short)
                    setup_failures_total.inc(report.setup_failures)
                    send_timeouts_total.inc(report.send_timeouts)
                    iter_sim_hist.observe(sim.now - sim_start)
                    iter_wall_hist.observe(perf_counter() - wall_start)
                    for kind, amount in adverse.items():
                        count_failures(kind, amount)
                    obs.emit(
                        sim.now,
                        "campaign.iteration",
                        index,
                        measurement.iterations,
                        len(report.detected),
                        report.transactions_sent,
                    )
            measurement.sim_time_end = sim.now
            if progress is not None and report is not None:
                progress(index, measurement.iterations, iteration, report)
            # Bound memory and keep iterations independent.
            cleanup(self.network, self.supernode)

    def close(
        self,
        measurement: NetworkMeasurement,
        validate: bool = True,
        truth: Optional[Iterable[Edge]] = None,
    ) -> NetworkMeasurement:
        """Stage three: harden the whole tally, extend its sim window by
        what the hardening probes took, and score it — against ``truth``
        if the caller fixed one earlier, else the live overlay among the
        measurement's targets."""
        sim = self.network.sim
        harden_start = sim.now
        self._harden_measurement(measurement)
        measurement.sim_time_end += sim.now - harden_start
        if validate:
            if truth is None:
                truth = self.network.ground_truth_edges(among=measurement.node_ids)
            measurement.validate_against(truth)
        return measurement

    # ------------------------------------------------------------------
    # Precision hardening (Byzantine-aware post-pass)
    # ------------------------------------------------------------------
    def _harden_measurement(self, measurement: NetworkMeasurement) -> None:
        """Label per-edge confidence, cross-validate suspects, quarantine.

        A detected edge is *suspect* when its evidence shows a broken
        isolation envelope (third parties observed with ``txA``) or when
        either endpoint was caught behaving nonconformingly elsewhere in
        the campaign. With ``config.cross_validate > 0`` each suspect is
        re-probed serially up to that many times and confirmed by the
        first probe that confirms direct adjacency (positive,
        RPC-confirmed, and the sink won the timing race against every
        third-party observer — see
        :func:`repro.core.primitive.confirmed_direct`).
        Unconfirmed suspects are removed from ``edges`` and recorded in
        ``quarantined``; without a cross-validation budget they stay but
        are labelled ``suspect``. All other edges are ``high``.

        On an all-honest run every positive is clean, so this pass only
        assigns ``high`` labels and changes nothing else — hardening is
        behavior-neutral unless the network actually misbehaves.
        """
        if not self.config.hardened:
            return
        suspects: List[Edge] = []
        for pair_edge in sorted(measurement.edges, key=sorted):
            item = measurement.evidence.get(pair_edge)
            if (item is not None and not item.clean) or (
                measurement.suspect_nodes & pair_edge
            ):
                suspects.append(pair_edge)
            else:
                measurement.edge_confidence[pair_edge] = CONFIDENCE_HIGH
        if not suspects:
            return
        budget = self.config.cross_validate
        cross_validated = 0
        for pair_edge in suspects:
            if budget <= 0:
                measurement.edge_confidence[pair_edge] = CONFIDENCE_SUSPECT
                continue
            a, b = sorted(pair_edge)
            cross_validated += 1
            if self._cross_validate_edge(a, b):
                measurement.edge_confidence[pair_edge] = CONFIDENCE_CROSS_VALIDATED
            else:
                measurement.edges.discard(pair_edge)
                measurement.quarantined.add(pair_edge)
                measurement.edge_confidence[pair_edge] = CONFIDENCE_QUARANTINED
        if self.obs.enabled:
            metrics = self.obs.metrics
            if cross_validated:
                metrics.counter(wiring.CAMPAIGN_CROSS_VALIDATIONS).inc(cross_validated)
            if measurement.quarantined:
                metrics.counter(wiring.CAMPAIGN_QUARANTINED).inc(
                    len(measurement.quarantined)
                )
            self.obs.emit(
                self.network.sim.now,
                "campaign.hardening",
                len(suspects),
                cross_validated,
                len(measurement.quarantined),
            )

    def _cross_validate_edge(self, a: str, b: str) -> bool:
        """Serially re-probe one suspect edge: true iff one of up to
        ``config.cross_validate`` probes confirms direct adjacency (1-of-n:
        a genuine edge only has to win the timing race once — the race is
        biased against it, the sink must beat *every* third-party
        observer, and each probe redraws per-message latencies — while a
        relay-chain false positive must get lucky at least once against
        strictly positive one-way delays), each under the per-round config
        (Z overrides) a campaign round on that pair gets.
        Probes that error count as failed.

        A probe whose RPC cross-check came back *unknown* (degraded
        measurement plane) says nothing about the edge either way, so it
        does not consume the cross-validation budget — up to
        ``config.cross_validate`` such probes are retried for free
        before degraded records start counting like ordinary ones
        (bounding the loop when the plane stays sick)."""
        attempts = 0
        degraded_allowance = self.config.cross_validate
        while attempts < self.config.cross_validate:
            cleanup(self.network, self.supernode, self.restore_ambient)
            try:
                record = self._serial_probe(
                    lambda wallet: measure_one_link(
                        self.network,
                        self.supernode,
                        a,
                        b,
                        self._config_for_iteration([(a, b)]),
                        wallet,
                    )
                )
            except MeasurementError:
                attempts += 1
                continue
            # Read at once: no sim time has passed since the verdict.
            extra_observed_at = min(
                (
                    self.supernode.first_observation_time(x, record.tx_hash)
                    for x in record.extra_observers
                ),
                default=None,
            )
            if record.rpc_degraded and degraded_allowance > 0:
                degraded_allowance -= 1
                continue  # a sick plane is not evidence; re-probe for free
            attempts += 1
            if confirmed_direct(record, extra_observed_at):
                return True
        return False

    # ------------------------------------------------------------------
    # Flood-size calibration (Section 5.2.3)
    # ------------------------------------------------------------------
    def _config_for_iteration(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> MeasurementConfig:
        """Apply per-target Z overrides: a round touching a node known
        to run a larger-than-default mempool builds a flood big enough for
        it (the pre-processing phase's "right parameter"); its
        default-sized neighbours are still sent only what their pools can
        admit (:func:`repro.core.primitive.trim_flood`)."""
        config = self.config
        involved = {node_id for pair in pairs for node_id in pair}
        if self.z_overrides:
            needed = max(
                (z for node, z in self.z_overrides.items() if node in involved),
                default=0,
            )
            if needed > config.future_count:
                config = config.with_future_count(needed)
        return config

    def set_z_override(self, node_id: str, future_count: int) -> None:
        """Record that measurements involving ``node_id`` need a flood of
        at least ``future_count`` transactions."""
        self.z_overrides[node_id] = future_count

    def calibrate_target(
        self,
        target_id: str,
        local_peer_id: str,
        z_values: Sequence[int],
    ) -> Optional[int]:
        """Run the speculative-B' calibration against one target and store
        the discovered flood size as an override. Returns the Z found."""
        found = calibrate_future_count(
            self.network,
            self.supernode,
            target_id,
            local_peer_id,
            self._config_for_iteration([(target_id, local_peer_id)]),
            z_values,
            self.wallet,
        )
        if found is not None and found > self.config.future_count:
            self.set_z_override(target_id, found)
        self.restore_ambient()  # every attempt already left through cleanup
        return found
