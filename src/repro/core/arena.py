"""The inference-protocol arena: every method, one network, one scorecard.

TopoShot's headline claim is comparative — replacement-transaction
probing beats prior topology-inference methods on precision and cost
(Sections 4 and 8). The arena substantiates that claim in one run: all
seven protocols — ``toposhot``, ``txprobe``, ``timing``, ``findnode``,
``census``, ``dethna``, ``ethna`` — are executed against the *same*
generated topology, seed, :class:`~repro.sim.faults.FaultPlan`, and
:class:`~repro.eth.behaviors.BehaviorMix`, and scored against the same
ground truth over the same target set.

Fairness and determinism rest on one construction rule: each protocol
gets a **fresh network built from the identical spec** — the
:class:`~repro.core.parallel_exec.CampaignSpec` the arena spec derives,
through :func:`~repro.core.parallel_exec.build_world` like every other
caller. Protocols therefore cannot contaminate
each other's mempools or observation logs, and every protocol sees the
byte-identical starting state — so two arena runs with the same
:class:`ArenaSpec` produce bit-identical results
(:meth:`ArenaResult.canonical_dict`; wall-clock timings are reported but
excluded from the canonical form).

Scoring is uniform: edge-measuring protocols are scored with
:func:`repro.core.results.score_edges` against the ground-truth edges
*within the target set* — one shared universe, so a protocol cannot
look better by predicting outside the evaluated subset. Protocols that
do not measure active edges report what they do measure (``findnode``:
inactive edges scored against active truth; ``ethna``: degree error;
``census``: node attributes) with null edge metrics.

See ``docs/arena.md`` for the threat/assumption table, CLI walkthrough
and a worked read-through of ``BENCH_arena.json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.parallel_exec import CampaignSpec, build_world
from repro.core.results import ValidationScore, score_edges
from repro.errors import MeasurementError
from repro.eth.behaviors import BehaviorMix
from repro.eth.network import Network
from repro.eth.supernode import Supernode
from repro.io import PathLike, atomic_write_text
from repro.netgen.ethereum import NetworkSpec
from repro.obs import NULL, Observability, wiring
from repro.sim.faults import FaultPlan

#: Canonical protocol order — arena output always lists protocols this way.
PROTOCOLS: Tuple[str, ...] = (
    "toposhot",
    "txprobe",
    "timing",
    "findnode",
    "census",
    "dethna",
    "ethna",
)

#: What each protocol's primary output is (the "measures" column).
MEASURES: Dict[str, str] = {
    "toposhot": "active_edges",
    "txprobe": "active_edges",
    "timing": "active_edges",
    "findnode": "inactive_edges",
    "census": "node_attributes",
    "dethna": "active_edges",
    "ethna": "degrees",
}

ARENA_FORMAT_VERSION = 1

#: TopoShot's 1-of-n re-probes of each suspect edge in the arena.
TOPOSHOT_CROSS_VALIDATE = 3


@dataclass(frozen=True)
class ArenaSpec:
    """Everything that identifies one arena run (and nothing that doesn't).

    The spec is pure data so it serializes into ``BENCH_arena.json`` and
    two runs from equal specs are bit-identical. Fault and Byzantine
    configuration are kept in source form (rates / spec string) rather
    than as live objects for the same reason.
    """

    n_nodes: int = 24
    seed: int = 0
    n_targets: Optional[int] = None  # None: every measurable node
    outbound_dials: Optional[int] = None  # None: NetworkSpec default
    protocols: Tuple[str, ...] = PROTOCOLS
    loss_rate: float = 0.0
    churn_rate: float = 0.0
    crash_rate: float = 0.0
    byzantine_spec: Optional[str] = None  # BehaviorMix.from_spec() string
    byzantine_frac: Optional[float] = None
    timing_probes: int = 3
    dethna_rounds: int = 12
    ethna_txs: int = 60

    def __post_init__(self) -> None:
        unknown = [p for p in self.protocols if p not in PROTOCOLS]
        if unknown:
            raise ValueError(
                f"unknown protocols {unknown}; choose from {list(PROTOCOLS)}"
            )
        self.campaign_spec()  # refuse a bad Byzantine/fault config up front

    @property
    def ordered_protocols(self) -> Tuple[str, ...]:
        """Requested protocols in canonical arena order, deduplicated."""
        requested = set(self.protocols)
        return tuple(p for p in PROTOCOLS if p in requested)

    def campaign_spec(self) -> CampaignSpec:
        """The world every protocol runs in, and TopoShot's overrides."""
        overrides: Dict[str, object] = {}
        if self.outbound_dials is not None:
            overrides["outbound_dials"] = self.outbound_dials
        plan = FaultPlan(
            loss_rate=self.loss_rate,
            churn_rate=self.churn_rate,
            crash_rate=self.crash_rate,
        )
        return CampaignSpec(
            network=NetworkSpec(n_nodes=self.n_nodes, seed=self.seed, **overrides),  # type: ignore[arg-type]
            fault_plan=plan if plan.enabled else None,
            behaviors=BehaviorMix.from_flags(
                self.byzantine_spec, self.byzantine_frac
            ),
            cross_validate=TOPOSHOT_CROSS_VALIDATE,
        )

    def to_dict(self) -> Dict[str, object]:
        payload = asdict(self)
        payload["protocols"] = list(self.ordered_protocols)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ArenaSpec":
        data = dict(payload)
        if "protocols" in data:
            data["protocols"] = tuple(data["protocols"])  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class ProtocolOutcome:
    """One protocol's scorecard: accuracy, probe cost, and runtime."""

    protocol: str
    measures: str
    score: Optional[ValidationScore] = None
    predicted_edges: Optional[int] = None
    transactions: int = 0
    messages: int = 0
    sim_seconds: float = 0.0
    wall_clock_seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def precision(self) -> Optional[float]:
        return None if self.score is None else self.score.precision

    @property
    def recall(self) -> Optional[float]:
        return None if self.score is None else self.score.recall

    @property
    def f1(self) -> Optional[float]:
        return None if self.score is None else self.score.f1

    def to_dict(self, include_wall_clock: bool = True) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "protocol": self.protocol,
            "measures": self.measures,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "true_positives": None if self.score is None else self.score.true_positives,
            "false_positives": None if self.score is None else self.score.false_positives,
            "false_negatives": None if self.score is None else self.score.false_negatives,
            "predicted_edges": self.predicted_edges,
            "probe_cost": {
                "transactions": self.transactions,
                "messages": self.messages,
            },
            "sim_seconds": round(self.sim_seconds, 6),
            "extras": dict(sorted(self.extras.items())),
        }
        if include_wall_clock:
            payload["wall_clock_seconds"] = round(self.wall_clock_seconds, 3)
        return payload


@dataclass
class ArenaResult:
    """All protocol outcomes for one arena spec, plus the shared universe."""

    spec: ArenaSpec
    targets: List[str]
    true_edges: int  # ground-truth edges within the target set
    network_edges: int  # ground-truth edges in the whole topology
    outcomes: List[ProtocolOutcome] = field(default_factory=list)

    def outcome(self, protocol: str) -> ProtocolOutcome:
        for outcome in self.outcomes:
            if outcome.protocol == protocol:
                return outcome
        raise KeyError(protocol)

    def to_dict(self, include_wall_clock: bool = True) -> Dict[str, object]:
        return {
            "format_version": ARENA_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "universe": {
                "targets": list(self.targets),
                "true_edges": self.true_edges,
                "network_edges": self.network_edges,
            },
            "protocols": {
                outcome.protocol: outcome.to_dict(include_wall_clock)
                for outcome in self.outcomes
            },
        }

    def canonical_dict(self) -> Dict[str, object]:
        """The deterministic view: everything except wall-clock timings.

        Two arena runs from equal specs produce equal canonical dicts
        (the determinism acceptance test); wall-clock readings are host
        noise by definition and live only in the full :meth:`to_dict`.
        """
        return self.to_dict(include_wall_clock=False)

    def summary(self) -> str:
        """Fixed-width scorecard, one protocol per row."""
        header = (
            f"{'protocol':<10} {'measures':<16} {'prec':>6} {'recall':>6} "
            f"{'f1':>6} {'edges':>6} {'txs':>7} {'msgs':>9} {'sim s':>8} {'wall s':>7}"
        )
        lines = [header, "-" * len(header)]

        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.3f}"

        for outcome in self.outcomes:
            edges = "-" if outcome.predicted_edges is None else str(outcome.predicted_edges)
            lines.append(
                f"{outcome.protocol:<10} {outcome.measures:<16} "
                f"{fmt(outcome.precision):>6} {fmt(outcome.recall):>6} "
                f"{fmt(outcome.f1):>6} {edges:>6} {outcome.transactions:>7} "
                f"{outcome.messages:>9} {outcome.sim_seconds:>8.1f} "
                f"{outcome.wall_clock_seconds:>7.2f}"
            )
        lines.append(
            f"universe: {len(self.targets)} targets, {self.true_edges} true edges "
            f"(topology total {self.network_edges})"
        )
        return "\n".join(lines)


def write_arena_json(result: ArenaResult, path: PathLike) -> Path:
    """Write ``BENCH_arena.json`` atomically (sorted keys, trailing newline)."""
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return atomic_write_text(path, text)


# ----------------------------------------------------------------------
# Network construction: one fresh, identical world per protocol
# ----------------------------------------------------------------------

def _fresh_world(campaign: CampaignSpec) -> Tuple[Network, Supernode]:
    """The shared starting state one protocol will run against: the
    campaign's world, its fault plan armed, Status handshakes landed."""
    network, supernode = build_world(campaign)
    if campaign.fault_plan is not None:
        network.install_faults(campaign.fault_plan)
    network.run(1.0)
    return network, supernode


def _select_targets(network: Network, spec: ArenaSpec) -> List[str]:
    measurable = list(network.measurable_node_ids())
    if spec.n_targets is None:
        return measurable
    if spec.n_targets < 2:
        raise MeasurementError("arena needs at least two targets")
    return measurable[: spec.n_targets]


# ----------------------------------------------------------------------
# Protocol runners. Contract: run against (network, supernode, targets),
# return (predicted_edges_or_None, transactions_sent, extras).
# ----------------------------------------------------------------------

def _run_toposhot(network, supernode, targets, spec):
    from repro.core.campaign import TopoShot

    shot = TopoShot(network, supernode)
    # Cross-validation is behavior-neutral on an honest network (suspects
    # never arise); under a Byzantine mix it is the quarantine step that
    # keeps the precision column honest (adversarial.md).
    shot.config = spec.campaign_spec().measurement_config(shot.config)
    measurement = shot.measure_network(targets=list(targets), validate=False)
    extras = {
        "iterations": measurement.iterations,
        "skipped_nodes": len(measurement.skipped_nodes),
        "failures": len(measurement.failures),
        "quarantined_edges": len(measurement.quarantined),
    }
    return set(measurement.edges), measurement.transactions_sent, extras


def _run_txprobe(network, supernode, targets, spec):
    from repro.baselines.txprobe import txprobe_survey

    pairs = [
        (targets[i], targets[j])
        for i in range(len(targets))
        for j in range(i + 1, len(targets))
    ]
    survey = txprobe_survey(network, supernode, pairs)
    extras = {"pairs_probed": len(pairs)}
    return set(survey.detected), len(pairs), extras


def _run_timing(network, supernode, targets, spec):
    from repro.baselines.timing import timing_inference

    result = timing_inference(
        network,
        supernode,
        probes_per_node=spec.timing_probes,
        targets=list(targets),
    )
    return set(result.predicted), result.probes, {"probes": result.probes}


def _run_findnode(network, supernode, targets, spec):
    from repro.baselines.findnode import crawl_inactive_edges

    crawl = crawl_inactive_edges(network, supernode)
    target_set = set(targets)
    within = {e for e in crawl.inactive_edges if set(e) <= target_set}
    extras = {
        "responses": crawl.responses,
        "inactive_edges_total": len(crawl.inactive_edges),
    }
    return within, 0, extras


def _run_census(network, supernode, targets, spec):
    from repro.baselines.census import measurable_targets, run_census

    census = run_census(network, supernode)
    extras = {
        "network_size": census.network_size,
        "dominant_client": census.dominant_client,
        "rpc_responsive": census.rpc_responsive,
        "relaying": census.relaying,
        "measurable_targets": len(measurable_targets(census)),
    }
    return None, 0, extras


def _run_dethna(network, supernode, targets, spec):
    from repro.baselines.dethna import run_dethna

    report = run_dethna(
        network,
        supernode,
        targets=list(targets),
        rounds=spec.dethna_rounds,
        validate=False,
    )
    extras = {
        "rounds": report.rounds,
        "send_failures": report.send_failures,
    }
    return set(report.predicted), report.marks_sent, extras


def _run_ethna(network, supernode, targets, spec):
    from repro.baselines.ethna import run_ethna

    report = run_ethna(
        network,
        supernode,
        targets=list(targets),
        observation_txs=spec.ethna_txs,
    )
    extras = {
        "observed_txs": report.observed_txs,
        "peers_estimated": len(report.degree_estimates),
        "skipped_low_sample": report.skipped_low_sample,
        "degree_mae": round(report.degree_mae, 4),
        "degree_mape": round(report.degree_mape, 4),
    }
    return None, 0, extras


_RUNNERS: Dict[str, Callable] = {
    "toposhot": _run_toposhot,
    "txprobe": _run_txprobe,
    "timing": _run_timing,
    "findnode": _run_findnode,
    "census": _run_census,
    "dethna": _run_dethna,
    "ethna": _run_ethna,
}


def run_arena(
    spec: ArenaSpec,
    obs: Optional[Observability] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ArenaResult:
    """Run every requested protocol on identical worlds and score them.

    ``progress`` (if given) is called with the protocol name as each one
    starts — the CLI uses it for live output. ``obs`` receives per-
    protocol push instruments (see ``toposhot_arena_*`` in
    :mod:`repro.obs.wiring`).
    """
    obs = obs if obs is not None else NULL
    campaign = spec.campaign_spec()
    reference_network, _ = _fresh_world(campaign)
    targets = _select_targets(reference_network, spec)
    truth = reference_network.ground_truth_edges(among=targets)
    result = ArenaResult(
        spec=spec,
        targets=list(targets),
        true_edges=len(truth),
        network_edges=len(reference_network.ground_truth_edges()),
    )

    for protocol in spec.ordered_protocols:
        if progress is not None:
            progress(protocol)
        network, supernode = _fresh_world(campaign)
        messages_before = network.messages_sent
        sim_before = network.sim.now
        wall_before = perf_counter()
        predicted, transactions, extras = _RUNNERS[protocol](
            network, supernode, targets, spec
        )
        wall_clock = perf_counter() - wall_before
        outcome = ProtocolOutcome(
            protocol=protocol,
            measures=MEASURES[protocol],
            score=None if predicted is None else score_edges(predicted, truth),
            predicted_edges=None if predicted is None else len(predicted),
            transactions=transactions,
            messages=network.messages_sent - messages_before,
            sim_seconds=network.sim.now - sim_before,
            wall_clock_seconds=wall_clock,
            extras=extras,
        )
        result.outcomes.append(outcome)
        _observe_outcome(obs, outcome)
    return result


def _observe_outcome(obs: Observability, outcome: ProtocolOutcome) -> None:
    """Push one protocol's scorecard into the metrics registry."""
    if not obs.enabled:
        return
    labels = {"protocol": outcome.protocol}
    metrics = obs.metrics
    metrics.counter(wiring.ARENA_PROTOCOLS_RUN, labels=labels).inc()
    metrics.counter(wiring.ARENA_PROBE_TXS, labels=labels).inc(outcome.transactions)
    metrics.counter(wiring.ARENA_PROBE_MESSAGES, labels=labels).inc(outcome.messages)
    metrics.histogram(wiring.ARENA_SIM_SECONDS, labels=labels).observe(
        outcome.sim_seconds
    )
    metrics.histogram(wiring.ARENA_WALL_SECONDS, labels=labels).observe(
        outcome.wall_clock_seconds
    )
    if outcome.predicted_edges is not None:
        metrics.gauge(wiring.ARENA_PREDICTED_EDGES, labels=labels).set(
            outcome.predicted_edges
        )
