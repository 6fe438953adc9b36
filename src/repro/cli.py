"""Command-line interface.

Subcommands mirroring the main workflows::

    toposhot-repro measure --preset ropsten --seed 1 --repeats 3
    toposhot-repro arena --nodes 24 --seed 7 --output BENCH_arena.json
    toposhot-repro profile
    toposhot-repro schedule --nodes 500 --budget 2000
    toposhot-repro estimate-cost --nodes 8000 --eth-price 2700
    toposhot-repro serve --state-dir service-state
    toposhot-repro submit --tenant alice --nodes 16 --wait

Also runnable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.campaign import TopoShot
from repro.core.config import MeasurementConfig
from repro.core.cost import MainnetEstimate, PAPER_COST_PER_PAIR_ETHER
from repro.core.profiler import profile_client
from repro.core.schedule import build_schedule, expected_iteration_count
from repro.errors import ReproError
from repro.eth.policies import ALETH, BESU, GETH, NETHERMIND, PARITY
from repro.netgen.ethereum import (
    goerli_like,
    quick_network,
    rinkeby_like,
    ropsten_like,
)
from repro.netgen.workloads import SHAPES, prefill_mempools
from repro.obs import Observability, wiring
from repro.sim.faults import FaultPlan, RpcFaultPlan

PRESETS = {
    "ropsten": ropsten_like,
    "rinkeby": rinkeby_like,
    "goerli": goerli_like,
}

#: ``monitor --workload``: offered tx/s unless ``--workload-rate`` says
#: otherwise, and how long the workload runs between delta rounds.
WORKLOAD_RATE = 10000.0
LOAD_WINDOW = 10.0


def _add_fault_flags(group) -> None:
    group.add_argument("--loss", type=float, default=0.0, metavar="RATE",
                       help="per-message loss probability on every link")
    group.add_argument("--churn", type=float, default=0.0, metavar="RATE",
                       help="link disconnect events per simulated second")
    group.add_argument("--crash-rate", type=float, default=0.0, metavar="RATE",
                       help="node crash events per simulated second")


def _add_byzantine_flags(group) -> None:
    group.add_argument(
        "--byzantine-mix", type=str, default=None, metavar="SPEC",
        help="install misbehaving peers, e.g. 'spoof_relay:0.05,censor:0.05' "
             "(kinds: censor, lazy_relay, spoof_relay, nonconforming_replacer, "
             "duplicate_spammer, stale_client)",
    )
    group.add_argument(
        "--byzantine-frac", type=float, default=None, metavar="FRAC",
        help="shorthand: spread FRAC of nodes evenly over all behavior kinds",
    )


def _add_obs_flags(group) -> None:
    group.add_argument(
        "--metrics-out", type=str, default=None, metavar="FILE",
        help="write campaign metrics here; format from the suffix "
             "(.jsonl/.json, .prom/.txt, .csv)",
    )
    group.add_argument(
        "--metrics-format", choices=("jsonl", "prometheus", "csv"),
        default=None,
        help="override the metrics format inferred from --metrics-out",
    )


def _add_trace_flag(group) -> None:
    group.add_argument(
        "--trace-out", type=str, default=None, metavar="FILE",
        help="write the structured event log here as JSON-lines",
    )


def _make_obs(args: argparse.Namespace) -> Optional[Observability]:
    """A live bundle iff an export flag asks for one."""
    return Observability() if args.metrics_out or args.trace_out else None


def _export_obs(args: argparse.Namespace, obs) -> None:
    """Write whatever ``--metrics-out`` / ``--trace-out`` asked for (``obs``
    is :func:`_make_obs`'s, so it is live whenever either flag is set)."""
    from repro.obs.export import write_events, write_metrics

    if args.metrics_out:
        Path(args.metrics_out).parent.mkdir(parents=True, exist_ok=True)
        path = write_metrics(obs.metrics, args.metrics_out, fmt=args.metrics_format)
        print(f"metrics written to {path}")
    if args.trace_out:
        print(f"event trace written to {write_events(obs.events, args.trace_out)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposhot-repro",
        description="TopoShot (IMC'21) reproduction: measure simulated "
        "Ethereum topologies via replacement transactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser(
        "measure", help="run a full topology measurement campaign"
    )
    measure.add_argument(
        "--preset", choices=sorted(PRESETS), default=None,
        help="testnet preset; omit for a generic quick network",
    )
    measure.add_argument("--nodes", type=int, default=24,
                         help="node count for the generic network")
    measure.add_argument("--seed", type=int, default=0)
    measure.add_argument("--repeats", type=int, default=1,
                         help="measurements per link (union of positives)")
    measure.add_argument("--analyze", action="store_true",
                         help="print Table 4-style analysis of the result")
    measure.add_argument("--output", type=str, default=None,
                         help="write the measurement to this JSON file")
    measure.add_argument("--export-graph", type=str, default=None,
                         help="write the measured graph (edge list) here")
    faults = measure.add_argument_group(
        "fault injection", "measure under adverse network conditions"
    )
    _add_fault_flags(faults)
    faults.add_argument("--max-retries", type=int, default=0,
                        help="retry budget for failed/ambiguous probes")
    faults.add_argument(
        "--rpc-fault-rate", type=float, default=0.0, metavar="RATE",
        help="unreliable RPC plane: per-call failure probability, split "
             "evenly between timeouts and transient errors (see docs/rpc.md)")
    faults.add_argument(
        "--rpc-rate-limit", type=float, default=0.0, metavar="PER_SEC",
        help="token-bucket RPC rate limit per endpoint (0 disables)")
    faults.add_argument(
        "--rpc-flap-rate", type=float, default=0.0, metavar="RATE",
        help="RPC connection flap events per simulated second")
    faults.add_argument(
        "--rpc-raw-client", action="store_true",
        help="use the naive single-attempt RPC client (no deadlines, "
             "retries, hedging or validation) — for A/B degradation runs")
    faults.add_argument("--checkpoint", type=str, default=None, metavar="FILE",
                        help="write a resumable checkpoint after each shard")
    faults.add_argument("--resume", action="store_true",
                        help="continue from --checkpoint instead of starting over")
    adversarial = measure.add_argument_group(
        "adversarial robustness",
        "Byzantine peers, runtime invariants and precision hardening "
        "(see docs/adversarial.md)",
    )
    _add_byzantine_flags(adversarial)
    adversarial.add_argument(
        "--invariants", action="store_true",
        help="install the runtime invariant checker and report violations",
    )
    adversarial.add_argument(
        "--cross-validate", type=int, default=0, metavar="N",
        help="re-probe suspect edges up to N times; quarantine unconfirmed ones",
    )
    parallel = measure.add_argument_group(
        "parallel execution",
        "deterministic sharded execution on a process pool "
        "(see docs/parallelism.md)",
    )
    parallel.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run the campaign's shards on N worker processes (default 1: "
             "in this process); output is bit-identical for any N",
    )
    parallel.add_argument(
        "--shards", type=int, default=None, metavar="S",
        help="override the shard count (default: min(iterations, 8)); "
             "part of the campaign identity, unlike --workers",
    )
    observability = measure.add_argument_group(
        "observability", "export metrics and a structured event trace"
    )
    _add_obs_flags(observability)
    _add_trace_flag(observability)

    arena = sub.add_parser(
        "arena",
        help="run every inference protocol against one identical network "
             "and score them head-to-head (see docs/arena.md)",
    )
    arena.add_argument("--nodes", type=int, default=24)
    arena.add_argument("--seed", type=int, default=0)
    arena.add_argument(
        "--targets", type=int, default=None, metavar="T",
        help="measure edges among the first T measurable nodes only "
             "(default: all of them; required in practice beyond ~32 nodes "
             "because txprobe probes every pair serially)",
    )
    arena.add_argument(
        "--outbound-dials", type=int, default=None, metavar="D",
        help="override the topology's outbound dial quota (sparser graphs "
             "separate the protocols more clearly)",
    )
    arena.add_argument(
        "--protocols", type=str, default=None, metavar="LIST",
        help="comma-separated subset of: toposhot,txprobe,timing,findnode,"
             "census,dethna,ethna (default: all seven)",
    )
    arena.add_argument("--dethna-rounds", type=int, default=12)
    arena.add_argument("--ethna-txs", type=int, default=60)
    arena.add_argument("--timing-probes", type=int, default=3)
    arena_faults = arena.add_argument_group(
        "fault injection", "every protocol runs under the same fault plan"
    )
    _add_fault_flags(arena_faults)
    arena_adv = arena.add_argument_group(
        "adversarial robustness",
        "every protocol faces the same Byzantine draw (docs/adversarial.md)",
    )
    _add_byzantine_flags(arena_adv)
    arena.add_argument(
        "--output", type=str, default=None, metavar="FILE",
        help="write the scorecard JSON here (BENCH_arena.json convention)",
    )
    arena_obs = arena.add_argument_group(
        "observability", "export per-protocol arena metrics"
    )
    _add_obs_flags(arena_obs)
    arena.set_defaults(trace_out=None)

    monitor = sub.add_parser(
        "monitor",
        help="continuous topology tracking: one full base snapshot, then "
             "O(churn) incremental delta rounds (see docs/workloads.md)",
    )
    monitor.add_argument("--nodes", type=int, default=24)
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument(
        "--targets", type=int, default=None, metavar="T",
        help="track edges among the first T measurable nodes only "
             "(default: all of them)",
    )
    monitor.add_argument("--rounds", type=int, default=3,
                         help="delta rounds after the base snapshot")
    monitor.add_argument(
        "--churn", type=float, default=0.0, metavar="FRAC",
        help="rewire this fraction of links between rounds (0 = static)",
    )
    monitor.add_argument(
        "--staleness-ttl", type=float, default=None, metavar="SECONDS",
        help="re-probe edges not confirmed for this long (default: only "
             "churn signals trigger re-probes)",
    )
    monitor.add_argument(
        "--max-pairs", type=int, default=None, metavar="N",
        help="probe budget per delta round; the overflow stays flagged",
    )
    monitor.add_argument(
        "--fee-market", action="store_true",
        help="install the live fee market (floor-aware probe pricing)",
    )
    monitor.add_argument(
        "--workload", choices=sorted(SHAPES), default=None,
        help="drive a batched background workload between delta rounds; "
             "probes themselves run in inflow lulls (concurrent pending "
             "inflow evicts the future-transaction floods, Section 6.2.1)",
    )
    monitor.add_argument(
        "--workload-rate", type=float, default=None, metavar="TXS",
        help=f"offered tx/s for --workload (default {WORKLOAD_RATE:.0f})",
    )
    monitor.add_argument(
        "--stream-out", type=str, default=None, metavar="FILE",
        help="write one ChurnReport JSON line per delta round here "
             "(default: stdout)",
    )
    monitor_obs = monitor.add_argument_group(
        "observability", "export monitor metrics and an event trace"
    )
    _add_obs_flags(monitor_obs)
    _add_trace_flag(monitor_obs)

    sub.add_parser("profile", help="Table 3: profile the five clients")

    schedule = sub.add_parser(
        "schedule", help="inspect the parallel schedule for (N, K)"
    )
    schedule.add_argument("--nodes", type=int, required=True)
    schedule.add_argument("--group-size", type=int, default=None)
    schedule.add_argument("--budget", type=int, default=2000,
                          help="mempool slot budget (paper: 2000)")

    analyze = sub.add_parser(
        "analyze", help="re-analyze a saved measurement JSON"
    )
    analyze.add_argument("measurement", type=str,
                         help="path to a JSON file written by 'measure --output'")
    analyze.add_argument("--communities", action="store_true")
    analyze.add_argument("--security", action="store_true")

    cost = sub.add_parser(
        "estimate-cost", help="full-network measurement cost extrapolation"
    )
    cost.add_argument("--nodes", type=int, default=8000)
    cost.add_argument("--eth-price", type=float, default=2700.0)

    serve = sub.add_parser(
        "serve",
        help="run the resilient measurement service (see docs/service.md)",
    )
    # Unset flags (None) leave the --config file's value, or the
    # ServiceConfig default, in place.
    serve.add_argument("--host", type=str, default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None,
        help="0 (the default) binds an ephemeral port; the actual endpoint "
             "is written to STATE_DIR/endpoint.json either way",
    )
    serve.add_argument(
        "--state-dir", type=str, default=None, metavar="DIR",
        help="journal, checkpoints and endpoint file live here "
             "(default service-state)",
    )
    serve.add_argument("--max-concurrent", type=int, default=None,
                       help="worker processes, i.e. jobs running at once "
                            "(default 2)")
    serve.add_argument(
        "--config", type=str, default=None, metavar="FILE",
        help="JSON ServiceConfig (quotas, breaker, retention; see "
             "docs/service.md); the flags above win over its keys",
    )
    serve.add_argument("--obs", action="store_true",
                       help="enable observability (adds obs to /v1/metrics)")

    submit = sub.add_parser(
        "submit", help="submit a job to a running measurement service"
    )
    submit.add_argument(
        "--state-dir", type=str, default="service-state", metavar="DIR",
        help="find the service via DIR/endpoint.json",
    )
    submit.add_argument("--tenant", type=str, required=True)
    submit.add_argument("--nodes", type=int, default=24, help="network size")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--repeats", type=int, default=1)
    submit.add_argument("--workers", type=int, default=1)
    submit.add_argument("--deadline", type=float, default=None,
                        help="wall-clock seconds before the job times out "
                             "(partial results survive)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job reaches a terminal state")
    return parser


def _cmd_measure(args: argparse.Namespace) -> int:
    """Flags → :class:`CampaignSpec` → ``run_campaign`` → report;
    ``--workers`` is purely a wall-clock knob (docs/parallelism.md)."""
    from repro.core.parallel_exec import CampaignSpec, run_campaign
    from repro.errors import CheckpointError
    from repro.eth.behaviors import BehaviorMix
    from repro.netgen.ethereum import NetworkSpec
    from repro.sim.invariants import InvariantChecker

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    try:
        mix = BehaviorMix.from_flags(args.byzantine_mix, args.byzantine_frac)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.preset:
        network_spec = PRESETS[args.preset](seed=args.seed)
    else:
        network_spec = NetworkSpec(n_nodes=args.nodes, seed=args.seed)
    rpc_plan = None
    if args.rpc_fault_rate or args.rpc_rate_limit or args.rpc_flap_rate:
        rpc_plan = RpcFaultPlan.uniform(
            args.rpc_fault_rate,
            rate_limit_per_second=args.rpc_rate_limit,
            flap_rate=args.rpc_flap_rate,
        )
    plan = FaultPlan(
        loss_rate=args.loss,
        churn_rate=args.churn,
        crash_rate=args.crash_rate,
        rpc=rpc_plan,
    )
    campaign = CampaignSpec(
        network=network_spec,
        repeats=args.repeats,
        max_retries=args.max_retries,
        fault_plan=plan if plan.enabled else None,
        n_shards=args.shards,
        behaviors=mix,
        rpc_raw=args.rpc_raw_client,
        cross_validate=args.cross_validate,
    )
    if plan.enabled:
        print(
            f"fault plan: loss={plan.loss_rate:.1%} "
            f"churn={plan.churn_rate}/s crash={plan.crash_rate}/s"
        )
        if rpc_plan is not None:
            print(
                f"rpc fault plan: fault={args.rpc_fault_rate:.1%} "
                f"rate-limit={rpc_plan.rate_limit_per_second}/s "
                f"flap={rpc_plan.flap_rate}/s"
            )
    if campaign.rpc_raw:
        print("rpc client: raw (single attempt, failures read as negatives)")
    if mix is not None:
        print(f"byzantine mix: {mix.describe()}")
    obs = _make_obs(args)
    checker = InvariantChecker() if args.invariants else None
    print(f"measuring {network_spec.n_nodes} nodes")
    try:
        measurement = run_campaign(
            campaign,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            obs=obs,
            invariants=checker,
        )
    except CheckpointError as exc:
        print(f"cannot resume from {args.checkpoint}: {exc}", file=sys.stderr)
        return 2
    if checker is not None:
        print()
        print(checker.summary())
    return _report_measurement(args, measurement, obs)


def _report_measurement(args, measurement, obs) -> int:
    print()
    print(measurement.summary())
    _export_obs(args, obs)
    if args.output:
        from repro.io import save_measurement

        print(f"\nmeasurement written to {save_measurement(measurement, args.output)}")
    if args.export_graph:
        from repro.io import export_graph

        print(
            "graph written to "
            f"{export_graph(measurement.graph, args.export_graph)}"
        )
    if args.analyze:
        from repro.analysis.randomgraphs import modularity_lower_than_baselines

        table = _print_graph_statistics(measurement.graph, seed=args.seed)
        print(
            "\nmodularity below all baselines: "
            f"{modularity_lower_than_baselines(table)}"
        )
    return 0


def _print_graph_statistics(graph, seed: int):
    """Degree distribution and the ER/CM/BA comparison; returns the table.
    ``repro.analysis`` (and with it networkx) is imported on first use, so
    commands that do not analyse never load a graph library."""
    from repro.analysis.degrees import degree_distribution
    from repro.analysis.randomgraphs import comparison_table
    from repro.analysis.report import render_comparison

    print("\ndegree distribution:")
    print(degree_distribution(graph).ascii_plot(width=36, max_rows=20))
    table = comparison_table(graph, "Measured", trials=5, seed=seed)
    print()
    print(render_comparison(table, title="graph statistics vs ER/CM/BA"))
    return table


def _cmd_arena(args: argparse.Namespace) -> int:
    from repro.core.arena import PROTOCOLS, ArenaSpec, run_arena, write_arena_json

    protocols = PROTOCOLS
    if args.protocols:
        protocols = tuple(
            p.strip() for p in args.protocols.split(",") if p.strip()
        )
    try:
        spec = ArenaSpec(
            n_nodes=args.nodes,
            seed=args.seed,
            n_targets=args.targets,
            outbound_dials=args.outbound_dials,
            protocols=protocols,
            loss_rate=args.loss,
            churn_rate=args.churn,
            crash_rate=args.crash_rate,
            byzantine_spec=args.byzantine_mix,
            byzantine_frac=args.byzantine_frac,
            timing_probes=args.timing_probes,
            dethna_rounds=args.dethna_rounds,
            ethna_txs=args.ethna_txs,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    obs = _make_obs(args)
    print(
        f"arena: {len(spec.ordered_protocols)} protocols on {spec.n_nodes} "
        f"nodes (seed {spec.seed}"
        + (f", {spec.n_targets} targets" if spec.n_targets else "")
        + ")"
    )
    result = run_arena(
        spec, obs=obs, progress=lambda name: print(f"  running {name} ...")
    )
    print()
    print(result.summary())
    if args.output:
        print(f"\nscorecard written to {write_arena_json(result, args.output)}")
    _export_obs(args, obs)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.monitor import TopologyMonitor, rewire_random_links
    from repro.netgen.workloads import BatchedWorkload

    if args.workload_rate is not None and not args.workload:
        print("--workload-rate requires --workload", file=sys.stderr)
        return 2
    network = quick_network(n_nodes=args.nodes, seed=args.seed)
    if args.fee_market:
        network.install_fee_market()
    prefill_mempools(network)
    obs = _make_obs(args)
    shot = TopoShot.attach(network, obs=obs)
    targets = list(network.measurable_node_ids())
    if args.targets is not None:
        targets = targets[: args.targets]

    workload = None
    if args.workload:
        rate = WORKLOAD_RATE if args.workload_rate is None else args.workload_rate
        workload = BatchedWorkload(
            network, SHAPES[args.workload](rate_per_second=rate)
        )
        if obs is not None:
            wiring.instrument_workload(obs, workload)
        print(
            f"workload: {args.workload} at {rate:.0f} tx/s "
            f"for {LOAD_WINDOW:.0f}s between rounds "
            "(batched, O(ticks) engine cost)"
        )

    stream = open(args.stream_out, "w") if args.stream_out else sys.stdout
    try:
        monitor = TopologyMonitor(
            shot, staleness_ttl=args.staleness_ttl, stream=stream
        )
        snapshot = monitor.take_snapshot(targets=targets, preprocess=False)
        print(
            f"base snapshot: {len(snapshot.edges)} edges among "
            f"{len(targets)} targets at t={snapshot.taken_at:.0f}s"
        )
        for round_no in range(1, args.rounds + 1):
            if workload is not None:
                # Traffic (and churn) happen between rounds; the probes
                # themselves run in inflow lulls — concurrent pending
                # inflow would evict the future floods (Section 6.2.1).
                workload.start()
                network.sim.run(until=network.sim.now + LOAD_WINDOW)
                workload.stop()
                # Drain the workload's leftovers back to ambient before
                # probing, or the stale Y turns the round into mass false
                # negatives (the campaign does the same between iterations).
                shot.restore_ambient()
            if args.churn > 0:
                removed, added = rewire_random_links(network, args.churn)
                for e in removed | added:
                    for node_id in e:
                        monitor.note_churn_hint(node_id)
            report = monitor.delta_round(max_pairs=args.max_pairs)
            print(f"round {round_no}: {report.summary()}")
        savings = monitor.probe_savings
        full_cost = max(1, savings["universe_pairs"])
        print(
            f"probe cost: {savings['probed_pairs']} pairs over "
            f"{savings['delta_rounds']} delta rounds vs {full_cost} for "
            f"full re-snapshots "
            f"({savings['probed_pairs'] / full_cost:.1%} of snapshot cost)"
        )
    finally:
        if stream is not sys.stdout:
            stream.close()
    if workload is not None:
        workload.stop()
        print(
            f"workload offered {workload.stats['offered']} txs "
            f"({workload.offered_rate():.0f} tx/s), "
            f"admitted {workload.stats['admitted']}, "
            f"floor-rejected {workload.stats['floor_rejected']}"
        )
    if args.fee_market:
        market = network.fee_market
        print(
            f"fee market: floor={market.floor} quote={market.quote} "
            f"surge=x{market.surge:.2f} ({market.updates} updates)"
        )
    _export_obs(args, obs)
    return 0


def _cmd_profile(_args: argparse.Namespace) -> int:
    print(f"{'client':<12} {'R':>7} {'U':>6} {'P':>6} {'L':>6}  measurable")
    for policy in (GETH, PARITY, NETHERMIND, BESU, ALETH):
        profile = profile_client(policy)
        measurable = "yes" if policy.measurable else "NO (R=0)"
        print(
            f"{profile.name:<12} {profile.replace_bump_percent():>7} "
            f"{profile.future_limit_str():>6} {profile.eviction_floor:>6} "
            f"{profile.capacity:>6}  {measurable}"
        )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    n, budget = args.nodes, args.budget
    config = MeasurementConfig(mempool_slots_budget=budget)
    k = args.group_size or config.group_size_for(n)
    ids = [f"n{i}" for i in range(n)]
    uncut = [it.edge_count for it in build_schedule(ids, k)]
    rounds = build_schedule(ids, k, budget)
    print(f"N={n} nodes, K={k} (budget {budget} slots)")
    print(f"pairs to cover     : {n * (n - 1) // 2}")
    print(f"iterations         : {len(rounds)}")
    print(f"paper formula      : N/K + log K = {expected_iteration_count(n, k)}")
    largest = max((it.edge_count for it in rounds), default=0)
    print(f"largest iteration  : {largest} edges")
    cut = sum(edges > budget for edges in uncut)
    if cut:
        into = len(rounds) - len(uncut) + cut
        print(f"cut to the budget  : {cut} iterations into {into} rounds")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.io import load_measurement

    measurement = load_measurement(args.measurement)
    print(measurement.summary())
    graph = measurement.graph
    _print_graph_statistics(graph, seed=0)
    if args.communities:
        from repro.analysis.communities import community_table, detect_communities

        print("\ncommunities:")
        print(community_table(detect_communities(graph, seed=0)))
    if args.security:
        from repro.analysis.security import (
            critical_nodes,
            eclipse_targets,
            neighbor_fingerprints,
        )

        print("\nsecurity assessment:")
        targets = eclipse_targets(graph, max_degree=3)
        print(f"  eclipse targets (degree <= 3): {len(targets)}")
        print(f"  {critical_nodes(graph).summary()}")
        print(f"  {neighbor_fingerprints(graph).summary()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.obs import NULL
    from repro.service import ServiceConfig, run_service

    payload = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    flags = ("host", "port", "state_dir", "max_concurrent")
    payload.update(
        (name, getattr(args, name)) for name in flags if getattr(args, name) is not None
    )
    config = ServiceConfig.from_dict(payload)
    obs = Observability() if args.obs else NULL
    print(
        f"measurement service starting (state dir: {config.state_dir}; "
        "endpoint written to endpoint.json there; SIGTERM drains gracefully)"
    )
    run_service(config, obs=obs)
    print("measurement service drained and stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.core.parallel_exec import CampaignSpec
    from repro.errors import ServiceError
    from repro.netgen.ethereum import NetworkSpec
    from repro.service import ServiceClient

    campaign = CampaignSpec(
        network=NetworkSpec(n_nodes=args.nodes, seed=args.seed),
        repeats=args.repeats,
    )
    params = {"campaign": campaign.to_dict(), "workers": args.workers}
    try:
        client = ServiceClient.from_state_dir(args.state_dir)
        job = client.submit(tenant=args.tenant, params=params, deadline=args.deadline)
        if args.wait:
            # A job always ends: done, failed, cancelled or past its deadline.
            job = client.wait(job["spec"]["job_id"], timeout=float("inf"))
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0


def _cmd_estimate_cost(args: argparse.Namespace) -> int:
    estimate = MainnetEstimate(
        n_nodes=args.nodes,
        cost_per_pair_ether=PAPER_COST_PER_PAIR_ETHER,
        eth_price_usd=args.eth_price,
    )
    print(estimate.summary())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "measure": _cmd_measure,
        "arena": _cmd_arena,
        "monitor": _cmd_monitor,
        "profile": _cmd_profile,
        "schedule": _cmd_schedule,
        "analyze": _cmd_analyze,
        "estimate-cost": _cmd_estimate_cost,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        # Whatever the package itself refuses (a campaign that cannot run
        # as asked, a malformed fault plan, behavior mix or snapshot file)
        # is one typed line, not a traceback.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
