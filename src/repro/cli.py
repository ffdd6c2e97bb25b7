"""Command-line interface for the PS2Stream reproduction.

Seven subcommands cover the workflows a downstream user needs most often::

    python -m repro run     --partitioner hybrid --group Q3 --mu 2000
    python -m repro compare --group Q2 --workers 8
    python -m repro adjust  --selector GR --mu 2000
    python -m repro serve   --role worker --listen 0.0.0.0:7411
    python -m repro report  telemetry.jsonl
    python -m repro profile --mu 2000 --stacks-path stacks.txt
    python -m repro lint    --list-rules

* ``run`` — build one workload, partition it with one strategy, replay the
  stream on the simulated cluster and print the run report.
* ``compare`` — run every partitioning strategy (or a chosen subset) on the
  same workload and print a comparison table, like
  ``examples/partitioner_comparison.py`` but parameterised.
* ``adjust`` — reproduce a local load-adjustment round with a chosen
  Minimum Cost Migration selector and print its cost/time/latency impact.
* ``serve`` — host one cluster endpoint (worker, dispatcher shard or
  merger shard) as a network service for the ``socket`` backends; a
  coordinator started with ``run --backend socket --cluster manifest.json``
  connects to the addresses the manifest lists (README, "Multi-host
  deployment").
* ``report`` — render the timeline of a finished run (per-tier
  utilisation, window trace waterfall, adjustment/checkpoint/recovery
  annotations) from the JSONL a ``run --telemetry-path`` wrote.
* ``profile`` — replay one workload and print its hot-loop cost
  counters as the per-tier attribution table (postings scanned, routing
  probes, dedup lookups — docs/PROFILING.md) plus, for every
  out-of-process tier, the messages and bytes the coordinator moved;
  with ``--stacks-path`` also run the sampling profiler and write
  collapsed-stack lines for flamegraph tooling.
* ``lint`` — run the RL00x static-analysis suite over the source tree
  (rule catalog: ``docs/STATIC_ANALYSIS.md``); exit 0 means clean.  Its
  arguments go unparsed to :func:`repro.lint.runner.main`.

All numbers are simulated (see DESIGN.md); the CLI is a convenience wrapper
around :mod:`repro.bench`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bench import (
    ExperimentConfig,
    PARTITIONER_FACTORIES,
    format_table,
    run_experiment,
    run_migration_experiment,
)
from .runtime import (
    DISPATCH_BACKENDS,
    MERGE_BACKENDS,
    TRANSPORT_BACKENDS,
    ClusterConfig,
    ProfilingSpec,
    SinkSpec,
    TelemetrySpec,
)
from .runtime.fabric import load_manifest, parse_address, parse_fault_plan

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PS2Stream reproduction: distributed spatio-textual publish/subscribe",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_stream_arguments(sub: argparse.ArgumentParser) -> None:
        """The workload and how it is replayed (``ExperimentConfig``'s own fields)."""
        sub.add_argument("--dataset", choices=["us", "uk"], default="us",
                         help="synthetic corpus to stream (default: us)")
        sub.add_argument("--group", choices=["Q1", "Q2", "Q3"], default="Q1",
                         help="STS query group (default: Q1)")
        sub.add_argument("--mu", type=int, default=2000,
                         help="live query population (default: 2000)")
        sub.add_argument("--objects", type=int, default=4000,
                         help="streamed objects after warm-up (default: 4000)")
        sub.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
        sub.add_argument(
            "--batch-size", type=int, default=0,
            help="tuples per execution window of the batched engine (docs/"
                 "ARCHITECTURE.md, 'Execution engines'); 0 replays the stream "
                 "tuple by tuple on the per-tuple driver (default: 0)")
        sub.add_argument(
            "--adjust-every", type=int, default=0,
            help="tuples between closed-loop dynamic-adjustment rounds "
                 "(paper Section V); every K tuples the attached adjusters "
                 "run one round at a window barrier; 0 disables adjustment "
                 "(default: 0)")
        sub.add_argument(
            "--adjuster", choices=["local", "global", "both"], default="local",
            help="adjusters driven by the closed loop when --adjust-every is "
                 "set: 'local' = Section V-A cell migration, 'global' = "
                 "Section V-B repartitioning, 'both' = local then global "
                 "(default: local)")

    def add_cluster_arguments(sub: argparse.ArgumentParser) -> None:
        """The deployment: one flag per ``ClusterConfig`` field the CLI
        exposes, read back by :func:`_cluster_config` — the only place a
        deployment option is declared."""
        sub.add_argument("--workers", type=int, default=8,
                         help="number of workers (default: 8)")
        sub.add_argument("--dispatchers", type=int, default=4,
                         help="number of dispatchers (default: 4)")
        sub.add_argument("--mergers", type=int, default=2,
                         help="number of merger shards (default: 2)")
        sub.add_argument(
            "--backend", choices=TRANSPORT_BACKENDS, default="inprocess",
            help="worker transport backend: 'inprocess' hosts every worker "
                 "in this interpreter (reference), 'multiprocess' runs each "
                 "of the --workers as its own OS process for real multi-core "
                 "matching, 'socket' reaches 'repro serve --role worker' "
                 "endpoints over TCP (addresses from --cluster, or loopback "
                 "processes spawned on demand; default: inprocess)")
        sub.add_argument(
            "--dispatch-backend", choices=DISPATCH_BACKENDS, default="inline",
            help="dispatch backend: 'inline' routes every tuple on the "
                 "coordinator (reference), 'inprocess'/'multiprocess' shard "
                 "routing across the --dispatchers, each shard owning its "
                 "own replica of the routing index; 'multiprocess' runs one "
                 "OS process per shard and pipelines routing of the next "
                 "window against worker matching of the current one, "
                 "'socket' reaches 'repro serve --role dispatcher' endpoints "
                 "over TCP (default: inline)")
        sub.add_argument(
            "--merger-backend", choices=MERGE_BACKENDS, default="inprocess",
            help="merger backend: 'inprocess' hosts the --mergers shards in "
                 "this interpreter (reference), 'multiprocess' runs each "
                 "merger shard as its own OS process; combined with "
                 "--backend multiprocess, workers ship match results "
                 "directly to the merger shards instead of through the "
                 "coordinator; 'socket' reaches 'repro serve --role merger' "
                 "endpoints over TCP (default: inprocess)")
        sub.add_argument(
            "--cluster", default=None, metavar="MANIFEST",
            help="host-manifest JSON file mapping the socket backends to "
                 "endpoint addresses: {\"workers\": [\"host:port\", ...], "
                 "\"dispatchers\": [...], \"mergers\": [...]}; tiers missing "
                 "from the manifest (or all tiers, without --cluster) are "
                 "spawned as loopback serve processes")
        sub.add_argument(
            "--sink", choices=["null", "memory", "jsonl"], default="null",
            help="subscriber sink attached to every merger shard: 'null' "
                 "discards deliveries, 'memory' buffers them in the shard, "
                 "'jsonl' appends one JSON line per delivery to a per-shard "
                 "file (requires --sink-path; default: null)")
        sub.add_argument(
            "--sink-path", default=None,
            help="output path of the jsonl sink; each merger shard writes "
                 "<path>.m<id> (or substitutes a {merger} placeholder)")
        sub.add_argument(
            "--checkpoint-every", type=int, default=0,
            help="tuples between worker-partition checkpoints (docs/"
                 "ARCHITECTURE.md, 'Checkpoint & recovery'); every K tuples "
                 "the coordinator fences the pipeline and snapshots each "
                 "worker's query assignments, enabling recovery of a dead "
                 "worker onto a survivor; 0 disables checkpointing and "
                 "recovery (default: 0)")
        sub.add_argument(
            "--checkpoint-path", default=None,
            help="optional JSONL file the checkpoint store appends encoded "
                 "snapshots to (for post-mortem inspection)")
        sub.add_argument(
            "--fault-plan", default=None, metavar="PLAN",
            help="chaos-harness fault plan: inline JSON (e.g. "
                 "'[{\"action\": \"kill\", \"role\": \"worker\", "
                 "\"endpoint_id\": 1, \"after_sends\": 5}]') or the path of "
                 "a JSON file; faults fire inside the coordinator's fleets "
                 "on the multiprocess/socket backends (actions: kill, drop, "
                 "truncate)")
        sub.add_argument(
            "--telemetry-path", default=None, metavar="JSONL",
            help="enable runtime telemetry (docs/ARCHITECTURE.md, "
                 "'Telemetry') and append every event — per-window "
                 "route/match/merge spans, per-tier gauge samples, "
                 "adjustment/checkpoint/recovery lifecycle marks — to this "
                 "JSONL file; render it afterwards with 'repro report'. "
                 "Telemetry is observation-only: the run report is "
                 "byte-identical with or without it (default: off)")

    run_parser = subparsers.add_parser("run", help="run one partitioning strategy")
    add_stream_arguments(run_parser)
    add_cluster_arguments(run_parser)
    run_parser.add_argument("--partitioner", choices=sorted(PARTITIONER_FACTORIES),
                            default="hybrid", help="strategy to deploy (default: hybrid)")

    compare_parser = subparsers.add_parser("compare", help="compare partitioning strategies")
    add_stream_arguments(compare_parser)
    add_cluster_arguments(compare_parser)
    compare_parser.add_argument(
        "--partitioners", nargs="+", choices=sorted(PARTITIONER_FACTORIES),
        default=sorted(PARTITIONER_FACTORIES),
        help="strategies to compare (default: all seven)")

    adjust_parser = subparsers.add_parser("adjust", help="run a local load-adjustment round")
    adjust_parser.add_argument("--selector", choices=["DP", "GR", "SI", "RA"], default="GR",
                               help="Minimum Cost Migration selector (default: GR)")
    adjust_parser.add_argument("--mu", type=int, default=2000,
                               help="live query population (default: 2000)")
    adjust_parser.add_argument("--objects", type=int, default=2000,
                               help="objects streamed before the adjustment (default: 2000)")
    adjust_parser.add_argument(
        "--batch-size", type=int, default=0,
        help="tuples per execution window of the batched engine; 0 = "
             "per-tuple driver (default: 0)")
    adjust_parser.add_argument(
        "--adjust-every", type=int, default=0,
        help="run the adjustment closed-loop every this many tuples during "
             "the replay instead of once afterwards (default: 0)")
    add_cluster_arguments(adjust_parser)

    serve_parser = subparsers.add_parser(
        "serve", help="host one cluster endpoint over TCP")
    serve_parser.add_argument(
        "--role", choices=["worker", "dispatcher", "merger"], required=True,
        help="which tier's endpoint this process hosts; the coordinator's "
             "Init handshake supplies the endpoint id and construction "
             "arguments, so one serve process can play any shard of its "
             "role across successive sessions")
    serve_parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on; port 0 binds an ephemeral port and "
             "prints it (default: 127.0.0.1:0)")
    serve_parser.add_argument(
        "--once", action="store_true",
        help="serve a single coordinator session and exit instead of "
             "accepting the next one")
    serve_parser.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="also expose a Prometheus-style text endpoint on "
             "127.0.0.1:PORT reporting this endpoint's liveness and "
             "served-session counter (0 binds an ephemeral port and "
             "prints it; default: off)")

    report_parser = subparsers.add_parser(
        "report", help="render a run timeline from a telemetry JSONL")
    report_parser.add_argument(
        "telemetry", metavar="JSONL",
        help="telemetry file written by a run with --telemetry-path")
    report_parser.add_argument(
        "--width", type=int, default=30,
        help="bar width of the waterfall columns (default: 30)")
    report_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the decoded telemetry events as a JSON array instead "
             "of the rendered timeline")

    profile_parser = subparsers.add_parser(
        "profile", help="replay one workload and print its hot-loop cost counters")
    add_stream_arguments(profile_parser)
    add_cluster_arguments(profile_parser)
    profile_parser.add_argument(
        "--partitioner", choices=sorted(PARTITIONER_FACTORIES),
        default="hybrid", help="strategy to deploy (default: hybrid)")
    profile_parser.add_argument(
        "--stacks-path", default=None, metavar="PATH",
        help="also run the coordinator-side sampling profiler and write "
             "collapsed-stack lines ('thread;frame;frame count') to PATH "
             "for flamegraph.pl / speedscope (default: counters only)")
    profile_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the profile report as JSON instead of the table")

    # Listed for --help only: main() hands everything after "lint" to the
    # linter's own parser (repro/lint/runner.py).
    subparsers.add_parser(
        "lint", add_help=False, help="run the RL00x static-analysis suite")
    return parser


def _check_counts(args: argparse.Namespace) -> None:
    """Refuse a negative stream size or cadence (``--mu -5`` used to run
    as if it were 0)."""
    for name in ("mu", "objects", "batch_size", "adjust_every"):
        value = getattr(args, name)
        if value < 0:
            raise ValueError("--%s must be >= 0, got %d" % (name.replace("_", "-"), value))


def _cluster_config(args: argparse.Namespace) -> ClusterConfig:
    """The deployment the ``add_cluster_arguments`` flags describe.

    Built (and validated) at parse time: a bad size or backend, a missing
    ``--cluster`` manifest, an unparsable ``--fault-plan`` raise here,
    before anything is partitioned or spawned.
    """
    return ClusterConfig(
        num_workers=args.workers,
        num_dispatchers=args.dispatchers,
        num_mergers=args.mergers,
        backend=args.backend,
        dispatch_backend=args.dispatch_backend,
        merger_backend=args.merger_backend,
        manifest=load_manifest(args.cluster) if args.cluster else None,
        sink=SinkSpec(kind=args.sink, path=args.sink_path),
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
        fault_plan=parse_fault_plan(args.fault_plan) if args.fault_plan else None,
        telemetry=TelemetrySpec(path=args.telemetry_path) if args.telemetry_path else None,
    )


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=args.dataset,
        group=args.group,
        mu=args.mu,
        num_objects=args.objects,
        sample_objects=max(500, args.mu),
        seed=args.seed,
        batch_size=args.batch_size,
        adjust_every=args.adjust_every,
        adjuster=args.adjuster,
        cluster=args.deployment,
    )


def _command_run(args: argparse.Namespace, out) -> int:
    config = _experiment_config(args)
    result = run_experiment(args.partitioner, config)
    result.close()
    report = result.report
    text_units = sum(1 for unit in result.plan.units if unit.terms is not None)
    rows = [
        {"metric": "partition units", "value": len(result.plan.units)},
        {"metric": "text-partitioned units", "value": text_units},
        {"metric": "partitioning time (s)", "value": result.partition_seconds},
        {"metric": "tuples processed", "value": report.tuples_processed},
        {"metric": "throughput (tuples/s)", "value": report.throughput},
        {"metric": "mean latency (ms)", "value": report.mean_latency_ms},
        {"metric": "p95 latency (ms)", "value": report.p95_latency_ms},
        {"metric": "load imbalance", "value": report.load_imbalance},
        {"metric": "object fanout", "value": report.object_fanout},
        {"metric": "query fanout", "value": report.query_fanout},
        {"metric": "dispatcher memory (MB)", "value": report.avg_dispatcher_memory_mb},
        {"metric": "worker memory (MB)", "value": report.avg_worker_memory_mb},
        {"metric": "matches delivered", "value": report.matches_delivered},
        {"metric": "delivery latency (ms)", "value": report.delivery_mean_latency_ms},
    ]
    recovery = report.recovery
    if recovery is not None:
        rows.append({"metric": "checkpoints taken", "value": recovery.checkpoints_taken})
        rows.append({"metric": "workers recovered", "value": len(recovery.events)})
        if recovery.events:
            rows.append({"metric": "tuples lost to recovery", "value": recovery.lost_tuples})
    title = "%s on STS-%s-%s (mu=%d, %d workers)" % (
        args.partitioner, args.dataset.upper(), args.group, args.mu, args.workers)
    out.write(format_table(title, rows))
    return 0


def _command_compare(args: argparse.Namespace, out) -> int:
    config = _experiment_config(args)
    rows = []
    for name in args.partitioners:
        result = run_experiment(name, config)
        result.close()
        report = result.report
        rows.append(
            {
                "algorithm": name,
                "throughput (tuples/s)": report.throughput,
                "latency (ms)": report.mean_latency_ms,
                "imbalance": report.load_imbalance,
                "dispatcher MB": report.avg_dispatcher_memory_mb,
                "worker MB": report.avg_worker_memory_mb,
                "matches": report.matches_delivered,
            }
        )
    title = "Workload distribution strategies on STS-%s-%s (mu=%d, %d workers)" % (
        args.dataset.upper(), args.group, args.mu, args.workers)
    out.write(format_table(title, rows))
    best = max(rows, key=lambda row: row["throughput (tuples/s)"])
    out.write("Best strategy: %s\n" % best["algorithm"])
    return 0


def _command_adjust(args: argparse.Namespace, out) -> int:
    result = run_migration_experiment(
        args.selector, args.mu, num_objects=args.objects, batch_size=args.batch_size,
        adjust_every=args.adjust_every, cluster=args.deployment,
    )
    buckets = result.latency_buckets
    rows = [
        {"metric": "selector", "value": result.selector},
        {"metric": "cell-selection time (ms)", "value": result.selection_time_ms},
        {"metric": "cells migrated", "value": result.cells_moved},
        {"metric": "queries migrated", "value": result.queries_moved},
        {"metric": "migration cost (KB)", "value": result.migration_cost_mb * 1000.0},
        {"metric": "migration time (s)", "value": result.migration_time_s},
        {"metric": "imbalance before", "value": result.imbalance_before},
        {"metric": "imbalance after", "value": result.imbalance_after},
        {"metric": "tuples <100ms", "value": buckets.under_100ms},
        {"metric": "tuples 100ms-1s", "value": buckets.between_100ms_and_1s},
        {"metric": "tuples >1s", "value": buckets.over_1s},
        {"metric": "post-adjustment throughput", "value": result.throughput_after},
    ]
    out.write(format_table("Local load adjustment with %s (mu=%d)" % (args.selector, args.mu), rows))
    return 0


def _command_serve(args: argparse.Namespace, out) -> int:
    from .runtime import serve
    from .runtime.telemetry import TelemetryServer

    host, port = args.address

    def announce(bound_host: str, bound_port: int) -> None:
        out.write("serving role=%s on %s:%d\n" % (args.role, bound_host, bound_port))
        out.flush()

    sessions = {"count": 0}

    def on_session() -> None:
        sessions["count"] += 1

    def render() -> str:
        return (
            "# TYPE repro_serve_up gauge\n"
            'repro_serve_up{role="%s"} 1\n'
            "# TYPE repro_serve_sessions_total counter\n"
            'repro_serve_sessions_total{role="%s"} %d\n'
            % (args.role, args.role, sessions["count"])
        )

    telemetry_server: Optional[TelemetryServer] = None
    if args.telemetry_port is not None:
        telemetry_server = TelemetryServer(render, port=args.telemetry_port)
        out.write("telemetry on http://127.0.0.1:%d/\n" % telemetry_server.port)
        out.flush()
    try:
        serve(
            args.role, host, port,
            once=args.once, announce=announce, on_session=on_session,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        if telemetry_server is not None:
            telemetry_server.close()
    return 0


def _command_report(args: argparse.Namespace, out) -> int:
    import json

    from .runtime.telemetry import encode_event, read_events, render_timeline

    try:
        events = read_events(args.telemetry)
    except OSError as exc:
        out.write("cannot read %s: %s\n" % (args.telemetry, exc))
        return 1
    if not events:
        out.write("no telemetry events in %s\n" % args.telemetry)
        return 1
    if args.as_json:
        out.write(json.dumps([encode_event(event) for event in events], indent=2))
        out.write("\n")
        return 0
    out.write(render_timeline(events, width=max(1, args.width)))
    return 0


def _command_profile(args: argparse.Namespace, out) -> int:
    import json
    from dataclasses import asdict, replace

    from .runtime.profiling import profile_text

    # The counters need no switch; the sampler runs only when its output is wanted.
    if args.stacks_path is not None:
        args.deployment = replace(args.deployment, profiling=ProfilingSpec(sample=True))
    result = run_experiment(args.partitioner, _experiment_config(args))
    try:
        # The report drains the live endpoints and the stack fetch stops
        # the sampler, so both must happen before the cluster closes.
        profile = result.cluster.profile_report()
        stacks = result.cluster.profile_stacks()
    finally:
        result.close()
    if args.as_json:
        payload = {
            "matchers": [asdict(event) for event in profile.matchers],
            "routers": [
                {**asdict(event), "cells_probed": event.cells_probed} for event in profile.routers
            ],
            "mergers": [asdict(event) for event in profile.mergers],
        }
        if profile.wire:
            payload["wire"] = {
                tier: {
                    "tuples": profile.tuples,
                    "endpoints": [
                        {"endpoint_id": endpoint_id, **stats._asdict()}
                        for endpoint_id, stats in endpoints.items()
                    ],
                }
                for tier, endpoints in profile.wire.items()
            }
        if stacks is not None:
            payload["samples"] = sum(int(line.rsplit(" ", 1)[1]) for line in stacks)
        out.write(json.dumps(payload, indent=2, sort_keys=True))
        out.write("\n")
    else:
        out.write(
            "%s profile on STS-%s-%s (mu=%d, %d workers)\n\n"
            % (args.partitioner, args.dataset.upper(), args.group, args.mu, args.workers)
        )
        out.write(profile_text(profile))
    if args.stacks_path is not None and stacks is not None:
        with open(args.stacks_path, "w", encoding="utf-8") as handle:
            for line in stacks:
                handle.write(line)
                handle.write("\n")
        if not args.as_json:
            out.write(
                "\ncollapsed stacks (%d) written to %s\n"
                % (len(stacks), args.stacks_path)
            )
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point used by ``python -m repro`` and the tests."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from .lint.runner import main as lint_main

        return lint_main(argv[1:], out)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "compare", "profile", "adjust"):
            _check_counts(args)
            args.deployment = _cluster_config(args)
        if args.command == "serve":
            args.address = parse_address(args.listen)
    except (ValueError, OSError) as exc:
        parser.error("invalid deployment: %s" % exc)
    if args.command == "run":
        return _command_run(args, out)
    if args.command == "compare":
        return _command_compare(args, out)
    if args.command == "adjust":
        return _command_adjust(args, out)
    if args.command == "serve":
        return _command_serve(args, out)
    if args.command == "report":
        return _command_report(args, out)
    if args.command == "profile":
        return _command_profile(args, out)
    parser.error("unknown command %r" % args.command)
    return 2
