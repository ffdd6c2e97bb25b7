"""Tests for the ``python -m repro`` command-line interface."""

import io
import json
import multiprocessing
import os
from dataclasses import fields

import pytest

from repro.bench import ExperimentConfig
from repro.cli import _cluster_config, build_parser, main
from repro.runtime import ClusterConfig


#: A manifest whose one worker address has an out-of-range port.
BAD_PORT_MANIFEST = os.path.join(os.path.dirname(__file__), "data", "bad_port_manifest.json")


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


TINY_WORKLOAD = ["--mu", "150", "--objects", "300", "--workers", "4", "--dispatchers", "2"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.partitioner == "hybrid"
        assert args.group == "Q1"
        assert args.workers == 8

    def test_compare_defaults_to_all_partitioners(self):
        args = build_parser().parse_args(["compare"])
        assert len(args.partitioners) == 7

    def test_adjust_selector_choices(self):
        args = build_parser().parse_args(["adjust", "--selector", "RA"])
        assert args.selector == "RA"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adjust", "--selector", "XX"])

    def test_invalid_partitioner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--partitioner", "bogus"])


class TestCommands:
    def test_run_command_prints_report(self):
        code, output = run_cli(["run", "--partitioner", "kd-tree", *TINY_WORKLOAD])
        assert code == 0
        assert "throughput (tuples/s)" in output
        assert "kd-tree on STS-US-Q1" in output

    def test_run_command_hybrid_q3(self):
        code, output = run_cli(["run", "--partitioner", "hybrid", "--group", "Q3", *TINY_WORKLOAD])
        assert code == 0
        assert "hybrid on STS-US-Q3" in output

    def test_compare_command_subset(self):
        code, output = run_cli(
            ["compare", "--partitioners", "kd-tree", "hybrid", *TINY_WORKLOAD]
        )
        assert code == 0
        assert "kd-tree" in output
        assert "hybrid" in output
        assert "Best strategy:" in output

    def test_adjust_command(self):
        code, output = run_cli(
            ["adjust", "--selector", "GR", "--mu", "300", "--objects", "400", "--workers", "4"]
        )
        assert code == 0
        assert "Local load adjustment with GR" in output
        assert "migration cost (KB)" in output


#: Every deployment flag of ``add_cluster_arguments``: (flag, value, the
#: ``ClusterConfig`` field it sets, how to read the value back).
DEPLOYMENT_FLAGS = [
    ("--workers", "3", "num_workers", 3),
    ("--dispatchers", "5", "num_dispatchers", 5),
    ("--mergers", "1", "num_mergers", 1),
    ("--backend", "multiprocess", "backend", "multiprocess"),
    ("--dispatch-backend", "inprocess", "dispatch_backend", "inprocess"),
    ("--merger-backend", "socket", "merger_backend", "socket"),
    ("--sink", "memory", "sink", lambda sink: sink.kind == "memory"),
    ("--checkpoint-every", "250", "checkpoint_every", 250),
    ("--checkpoint-path", "ckpt.jsonl", "checkpoint_path", "ckpt.jsonl"),
    (
        "--fault-plan", '[{"action": "drop", "role": "merger", "endpoint_id": 1}]', "fault_plan",
        lambda plan: plan.for_role("merger")[0].action == "drop",
    ),
    ("--telemetry-path", "t.jsonl", "telemetry", lambda spec: spec.path == "t.jsonl"),
]


class TestOneDeclaration:
    """A deployment option is one ``ClusterConfig`` field plus one flag of
    ``add_cluster_arguments``; ``ExperimentConfig`` never restates it."""

    def test_experiment_config_restates_no_cluster_field(self):
        experiment = {f.name for f in fields(ExperimentConfig)}
        assert experiment & {f.name for f in fields(ClusterConfig)} == set()
        assert "cluster" in experiment
        assert not experiment & {"sink_path", "telemetry_path", "profile_sample"}

    @pytest.mark.parametrize("command", ["run", "compare", "profile", "adjust"])
    @pytest.mark.parametrize(
        "flag,value,field,expected", DEPLOYMENT_FLAGS, ids=[row[0] for row in DEPLOYMENT_FLAGS]
    )
    def test_every_deployment_flag_reaches_the_config(self, command, flag, value, field, expected):
        argv = [command, flag] + ([value] if value is not None else [])
        config = _cluster_config(build_parser().parse_args(argv))
        actual = getattr(config, field)
        assert expected(actual) if callable(expected) else actual == expected
        untouched = [f.name for f in fields(ClusterConfig) if f.name != field]
        default = ClusterConfig()
        assert all(getattr(config, name) == getattr(default, name) for name in untouched)

    @pytest.mark.parametrize("command", ["run", "compare", "profile", "adjust"])
    def test_jsonl_sink_and_manifest_flags(self, command, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"workers": ["10.0.0.2:7101"]}))
        config = _cluster_config(build_parser().parse_args([
            command, "--sink", "jsonl", "--sink-path", "out.jsonl", "--cluster", str(manifest),
        ]))
        assert (config.sink.kind, config.sink.path) == ("jsonl", "out.jsonl")
        assert config.manifest.workers == (("10.0.0.2", 7101),)

    def test_adjust_takes_what_run_takes(self):
        """``--mergers`` was "unrecognized arguments" under ``adjust``."""
        code, output = run_cli([
            "adjust", "--selector", "GR", "--mu", "300", "--objects", "300", "--workers", "2",
            "--backend", "multiprocess", "--merger-backend", "multiprocess", "--mergers", "1",
        ])
        assert code == 0
        assert "Local load adjustment with GR" in output
        assert multiprocessing.active_children() == []


#: ``run`` / ``adjust`` tables recorded at the commit before the options
#: were folded into one declaration (wall-clock rows and padding removed).
RUN_TABLE = """\
kd-tree on STS-US-Q1 (mu=150, 4 workers)
----------------------------------------
metric                  value
partition units         4
text-partitioned units  0
tuples processed        510
throughput (tuples/s)   176227
mean latency (ms)       14.10
p95 latency (ms)        14.76
load imbalance          1.83
object fanout           1.00
query fanout            1.00
dispatcher memory (MB)  0.29
worker memory (MB)      0.02
matches delivered       1
delivery latency (ms)   4.00
checkpoints taken       5
workers recovered       0
"""
ADJUST_TABLE = """\
Local load adjustment with GR (mu=300)
--------------------------------------
metric                      value
selector                    GR
cells migrated              1
queries migrated            5
migration cost (KB)         0.42
migration time (s)          0.23
imbalance before            3.57
imbalance after             1.66
tuples <100ms               0.70
tuples 100ms-1s             0.30
tuples >1s                  0.00
post-adjustment throughput  314654
"""


def simulated_rows(output):
    """The table minus its wall-clock rows (and the cells' right padding)."""
    wall_clock = ("partitioning time", "cell-selection time")
    return "".join(
        line.rstrip() + "\n" for line in output.splitlines() if not line.startswith(wall_clock)
    )


class TestTablesUnchanged:
    def test_run_table(self):
        code, output = run_cli([
            "run", "--partitioner", "kd-tree", *TINY_WORKLOAD,
            "--batch-size", "64", "--adjust-every", "200", "--checkpoint-every", "150",
        ])
        assert code == 0
        assert simulated_rows(output) == RUN_TABLE

    def test_adjust_table(self):
        code, output = run_cli([
            "adjust", "--selector", "GR", "--mu", "300", "--objects", "400", "--workers", "4",
            "--batch-size", "32", "--adjust-every", "150", "--dispatch-backend", "inprocess",
        ])
        assert code == 0
        assert simulated_rows(output) == ADJUST_TABLE


class TestEarlyExit:
    """A deployment that cannot run is one ``parser.error`` line (exit 2)
    at parse time — before partitioning, before any process is spawned."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--dispatchers", "0", "--backend", "multiprocess"], "num_dispatchers"),
            (["adjust", "--workers", "0"], "num_workers"),
            (["run", "--cluster", "no/such/manifest.json"], "manifest.json"),
            (["compare", "--fault-plan", '[{"action"'], "invalid deployment"),
            (["profile", "--fault-plan", '[{"role": "worker"}]'], "action"),
            (["run", "--sink", "jsonl"], "jsonl sink needs a path"),
            (["run", "--backend", "multiprocess", "--workers", "2",
              "--fault-plan", '[{"action": "crash"}]'], "unknown fault action 'crash'"),
            (["run", "--backend", "multiprocess", "--workers", "2",
              "--fault-plan", '[{"action": "kill", "role": "wroker"}]'], "unknown fault role"),
            (["run", "--fault-plan", '[{"action": "drop", "after_sends": -1}]'], "after_sends"),
            (["run", "--backend", "multiprocess", "--fault-plan",
              '[{"action": "kill", "message_type": "RouteBach"}]'], "'RouteBach' is never counted"),
            (["run", "--fault-plan", '[{"action": "kill", "role": "merger", '
              '"message_type": "RouteBatch"}]'], "'RouteBatch' is never counted on a merger"),
            (["run", "--fault-plan", '[{"action": "drop", "message_type": "Observe"}]'],
             "'Observe' is never counted"),
            (["run", "--workers", "2", "--fault-plan", '[{"action": "kill", "endpoint_id": 2}]'],
             "endpoint_id 2 is outside the worker tier of 2"),
            (["run", "--fault-plan", '[{"action": "delay"}]'], "unknown fault action 'delay'"),
            (["run", "--fault-plan", '[{"action": "kill", "endpoint_id": -1}]'], "endpoint_id"),
            (["run", "--cluster", BAD_PORT_MANIFEST], "'127.0.0.1:70000'"),
            (["serve", "--role", "worker", "--listen", "127.0.0.1:70000"], "'127.0.0.1:70000'"),
            (["serve", "--role", "worker", "--listen", "127.0.0.1:abc"], "'127.0.0.1:abc'"),
            (["run", "--mu", "-5", "--objects", "300"], "--mu must be >= 0, got -5"),
            (["run", "--objects", "-3"], "--objects must be >= 0, got -3"),
            (["compare", "--batch-size", "-5"], "--batch-size must be >= 0, got -5"),
            (["profile", "--adjust-every", "-1"], "--adjust-every must be >= 0, got -1"),
            (["adjust", "--mu", "-1"], "--mu must be >= 0, got -1"),
            (["adjust", "--objects", "-1"], "--objects must be >= 0, got -1"),
            (["adjust", "--batch-size", "-2"], "--batch-size must be >= 0, got -2"),
            (["adjust", "--adjust-every", "-1"], "--adjust-every must be >= 0, got -1"),
            (["run", "--checkpoint-every", "-1"], "checkpoint_every must be >= 0, got -1"),
        ],
    )
    def test_bad_deployment_is_a_usage_error(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.run_experiment", lambda *args: pytest.fail("ran an experiment")
        )
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
        stderr = capsys.readouterr().err
        assert message in stderr
        assert "Traceback" not in stderr
        assert stderr.strip().splitlines()[-1].startswith("repro: error: invalid deployment: ")
        assert multiprocessing.active_children() == []
