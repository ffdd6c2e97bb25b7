"""Figure 9 — average dispatcher memory: hybrid vs metric vs kd-tree.

Expected shape (paper): kd-tree partitioning uses the least dispatcher
memory (cell -> worker only); metric-based and hybrid keep term maps and
H2 postings, with hybrid highest on Q2 where more cells carry text
partitioning information.  Absolute numbers are analytic estimates of the
routing-structure size, not JVM heap sizes (see DESIGN.md).
"""

import pytest

from repro.runtime import ClusterConfig

COMPETITORS = ["hybrid", "metric", "kd-tree"]
CASES = [("Q1", "5M"), ("Q2", "10M"), ("Q3", "10M")]
DATASETS = ["us", "uk"]


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("group,mu_label", CASES)
@pytest.mark.parametrize("name", COMPETITORS)
def test_fig09_dispatcher_memory(benchmark, experiments, standard_config, record_row,
                                 dataset, group, mu_label, name):
    config = standard_config(dataset, group, mu_label)
    result = benchmark.pedantic(
        lambda: experiments.get(name, config), rounds=1, iterations=1
    )
    memory_mb = result.report.avg_dispatcher_memory_mb
    benchmark.extra_info["dispatcher_memory_mb"] = memory_mb
    subfigure = {"Q1": "9(a)", "Q2": "9(b)", "Q3": "9(c)"}[group]
    record_row(
        "Figure %s Dispatcher memory, %s (#Q=%s scaled)" % (subfigure, group, mu_label),
        {
            "queries": "STS-%s-%s" % (dataset.upper(), group),
            "algorithm": name,
            "avg dispatcher memory (MB)": memory_mb,
        },
    )


@pytest.mark.parametrize("group,mu_label", CASES)
def test_fig09_shape_kdtree_uses_least_memory(experiments, standard_config, group, mu_label):
    config = standard_config("us", group, mu_label)
    memory = {
        name: experiments.get(name, config).report.avg_dispatcher_memory_mb
        for name in COMPETITORS
    }
    assert memory["kd-tree"] <= memory["metric"]
    assert memory["kd-tree"] <= memory["hybrid"]


@pytest.mark.parametrize("group,mu_label", [("Q1", "5M"), ("Q2", "10M")])
def test_fig09_sharded_measured_memory(experiments, standard_config, record_row,
                                       group, mu_label):
    """Sharded dispatch: measured per-shard replica memory vs the estimate.

    Under sharded dispatch each dispatcher's routing structure is a real
    replica, so the Figure 9 number is *measured* on the replica rather
    than charged analytically.  The replicas mirror the coordinator's
    index exactly, hence the measured per-shard footprint must equal the
    analytic estimate of the authoritative index — the fidelity claim
    recorded next to the estimate below.
    """
    sharded = ClusterConfig(dispatch_backend="inprocess")
    config = standard_config("us", group, mu_label, cluster=sharded)
    result = experiments.get("hybrid", config)
    measured = result.report.dispatcher_memory
    analytic = result.cluster.routing_index.memory_bytes()
    assert len(measured) == config.cluster.num_dispatchers
    assert all(value == analytic for value in measured.values())
    subfigure = {"Q1": "9(a)", "Q2": "9(b)", "Q3": "9(c)"}[group]
    record_row(
        "Figure %s Dispatcher memory under sharded dispatch, %s (#Q=%s scaled)"
        % (subfigure, group, mu_label),
        {
            "queries": "STS-US-%s" % group,
            "algorithm": "hybrid (sharded dispatch)",
            "measured per-shard (MB)": sum(measured.values()) / len(measured) / 1e6,
            "analytic estimate (MB)": analytic / 1e6,
        },
    )
