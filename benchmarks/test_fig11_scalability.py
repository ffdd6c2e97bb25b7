"""Figure 11 — scalability with the number of workers (TWEETS-UK).

11(a): STS-UK-Q1, #Q = 10M;  11(b): STS-UK-Q2, #Q = 20M;
11(c): STS-UK-Q3, #Q = 20M; workers vary from 8 to 24 with 4 dispatchers.

Expected shape (paper): hybrid is the best in most cases and scales with
the number of workers; metric scales worst on Q1, kd-tree scales worst on
Q2.
"""

import pytest

from repro.runtime import ClusterConfig

COMPETITORS = ["hybrid", "metric", "kd-tree"]
CASES = [("Q1", "10M"), ("Q2", "20M"), ("Q3", "20M")]
WORKER_COUNTS = [8, 16, 24]


@pytest.mark.parametrize("group,mu_label", CASES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("name", COMPETITORS)
def test_fig11_scalability(benchmark, experiments, standard_config, record_row,
                           group, mu_label, workers, name):
    config = standard_config("uk", group, mu_label, cluster=ClusterConfig(num_workers=workers))
    result = benchmark.pedantic(
        lambda: experiments.get(name, config), rounds=1, iterations=1
    )
    benchmark.extra_info["throughput_tuples_per_s"] = result.report.throughput
    subfigure = {"Q1": "11(a)", "Q2": "11(b)", "Q3": "11(c)"}[group]
    record_row(
        "Figure %s Scalability, STS-UK-%s (#Q=%s scaled)" % (subfigure, group, mu_label),
        {
            "#workers": workers,
            "algorithm": name,
            "throughput (tuples/s)": result.report.throughput,
        },
    )


@pytest.mark.parametrize("group,mu_label", CASES)
@pytest.mark.parametrize("name", COMPETITORS)
def test_fig11_shape_throughput_grows_with_workers(experiments, standard_config,
                                                   group, mu_label, name):
    small, large = (
        experiments.get(
            name, standard_config("uk", group, mu_label, cluster=ClusterConfig(num_workers=workers))
        )
        for workers in (8, 24)
    )
    assert large.report.throughput >= small.report.throughput * 0.9
