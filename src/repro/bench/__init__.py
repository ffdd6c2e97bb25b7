"""Experiment harness shared by the per-figure benchmarks in ``benchmarks/``."""

from .dynamic import (
    DriftExperimentResult,
    MigrationExperimentResult,
    run_drift_experiment,
    run_migration_experiment,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    PARTITIONER_FACTORIES,
    bench_scale,
    format_table,
    make_partitioner,
    make_stream,
    run_experiment,
)

__all__ = [
    "DriftExperimentResult",
    "ExperimentConfig",
    "ExperimentResult",
    "MigrationExperimentResult",
    "PARTITIONER_FACTORIES",
    "bench_scale",
    "format_table",
    "make_partitioner",
    "make_stream",
    "run_drift_experiment",
    "run_experiment",
    "run_migration_experiment",
]
