"""The surface ``benchmarks/e2e`` uses of ``src/`` (frozen between benchmark PRs).

The benchmark wraps public entry points by name (``tracer.TARGETS``) and
reads profile counters by name (``bench.layers``).  Dropping one of those
names breaks only the traced run, which tier-1 never executes — the opt-in
``-m bench`` smoke would be the first to notice.  These checks resolve every
name without running a replay.
"""

import ast
import functools
import importlib.util
import os
from collections import Counter

from repro.adjustment import GreedySelector, LocalLoadAdjuster
from repro.runtime import Cluster, ClusterConfig
from repro.runtime.profiling import DedupProfile, MatchProfile, RouteProfile

from harness import make_alpha_beta_workload

E2E = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "e2e")


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("e2e_tracer", os.path.join(E2E, "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for owner, attribute, span in tracer.TARGETS:
        assert callable(getattr(owner, attribute, None)), (owner, attribute, span)


def test_profiles_expose_every_counter_the_layers_read():
    """``layers`` sums ``getattr(event, name)`` over each profile tuple:
    ``{k: sum(getattr(m, k) for m in profile.<tier>) for k in (<names>)}``."""
    with open(os.path.join(E2E, "bench.py")) as handle:
        tree = ast.parse(handle.read())
    layers = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "layers"
    )
    events = {
        "matchers": MatchProfile().event(0),
        "routers": RouteProfile().event(0),
        "mergers": DedupProfile().event(0),
    }
    read = {}
    for comp in ast.walk(layers):
        if not isinstance(comp, ast.DictComp):
            continue
        sources = [
            node.attr for node in ast.walk(comp.value)
            if isinstance(node, ast.Attribute) and node.attr in events
        ]
        if sources:
            read[sources[0]] = [ast.literal_eval(name) for name in comp.generators[0].iter.elts]
    assert set(read) == set(events)
    for tier, names in read.items():
        assert names
        for name in names:
            assert isinstance(getattr(events[tier], name, None), int), (tier, name)


def schedule(total, size, adjust_every, checkpoint_every):
    """``(windows, adjustment rounds, checkpoint_now calls)`` of a replay of
    ``total`` tuples on a fresh checkpointed cluster: a checkpoint at stream
    start, windows clipped at both cadences, an adjustment round doubling as
    a checkpoint (without passing through ``checkpoint_now``)."""
    windows = adjustments = 0
    checkpoints = 1
    since_adjustment = since_checkpoint = 0
    while total:
        take = min(
            size, total, adjust_every - since_adjustment, checkpoint_every - since_checkpoint
        )
        windows += 1
        total -= take
        since_adjustment += take
        since_checkpoint += take
        if since_adjustment == adjust_every:
            adjustments += 1
            since_adjustment = since_checkpoint = 0
        elif since_checkpoint == checkpoint_every:
            checkpoints += 1
            since_checkpoint = 0
    return windows, adjustments, checkpoints


def test_the_replay_loop_goes_through_the_entry_points_the_tracer_wraps(monkeypatch):
    """``tracer._wrap`` patches class attributes of ``Cluster``; a replay
    loop that reached the window or barrier code any other way would
    silently zero ``cluster.windows`` / ``adjustment.rounds`` /
    ``checkpoint.count`` in a traced run.

    The per-tuple driver is the exception: it replays the stream between
    two barriers as one run of ``Cluster._run``, which the tracer does not
    wrap (it wraps ``process``, a run of one), so a traced per-tuple
    replay counts no windows until the tracer wraps the run loop."""
    calls = Counter()
    for name in ("process", "_run", "process_batch", "run_adjustment", "checkpoint_now", "report"):
        original = getattr(Cluster, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(Cluster, name, functools.wraps(original)(counted))

    plan, tuples = make_alpha_beta_workload()
    config = ClusterConfig(num_dispatchers=2, num_workers=4, checkpoint_every=150)
    adjust_every, total = 200, len(tuples)
    assert total > 3 * adjust_every and total % 64

    with Cluster(plan, config) as cluster:
        cluster.run(
            tuples, adjust_every=adjust_every, local_adjuster=LocalLoadAdjuster(GreedySelector())
        )
    runs, adjustments, checkpoints = schedule(total, total, adjust_every, 150)
    assert runs == 7  # clipped at 150, 200, 350, 400, 550 and 600
    assert calls == {
        "_run": runs, "run_adjustment": adjustments, "checkpoint_now": checkpoints, "report": 1,
    }

    calls.clear()
    with Cluster(plan, config) as cluster:
        cluster.run_batched(
            tuples, batch_size=64, adjust_every=adjust_every,
            local_adjuster=LocalLoadAdjuster(GreedySelector()),
        )
    windows, adjustments, checkpoints = schedule(total, 64, adjust_every, 150)
    assert windows > -(-total // 64)  # the cadences clipped some
    assert calls == {
        "process_batch": windows, "run_adjustment": adjustments, "checkpoint_now": checkpoints,
        "report": 1,
    }
