"""The surface ``benchmarks/e2e`` uses of ``src/`` (frozen between benchmark PRs).

The benchmark wraps public entry points by name (``tracer.TARGETS``) and
reads profile counters by name (``bench.layers``).  Dropping one of those
names breaks only the traced run, which tier-1 never executes — the opt-in
``-m bench`` smoke would be the first to notice.  These checks resolve every
name without running a replay.
"""

import ast
import importlib.util
import os

from repro.runtime.profiling import DedupCounters, MatchCounters, RouteCounters

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
        "matchers": MatchCounters().event(0),
        "routers": RouteCounters().event(0),
        "mergers": DedupCounters().event(0),
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
