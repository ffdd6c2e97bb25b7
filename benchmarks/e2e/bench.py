"""One workload's measurement: set-up, timed passes, verification.

Imported by ``measure.py`` - the per-workload process ``run.py`` starts -
right after it created the reference clock, so importing this module (and
with it the system under test) already counts as set-up.

Run protocol (the same on every commit):

1. *Set-up* - imports, stream + query generator, partitioning sample,
   partition, ``list(stream.tuples(n))``, then ``gc.collect();
   gc.freeze()`` so the generator's own objects never load the system's
   collector; first cluster built and warmed with the ``mu`` insertions.
2. *Saturation passes*, closed loop, one client: fresh cluster, warm-up
   (outside the clock), then the body through the workload's public driver
   as fast as it returns.
3. *Paced passes*, open loop: the same, but tuple ``k`` is released no
   earlier than ``start + k / rate`` and never waits for the system; each
   delivery is stamped in the sink callback and timed from the due time of
   its object.
4. *Verification* against the brute-force oracle, outside the clock.

All times are read off the reference clock (``refclock.py``).  Mode
``trace`` adds one replay under the span tracer with hot-loop profiling
on and derives the per-layer metrics; mode ``setup`` stops after step 1.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.objects import MatchResult, TupleKind
from repro.runtime.metrics import JSON_IMBALANCE_CAP

import oracle
from refclock import TICK_EVERY, RefClock
from tracer import ROOT, Tracer
from workloads import BATCH_SIZE, WORKLOADS

#: Deliveries slower than this count as late (the Fig. 15 bucket edge).
LATE_MS = 100.0
#: Span files of traced runs land here (git-ignored).
RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


class GcWatch:
    """Counts and times generation-2 collections (a ``gc.callbacks`` hook)."""

    def __init__(self) -> None:
        self.reset()
        self._started = 0.0

    def reset(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.longest_s = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = perf_counter()
            return
        took = perf_counter() - self._started
        self.count += 1
        self.total_s += took
        if took > self.longest_s:
            self.longest_s = took


class Pass:
    """Everything one replay of the body left behind."""

    def __init__(self) -> None:
        # Array-backed delivery log: no GC-tracked record per delivery.
        self.queries = array("q")
        self.objects = array("q")
        self.stamps = array("d")
        self.error: Optional[str] = None
        self.report: Any = None
        self.adjuster: Any = None
        self.build = self.warm = self.replay = (0.0, 0.0)  # (virtual s, raw s)
        self.replay_kernel_s = 0.0
        self.cpu = (0.0, 0.0)
        self.warmed_at = 0.0
        self.start_v = 0.0
        self.max_behind_s = 0.0
        self.latencies_ms = array("d")  # ascending
        self.gc = (0, 0.0, 0.0)  # gen-2 collections, total ms, longest ms

    def sink(self) -> Callable[[Any], None]:
        add_query, add_object, add_stamp = (
            self.queries.append, self.objects.append, self.stamps.append
        )

        def deliver(result: Any) -> None:
            add_query(result.query_id)
            add_object(result.object_id)
            add_stamp(perf_counter())

        return deliver


def ticking(tuples: Sequence[Any], clock: RefClock) -> Iterator[Any]:
    """Closed-loop feed: the tuples as fast as the driver pulls them."""
    for start in range(0, len(tuples), TICK_EVERY):
        clock.tick()
        yield from tuples[start : start + TICK_EVERY]


def paced(tuples: Sequence[Any], rate: float, clock: RefClock, out: Pass) -> Iterator[Any]:
    """Open-loop feed: tuple ``k`` is due at ``start + k / rate``.

    The schedule lives on the reference clock, so a slow moment of the
    *host* stretches it while a slow *system* cannot: the system never sees
    a tuple early and the feed never waits for the system.
    """
    gap = 1.0 / rate
    clock.tick()
    out.start_v = start_v = clock.now()
    worst = 0.0
    sent = 0
    try:
        for start in range(0, len(tuples), TICK_EVERY):
            clock.tick()
            anchor_t, anchor_v, factor = clock.anchor()
            for item in tuples[start : start + TICK_EVERY]:
                due = anchor_t + (start_v + sent * gap - anchor_v) * factor
                now = perf_counter()
                while now < due:
                    now = perf_counter()
                behind = (now - due) / factor
                if behind > worst:
                    worst = behind
                sent += 1
                yield item
    finally:
        out.max_behind_s = worst


class Bench:
    """The set-up products plus the pass runner (one per process)."""

    def __init__(self, workload: Any, seed: int, clock: RefClock, born: tuple) -> None:
        self.workload = workload
        self.seed = seed
        self.clock = clock
        #: The process's first mark; set-up and the speed factor run from it.
        self.born = born
        self.stages: Dict[str, tuple] = {}
        self.gc_watch = GcWatch()

    def _stage(self, name: str, since: tuple) -> tuple:
        self.stages[name] = RefClock.elapsed(since, self.clock.mark())
        self.clock.tick()
        return self.clock.mark()

    def speed_factor(self) -> float:
        """Mean host speed factor since the process started (raw / virtual)."""
        virtual, raw = RefClock.elapsed(self.born, self.clock.mark())
        return raw / virtual

    def set_up(self) -> None:
        workload, clock = self.workload, self.clock
        since = self._stage("import", self.born)
        stream = workload.make_stream(self.seed)
        sample = stream.partitioning_sample(workload.sample_objects)
        since = self._stage("sample", since)
        self.plan = workload.partition(sample)
        since = self._stage("partition", since)
        tuples: List[Any] = []
        for index, item in enumerate(stream.tuples(workload.objects)):
            if not index % TICK_EVERY:
                clock.tick()
            tuples.append(item)
        since = self._stage("generate", since)
        self.tuples = tuples
        self.warm = tuples[: workload.mu]
        self.body = tuples[workload.mu :]
        #: object id -> position in the body (its slot in the paced schedule).
        self.position = {
            item.payload.object_id: index
            for index, item in enumerate(self.body)
            if item.kind is TupleKind.OBJECT
        }
        gc.collect()
        gc.freeze()
        self._stage("freeze", since)
        gc.callbacks.append(self.gc_watch)

    def run_pass(
        self,
        *,
        rate: Optional[float] = None,
        profiling: bool = False,
        around_replay: Optional[Callable[[Callable[[], Any]], Any]] = None,
        before_close: Optional[Callable[[Any], None]] = None,
        **overrides: Any,
    ) -> Pass:
        """Fresh cluster, warm-up, one replay of the body, close."""
        workload, clock = self.workload, self.clock
        out = Pass()
        out.adjuster = workload.make_adjuster()
        cpu_before = os.times()
        built = clock.mark()
        cluster = workload.make_cluster(
            self.plan, out.sink(), profiling=profiling, **overrides
        )
        try:
            warming = clock.mark()
            workload.warm_up(cluster, ticking(self.warm, clock))
            warmed = clock.mark()
            out.warmed_at = warmed[0]
            feed = (
                ticking(self.body, clock)
                if rate is None
                else paced(self.body, rate, clock, out)
            )
            self.gc_watch.reset()

            def replay() -> Any:
                return workload.replay(cluster, feed, out.adjuster)

            started = clock.mark()
            try:
                out.report = around_replay(replay) if around_replay else replay()
            except Exception as exc:  # a failed pass fails its objects, not the run
                out.error = "%s: %s" % (type(exc).__name__, exc)
            ended = clock.mark()
            if before_close is not None and out.error is None:
                before_close(cluster)
        finally:
            cluster.close()
        closed = clock.mark()
        cpu_after = os.times()
        cpu_s = sum(cpu_after[:4]) - sum(cpu_before[:4])
        out.build = RefClock.elapsed(built, warming)
        out.warm = RefClock.elapsed(warming, warmed)
        out.replay = RefClock.elapsed(started, ended)
        out.replay_kernel_s = ended[2] - started[2]
        out.cpu = (
            RefClock.scale_cpu(cpu_s, built, closed),
            cpu_s - (closed[2] - built[2]),
        )
        to_ref_ms = 1000.0 * out.replay[0] / out.replay[1] if out.replay[1] else 1000.0
        watch = self.gc_watch
        out.gc = (watch.count, watch.total_s * to_ref_ms, watch.longest_s * to_ref_ms)
        if rate is not None:
            gap = 1.0 / rate
            position = self.position
            stamps = clock.to_virtual(out.stamps)
            start_v = out.start_v
            out.latencies_ms = array(
                "d",
                sorted(
                    (stamp - (start_v + position[object_id] * gap)) * 1000.0
                    for object_id, stamp in zip(out.objects, stamps)
                ),
            )
        del cluster
        gc.collect()
        return out


def quantile(ordered: Sequence[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def metric(samples: Sequence[float], **extra: Any) -> Dict[str, Any]:
    """A metric as reported: the median plus the samples behind it."""
    samples = list(samples)
    value = statistics.median(samples) if samples else 0.0
    return {"value": value, "samples": samples, **extra}


def verify(bench: Bench, passes: Sequence[Pass]) -> Dict[str, int]:
    """Objects attempted and failed over ``passes`` (see ``oracle.py``)."""
    body_objects = len(bench.position)
    expected = oracle.expected_matches(bench.tuples, len(bench.warm), bench.seed)
    reference = len(passes[0].queries)
    failed = 0
    for done in passes:
        if done.error is not None:
            failed += body_objects
            continue
        failed += oracle.failed_objects(
            done.queries,
            done.objects,
            expected,
            done.report.matches_delivered,
            reference,
            body_objects,
        )
    return {"attempted": body_objects * len(passes), "failed": failed}


def peak_rss_mb() -> float:
    """Coordinator peak RSS plus the largest reaped child's (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def latency_metric(paced_: Sequence[Pass], q: float) -> Dict[str, Any]:
    """Percentile ``q`` of delivery latency: the median over the paced
    passes of each pass's percentile (one stalled pass cannot carry it),
    with the pooled sample count and how many samples lie beyond it."""
    per_pass = [quantile(p.latencies_ms, q) for p in paced_ if len(p.latencies_ms)]
    pooled = sum(len(p.latencies_ms) for p in paced_)
    return metric(per_pass, n=pooled, beyond=pooled - int(q * pooled))


def end_to_end(bench: Bench, saturated: Sequence[Pass], paced_: Sequence[Pass]) -> Dict[str, Any]:
    tuples = len(bench.body)
    all_tuples = len(bench.tuples)
    good = [p for p in saturated if p.error is None] or list(saturated)
    return {
        "throughput_tps": metric(
            [tuples / p.replay[0] for p in good],
            raw=statistics.median(tuples / p.replay[1] for p in good),
        ),
        "delivery_p50_ms": latency_metric(paced_, 0.50),
        "cpu_ms_per_ktuple": metric(
            [p.cpu[0] * 1e6 / all_tuples for p in good],
            raw=statistics.median(p.cpu[1] * 1e6 / all_tuples for p in good),
        ),
        "peak_rss_mb": metric([peak_rss_mb()]),
    }


def layers(
    bench: Bench,
    tracer: Tracer,
    saturated: Sequence[Pass],
    paced_pass: Pass,
    traced: Pass,
    extras: Dict[str, Any],
) -> Dict[str, Any]:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    spans = tracer.aggregates()
    # Raw span seconds -> reference seconds, by the traced replay's factor.
    to_ref = traced.replay[0] / traced.replay[1]

    def span(name: str, key: str = "total_s") -> float:
        value = spans.get(name, {}).get(key, 0)
        return value if key == "count" else value * to_ref

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    profile = extras["profile"]
    gi2 = {k: sum(getattr(m, k) for m in profile.matchers) for k in (
        "cells_probed", "postings_scanned", "candidates", "matches")}
    gridt = {k: sum(getattr(r, k) for r in profile.routers) for k in (
        "cells_probed", "probes", "cache_hits", "fallback_routes")}
    merge = {k: sum(getattr(m, k) for m in profile.mergers) for k in (
        "lookups", "duplicates", "evictions")}
    report = traced.report
    history = traced.adjuster.history if traced.adjuster is not None else []
    tuples = len(bench.body)
    untraced_s = statistics.median(p.replay[0] for p in saturated)
    measured_tps = tuples / untraced_s
    # The clock's kernel runs inside the feed, which the driver pulls: take
    # its seconds out of the root's total and the driver's self time.
    kernel_s = traced.replay_kernel_s
    root_s = (spans[ROOT]["total_s"] - kernel_s) * to_ref
    driver_self_s = (spans["cluster.driver"]["self_s"] - kernel_s) * to_ref
    lat = paced_pass.latencies_ms
    stage = bench.stages
    first = saturated[0]
    values: Dict[str, float] = {
        "workload.gen_s": stage["generate"][0],
        "workload.gen_us_per_tuple": stage["generate"][0] * 1e6 / len(bench.tuples),
        "partitioning.partition_s": stage["partition"][0],
        "partitioning.total_load": report.total_load,
        "partitioning.load_imbalance": min(report.load_imbalance, JSON_IMBALANCE_CAP),
        "cluster.build_s": first.build[0],
        "cluster.warmup_s": first.warm[0],
        "cluster.driver_self_s": driver_self_s,
        "cluster.windows": span("cluster.window", "count"),
        "cluster.window_s": span("cluster.window"),
        "cluster.window_self_s": span("cluster.window", "self_s"),
        "cluster.report_s": span("cluster.report"),
        "gridt.route_calls": span("gridt.route", "count"),
        "gridt.route_s": span("gridt.route"),
        "gridt.route_probe_s": extras["route_probe_s"],
        "gridt.update_calls": span("gridt.update", "count"),
        "gridt.update_s": span("gridt.update"),
        "gridt.cells_probed": gridt["cells_probed"],
        "gridt.probes": gridt["probes"],
        "gridt.cache_hit_ratio": ratio(gridt["cache_hits"], gridt["probes"]),
        "gridt.fallback_ratio": ratio(gridt["fallback_routes"], gridt["cells_probed"]),
        "gridt.memory_mb": extras["gridt_memory_mb"],
        "dispatch.route_window_s": span("dispatch.route_window"),
        "dispatch.sync_s": span("dispatch.sync"),
        "transport.exchange_calls": span("transport.exchange", "count"),
        "transport.exchange_s": span("transport.exchange"),
        "fabric.dump_s": span("fabric.dump"),
        "fabric.dump_bytes": tracer.bytes["fabric.dump"],
        "fabric.load_s": span("fabric.load"),
        "fabric.load_bytes": tracer.bytes["fabric.load"],
        "fabric.wait_s": span("fabric.wait"),
        "fabric.mp_over_inproc": extras["mp_over_inproc"],
        "worker.handle_calls": span("worker.handle", "count"),
        "worker.handle_s": span("worker.handle"),
        "worker.handle_self_s": span("worker.handle", "self_s"),
        "gi2.match_calls": span("gi2.match", "count"),
        "gi2.match_s": span("gi2.match"),
        "gi2.cells_probed": gi2["cells_probed"],
        "gi2.postings_scanned": gi2["postings_scanned"],
        "gi2.candidates": gi2["candidates"],
        "gi2.matches": gi2["matches"],
        "gi2.selectivity": ratio(gi2["matches"], gi2["candidates"]),
        "gi2.update_s": span("gi2.update"),
        "gi2.memory_mb": sum(report.worker_memory.values()) / 2**20,
        "merge.deliver_calls": span("merge.deliver", "count"),
        "merge.deliver_s": span("merge.deliver"),
        "merge.lookups": merge["lookups"],
        "merge.duplicates": merge["duplicates"],
        "merge.dup_ratio": ratio(merge["duplicates"], merge["lookups"]),
        "merge.evictions": merge["evictions"],
        "adjustment.rounds": span("adjustment.round", "count"),
        "adjustment.triggered": sum(1 for r in history if r.triggered),
        "adjustment.round_s": span("adjustment.round"),
        "adjustment.round_max_ms": span("adjustment.round", "max_s") * 1000.0,
        "adjustment.queries_moved": sum(r.queries_moved for r in history),
        "adjustment.bytes_moved": sum(r.bytes_moved for r in history),
        "checkpoint.count": report.recovery.checkpoints_taken if report.recovery else 0,
        "checkpoint.snapshot_s": span("checkpoint.snapshot"),
        "costmodel.model_tps": report.throughput,
        "costmodel.model_over_measured": report.throughput / measured_tps,
        "pygc.gen2_collections": paced_pass.gc[0],
        "pygc.gen2_pause_total_ms": paced_pass.gc[1],
        "pygc.gen2_pause_max_ms": paced_pass.gc[2],
        "loadgen.deliveries": len(paced_pass.queries),
        "loadgen.p90_ms": quantile(lat, 0.90) if lat else 0.0,
        "loadgen.p99_ms": quantile(lat, 0.99) if lat else 0.0,
        "loadgen.max_behind_ms": paced_pass.max_behind_s * 1000.0,
        "loadgen.late_share": ratio(sum(1 for ms in lat if ms > LATE_MS), len(lat)),
        "loadgen.sink_s": extras["sink_s"],
        "loadgen.speed_factor": bench.speed_factor(),
        "trace.overhead_ratio": traced.replay[0] / untraced_s,
        "trace.unattributed_share": ratio(span(ROOT, "self_s"), root_s),
    }
    return {name: metric([value]) for name, value in values.items()}


def sink_seconds(bench: Bench, deliveries: int) -> float:
    """The benchmark's own callback cost for ``deliveries`` results."""
    scratch = Pass()
    deliver = scratch.sink()
    result = MatchResult(query_id=1, object_id=1)
    started = bench.clock.mark()
    for _ in range(deliveries):
        deliver(result)
    return RefClock.elapsed(started, bench.clock.mark())[0]


def run_trace(bench: Bench, first: Pass) -> Dict[str, Any]:
    """Mode ``trace``: reference passes, then one replay under the tracer."""
    workload = bench.workload
    saturated = [first, bench.run_pass()]
    paced_pass = bench.run_pass(rate=workload.rate)
    passes = saturated + [paced_pass]
    extras: Dict[str, Any] = {"mp_over_inproc": 0.0}
    if workload.cluster.get("backend", "inprocess") != "inprocess":
        # The single-process baseline: the same plan with every tier inline.
        baseline = bench.run_pass(backend="inprocess", dispatch_backend="inline")
        extras["mp_over_inproc"] = baseline.replay[0] / statistics.median(
            p.replay[0] for p in saturated
        )
        passes.append(baseline)

    def probe(cluster: Any) -> None:
        extras["profile"] = cluster.profile_report()
        index = cluster.routing_index
        extras["gridt_memory_mb"] = index.memory_bytes() / 2**20
        objects = [item.payload for item in bench.body if item.kind is TupleKind.OBJECT]
        started = bench.clock.mark()
        for start in range(0, len(objects), BATCH_SIZE):
            index.route_object_batch(objects[start : start + BATCH_SIZE])
        extras["route_probe_s"] = RefClock.elapsed(started, bench.clock.mark())[0]

    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.run_pass(
            profiling=True, around_replay=tracer.trace_root, before_close=probe
        )
    finally:
        tracer.uninstall()
    if traced.error is not None:
        raise RuntimeError("traced replay failed: %s" % traced.error)
    extras["sink_s"] = sink_seconds(bench, len(paced_pass.queries))
    checked = verify(bench, passes + [traced])
    metrics = layers(bench, tracer, saturated, paced_pass, traced, extras)
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(
        os.path.join(RESULTS, "%s.spans.jsonl" % workload.name),
        {"workload": workload.name, "seed": bench.seed, "root": ROOT},
    )
    return {"metrics": metrics, **checked}


def run_end_to_end(bench: Bench, spec: Dict[str, Any], first: Pass) -> Dict[str, Any]:
    """Mode ``e2e``: saturation passes, paced passes, verification."""
    workload = bench.workload
    budget = spec["seconds"] / 2.0
    saturated = [first]
    started = perf_counter()
    while len(saturated) < spec["min_saturated"] or perf_counter() - started < budget:
        saturated.append(bench.run_pass())
    paced_: List[Pass] = []
    started = perf_counter()
    while len(paced_) < spec["min_paced"] or perf_counter() - started < budget:
        paced_.append(bench.run_pass(rate=workload.rate))
    metrics = end_to_end(bench, saturated, paced_)
    checked = verify(bench, saturated + paced_)
    info = {
        "saturated_passes": len(saturated),
        "paced_passes": len(paced_),
        "max_behind_ms": max(p.max_behind_s for p in paced_) * 1000.0,
        "gen2_pause_max_ms": max(p.gc[2] for p in paced_),
        "errors": [p.error for p in saturated + paced_ if p.error],
    }
    return {"metrics": metrics, "info": info, **checked}


def run(spec: Dict[str, Any], clock: RefClock, born: tuple) -> Dict[str, Any]:
    """Measure ``spec["workload"]``; ``born`` is the process's first mark."""
    workload = WORKLOADS[spec["workload"]].scaled(spec["scale"])
    bench = Bench(workload, spec["seed"], clock, born)
    bench.set_up()
    first = bench.run_pass()
    result: Dict[str, Any] = {"workload": workload.name, "mode": spec["mode"]}
    if spec["mode"] == "setup":
        result.update(metrics={}, attempted=1, failed=0 if first.error is None else 1)
    elif spec["mode"] == "trace":
        result.update(run_trace(bench, first))
    else:
        result.update(run_end_to_end(bench, spec, first))
    result["metrics"]["setup_s"] = metric([first.warmed_at - born[0]])
    result["info"] = {
        **result.get("info", {}),
        "mu": workload.mu,
        "objects": workload.objects,
        "body_tuples": len(bench.body),
        "rate": workload.rate,
        "speed_factor": bench.speed_factor(),
        "stages_s": {name: value[0] for name, value in bench.stages.items()},
    }
    return result
