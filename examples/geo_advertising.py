#!/usr/bin/env python3
"""Geo-targeted advertising: find potential customers by location and interest.

The paper's introduction motivates PS2Stream with business users — e.g.
Internet advertisers who want to "identify potential customers with certain
interest at a particular location, based on their spatio-textual messages,
e.g. restaurant diners in a target zone".

This example models an advertising platform:

* every campaign is an STS query: a target zone (rectangles around city
  centres) plus an interest expression ("pizza OR pasta", "sneakers AND
  sale", ...);
* the incoming stream is the public geo-tweet firehose (synthetic here);
* the platform compares two deployments — kd-tree space partitioning and
  the hybrid partitioner — and reports throughput, latency and how many
  impressions (matches) each campaign produced.

Run with::

    python examples/geo_advertising.py
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List

from repro.core import Rect, STSQuery
from repro.core.objects import StreamTuple
from repro.partitioning import HybridPartitioner, KDTreeSpacePartitioner, WorkloadSample
from repro.runtime import Cluster, ClusterConfig, SinkSpec
from repro.workload import make_dataset


#: Campaign themes: a name plus a boolean interest expression template.
CAMPAIGN_THEMES = [
    ("food-delivery", "{a} OR {b}"),
    ("sports-gear", "{a} AND {b}"),
    ("concert-tickets", "{a} OR ({b} AND {c})"),
    ("travel-deals", "{a} AND {b}"),
    ("coffee-chain", "{a} OR {b}"),
]


def build_campaigns(tweets, count: int, seed: int) -> List[STSQuery]:
    """Create advertising campaigns as STS queries around dense clusters."""
    rng = random.Random(seed)
    vocabulary = tweets.vocabulary.terms
    campaigns = []
    for index in range(count):
        name, template = CAMPAIGN_THEMES[index % len(CAMPAIGN_THEMES)]
        # Target zone: a rectangle around one of the population clusters.
        cluster = rng.choice(list(tweets.spatial.clusters))
        zone = Rect.from_center(cluster.center, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        # Interest expression over mid-frequency terms (brandable words).
        terms = rng.sample(vocabulary[50:800], 3)
        expression = template.format(a=terms[0], b=terms[1], c=terms[2])
        campaigns.append(
            STSQuery.create(expression, zone, subscriber_id=1000 + index)
        )
    return campaigns


def run_deployment(name, partitioner, tweets, campaigns, stream_objects) -> Dict[str, float]:
    sample = WorkloadSample(
        objects=tweets.generate(2000), insertions=campaigns, bounds=tweets.bounds
    )
    plan = partitioner.partition(sample, num_workers=8)
    # A memory sink keeps every delivered impression for the per-campaign counts.
    cluster = Cluster(plan, ClusterConfig(num_workers=8, sink=SinkSpec("memory")))
    for campaign in campaigns:
        cluster.process(StreamTuple.insert(campaign))
    for obj in stream_objects:
        cluster.process(StreamTuple.object(obj))
    report = cluster.report()
    impressions = sum(merger.delivered for merger in cluster.mergers)
    per_subscriber = Counter(
        result.subscriber_id
        for delivered in cluster.drain_sinks().values()
        for result in delivered
    )
    cluster.close()
    print("[%s] throughput=%.0f tuples/s  latency=%.1f ms  impressions=%d" % (
        name, report.throughput, report.mean_latency_ms, impressions))
    return {
        "throughput": report.throughput,
        "impressions": impressions,
        "per_campaign": {
            campaign.subscriber_id: per_subscriber[campaign.subscriber_id]
            for campaign in campaigns[:5]
        },
    }


def main() -> None:
    tweets = make_dataset("us", seed=3)
    campaigns = build_campaigns(tweets, count=800, seed=5)
    # One shared object stream so both deployments see identical traffic.
    stream_objects = tweets.generate(5000)

    print("Registered %d advertising campaigns; streaming %d geo-tweets\n"
          % (len(campaigns), len(stream_objects)))

    kd = run_deployment("kd-tree space partitioning", KDTreeSpacePartitioner(), tweets,
                        campaigns, stream_objects)
    hybrid = run_deployment("hybrid partitioning (PS2Stream)", HybridPartitioner(), tweets,
                            campaigns, stream_objects)

    assert kd["impressions"] == hybrid["impressions"], "both deployments must agree on matches"
    speedup = hybrid["throughput"] / max(kd["throughput"], 1.0)
    print("\nHybrid partitioning sustains %.2fx the throughput of kd-tree partitioning" % speedup)
    print("Example per-campaign impression counts (first five campaigns):")
    for campaign_id, count in hybrid["per_campaign"].items():
        print("  campaign %d -> %d impressions" % (campaign_id, count))


if __name__ == "__main__":
    main()
