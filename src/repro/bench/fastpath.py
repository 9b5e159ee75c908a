"""Transport fast-path bench (E10): what coalesced/piggybacked acks,
per-peer retransmit timers, journal group-commit and scheduler heap
compaction buy, measured the paper's way — messages per post — plus the
simulator-level costs (heap events per post, wall-clock posts/sec).

Three workloads, each run with ack coalescing **on** (the default
``ack_delay`` > 0, so a pending ack can also piggyback) and **off**
(``ack_delay=0``: every arrival acked at once on a dedicated envelope,
as the reliable channel first did). Journal group-commit has no off switch: both rows
commit each fan-out once:

* ``burst`` — node 0 raises object events at node 1 in bursts of B. One
  cumulative ack retires the whole burst, so msgs/post drops from 2
  toward (B+1)/B.
* ``bidir`` — both nodes raise at each other, reverse posts offset into
  the ack window; pending acks ride the reverse data envelopes
  (``acks_piggybacked``) instead of dedicated ``rel.ack`` messages.
* ``durable-fanout`` — durable group-target posts; each fan-out journals
  its member records as one group commit, so journal commits fall short
  of appends by ``group_size - 1`` per fan-out.

Delivery semantics are identical on and off — every row asserts the
exact execution counts — and everything deterministic is returned
separately from the wall-clock figures so same-seed runs can be compared
bit-for-bit. Results go to ``BENCH_fastpath.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.bench.harness import Table
from repro.bench.workloads import EventSink, StormTarget, build_cluster

FAST_ON = {"ack_delay": 1e-3}
FAST_OFF = {"ack_delay": 0.0}


@dataclass
class FastpathSpec:
    """One E10 workload configuration (shared by the on/off rows)."""

    seed: int = 0
    posts: int = 400
    #: posts fired per burst instant; one coalescing window per burst
    burst: int = 4
    #: virtual seconds between bursts (must exceed the ack window)
    gap: float = 0.01
    link_latency: float = 1e-3
    #: members per durable fan-out group (the group-commit batch size)
    group_size: int = 3
    #: scheduler backend ("heap" | "wheel"); deterministic columns must
    #: not change with the backend — the differential tests assert it
    scheduler: str = "heap"


def _result(cluster, spec: FastpathSpec, posts: int,
            elapsed: float) -> dict[str, Any]:
    rel = cluster.reliability_stats()
    sent = cluster.fabric.stats.snapshot()["sent"]
    sim_events = cluster.sim.events_processed
    store = cluster.durability_stats()
    return {
        "posts": posts,
        "messages_sent": sent,
        "msgs_per_post": round(sent / posts, 4),
        "acks_sent": rel.get("acks_sent", 0),
        "acks_per_post": round(rel.get("acks_sent", 0) / posts, 4),
        "acks_piggybacked": rel.get("acks_piggybacked", 0),
        "acks_coalesced": rel.get("acks_coalesced", 0),
        "retransmits": rel.get("retransmits", 0),
        "sim_events_per_post": round(sim_events / posts, 2),
        "compactions": cluster.sim.compactions,
        "journal_appends": store.get("appends", 0),
        "journal_commits": store.get("commits", 0),
        "commits_per_post": round(store.get("commits", 0) / posts, 4),
        "outbox_pending": store.get("pending", 0),
        # wall-clock lives outside the deterministic comparison set
        "wall_posts_per_sec": round(posts / elapsed, 1) if elapsed else 0.0,
    }


def deterministic_view(result: dict[str, Any]) -> dict[str, Any]:
    """The same-seed-comparable subset (wall-clock stripped)."""
    return {k: v for k, v in result.items() if k != "wall_posts_per_sec"}


def run_burst(spec: FastpathSpec, fastpath: bool,
              bidirectional: bool = False) -> dict[str, Any]:
    """Burst-posting object events over the reliable channel.

    ``bidirectional`` adds a reverse stream offset into the ack window so
    pending acks have data envelopes to ride.
    """
    knobs = FAST_ON if fastpath else FAST_OFF
    cluster = build_cluster(n_nodes=2, seed=spec.seed,
                            link_latency=spec.link_latency,
                            scheduler=spec.scheduler,
                            reliable_delivery=True, **knobs)
    cluster.register_event("STORM")
    caps = {1: cluster.create_object(StormTarget, node=1)}
    if bidirectional:
        caps[0] = cluster.create_object(StormTarget, node=0)
    sim, t0 = cluster.sim, cluster.now

    def fire(from_node: int, dst: int, pid: int) -> None:
        cluster.events.raise_external("STORM", caps[dst],
                                      from_node=from_node, user_data=pid)

    # Reverse posts leave after the forward burst has arrived but before
    # its delayed ack fires: inside the piggyback window.
    offset = spec.link_latency + knobs["ack_delay"] / 2
    for pid in range(spec.posts):
        when = t0 + (pid // spec.burst) * spec.gap
        if bidirectional and pid % 2:
            sim.call_at(when + offset, fire, 1, 0, pid)
        else:
            sim.call_at(when, fire, 0, 1, pid)
    wall = time.perf_counter()
    cluster.run()
    elapsed = time.perf_counter() - wall

    forward = sum(1 for pid in range(spec.posts)
                  if not (bidirectional and pid % 2))
    assert cluster.get_object(caps[1]).seen == forward, \
        "fast path changed delivery: forward posts lost or duplicated"
    if bidirectional:
        assert cluster.get_object(caps[0]).seen == spec.posts - forward, \
            "fast path changed delivery: reverse posts lost or duplicated"
    return _result(cluster, spec, spec.posts, elapsed)


def run_durable_fanout(spec: FastpathSpec, fastpath: bool) -> dict[str, Any]:
    """Durable group-target posts: one journal commit per fan-out batch."""
    knobs = FAST_ON if fastpath else FAST_OFF
    n_nodes = spec.group_size + 1
    cluster = build_cluster(n_nodes=n_nodes, seed=spec.seed,
                            link_latency=spec.link_latency,
                            scheduler=spec.scheduler,
                            durable_delivery=True,
                            checkpoint_interval=None, **knobs)
    cluster.register_event("FAN")
    gid = cluster.new_group()
    sinks = [cluster.create_object(EventSink, node=node)
             for node in range(1, n_nodes)]
    for node, cap in enumerate(sinks, start=1):
        cluster.spawn(cap, "absorb", "FAN", 1e9, at=node, group=gid)
    cluster.run(until=cluster.now + 0.1)  # handlers attach

    posts = spec.posts // spec.burst  # each post fans out group_size ways
    sim, t0 = cluster.sim, cluster.now
    for pid in range(posts):
        sim.call_at(t0 + pid * spec.gap, cluster.events.raise_external,
                    "FAN", gid, 0, pid)
    wall = time.perf_counter()
    cluster.run(until=t0 + posts * spec.gap + 2.0)
    elapsed = time.perf_counter() - wall

    store = cluster.durability_stats()
    assert store["pending"] == 0, \
        f"outbox not drained: {store['pending']} durable posts pending"
    assert store["delivered"] == posts * spec.group_size, \
        "fast path changed delivery: fan-out member posts unresolved"
    return _result(cluster, spec, posts, elapsed)


WORKLOADS = ["burst", "bidir", "durable-fanout"]


def run_fastpath_sweep(
        spec: FastpathSpec | None = None,
        workloads: list[str] | None = None,
) -> tuple[Table, dict[str, dict[str, dict[str, Any]]]]:
    """Run every workload fast-path on and off; returns (table, results).

    ``results[workload]["on"|"off"]`` holds the raw counter dicts the
    smoke assertions and EXPERIMENTS.md numbers come from.
    """
    spec = spec or FastpathSpec()
    table = Table(
        title="Transport fast path: ack coalescing/piggyback + journal "
              f"group-commit ({spec.posts} posts, burst={spec.burst}, "
              f"group={spec.group_size})",
        columns=["workload", "fastpath", "posts", "msgs/post", "acks/post",
                 "piggybacked", "coalesced", "sim_ev/post", "commits/post",
                 "wall_posts/s"])
    runners = {
        "burst": lambda on: run_burst(spec, on),
        "bidir": lambda on: run_burst(spec, on, bidirectional=True),
        "durable-fanout": lambda on: run_durable_fanout(spec, on),
    }
    results: dict[str, dict[str, dict[str, Any]]] = {}
    for workload in workloads or WORKLOADS:
        results[workload] = {}
        for mode, on in (("on", True), ("off", False)):
            row = runners[workload](on)
            results[workload][mode] = row
            table.add(workload, mode, row["posts"], row["msgs_per_post"],
                      row["acks_per_post"], row["acks_piggybacked"],
                      row["acks_coalesced"], row["sim_events_per_post"],
                      row["commits_per_post"], row["wall_posts_per_sec"])
    table.note("fastpath=off: ack every arrival on a dedicated rel.ack "
               "envelope (ack_delay=0); both modes "
               "group-commit journal fan-outs")
    table.note("delivery semantics asserted identical on/off in every "
               "cell; wall_posts/s is host wall-clock, all other columns "
               "are deterministic")
    return table, results
