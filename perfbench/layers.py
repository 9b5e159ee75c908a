"""Per-layer metrics of a traced repeat, cross-checked against the
program's own counters."""

from __future__ import annotations

from collections import Counter
from typing import Any

from tracer import self_times
from workloads import Repeat

#: (metric name, unit) in report order; a layer a workload does not
#: exercise reports 0
PER_LAYER = (
    ("sim.events_per_post", "1/post"),
    ("sim.schedule_us_per_post", "us/post"),
    ("sim.loop_us_per_post", "us/post"),
    ("sim.cancels_per_post", "1/post"),
    ("events.raise_us_per_post", "us/post"),
    ("events.dispatch_us_per_post", "us/post"),
    ("locate.msgs_per_post", "1/post"),
    ("locate.us_per_post", "us/post"),
    ("threads.steps_per_post", "1/post"),
    ("threads.step_us_per_post", "us/post"),
    ("objects.invokes_per_post", "1/post"),
    ("objects.invoke_us_per_post", "us/post"),
    ("net.msgs_per_post", "1/post"),
    ("net.fabric_us_per_msg", "us/msg"),
    ("net.acks_per_post", "1/post"),
    ("net.retransmits_per_post", "1/post"),
    ("net.reliable_us_per_post", "us/post"),
    ("store.appends_per_post", "1/post"),
    ("store.commits_per_post", "1/post"),
    ("store.append_us_per_post", "us/post"),
    ("store.replay_records_per_recovery", "1/recovery"),
    ("store.recover_host_ms", "ms"),
    ("store.redelivered_ratio", "ratio"),
    ("store.recovery_ms", "ms"),
    ("membership.msgs_per_post", "1/post"),
    ("membership.detect_ms", "ms"),
    ("transport.encode_us_per_msg", "us/msg"),
    ("transport.decode_us_per_msg", "us/msg"),
    ("transport.bytes_per_msg", "B/msg"),
    ("transport.windows_per_vsec", "1/s"),
    ("transport.barrier_wait_s", "s"),
    ("trace_overhead", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(exports: list[tuple[str, dict]], traced: Repeat,
              untraced: Repeat) -> tuple[dict[str, tuple[float, str]],
                                         list[str]]:
    """Metrics from the spans and counts of every process of one traced
    repeat, plus the list of counts that disagree with the program."""
    times: dict[str, dict[str, float]] = {}
    counts: Counter = Counter()
    for proc, data in exports:
        counts.update(data["counts"])
        for name, row in self_times(data["names"], data["name_id"],
                                    data["start"], data["end"],
                                    data["parent"]).items():
            # the parent's pipe waits are the barrier; a worker's are
            # idle time between commands
            if name == "transport.pipe_recv" and proc != "main":
                name = "transport.worker_recv"
            total = times.setdefault(
                name, {"count": 0, "total": 0.0, "self": 0.0})
            for key in total:
                total[key] += row[key]

    def self_us(name: str) -> float:
        return times.get(name, {}).get("self", 0.0) * 1e6

    def calls(name: str) -> int:
        return int(times.get(name, {}).get("count", 0))

    posts = traced.posts
    messages = traced.messages
    store = traced.durability
    extra = traced.extra
    recoveries = counts["store.recoveries"]
    encoded = counts["transport.encoded"]
    decoded = counts["transport.decoded"]
    virtual_s = extra.get("virtual_s", 0.0)
    values = {
        "sim.events_per_post": counts["sim.events"] / posts,
        "sim.schedule_us_per_post": self_us("sim.schedule") / posts,
        "sim.loop_us_per_post": self_us("sim.step") / posts,
        "sim.cancels_per_post": counts["sim.cancels"] / posts,
        "events.raise_us_per_post": self_us("events.raise") / posts,
        "events.dispatch_us_per_post": self_us("events.dispatch") / posts,
        "locate.msgs_per_post": counts["net.sent:locate"] / posts,
        "locate.us_per_post": self_us("locate") / posts,
        "threads.steps_per_post": calls("threads.step") / posts,
        "threads.step_us_per_post": self_us("threads.step") / posts,
        "objects.invokes_per_post": calls("objects.invoke") / posts,
        "objects.invoke_us_per_post": self_us("objects.invoke") / posts,
        "net.msgs_per_post": messages / posts,
        "net.fabric_us_per_msg": _ratio(self_us("net.fabric"), messages),
        "net.acks_per_post": counts["net.acks"] / posts,
        "net.retransmits_per_post":
            traced.reliability.get("retransmits", 0) / posts,
        "net.reliable_us_per_post": self_us("net.reliable") / posts,
        "store.appends_per_post": counts["store.appends"] / posts,
        "store.commits_per_post": counts["store.commits"] / posts,
        "store.append_us_per_post": self_us("store.append") / posts,
        "store.replay_records_per_recovery":
            _ratio(counts["store.replayed"], recoveries),
        "store.recover_host_ms":
            _ratio(times.get("store.recover", {}).get("total", 0.0) * 1e3,
                   recoveries),
        "store.redelivered_ratio": store.get("redelivered", 0) / posts,
        "store.recovery_ms": extra.get("recovery_ms") or 0.0,
        "membership.msgs_per_post": counts["net.sent:swim"] / posts,
        "membership.detect_ms": extra.get("detect_ms") or 0.0,
        "transport.encode_us_per_msg":
            _ratio(self_us("transport.encode"), encoded),
        "transport.decode_us_per_msg":
            _ratio(self_us("transport.decode"), decoded),
        "transport.bytes_per_msg": _ratio(counts["transport.bytes"], encoded),
        "transport.windows_per_vsec":
            _ratio(extra.get("windows", 0), virtual_s),
        "transport.barrier_wait_s":
            times.get("transport.pipe_recv", {}).get("total", 0.0),
        "trace_overhead": traced.posts_per_s / untraced.posts_per_s,
    }
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return metrics, _mismatches(counts, traced)


def _mismatches(counts: Counter, traced: Repeat) -> list[str]:
    """Recorder counts that differ from the program's own counters."""
    checks: list[tuple[str, Any, Any]] = [
        ("simulator events", counts["sim.events"], traced.sim["executed"]),
        ("scheduled callbacks", counts["sim.scheduled"],
         traced.sim["scheduled"]),
        ("live cancellations", counts["sim.cancels"],
         traced.sim["cancellations"]),
        ("messages sent", counts["net.sent"], traced.messages),
        ("journal appends", counts["store.appends"],
         traced.durability.get("appends", 0)),
        ("journal commits", counts["store.commits"],
         traced.durability.get("commits", 0)),
        ("recoveries", counts["store.recoveries"],
         traced.durability.get("recoveries", 0)),
    ]
    transport = traced.extra.get("transport")
    if transport is not None:
        checks += [
            ("cross-shard messages encoded", counts["transport.encoded"],
             transport["cross_sent"]),
            ("cross-shard messages decoded", counts["transport.decoded"],
             transport["cross_received"]),
        ]
    return [f"trace count of {what} is {ours}, the program counted "
            f"{theirs}" for what, ours, theirs in checks if ours != theirs]
