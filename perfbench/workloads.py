"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload is an open loop in virtual time: its whole posting
schedule is generated up front from the workload seed, a pump raises
each post at its scheduled virtual instant whether or not earlier posts
have finished, and the benchmark's own handlers record, per post id,
how many times the handler started and how late.

One *repeat* builds a fresh cluster from the same schedule, so every
repeat of one seed must produce identical deterministic figures
(latency percentiles, messages and simulator events per post); the
runner checks that.  Only host-time figures vary between repeats.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import (Capability, Cluster, ClusterConfig, Decision, DistObject,
                   entry, on_event)

EVENT = "PERF"

#: mean virtual seconds a benchmark handler computes for; each post's
#: cost is drawn uniformly from [0, 2 * mean], so queueing delays (and
#: the latency percentiles) vary continuously with the seed
HANDLER_MEAN = 2e-5

#: trace categories muted in every workload: the program's tracer would
#: otherwise keep a record per message, post and thread step
MUTED = ("event", "object", "thread", "net", "store", "supervise",
         "invoke", "dsm", "rpc", "kernel", "membership")


# ----------------------------------------------------------------------
# outcome ledger
# ----------------------------------------------------------------------

class Ledger:
    """Per-post record of handler runs and their start latency.

    A post addressed to one recipient owns one slot; a group post owns
    one slot per member, indexed by the member's rank.  A slot must see
    exactly one run.  A run counts when the handler starts: that is the
    program's exactly-once contract for durable posts, in which a crash
    that cuts a started handler short counts as its one run (see
    ``NodeStore.mark_applied``).
    """

    def __init__(self, expected: list[int], costs: list[float]) -> None:
        self.expected = expected
        #: virtual seconds of handler work per post id
        self.costs = costs
        self.base: list[int] = []
        total = 0
        for count in expected:
            self.base.append(total)
            total += count
        self.runs = [0] * total
        self.latency = [math.nan] * total
        #: posts the program reported undeliverable or shed
        self.noticed = 0

    def record(self, pid: int, rank: int, latency: float) -> None:
        slot = self.base[pid] + rank
        self.runs[slot] += 1
        self.latency[slot] = latency

    def notice(self, *_args: Any) -> None:
        self.noticed += 1

    def failed_posts(self) -> int:
        """Posts with any slot not run exactly once."""
        runs, base = self.runs, self.base
        failed = 0
        for pid, count in enumerate(self.expected):
            start = base[pid]
            if any(runs[slot] != 1 for slot in range(start, start + count)):
                failed += 1
        return failed

    def latency_percentiles_ms(self) -> tuple[float, float, int]:
        """(p50, p99.9, samples) over every recorded handler run."""
        ordered = sorted(value * 1e3 for value in self.latency
                         if not math.isnan(value))
        return (percentile(ordered, 0.5), percentile(ordered, 0.999),
                len(ordered))


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in [0, 1])."""
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------

class Sink(DistObject):
    """Passive object; its handler runs on the node's master thread.

    The ledger is private (underscore) so durable checkpoints, which
    deep-copy an object's public state, leave it out.
    """

    def __init__(self, ledger: Ledger, watch: Callable[[int, float], None]
                 | None = None) -> None:
        super().__init__()
        self._ledger = ledger
        self._watch = watch

    @on_event(EVENT)
    def on_post(self, ctx, block):
        pid = block.user_data
        self._ledger.record(pid, 0, ctx.now - block.raised_at)
        if self._watch is not None:
            self._watch(ctx.node, ctx.now)
        yield ctx.compute(self._ledger.costs[pid])


class Station(DistObject):
    """A place a roaming thread migrates to and works at.

    The work is cut into compute slices; a thread takes delivery of its
    events only between slices (its interruption points), so a post
    waits for the rest of the current slice.
    """

    @entry
    def work(self, ctx, slices, slice_s):
        for _ in range(slices):
            yield ctx.compute(slice_s)


class Roamer(DistObject):
    """Root object of a roaming thread with a CURRENT-context handler."""

    @entry
    def roam(self, ctx, ledger, rank_of, stations, slices, slice_s):
        def on_post(hctx, block):
            pid = block.user_data
            ledger.record(pid, rank_of(pid), hctx.now - block.raised_at)
            yield hctx.compute(ledger.costs[pid])
            return Decision.RESUME

        yield ctx.attach_handler(EVENT, on_post)
        while True:
            for cap in stations:
                yield ctx.invoke(cap, "work", slices, slice_s)


# ----------------------------------------------------------------------
# repeat results
# ----------------------------------------------------------------------

@dataclass
class Repeat:
    """One repeat's figures; ``deterministic`` must match across repeats."""

    posts: int
    failed: int
    setup_s: float
    timed_s: float
    messages: int
    sim: dict[str, Any]
    durability: dict[str, int]
    reliability: dict[str, int]
    extra: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: virtual start latency percentiles, filled in by the outcome check
    #: (the samples themselves are dropped so repeats hold no memory)
    latency_p50_ms: float = math.nan
    latency_p999_ms: float = math.nan

    @property
    def posts_per_s(self) -> float:
        return (self.posts - self.failed) / self.timed_s

    def deterministic(self) -> dict[str, Any]:
        return {
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p999_ms": self.latency_p999_ms,
            "msgs_per_post": self.messages / self.posts,
            "sim_events_per_post": self.sim["executed"] / self.posts,
            "recovery_ms": self.extra.get("recovery_ms"),
        }


def _finish(cluster: Cluster, ledger: Ledger, setup_s: float,
            timed_s: float, **extra: Any) -> Repeat:
    """Collect one repeat's figures and check every post's outcome."""
    repeat = Repeat(posts=len(ledger.expected), failed=0, setup_s=setup_s,
                    timed_s=timed_s,
                    messages=cluster.message_stats()["sent"],
                    sim=cluster.scheduler_stats(),
                    durability=cluster.durability_stats(),
                    reliability=cluster.reliability_stats(), extra=extra)
    return _check(repeat, ledger)


def _check(repeat: Repeat, ledger: Ledger) -> Repeat:
    """Fail the repeat unless every post ran exactly once."""
    repeat.failed = ledger.failed_posts()
    if repeat.failed:
        repeat.problems.append(
            f"{repeat.failed} of {repeat.posts} posts not run exactly once")
    if ledger.noticed:
        repeat.problems.append(
            f"{ledger.noticed} posts noticed or shed by the program")
    p50, p999, samples = ledger.latency_percentiles_ms()
    repeat.latency_p50_ms, repeat.latency_p999_ms = p50, p999
    if samples != len(ledger.runs):
        repeat.problems.append("handler latency missing for some posts")
    return repeat


def _zipf(rng: random.Random, population: int, count: int,
          s: float = 1.1) -> list[int]:
    weights = [1.0 / (rank + 1) ** s for rank in range(population)]
    return rng.choices(range(population), weights=weights, k=count)


def _arrivals(count: int, burst: int, gap: float,
              start: float) -> list[float]:
    """Instants of ``count`` posts arriving in bursts of ``burst``, one
    burst every ``gap`` virtual seconds."""
    return [start + (i // burst) * gap for i in range(count)]


def _costs(rng: random.Random, count: int) -> list[float]:
    return [rng.uniform(0.0, 2 * HANDLER_MEAN) for _ in range(count)]


def _new_cluster(**knobs: Any) -> Cluster:
    cluster = Cluster(ClusterConfig(trace_net=False, **knobs))
    cluster.tracer.mute(*MUTED)
    cluster.register_event(EVENT)
    return cluster


def _timed_run(cluster: Cluster, until: float | None) -> float:
    gc.collect()
    started = time.perf_counter()
    cluster.run(until=until, max_events=None)
    return time.perf_counter() - started


def _pump(cluster: Cluster, times: list[float],
          raise_one: Callable[[int], None]) -> None:
    """Raise post ``i`` at virtual instant ``times[i]`` (ascending).

    Posts sharing an instant are raised by one callback, and each
    callback schedules only the next instant, so the scheduler queue
    does not hold the whole schedule.
    """
    sim = cluster.sim
    total = len(times)

    def fire(i: int) -> None:
        now = times[i]
        while i < total and times[i] == now:
            raise_one(i)
            i += 1
        if i < total:
            sim.call_at(times[i], fire, i)

    if total:
        sim.call_at(times[0], fire, 0)


class InProcess:
    """A workload on the single-process simulator.

    Subclasses implement :meth:`setup`, which builds everything up to
    the first scheduled post and returns the function that runs the
    timed phase.
    """

    def setup(self) -> Callable[[float], Repeat]:
        raise NotImplementedError

    def run(self) -> Repeat:
        started = time.perf_counter()
        go = self.setup()
        return go(time.perf_counter() - started)

    def setup_seconds(self) -> float:
        """Host seconds of one set-up whose cluster is then dropped."""
        started = time.perf_counter()
        self.setup()
        elapsed = time.perf_counter() - started
        gc.collect()
        return elapsed


# ----------------------------------------------------------------------
# object_burst
# ----------------------------------------------------------------------

class ObjectBurst(InProcess):
    """Zipf-skewed bursts of object posts raised on each object's home
    node: the master-thread fast path (no locator, fabric or journal)."""

    name = "object_burst"
    objects = 64
    burst = 16
    gap = 2e-3

    def __init__(self, seed: int, posts: int = 30_000) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        self.posts = posts
        self.targets = _zipf(rng, self.objects, posts)
        self.times = _arrivals(posts, self.burst, self.gap, 1e-3)
        self.costs = _costs(rng, posts)

    def setup(self) -> Callable[[float], Repeat]:
        ledger = Ledger([1] * self.posts, self.costs)
        cluster = _new_cluster()
        n_nodes = cluster.config.n_nodes
        caps = [cluster.create_object(Sink, ledger, node=k % n_nodes)
                for k in range(self.objects)]
        cluster.events.on_undeliverable = ledger.notice
        cluster.events.on_shed = ledger.notice
        raise_external = cluster.events.raise_external
        targets = self.targets

        def raise_one(i: int) -> None:
            cap = caps[targets[i]]
            raise_external(EVENT, cap, from_node=cap.home, user_data=i)

        _pump(cluster, self.times, raise_one)

        def go(setup_s: float) -> Repeat:
            timed_s = _timed_run(cluster, None)
            return _finish(cluster, ledger, setup_s, timed_s)

        return go


# ----------------------------------------------------------------------
# thread_roam
# ----------------------------------------------------------------------

class ThreadRoam(InProcess):
    """Posts to threads that keep migrating by RPC between stations,
    located by the default path locator; every Nth post goes to a
    thread group.  The paper's core path."""

    name = "thread_roam"
    n_nodes = 8
    threads = 32
    stations = 6
    route = 3
    slices = 10
    slice_s = 0.01
    group_every = 8
    group_size = 4
    gap = 1e-3

    def __init__(self, seed: int, posts: int = 12_000) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        self.posts = posts
        self.start = 0.1
        self.times = _arrivals(posts, 1, self.gap, self.start)
        self.costs = _costs(rng, posts)
        self.is_group = [i % self.group_every == self.group_every - 1
                         for i in range(posts)]
        self.tids = _zipf(rng, self.threads, posts)
        self.sources = [rng.randrange(self.n_nodes) for _ in range(posts)]
        self.routes = [rng.sample(range(self.stations), self.route)
                       for _ in range(self.threads)]
        #: the group holds the coldest threads, so group posts reach
        #: threads that single posts rarely do
        self.members = list(range(self.threads - self.group_size,
                                  self.threads))

    def setup(self) -> Callable[[float], Repeat]:
        expected = [self.group_size if grp else 1 for grp in self.is_group]
        ledger = Ledger(expected, self.costs)
        cluster = _new_cluster(n_nodes=self.n_nodes)
        cluster.events.on_undeliverable = ledger.notice
        cluster.events.on_shed = ledger.notice
        station_caps = [
            cluster.create_object(Station, node=2 + k % (self.n_nodes - 2))
            for k in range(self.stations)]
        gid = cluster.new_group()
        member_rank = {index: rank for rank, index in enumerate(self.members)}
        is_group = self.is_group
        threads = []
        for index in range(self.threads):
            root = index % self.n_nodes
            home = cluster.create_object(Roamer, node=root)
            rank = member_rank.get(index)

            def rank_of(pid: int, rank: int | None = rank) -> int:
                return rank if is_group[pid] else 0

            route = [station_caps[k] for k in self.routes[index]]
            threads.append(cluster.spawn(
                home, "roam", ledger, rank_of, route, self.slices,
                self.slice_s, at=root,
                group=gid if rank is not None else None))
        cluster.run(until=self.start / 2)
        tids = [thread.tid for thread in threads]
        raise_external = cluster.events.raise_external
        targets, sources = self.tids, self.sources

        def raise_one(i: int) -> None:
            target = gid if is_group[i] else tids[targets[i]]
            raise_external(EVENT, target, from_node=sources[i],
                           user_data=i)

        _pump(cluster, self.times, raise_one)

        def go(setup_s: float) -> Repeat:
            timed_s = _timed_run(cluster, self.times[-1] + 1.0)
            return _finish(cluster, ledger, setup_s, timed_s)

        return go


# ----------------------------------------------------------------------
# durable_crash
# ----------------------------------------------------------------------

class DurableCrash(InProcess):
    """Durable remote object posts with SWIM membership on, while one
    receiver node at a time crashes and recovers on a fixed schedule:
    journal appends on every post, journal replay on every recovery."""

    name = "durable_crash"
    n_nodes = 4
    objects = 12
    burst = 12
    gap = 6e-3
    swim_interval = 0.05
    crash_every = 1.0
    downtime = 0.4
    drain = 3.0

    def __init__(self, seed: int, posts: int = 20_000) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        self.posts = posts
        self.start = 0.1
        self.targets = _zipf(rng, self.objects, posts)
        self.times = _arrivals(posts, self.burst, self.gap, self.start)
        self.costs = _costs(rng, posts)
        horizon = self.times[-1]
        self.crashes = []
        k = 0
        while self.start + 0.5 + k * self.crash_every + self.downtime \
                < horizon:
            at = self.start + 0.5 + k * self.crash_every
            self.crashes.append((at, 1 + k % (self.n_nodes - 1)))
            k += 1

    def setup(self) -> Callable[[float], Repeat]:
        ledger = Ledger([1] * self.posts, self.costs)
        recovered_at: dict[int, float] = {}
        recovery_ms: list[float] = []

        def watch(node: int, now: float) -> None:
            since = recovered_at.pop(node, None)
            if since is not None:
                recovery_ms.append((now - since) * 1e3)

        cluster = _new_cluster(n_nodes=self.n_nodes, durable_delivery=True,
                               swim_interval=self.swim_interval)
        cluster.events.on_undeliverable = ledger.notice
        cluster.events.on_shed = ledger.notice
        caps = [cluster.create_object(Sink, ledger, watch,
                                      node=1 + k % (self.n_nodes - 1))
                for k in range(self.objects)]
        sim = cluster.sim
        # SWIM detection latency: crash instant to the first surviving
        # view that confirms the node dead
        down: dict[int, float] = {}
        detect_ms: list[float] = []

        def make_listener(observer: Any) -> Callable[[], None]:
            def changed() -> None:
                for node in [n for n in down if observer.is_dead(n)]:
                    detect_ms.append((sim.now - down.pop(node)) * 1e3)
            return changed

        for kernel in cluster.kernels.values():
            kernel.membership.add_view_listener(
                make_listener(kernel.membership))

        def crash(node: int) -> None:
            cluster.crash_node(node)
            down[node] = sim.now

        for at, node in self.crashes:
            sim.call_at(at, crash, node)

            def recover(node: int = node) -> None:
                cluster.recover_node(node)
                recovered_at[node] = sim.now

            sim.call_at(at + self.downtime, recover)
        raise_external = cluster.events.raise_external
        targets = self.targets

        def raise_one(i: int) -> None:
            raise_external(EVENT, caps[targets[i]], from_node=0,
                           user_data=i)

        _pump(cluster, self.times, raise_one)

        def go(setup_s: float) -> Repeat:
            timed_s = _timed_run(cluster, self.times[-1] + self.drain)
            recovery_ms.sort()
            detect_ms.sort()
            repeat = _finish(cluster, ledger, setup_s, timed_s,
                             recovery_ms=percentile(recovery_ms, 0.5),
                             detect_ms=percentile(detect_ms, 0.5))
            if repeat.durability.get("pending", 0) != 0:
                repeat.problems.append(
                    f"{repeat.durability['pending']} outbox entries still "
                    f"pending at the end")
            if len(detect_ms) != len(self.crashes):
                repeat.problems.append(
                    f"{len(detect_ms)} of {len(self.crashes)} crashes "
                    f"confirmed by membership")
            if len(recovery_ms) != len(self.crashes):
                repeat.problems.append(
                    f"{len(recovery_ms)} of {len(self.crashes)} recovered "
                    f"nodes ran a handler")
            return repeat

        return go


# ----------------------------------------------------------------------
# sharded_mixed
# ----------------------------------------------------------------------

def _sum_stats(dicts: list[dict]) -> dict:
    total: dict = {}
    for data in dicts:
        for key, value in data.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def sharded_scenario(ctx: Any) -> Callable[[], dict]:
    """Per-shard set-up of :class:`ShardedMixed` (runs in each worker).

    Every worker creates one :class:`Sink` per local node in ascending
    node order, so the sink of global node ``g`` has oid ``g - lo + 1``
    where ``lo`` is the first node of its shard.
    """
    import tracer

    cluster = ctx.cluster
    cluster.tracer.mute(*MUTED)
    cluster.register_event(EVENT)
    args = ctx.args
    per_node = args["posts_per_node"]
    ledger = Ledger([1] * (ctx.n_nodes * per_node), args["costs"])
    cluster.events.on_undeliverable = ledger.notice
    cluster.events.on_shed = ledger.notice
    for node in ctx.local_nodes:
        cluster.create_object(Sink, ledger, node=node)
    lows = {}
    for node in range(ctx.n_nodes):
        lows.setdefault(ctx.owner_shard(node), node)
    caps = [Capability(oid=node - lows[ctx.owner_shard(node)] + 1,
                       home=node, transport="rpc", cls_name="Sink")
            for node in range(ctx.n_nodes)]
    raise_external = cluster.events.raise_external
    for node in ctx.local_nodes:
        targets = args["targets"][node]
        times = args["times"][node]
        base = node * per_node

        def raise_one(i: int, targets: list[int] = targets,
                      base: int = base, node: int = node) -> None:
            raise_external(EVENT, caps[targets[i]], from_node=node,
                           user_data=base + i)

        _pump(cluster, times, raise_one)
    setup_done = time.perf_counter()

    def finish() -> dict:
        recorder = tracer.active()
        return {
            "runs": ledger.runs, "latency": ledger.latency,
            "noticed": ledger.noticed, "setup_done": setup_done,
            "messages": cluster.message_stats()["sent"],
            "sim": cluster.scheduler_stats(),
            "durability": cluster.durability_stats(),
            "reliability": cluster.reliability_stats(),
            "spans": recorder.export() if recorder is not None else None,
        }

    return finish


class ShardedMixed:
    """Bursts of object posts on 32 nodes split over two shard worker
    processes; 30% of each node's posts go to a random other node.  The
    only workload where the wire codec and the window barrier carry
    work."""

    name = "sharded_mixed"
    n_nodes = 32
    shard_count = 2
    burst = 4
    interval = 8e-3
    remote_fraction = 0.3

    def __init__(self, seed: int, posts: int = 24_000) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        self.per_node = posts // self.n_nodes
        self.posts = self.per_node * self.n_nodes
        self.targets, self.times = [], []
        for node in range(self.n_nodes):
            targets = []
            for _ in range(self.per_node):
                if rng.random() < self.remote_fraction:
                    other = rng.randrange(self.n_nodes - 1)
                    targets.append(other if other < node else other + 1)
                else:
                    targets.append(node)
            phase = self.interval * (node + 1) / (self.n_nodes + 1)
            self.targets.append(targets)
            self.times.append(_arrivals(self.per_node, self.burst,
                                        self.interval, phase))
        self.costs = _costs(rng, self.posts)

    def setup_seconds(self) -> None:
        """Set-up is not separable from a sharded run."""
        return None

    def run(self) -> Repeat:
        from repro.transport.sharded import run_sharded

        started = time.perf_counter()
        config = ClusterConfig(trace_net=False, n_nodes=self.n_nodes,
                               transport="sharded",
                               shard_count=self.shard_count)
        gc.collect()
        report = run_sharded(config, f"{__name__}:sharded_scenario",
                             scenario_args={"posts_per_node": self.per_node,
                                            "targets": self.targets,
                                            "times": self.times,
                                            "costs": self.costs})
        ended = time.perf_counter()
        shards = report.shard_results
        setup_done = max(shard["setup_done"] for shard in shards)
        ledger = Ledger([1] * self.posts, self.costs)
        for shard in shards:
            ledger.noticed += shard["noticed"]
            for slot, runs in enumerate(shard["runs"]):
                if runs:
                    ledger.runs[slot] += runs
                    ledger.latency[slot] = shard["latency"][slot]
        repeat = Repeat(
            posts=self.posts, failed=0, setup_s=setup_done - started,
            timed_s=ended - setup_done,
            messages=sum(shard["messages"] for shard in shards),
            sim=_sum_stats([shard["sim"] for shard in shards]),
            durability=_sum_stats([shard["durability"] for shard in shards]),
            reliability=_sum_stats([shard["reliability"]
                                    for shard in shards]),
            extra={"windows": report.windows,
                   "virtual_s": report.virtual_time,
                   "transport": _sum_stats(report.transport_stats),
                   "worker_spans": [(f"shard{index}", shard["spans"])
                                    for index, shard in enumerate(shards)
                                    if shard["spans"] is not None]})
        return _check(repeat, ledger)


WORKLOADS = {cls.name: cls for cls in (ObjectBurst, ThreadRoam,
                                       DurableCrash, ShardedMixed)}
