"""Fault-injection tests: partitions, duplicates, timeouts, dead targets.

Fault tolerance proper is out of the paper's scope (§7.2), but the
behaviours that *are* defined must hold under injected faults: RPC
timeouts fire, duplicate messages are deduplicated, synchronous raisers
do not hang forever when the guard knob is set, and healing a partition
restores service.
"""

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    Decision,
    DistObject,
    entry,
    on_event,
)
from repro.errors import RpcTimeout
from repro.net.faults import FaultPlan
from repro.sim.rng import RngRegistry
from tests.conftest import Echo, Sleeper


class PingAck(DistObject):
    @on_event("PING")
    def on_ping(self, ctx, block):
        yield ctx.compute(0)
        return "pong"


def make_faulty_cluster(plan=None, **cfg):
    config = ClusterConfig(**cfg)
    return Cluster(config, faults=plan or FaultPlan())


class TestRpcUnderFaults:
    def test_rpc_timeout_under_partition(self):
        plan = FaultPlan()
        cluster = make_faulty_cluster(plan, n_nodes=2)
        plan.partition({0}, {1})
        fut = cluster.kernels[0].rpc.request(1, "anything", timeout=0.5)
        cluster.run(until=2.0)
        with pytest.raises(RpcTimeout):
            fut.result()

    def test_heal_restores_rpc(self):
        plan = FaultPlan()
        cluster = make_faulty_cluster(plan, n_nodes=2)
        cluster.kernels[1].rpc.serve("ping", lambda payload, msg: "pong")
        plan.partition({0}, {1})
        dead = cluster.kernels[0].rpc.request(1, "ping", timeout=0.2)
        cluster.run(until=1.0)
        assert dead.failed
        plan.heal()
        alive = cluster.kernels[0].rpc.request(1, "ping", timeout=1.0)
        cluster.run(until=3.0)
        assert alive.result() == "pong"

    def test_duplicate_replies_deduplicated(self):
        plan = FaultPlan(RngRegistry(1), duplicate_rate=1.0)
        cluster = make_faulty_cluster(plan, n_nodes=2)
        calls = []
        cluster.kernels[1].rpc.serve(
            "count", lambda payload, msg: calls.append(1) or len(calls))
        fut = cluster.kernels[0].rpc.request(1, "count")
        cluster.run(until=1.0)
        # the request may arrive twice (service runs twice: at-least-once
        # semantics) but the caller sees exactly one result
        assert fut.done
        assert fut.result() in (1, 2)


class TestEventsUnderFaults:
    def test_sync_raise_times_out_when_partitioned(self):
        plan = FaultPlan()
        cluster = make_faulty_cluster(plan, n_nodes=3,
                                      sync_raise_timeout=0.5)
        sleeper = cluster.create_object(Sleeper, node=2)
        thread = cluster.spawn(sleeper, "hold", 1e6, at=1)
        cluster.run(until=1.0)
        plan.partition({0}, {1, 2})
        future = cluster.raise_and_wait("INTERRUPT", thread.tid,
                                        from_node=0)
        cluster.run(until=5.0)
        with pytest.raises(RpcTimeout):
            future.result()

    def test_sync_raise_guard_cancelled_once_answered(self):
        """The guard timer dies with the wait it guards: an answered
        raise_and_wait must not keep the clock running to the timeout."""
        cluster = make_faulty_cluster(n_nodes=2, sync_raise_timeout=5.0)
        cluster.register_event("PING")
        cap = cluster.create_object(PingAck, node=1)
        future = cluster.raise_and_wait("PING", cap, from_node=0)
        cluster.run()
        assert future.result() == "pong"
        assert cluster.now < 5.0
        assert cluster.scheduler_stats()["cancellations"] == 1

    def test_post_deadline_backstop_cancelled_once_routed(self):
        """The post_deadline backstop dies once the locator reports: a
        routed thread post must not keep the clock running to it."""
        cluster = make_faulty_cluster(n_nodes=2, post_deadline=5.0)
        handled = []

        class Target(DistObject):
            @entry
            def work(self, ctx):
                def on_poke(hctx, block):
                    handled.append(hctx.now)
                    yield hctx.compute(0)
                    return Decision.RESUME

                yield ctx.attach_handler("INTERRUPT", on_poke)
                yield ctx.sleep(0.02)

        target = cluster.create_object(Target, node=1)
        thread = cluster.spawn(target, "work", at=1)
        cluster.run(until=0.001)
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run()
        assert len(handled) == 1
        assert cluster.now < 5.0
        assert cluster.scheduler_stats()["cancellations"] == 1

    def test_async_raise_after_heal_succeeds(self):
        plan = FaultPlan()
        cluster = make_faulty_cluster(plan, n_nodes=3)
        pokes = []

        class Target(DistObject):
            @entry
            def hold(self, ctx):
                def on_poke(hctx, block):
                    pokes.append(hctx.now)
                    yield hctx.compute(0)
                    return Decision.RESUME

                yield ctx.attach_handler("INTERRUPT", on_poke)
                yield ctx.sleep(1e6)

        target = cluster.create_object(Target, node=2)
        thread = cluster.spawn(target, "hold", at=2)
        cluster.run(until=1.0)
        plan.partition({0}, {2})
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=2.0)
        assert pokes == []  # cut off
        plan.heal()
        cluster.raise_event("INTERRUPT", thread.tid, from_node=0)
        cluster.run(until=4.0)
        assert len(pokes) == 1

    def test_dead_target_detection_not_confused_by_faults(self):
        cluster = make_faulty_cluster(n_nodes=3)
        echo = cluster.create_object(Echo, node=1)
        thread = cluster.spawn(echo, "echo", 1, at=0)
        cluster.run()
        assert not thread.alive
        from repro.errors import DeadThreadError

        future = cluster.raise_and_wait("INTERRUPT", thread.tid,
                                        from_node=2)
        cluster.run()
        with pytest.raises(DeadThreadError):
            future.result()


class TestInvocationUnderFaults:
    def test_partitioned_invocation_leaves_thread_pending(self):
        """A migration message lost to a partition stalls the thread —
        the documented limitation (fault tolerance out of scope, §7.2) —
        but nothing else breaks and the cluster stays serviceable."""
        plan = FaultPlan()
        cluster = make_faulty_cluster(plan, n_nodes=3)
        echo = cluster.create_object(Echo, node=2)
        plan.partition({0}, {2})
        stuck = cluster.spawn(echo, "echo", 1, at=0)
        cluster.run(until=1.0)
        assert stuck.alive  # stalled, not crashed
        # unrelated work on unpartitioned links proceeds
        other = cluster.create_object(Echo, node=1)
        fine = cluster.spawn(other, "echo", 2, at=1)
        cluster.run(until=2.0)
        assert fine.completion.result() == 2
        # and a terminate still cleans the stuck thread up
        cluster.invoker.terminate_thread(stuck, reason="operator")
        cluster.run(until=3.0)
        assert stuck.state == "terminated"
