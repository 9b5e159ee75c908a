"""E10: transport fast path — coalesced/piggybacked acks, per-peer
retransmit timers, journal group-commit, scheduler heap compaction.

Runs the three E10 workloads (burst, bidir, durable-fanout) with ack
coalescing on and off, asserts the envelope savings, the group-commit
count and the semantics-preservation guarantees, and emits
``BENCH_fastpath.json`` at the repo root.
"""

import pathlib

from repro.bench.fastpath import (
    FastpathSpec,
    deterministic_view,
    run_burst,
    run_fastpath_sweep,
)
from repro.bench.harness import emit_json

REPO_ROOT = pathlib.Path(__file__).parent.parent


def assert_fastpath_shape(results, group_size):
    """The E10 acceptance bars, checked by bench and CI smoke alike."""
    burst_on = results["burst"]["on"]
    burst_off = results["burst"]["off"]
    # Coalescing: one cumulative ack per burst retires the whole burst.
    assert burst_on["acks_per_post"] <= 0.5 * burst_off["acks_per_post"], \
        (burst_on, burst_off)
    # Total wire traffic down at least 25% at drop=0.
    assert burst_on["msgs_per_post"] <= 0.75 * burst_off["msgs_per_post"], \
        (burst_on, burst_off)
    # The ack window must not trigger spurious retransmissions.
    assert burst_on["retransmits"] == 0, burst_on
    # Strictly fewer dedicated ack envelopes with coalescing on.
    assert burst_on["acks_sent"] < burst_off["acks_sent"]
    # Piggybacking: reverse data traffic carries acks for free.
    bidir_on = results["bidir"]["on"]
    assert bidir_on["acks_piggybacked"] > 0, bidir_on
    assert results["bidir"]["off"]["acks_piggybacked"] == 0
    # Group-commit: each fan-out's member records share one commit, in
    # both modes (a row's posts are its fan-outs).
    for fan in results["durable-fanout"].values():
        saved = fan["posts"] * (group_size - 1)
        assert fan["journal_commits"] == fan["journal_appends"] - saved, fan
        assert fan["outbox_pending"] == 0, fan
    # The per-post simulator work must not regress with the fast path on.
    for workload, modes in results.items():
        assert (modes["on"]["sim_events_per_post"]
                <= modes["off"]["sim_events_per_post"]), workload


def test_e10_fastpath(benchmark, record):
    spec = FastpathSpec(seed=5, posts=400, burst=4)
    result = {}

    def run():
        table, results = run_fastpath_sweep(spec)
        result["table"], result["results"] = table, results
        return table

    benchmark.pedantic(run, rounds=1, iterations=1)
    table, results = result["table"], result["results"]
    record("e10_fastpath", table)
    emit_json(table, REPO_ROOT / "BENCH_fastpath.json",
              experiment="fastpath", seed=spec.seed, posts=spec.posts,
              burst=spec.burst, group_size=spec.group_size,
              gap=spec.gap, link_latency=spec.link_latency,
              results={w: {m: deterministic_view(r)
                           for m, r in modes.items()}
                       for w, modes in results.items()})
    assert_fastpath_shape(results, spec.group_size)


def test_e10_deterministic(benchmark):
    spec = FastpathSpec(seed=31, posts=120, burst=4)

    def run():
        return deterministic_view(run_burst(spec, fastpath=True,
                                            bidirectional=True))

    first = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first == deterministic_view(
        run_burst(spec, fastpath=True, bidirectional=True)), \
        "same-seed fast-path runs must be bit-identical"
