"""E15 — cross-shard & durable-path speed: codec, batching, skip-ahead.

PR 8's sharded backend proved determinism at 128 nodes but paid for it
in pickling (one ``pickle.dumps`` per cross-shard message) and barrier
round-trips (one parent↔worker exchange per conservative window, busy
or not).  The speed campaign replaced both with the compact wire codec,
one encoded blob per (shard, window), quiescent skip-ahead and the fork
start method; those are now the only sharded protocol.  This experiment
measures it, plus the journal slab/checkpoint work on the durable path:

* **sharded rows** — each (nodes, shards) point on the sharded backend.
* **sim rows** — the single-process reference at the same node counts,
  pinning the single-vs-sharded crossover (the node count where the
  sharded backend first beats one process on this box).
* **sparse row** — a workload with long idle gaps between posts, where
  skip-ahead elides most barrier rounds (compare ``windows`` with the
  virtual time over the window width).
* **durable row** — the E12 soak's durable phase re-run against the
  committed baseline (journal slab records, pooled appends, O(delta)
  checkpoint snapshots).

Run::

    PYTHONPATH=src python -m repro.bench.shardspeed          # full sweep
    PYTHONPATH=src python -m repro.bench.shardspeed --quick
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Any

from repro.bench.harness import Table, emit_json, ratio
from repro.bench.scale import (
    ScaleSpec,
    run_scale_local,
    run_scale_sharded,
)

#: committed BENCH_soak.json durable-phase baseline (posts/s wall),
#: measured before the journal slab / checkpoint-snapshot work
DURABLE_BASELINE_POSTS_PER_SEC = 9384.4


def sparse_spec(quick: bool = False) -> ScaleSpec:
    """A workload that leaves most conservative windows quiescent.

    Posts are spaced 20 windows apart (interval = 20x link_latency), so
    a dense barrier loop burns ~20 empty round-trips per useful one —
    exactly what quiescent skip-ahead elides.
    """
    return ScaleSpec(n_nodes=8 if quick else 16, shard_count=2,
                     posts_per_node=10 if quick else 20,
                     interval=0.1, link_latency=5e-3)


def run_durable_row(posts: int = 50_000) -> dict:
    """Re-run the E12 soak durable phase (journaled remote posts)."""
    from repro.bench.soak import SoakSpec, run_durable_phase
    spec = SoakSpec(posts=max(posts, 1))
    result = run_durable_phase(spec, posts)
    row = result.row()
    row["speedup_vs_baseline"] = round(
        ratio(result.posts_per_sec, DURABLE_BASELINE_POSTS_PER_SEC), 2)
    return row


def pin_crossover(sim_rows: list[dict], fast_rows: list[dict]) -> int | None:
    """Smallest node count where sharded beats the one-process sim."""
    sim_by_n = {row["nodes"]: row["posts_per_sec"] for row in sim_rows}
    for row in sorted(fast_rows, key=lambda r: r["nodes"]):
        sim_rate = sim_by_n.get(row["nodes"])
        if sim_rate is not None and row["posts_per_sec"] >= sim_rate:
            return row["nodes"]
    return None


# ----------------------------------------------------------------------
# the E15 sweep
# ----------------------------------------------------------------------

def run_e15(sharded=((16, 2), (64, 4), (128, 8)),
            posts_per_node: int = 200, quick: bool = False,
            durable_posts: int = 50_000) -> tuple[Table, dict]:
    if quick:
        sharded = ((16, 2),)
        posts_per_node = 60
        durable_posts = 10_000
    table = Table(
        title="E15: cross-shard & durable-path speed",
        columns=["row", "nodes", "shards", "posts", "posts/s (wall)",
                 "windows", "digest[:12]"])
    rows: dict[str, Any] = {"sim": [], "sharded": [], "sparse": None,
                            "durable": None, "crossover_nodes": None}

    for n, shards in sharded:
        spec = ScaleSpec(n_nodes=n, shard_count=shards,
                         posts_per_node=posts_per_node)
        sim_row = run_scale_local(replace(spec, shard_count=1))
        rows["sim"].append(sim_row)
        table.add("sim", n, 1, sim_row["raised"],
                  round(sim_row["posts_per_sec"], 1), "-",
                  sim_row["digest"][:12])
        row = run_scale_sharded(spec)
        assert row["executed"] == row["raised"] == spec.total_posts
        # keyed "default" so committed BENCH_shardspeed.json files,
        # which also carried a legacy-protocol row, read the same way
        rows["sharded"].append({"default": row})
        table.add("sharded", n, shards, row["raised"],
                  round(row["posts_per_sec"], 1), row["windows"],
                  row["digest"][:12])

    sparse = run_scale_sharded(sparse_spec(quick))
    rows["sparse"] = sparse
    table.add("sparse skip-ahead", sparse["nodes"], sparse["shards"],
              sparse["raised"], round(sparse["posts_per_sec"], 1),
              sparse["windows"], sparse["digest"][:12])

    durable = run_durable_row(durable_posts)
    rows["durable"] = durable
    table.add("durable phase", 2, 1, durable["posts"],
              durable["wall_posts_per_sec"], "-", "-")

    fast_rows = [pair["default"] for pair in rows["sharded"]]
    crossover = pin_crossover(rows["sim"], fast_rows)
    rows["crossover_nodes"] = crossover
    if crossover is not None:
        table.note(f"single-vs-sharded crossover: sharded first beats "
                   f"the one-process sim at {crossover} nodes")
    else:
        table.note("no crossover in this sweep: the one-process sim "
                   "stayed ahead at every measured node count")
    table.note(f"durable phase at {durable['speedup_vs_baseline']}x the "
               f"{DURABLE_BASELINE_POSTS_PER_SEC} posts/s committed "
               "BENCH_soak.json durable phase")
    return table, rows


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="E15 shard-speed bench")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", default="BENCH_shardspeed.json")
    args = parser.parse_args(argv)
    table, rows = run_e15(quick=args.quick)
    print(table.render())
    if args.json and args.json != "/dev/null":
        emit_json(table, args.json, experiment="e15-shardspeed",
                  quick=args.quick, rows=rows)


if __name__ == "__main__":
    main()
