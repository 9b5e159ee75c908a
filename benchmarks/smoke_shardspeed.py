#!/usr/bin/env python3
"""Quick-mode E15 shard-speed smoke check for CI.

Runs a scaled-down sharded run (16 nodes / 2 shards) and the sparse
skip-ahead run, asserts the observational-purity contract — each run
reproduces its pinned digest and barrier window count, no lost posts —
and fails on a throughput regression against the committed
``BENCH_shardspeed.json`` 16-node default row.

The pins were recorded while the per-message pickle, dense-barrier,
spawn protocol still existed, and it produced the same digests; the
sparse run's dense-barrier loop ran 198 windows to skip-ahead's 103.

The committed baseline was measured by the full sweep (200
posts/node); the quick run amortises worker boot over far fewer posts
and CI runners are slower still, so ``SHARDSPEED_SMOKE_MIN_FRACTION``
defaults to a loose 0.5 — the gate catches collapses (skip-ahead
silently off, per-message encoding back on), not jitter.

Run:  PYTHONPATH=src python benchmarks/smoke_shardspeed.py
"""

import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

from repro.bench.scale import ScaleSpec, run_scale_sharded  # noqa: E402
from repro.bench.shardspeed import sparse_spec  # noqa: E402

SMOKE_SPEC = ScaleSpec(n_nodes=16, shard_count=2, posts_per_node=60)

#: (digest, barrier windows) per run
SMOKE_PIN = (
    "57f6e7420d8a4ee25e0a2c16735799a7c4e661822e0157e771e0c5aed547dee6", 25)
SPARSE_PIN = (
    "57e97bf99f105487438554b05b9cba2166dd4ceeaf18678131fc55c8c974c9ee", 103)


def check_pin(name: str, spec: ScaleSpec, run: dict,
              pin: tuple[str, int]) -> None:
    digest, windows = pin
    assert run["digest"] == digest, (
        f"{name}: sharded run changed: {run['digest'][:12]} != pinned "
        f"{digest[:12]}")
    assert run["windows"] == windows, (
        f"{name}: {run['windows']} barrier windows, pinned {windows}")
    assert run["executed"] == run["raised"] == spec.total_posts, run


def main() -> None:
    baseline_path = REPO_ROOT / "BENCH_shardspeed.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    default_rows = [pair["default"] for pair in
                    baseline["rows"]["sharded"]]
    committed = min(row["posts_per_sec"] for row in default_rows
                    if row["nodes"] == SMOKE_SPEC.n_nodes)
    min_fraction = float(os.environ.get(
        "SHARDSPEED_SMOKE_MIN_FRACTION", "0.5"))
    floor = committed * min_fraction

    fast = run_scale_sharded(SMOKE_SPEC)
    check_pin("16-node", SMOKE_SPEC, fast, SMOKE_PIN)
    sparse = sparse_spec(quick=True)
    skip = run_scale_sharded(sparse)
    check_pin("sparse", sparse, skip, SPARSE_PIN)

    rate = fast["posts_per_sec"]
    assert rate >= floor, (
        f"sharded throughput regression: {rate:.1f} posts/s is below "
        f"{min_fraction:.0%} of the committed 16-node default row "
        f"{committed} posts/s (floor {floor:.1f})")

    print(f"smoke OK: {SMOKE_SPEC.total_posts} posts at "
          f"{rate:.1f} posts/s (>= {min_fraction:.0%} of committed "
          f"{committed}); pinned digest {fast['digest'][:12]} in "
          f"{fast['windows']} windows; skip-ahead ran {skip['windows']} "
          f"windows at pinned digest {skip['digest'][:12]}")


if __name__ == "__main__":
    sys.exit(main())
