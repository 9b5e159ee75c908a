"""Tests for the sharded speed campaign: barrier batching, quiescent
skip-ahead, the owner-map routing helper, the window config, and worker
teardown diagnostics.

The load-bearing property throughout is *observational purity*: the
wire codec, window batching, skip-ahead and the fork start method must
leave same-seed run digests bit-identical to the per-message pickle,
dense-barrier spawn protocol they replaced. That protocol is gone, so
the digests and window counts below are pins recorded while both
protocols still existed and produced them.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.bench.scale import ScaleSpec, run_scale_sharded
from repro.bench.shardspeed import sparse_spec
from repro.errors import KernelError, NetworkError
from repro.kernel.config import (
    ClusterConfig,
    shard_bounds,
    shard_owner_map,
)
from repro.transport import codec, sharded
from repro.transport.sharded import ShardContext, run_sharded

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

#: small enough to keep each multi-process run under a second
SMALL = ScaleSpec(n_nodes=8, shard_count=2, posts_per_node=15)

#: SMALL's digest and barrier windows; the legacy protocol (pickle,
#: per-message pipe sends, every window barriered, spawn) produced the
#: same digest and window count
SMALL_DIGEST = (
    "319641e36d3bf16f842d04433f9f68fc7c77880e363a5cd7c852194bf0b3760f")
SMALL_WINDOWS = 7
SMALL_CROSS_SHARD = 25

#: ``sparse_spec(quick=True)`` with skip-ahead; the dense barrier loop
#: ran 198 windows to the same digest
SPARSE_DIGEST = (
    "57e97bf99f105487438554b05b9cba2166dd4ceeaf18678131fc55c8c974c9ee")
SPARSE_WINDOWS = 103
SPARSE_DENSE_WINDOWS = 198


def dying_scenario(ctx):
    """Shard 1's worker dies silently mid-setup (teardown diagnostics)."""
    if ctx.shard_index == 1:
        os._exit(3)
    return lambda: {"raised": 0, "executed": 0, "per_node": {}, "sha": "0"}


# ----------------------------------------------------------------------
# owner map
# ----------------------------------------------------------------------

class TestOwnerMap:
    @pytest.mark.parametrize("n_nodes,shard_count",
                             [(1, 1), (8, 2), (10, 3), (128, 8)])
    def test_matches_shard_bounds(self, n_nodes, shard_count):
        owner = shard_owner_map(n_nodes, shard_count)
        assert sorted(owner) == list(range(n_nodes))
        for shard in range(shard_count):
            lo, hi = shard_bounds(n_nodes, shard_count, shard)
            for node in range(lo, hi):
                assert owner[node] == shard

    def test_owner_shard_uses_shared_map(self):
        ctx = ShardContext(cluster=None, shard_index=0, shard_count=3,
                           n_nodes=10, local_nodes=range(0, 4))
        assert ctx.owner_shard(0) == 0
        assert ctx.owner_shard(9) == 2
        # the map is built once and reused
        assert ctx._owner_map is not None
        assert ctx.owner_shard(5) == shard_owner_map(10, 3)[5]

    def test_owner_shard_rejects_unknown_node(self):
        ctx = ShardContext(cluster=None, shard_index=0, shard_count=2,
                           n_nodes=8, local_nodes=range(0, 4))
        with pytest.raises(NetworkError, match="outside the cluster"):
            ctx.owner_shard(8)


# ----------------------------------------------------------------------
# config knobs
# ----------------------------------------------------------------------

class TestConfigKnobs:
    def test_defaults(self):
        # workers fork where the platform offers it, else spawn
        assert sharded._start_method() == (
            "fork" if FORK_AVAILABLE else "spawn")

    def test_window_precedence(self):
        base = dict(n_nodes=4, link_latency=1e-3)
        assert ClusterConfig(**base).effective_shard_window() == 1e-3
        assert ClusterConfig(
            **base, cross_shard_latency=5e-3
        ).effective_shard_window() == 5e-3
        assert ClusterConfig(
            **base, cross_shard_latency=5e-3, shard_window=2e-3
        ).effective_shard_window() == 2e-3

    def test_cross_shard_latency_below_link_latency_rejected(self):
        with pytest.raises(KernelError, match="cannot be below"):
            ClusterConfig(n_nodes=4, link_latency=5e-3,
                          cross_shard_latency=1e-3)

    def test_cross_shard_latency_must_be_positive(self):
        with pytest.raises(KernelError, match="positive"):
            ClusterConfig(n_nodes=4, cross_shard_latency=0.0)

    def test_window_beyond_lookahead_rejected(self):
        with pytest.raises(KernelError, match="lookahead"):
            ClusterConfig(n_nodes=4, transport="sharded", shard_count=2,
                          shard_index=0, link_latency=1e-3,
                          shard_window=2e-3)

    def test_window_may_stretch_to_declared_latency(self):
        config = ClusterConfig(n_nodes=4, transport="sharded",
                               shard_count=2, shard_index=0,
                               link_latency=1e-3,
                               cross_shard_latency=4e-3,
                               shard_window=4e-3)
        assert config.effective_shard_window() == 4e-3


# ----------------------------------------------------------------------
# observational purity of the fast paths (multi-process)
# ----------------------------------------------------------------------

class TestBarrierDeterminism:
    def test_defaults_vs_legacy_digest_identical(self):
        run = run_scale_sharded(SMALL)
        assert run["digest"] == SMALL_DIGEST
        assert run["windows"] == SMALL_WINDOWS
        assert run["executed"] == run["raised"] == SMALL.total_posts
        # batching/skip change round-trips and encoding, never traffic
        assert run["cross_shard"] == SMALL_CROSS_SHARD

    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="forked workers must inherit the patch")
    def test_codec_vs_pickle_digest_identical(self, monkeypatch):
        with_codec = run_scale_sharded(SMALL)
        # frame the barrier pipes with pickle instead of the wire codec
        monkeypatch.setattr(sharded, "_start_method", lambda: "fork")
        monkeypatch.setattr(codec, "encode_batch", pickle.dumps)
        monkeypatch.setattr(codec, "decode_batch", pickle.loads)
        with_pickle = run_scale_sharded(SMALL)
        assert with_codec["digest"] == with_pickle["digest"] == SMALL_DIGEST
        assert with_codec["windows"] == with_pickle["windows"]
        assert with_codec["cross_shard"] == with_pickle["cross_shard"]

    def test_skip_ahead_elides_quiescent_windows(self):
        spec = sparse_spec(quick=True)
        run = run_scale_sharded(spec)
        assert run["digest"] == SPARSE_DIGEST
        assert run["executed"] == spec.total_posts
        assert run["windows"] == SPARSE_WINDOWS < SPARSE_DENSE_WINDOWS

    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="fork start method unavailable")
    def test_fork_vs_spawn_digest_identical(self, monkeypatch):
        for method in ("fork", "spawn"):
            monkeypatch.setattr(sharded, "_start_method", lambda: method)
            run = run_scale_sharded(SMALL)
            assert run["digest"] == SMALL_DIGEST, method
            assert run["windows"] == SMALL_WINDOWS, method


# ----------------------------------------------------------------------
# worker teardown diagnostics
# ----------------------------------------------------------------------

class TestWorkerTeardown:
    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="dying_scenario needs the inherited module")
    def test_dead_worker_raises_clear_error(self):
        config = ClusterConfig(n_nodes=4, transport="sharded",
                               shard_count=2, trace_net=False)
        with pytest.raises(NetworkError,
                           match=r"shard 1 .*(died|failed|exited)"):
            run_sharded(config, "tests.test_shardspeed:dying_scenario",
                        scenario_args={})
