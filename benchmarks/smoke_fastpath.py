#!/usr/bin/env python3
"""Quick-mode transport fast-path smoke check for CI.

Runs the reduced E10 sweep (seconds), asserts the savings — reliable-mode
acks/post with coalescing on at most half of coalescing off, total
msgs/post down at least 25% at drop=0, piggybacked acks on reverse
traffic, one journal commit per durable fan-out — plus same-seed
determinism, and emits ``BENCH_fastpath.json`` at the repo root.

Run:  PYTHONPATH=src python benchmarks/smoke_fastpath.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from bench_e10_transport_fastpath import (  # noqa: E402
    REPO_ROOT,
    assert_fastpath_shape,
)
from repro.bench.fastpath import (  # noqa: E402
    FastpathSpec,
    deterministic_view,
    run_burst,
    run_fastpath_sweep,
)
from repro.bench.harness import emit_json  # noqa: E402


def main() -> None:
    spec = FastpathSpec(seed=5, posts=200, burst=4)
    table, results = run_fastpath_sweep(spec)
    assert_fastpath_shape(results, spec.group_size)
    probe = FastpathSpec(seed=31, posts=80, burst=4)
    first = deterministic_view(run_burst(probe, fastpath=True,
                                         bidirectional=True))
    again = deterministic_view(run_burst(probe, fastpath=True,
                                         bidirectional=True))
    assert first == again, "same-seed fast-path runs must be bit-identical"
    emit_json(table, REPO_ROOT / "BENCH_fastpath.json",
              experiment="fastpath", seed=spec.seed, posts=spec.posts,
              burst=spec.burst, group_size=spec.group_size,
              gap=spec.gap, link_latency=spec.link_latency, quick=True,
              results={w: {m: deterministic_view(r)
                           for m, r in modes.items()}
                       for w, modes in results.items()})
    print(table.render())
    burst_on, burst_off = results["burst"]["on"], results["burst"]["off"]
    print(f"\nsmoke OK: msgs/post {burst_off['msgs_per_post']} -> "
          f"{burst_on['msgs_per_post']}, acks/post "
          f"{burst_off['acks_per_post']} -> {burst_on['acks_per_post']}; "
          "identical delivery on/off; same-seed runs bit-identical")


if __name__ == "__main__":
    main()
