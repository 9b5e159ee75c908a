"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload object_burst --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` repeats the workload on fresh clusters for ``--seconds``
host seconds and reports the end-to-end metrics; ``--trace 1`` runs it
once untraced and once under the span recorder and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name and unit, the run
context and the spread over repeats.  Spans of a traced run are written
to ``.perfbench_out/spans-<workload>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: a --trace 0 run keeps repeating until --seconds have passed and at
#: least this many repeats are done
MIN_REPEATS = 3

#: extra set-ups timed (and dropped) after each repeat, so ``setup_s``
#: is a median over several times more samples than there are repeats
SETUP_TRIALS = 4

#: string hashing is randomised per interpreter process by default, and
#: the resulting dict and set layouts move throughput by up to ~15%
#: from one process to the next; every run uses this fixed seed instead
HASH_SEED = "0"


def _git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` files, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _context(args: argparse.Namespace, repeats: int, posts: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": repeats,
        "posts_per_repeat": posts,
    }


def _spread(values: list[float]) -> dict:
    """Median and quartiles over repeats (quartiles equal the single
    value when there is one repeat)."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seconds: float) -> tuple[list, dict, dict]:
    """Repeat until ``seconds`` pass; returns (repeats, metrics, spread)."""
    deadline = time.perf_counter() + seconds
    repeats = []
    setups = []
    while True:
        repeat = workload.run()
        repeats.append(repeat)
        setups.append(repeat.setup_s)
        if repeat.problems:
            break
        for _ in range(SETUP_TRIALS):
            trial = workload.setup_seconds()
            if trial is None:
                break
            setups.append(trial)
        if len(repeats) >= MIN_REPEATS and time.perf_counter() >= deadline:
            break
    first = repeats[0].deterministic()
    for index, repeat in enumerate(repeats[1:], start=1):
        if repeat.deterministic() != first:
            repeat.problems.append(
                f"repeat {index} deterministic figures differ from repeat "
                f"0: {repeat.deterministic()} != {first}")
    spread = {
        "posts_per_s": _spread([r.posts_per_s for r in repeats]),
        "setup_s": _spread(setups),
    }
    metrics = {
        "posts_per_s": (spread["posts_per_s"]["median"], "1/s"),
        "latency_p50_ms": (first["latency_p50_ms"], "ms"),
        "latency_p999_ms": (first["latency_p999_ms"], "ms"),
        "setup_s": (spread["setup_s"]["median"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return repeats, metrics, spread


def run_traced(workload, spans_path: Path) -> tuple[list, dict, dict]:
    """One untraced and one traced repeat; per-layer metrics."""
    import layers
    from tracer import Recorder, write_jsonl

    untraced = workload.run()
    with Recorder() as recorder:
        traced = workload.run()
    exports = [("main", recorder.export())] + traced.extra.pop(
        "worker_spans", [])
    repeats = [untraced, traced]
    if untraced.problems or traced.problems:
        return repeats, {}, {}
    if traced.deterministic() != untraced.deterministic():
        traced.problems.append(
            f"tracing changed the deterministic figures: "
            f"{traced.deterministic()} != {untraced.deterministic()}")
    metrics, mismatches = layers.per_layer(exports, traced, untraced)
    traced.problems.extend(mismatches)
    spans_path.parent.mkdir(exist_ok=True)
    written = write_jsonl(str(spans_path), exports)
    spread = {"spans_written": written, "spans_file": str(spans_path)}
    return repeats, metrics, spread


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # replace this process (no child to wait for) with one whose
        # hash seed is fixed
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    factory = WORKLOADS.get(args.workload)
    if factory is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    workload = factory(seed=args.seed)
    if args.trace:
        repeats, metrics, spread = run_traced(
            workload, OUT_DIR / f"spans-{args.workload}.jsonl.gz")
    else:
        repeats, metrics, spread = run_untraced(workload, args.seconds)

    problems = [p for r in repeats for p in r.problems]
    attempted = sum(r.posts for r in repeats)
    failed = sum(r.failed for r in repeats)
    context = _context(args, len(repeats), repeats[0].posts)
    first = repeats[0]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repeats={len(repeats)} posts/repeat={first.posts}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        det = first.deterministic()
        # reported here though not gated: zero or undefined on some
        # workloads (see perfbench/README.md)
        print(f"  {'msgs_per_post':34s} {det['msgs_per_post']:14.6g} 1/post")
        print(f"  {'fail_ratio':34s} {failed / attempted:14.6g} ratio")
        if det["recovery_ms"] is not None:
            print(f"  {'recovery_ms':34s} {det['recovery_ms']:14.6g} ms")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print("context " + json.dumps(context))
    print("spread " + json.dumps(spread))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # a failed check is reported as a failure, never as a number
        "metrics": {} if problems else {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stamp = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                       f"-trace{args.trace}.json")
    stamp.write_text(json.dumps(
        {"result": result, "context": context, "spread": spread,
         "problems": problems}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
