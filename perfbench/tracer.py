"""Traced-run recorder: spans around each layer's entry points.

The recorder wraps public (and a few boundary) methods of the program's
layers from the outside, keeps one span per call in memory (name,
start, end, parent span, post id when the arguments expose one) plus a
few counters, and puts every original back on :meth:`Recorder.restore`.
Nothing inside the program changes, so a traced run must reproduce the
untraced run's deterministic figures exactly.

Wrappers patch class (or module) attributes, so a recorder must be
installed *before* the clusters it observes are built: several layers
bind methods into dispatch tables at construction time.

Forked shard workers inherit the installed wrappers; a fork handler
empties the child's copy of the span store so each worker reports only
its own calls (see :func:`active` and :meth:`Recorder.export`).
"""

from __future__ import annotations

import gzip
import json
import os
from array import array
from collections import Counter
from importlib import import_module
from multiprocessing.connection import Connection
from time import perf_counter
from typing import Any, Callable, Iterable

#: the installed recorder, reachable from code running in forked shard
#: workers (which inherit it); None when no traced run is in progress
_active: "Recorder | None" = None
_fork_hook_registered = False


def active() -> "Recorder | None":
    return _active


def _after_fork_in_child() -> None:
    if _active is not None:
        _active.reset()


def _post_of_raise(args: tuple, kwargs: dict) -> int:
    data = kwargs.get("user_data", args[4] if len(args) > 4 else None)
    return data if isinstance(data, int) else -1


def _post_of_block(index: int) -> Callable[[tuple, dict], int]:
    def post(args: tuple, _kwargs: dict) -> int:
        data = getattr(args[index], "user_data", None) \
            if len(args) > index else None
        return data if isinstance(data, int) else -1
    return post


class Recorder:
    """In-memory span store plus the wrap/restore machinery."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._saved: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and count (wrappers stay)."""
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.post = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pid = os.getpid()

    # -- wrapping -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        # an inherited attribute is shadowed, and the shadow deleted on
        # restore
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner: Any, attr: str, name: str,
             post: Callable[[tuple, dict], int] | None = None,
             tally: Callable[[Counter, tuple, Any], None] | None = None
             ) -> None:
        """Record a span named ``name`` around ``owner.attr``.

        ``post`` extracts the post id from the call's arguments;
        ``tally`` adds counts derived from the arguments and result.
        """
        original = getattr(owner, attr)
        nid = self._intern(name)
        rec = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(rec.start)
            stack = rec.stack
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.post.append(post(args, kwargs) if post is not None else -1)
            rec.end.append(0.0)
            stack.append(index)
            rec.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end[index] = perf_counter()
                stack.pop()
            if tally is not None:
                tally(rec.counts, args, result)
            return result

        wrapper.__wrapped__ = original
        self._patch(owner, attr, wrapper)

    def counter(self, owner: Any, attr: str,
                tally: Callable[[Counter, tuple], None]) -> None:
        """Count calls to ``owner.attr`` (before it runs), no span."""
        original = getattr(owner, attr)
        counts_of = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tally(counts_of.counts, args)
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._patch(owner, attr, wrapper)

    def install(self) -> "Recorder":
        """Wrap every layer entry point; the recorder becomes active."""
        global _active, _fork_hook_registered
        if _active is not None:
            raise RuntimeError("a traced run is already in progress")
        for layer in LAYER_POINTS:
            layer(self)
        _active = self
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _fork_hook_registered = True
        return self

    def restore(self) -> None:
        """Put every wrapped original back, newest first."""
        global _active
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if _active is self:
            _active = None

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *_exc: Any) -> None:
        self.restore()

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        """Picklable snapshot (how shard workers ship their spans)."""
        return {"names": list(self.names), "name_id": self.name_id,
                "start": self.start, "end": self.end,
                "parent": self.parent, "post": self.post,
                "counts": dict(self.counts), "pid": self.pid}


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def self_times(names: list[str], name_id: Iterable[int],
               start: Iterable[float], end: Iterable[float],
               parent: Iterable[int]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time (seconds).

    A span's self time is its duration minus the durations of its
    direct children, which the recorder nests strictly inside it.
    """
    name_id, start, end, parent = (list(name_id), list(start), list(end),
                                   list(parent))
    child = [0.0] * len(start)
    for index, up in enumerate(parent):
        if up >= 0:
            child[up] += end[index] - start[index]
    out: dict[str, dict[str, float]] = {}
    for index, nid in enumerate(name_id):
        row = out.setdefault(names[nid],
                             {"count": 0, "total": 0.0, "self": 0.0})
        duration = end[index] - start[index]
        row["count"] += 1
        row["total"] += duration
        row["self"] += duration - child[index]
    return out


def write_jsonl(path: str, exports: list[tuple[str, dict]]) -> int:
    """Write spans of every process as gzip-compressed JSON lines;
    returns the count."""
    written = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        for proc, data in exports:
            names = data["names"]
            posts = data["post"]
            for i, nid in enumerate(data["name_id"]):
                record = {"proc": proc, "id": i, "name": names[nid],
                          "start": data["start"][i], "end": data["end"][i],
                          "parent": data["parent"][i]}
                if posts[i] >= 0:
                    record["post"] = posts[i]
                out.write(json.dumps(record, separators=(",", ":")))
                out.write("\n")
                written += 1
    return written


# ----------------------------------------------------------------------
# the layer entry points
# ----------------------------------------------------------------------

def _own(cls: type, *attrs: str) -> list[str]:
    """The attributes ``cls`` defines itself (not inherited ones)."""
    return [attr for attr in attrs if attr in cls.__dict__]


def _sim(rec: Recorder) -> None:
    from repro.sim.scheduler import Handle, Simulator, WheelSimulator
    for cls in (Simulator, WheelSimulator):
        for attr in _own(cls, "call_at"):
            rec.span(cls, attr, "sim.schedule", tally=_tally_scheduled)
        for attr in _own(cls, "call_after", "call_soon"):
            rec.span(cls, attr, "sim.schedule")
        for attr in _own(cls, "step"):
            rec.span(cls, attr, "sim.step", tally=_tally_step)

    def live_cancel(counts: Counter, args: tuple) -> None:
        if not args[0].cancelled:
            counts["sim.cancels"] += 1

    rec.counter(Handle, "cancel", live_cancel)


def _tally_scheduled(counts: Counter, _args: tuple, _handle: Any) -> None:
    counts["sim.scheduled"] += 1


def _tally_step(counts: Counter, _args: tuple, ran: bool) -> None:
    if ran:
        counts["sim.events"] += 1


def _events(rec: Recorder) -> None:
    from repro.events.delivery import EventManager
    rec.span(EventManager, "raise_external", "events.raise",
             post=_post_of_raise)
    rec.span(EventManager, "enqueue_for_thread", "events.dispatch",
             post=_post_of_block(3))
    rec.span(EventManager, "start_delivery", "events.dispatch")
    rec.span(EventManager, "_handle_object_post", "events.dispatch",
             post=_post_of_block(2))


def _locate(rec: Recorder) -> None:
    from repro.events import locate
    for cls in (locate.PathLocator, locate.BroadcastLocator,
                locate.MulticastLocator, locate.CachedLocator):
        for attr in _own(cls, "post"):
            rec.span(cls, attr, "locate", post=_post_of_block(3))
        for attr in _own(cls, "on_message", "on_reply"):
            rec.span(cls, attr, "locate")


def _threads(rec: Recorder) -> None:
    from repro.threads.thread import DThread
    rec.span(DThread, "_step", "threads.step")


def _objects(rec: Recorder) -> None:
    from repro.objects.invocation import InvocationEngine
    rec.span(InvocationEngine, "invoke", "objects.invoke")


def _net(rec: Recorder) -> None:
    from repro.net.fabric import Fabric
    from repro.net.reliable import ReliableChannel
    from repro.net.stats import TrafficStats
    rec.span(Fabric, "send", "net.fabric")
    rec.span(Fabric, "_deliver", "net.fabric")
    for attr in ("send", "accept", "on_ack", "on_cum_ack"):
        rec.span(ReliableChannel, attr, "net.reliable")

    def sent(counts: Counter, args: tuple) -> None:
        mtype = args[2]
        counts["net.sent"] += 1
        counts["net.sent:" + mtype.split(".", 1)[0]] += 1
        if mtype == "rel.ack":
            counts["net.acks"] += 1

    rec.counter(TrafficStats, "record_send", sent)


def _store(rec: Recorder) -> None:
    from repro.store.journal import NodeJournal
    from repro.store.manager import NodeStore

    def one(counts: Counter, _args: tuple, _record: Any) -> None:
        counts["store.appends"] += 1
        counts["store.commits"] += 1

    def batch(counts: Counter, _args: tuple, records: list) -> None:
        counts["store.appends"] += len(records)
        counts["store.commits"] += 1 if records else 0

    def replayed(counts: Counter, _args: tuple, result: tuple) -> None:
        counts["store.recoveries"] += 1
        counts["store.replayed"] += result[0]

    rec.span(NodeJournal, "append", "store.append", tally=one)
    rec.span(NodeJournal, "append_batch", "store.append", tally=batch)
    rec.span(NodeStore, "recover", "store.recover", tally=replayed)


def _transport(rec: Recorder) -> None:
    codec = import_module("repro.transport.codec")

    def encoded(counts: Counter, args: tuple, blob: bytes) -> None:
        counts["transport.encoded"] += len(args[0])
        counts["transport.bytes"] += len(blob)

    def decoded(counts: Counter, _args: tuple, records: list) -> None:
        counts["transport.decoded"] += len(records)

    rec.span(codec, "encode_batch", "transport.encode", tally=encoded)
    rec.span(codec, "decode_batch", "transport.decode", tally=decoded)
    rec.span(Connection, "recv", "transport.pipe_recv")


#: one installer per layer
LAYER_POINTS = (_sim, _events, _locate, _threads, _objects, _net, _store,
                _transport)
