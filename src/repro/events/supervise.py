"""Handler supervision: watchdogs, circuit breakers, dead letters.

The transport layers make message delivery crash-tolerant; this module
makes *handler execution* crash-tolerant. The delivery engine and the
object managers hand every supervision step to one
:class:`HandlerSupervisor` (cluster-wide, owned by the
:class:`~repro.events.delivery.EventManager`), the only place its
counters change, for three policies:

* **watchdog deadlines** — every supervised surrogate or object-handler
  run gets a deadline (``handler_deadline``, overridable per
  registration); on expiry a surrogate is cancelled, the chain falls
  through, and a ``HANDLER_TIMEOUT`` event is raised on the owning thread.
* **retry + circuit breaking for buddy handlers** — invocations that
  fail with crash/give-up errors retry with exponential backoff
  (``handler_retries`` / ``handler_backoff``); a per-(buddy-oid, event)
  :class:`CircuitBreaker` opens after ``breaker_threshold`` consecutive
  failures and skips the registration (chain fall-through) until a
  half-open probe succeeds. A buddy on a suspected node fails fast.
* **dead-letter quarantine** — a block whose *entire* chain fails
  ``poison_threshold`` times moves to the node's
  :class:`DeadLetterQueue` (journaled when ``durable_delivery`` is on)
  instead of failing forever; it stays inspectable and requeueable via
  the cluster API.

Everything is inert while the knobs hold their defaults: no timers, no
state, no extra simulator events — same-seed runs stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import (
    BuddyUnavailableError,
    EventQuarantinedError,
    HandlerTimeout,
    NodeCrashedError,
    RpcTimeout,
    UndeliverableError,
)
from repro.events import names
from repro.events.block import EventBlock
from repro.events.handlers import Decision, HandlerRegistration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.node import Kernel
    from repro.sim.primitives import SimFuture
    from repro.sim.scheduler import Handle
    from repro.threads.thread import DThread

#: buddy-invocation failures worth retrying / feeding the breaker: the
#: handler object's node crashed, the reliable send gave up, an RPC leg
#: timed out, or the failure detector failed the call fast
RETRYABLE_INVOKE_ERRORS = (NodeCrashedError, UndeliverableError, RpcTimeout,
                           BuddyUnavailableError)

# -- circuit breaker ---------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-(buddy-oid, event) failure gate.

    CLOSED admits everything; ``threshold`` consecutive failures open
    it. OPEN rejects until ``reset`` virtual seconds have passed, then
    admits exactly one half-open probe; the probe's outcome closes or
    re-opens the breaker.
    """

    __slots__ = ("threshold", "reset", "state", "failures", "opened_at")

    def __init__(self, threshold: int, reset: float) -> None:
        self.threshold = threshold
        self.reset = reset
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> tuple[bool, bool]:
        """(admit?, is this admission the half-open probe?)."""
        if self.state == CLOSED:
            return True, False
        if self.state == OPEN and now - self.opened_at >= self.reset:
            self.state = HALF_OPEN
            return True, True
        # OPEN inside the reset window, or a half-open probe in flight.
        return False, False

    def record_success(self) -> bool:
        """Returns True when this success closed a non-closed breaker."""
        self.failures = 0
        if self.state != CLOSED:
            self.state = CLOSED
            return True
        return False

    def record_failure(self, now: float) -> bool:
        """Returns True when this failure opened (or re-opened) it."""
        self.failures += 1
        if self.state == HALF_OPEN or (self.state == CLOSED
                                       and self.failures >= self.threshold):
            self.state = OPEN
            self.opened_at = now
            return True
        if self.state == OPEN:
            # Late failure report while already open: refresh the window.
            self.opened_at = now
        return False


# -- supervisor --------------------------------------------------------------

class HandlerSupervisor:
    """Cluster-wide supervision policy for the delivery engine and the
    object managers (only this module changes its counters)."""

    COUNTERS = ("handler_timeouts", "handler_retries", "breaker_opens",
                "breaker_half_opens", "breaker_closes", "breaker_skips",
                "fast_fails", "chain_retries", "quarantined", "requeued",
                "dead_letter_undeliverable")

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.config = cluster.config
        self._breakers: dict[tuple[int, str], CircuitBreaker] = {}
        #: chain-failure tallies for the poison policy, keyed by the
        #: block's durable id (stable across redelivery) or block id
        self._chain_failures: dict[Any, int] = {}
        self.counters = {name: 0 for name in self.COUNTERS}

    # -- watchdog -----------------------------------------------------

    def effective_deadline(
            self, registration: "HandlerRegistration | None") -> float | None:
        """The watchdog deadline for one registration (None = no watchdog)."""
        if registration is not None and registration.deadline is not None:
            return registration.deadline
        return self.config.handler_deadline

    def watch(self, deadline: float, runner: "DThread",
              future: "SimFuture[Any]", what: str,
              on_expire: Callable[[HandlerTimeout], None],
              **fields: Any) -> "Handle":
        """Arm the watchdog over one handler run on ``runner``: unless
        ``future`` settles or ``runner`` dies first, count and trace (with
        ``fields``) the timeout and hand the caller's ``on_expire`` a
        HandlerTimeout naming ``what``. Returns the timer handle."""
        def expire() -> None:
            if future.done or not runner.alive:
                return
            self.counters["handler_timeouts"] += 1
            self.cluster.tracer.emit("supervise", "handler-timeout",
                                     **fields, deadline=deadline)
            on_expire(HandlerTimeout(f"{what} exceeded {deadline}s"))

        return self.cluster.sim.call_after(deadline, expire)

    def raise_handler_timeout(self, thread: "DThread", block: EventBlock,
                              deadline: float) -> None:
        """Raise the HANDLER_TIMEOUT system event on the owning thread
        (only when it subscribed — mirrors the TARGET_DEAD gating, so
        unsupervised runs see zero extra notices)."""
        if not thread.alive or block.event == names.HANDLER_TIMEOUT:
            return
        if not thread.attributes.handlers_for(names.HANDLER_TIMEOUT):
            return
        node = thread.current_node
        notice = EventBlock(event=names.HANDLER_TIMEOUT, raiser_tid=None,
                            raiser_node=node, target=thread.tid,
                            user_data={"event": block.event,
                                       "deadline": deadline},
                            raised_at=self.cluster.sim.now)
        self.cluster.events.enqueue_for_thread(node, thread.tid, notice)

    # -- circuit breaker ----------------------------------------------

    def breaker_for(self, oid: int, event: str) -> CircuitBreaker | None:
        if self.config.breaker_threshold is None:
            return None
        key = (oid, event)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                self.config.breaker_threshold, self.config.breaker_reset)
        return breaker

    def breaker_state(self, oid: int, event: str) -> str:
        breaker = self._breakers.get((oid, event))
        return breaker.state if breaker is not None else CLOSED

    def breaker_allows(self, oid: int, event: str) -> bool:
        """Admission check; emits skip / half-open traces."""
        breaker = self.breaker_for(oid, event)
        if breaker is None:
            return True
        admitted, probe = breaker.allow(self.cluster.sim.now)
        if probe:
            self.counters["breaker_half_opens"] += 1
            self.cluster.tracer.emit("supervise", "breaker-half-open",
                                     oid=oid, event=event)
        if not admitted:
            self.counters["breaker_skips"] += 1
            self.cluster.tracer.emit("supervise", "breaker-skip", oid=oid,
                                     event=event)
        return admitted

    def fast_fail(self, node: int, home: int, oid: int,
                  event: str) -> BuddyUnavailableError | None:
        """The error to fail a buddy invocation with at once when its
        ``home`` is suspected from ``node``, else None (fail fast instead
        of waiting out the reliable channel's give-up)."""
        kernel = self.cluster.kernels.get(node)
        if (kernel is None or home == node
                or not kernel.failure.is_suspected(home)):
            return None
        self.counters["fast_fails"] += 1
        self.cluster.tracer.emit("supervise", "fast-fail", oid=oid,
                                 event=event, home=home)
        return BuddyUnavailableError(f"node {home} is suspected")

    def invoke_succeeded(self, oid: int, event: str) -> None:
        breaker = self._breakers.get((oid, event))
        if breaker is not None and breaker.record_success():
            self.counters["breaker_closes"] += 1
            self.cluster.tracer.emit("supervise", "breaker-close", oid=oid,
                                     event=event)

    def invoke_failed(self, oid: int, event: str, attempt: int,
                      error: BaseException, done: Callable[..., None],
                      retry: Callable[..., None], *args: Any) -> None:
        """A buddy invocation failed with a retryable error: feed the
        breaker, then schedule ``retry(*args, attempt + 1)`` with backoff
        while ``handler_retries`` allow, else ``done(PROPAGATE)``."""
        tracer = self.cluster.tracer
        breaker = self.breaker_for(oid, event)
        if breaker is not None and breaker.record_failure(
                self.cluster.sim.now):
            self.counters["breaker_opens"] += 1
            tracer.emit("supervise", "breaker-open", oid=oid, event=event,
                        failures=breaker.failures)
        if attempt < self.config.handler_retries:
            self.counters["handler_retries"] += 1
            tracer.emit("supervise", "handler-retry", oid=oid, event=event,
                        attempt=attempt + 1, error=repr(error))
            delay = self.config.handler_backoff * (2 ** attempt)
            self.cluster.sim.call_after(delay, retry, *args, attempt + 1)
            return
        done(Decision.PROPAGATE, None, error)

    # -- poison / dead-letter policy ----------------------------------

    def chain_failed(self, node: int, block: EventBlock,
                     error: BaseException | None,
                     describe: Callable[[int], str],
                     retry: Callable[..., None], *args: Any,
                     **where: Any) -> str | None:
        """Every handler for ``block`` failed: schedule ``retry(*args)``
        with exponential backoff or, at ``poison_threshold``, quarantine
        the block: dead-letter it on ``node`` (the delivering node, or
        the object's home) and fail its synchronous raiser.

        Returns the action taken, or None when the poison policy is off
        (the caller concludes as it would without supervision).
        ``describe(failures)`` words the raiser's quarantine error;
        ``where`` names the handler's owner (tid or oid) in the trace.
        """
        threshold = self.config.poison_threshold
        if threshold is None:
            return None
        key = block.durable_id or block.block_id
        count = self._chain_failures.get(key, 0) + 1
        kernel = self.cluster.kernels[node]
        if count < threshold:
            self._chain_failures[key] = count
            self.counters["chain_retries"] += 1
            self.cluster.tracer.emit("supervise", "chain-retry",
                                     event=block.event, attempt=count,
                                     **where)
            if block.durable_id is not None:
                # Retract an object run's applied marker (thread posts
                # carry none): if the node dies during the backoff, the
                # origin's redelivery must re-run the handler, not be
                # suppressed.
                kernel.store.unmark_applied(block.durable_id)
            delay = self.config.handler_backoff * (2 ** (count - 1))
            self.cluster.sim.call_after(delay, retry, *args)
            return "retry"
        self._chain_failures.pop(key, None)  # the block leaves delivery
        self.counters["quarantined"] += 1
        kernel.dead_letters.add(block, "poison", error=error, failures=count)
        if block.durable_id is not None:
            # Resolve the origin's outbox as quarantined (not delivered)
            # and strip the id so no later conclusion re-acks it.
            kernel.store.post_quarantined(block.durable_id)
            block.durable_id = None
        self.cluster.events.complete_sync(block, None, EventQuarantinedError(
            describe(count)), from_node=node)
        block.synchronous = False  # the raiser has been resumed
        return "quarantine"

    def clear_failures(self, block: "EventBlock") -> None:
        """A chain run succeeded: forget the block's failure tally."""
        if self._chain_failures:
            self._chain_failures.pop(block.durable_id or block.block_id,
                                     None)

    def dead_letter_undeliverable(self, node: int, block: EventBlock,
                                  error: str) -> None:
        """Dead-letter a post that failed with a notice on ``node`` (the
        raiser's), memory-only: this path exists in knobs-off configs too
        and must not perturb durable runs' journal accounting."""
        kernel = self.cluster.kernels.get(node)
        if kernel is not None:
            self.counters["dead_letter_undeliverable"] += 1
            kernel.dead_letters.add(block, "undeliverable", error=error,
                                    journal=False)

    def stats(self) -> dict[str, int]:
        open_breakers = sum(1 for b in self._breakers.values()
                            if b.state != CLOSED)
        return {**self.counters, "breakers": len(self._breakers),
                "breakers_open": open_breakers}


# -- dead-letter queue -------------------------------------------------------

@dataclass
class DeadLetter:
    """One quarantined event block on one node."""

    dl_id: int
    block: "EventBlock"
    reason: str            #: "poison" or "undeliverable"
    error: str | None      #: repr of the last failure, if any
    failures: int          #: chain failures accumulated before quarantine
    at: float              #: virtual time of quarantine


class DeadLetterQueue:
    """Per-node quarantine for poison / undeliverable event blocks.

    Journaled through the node's :class:`~repro.store.manager.NodeStore`
    when ``durable_delivery`` is on (``dead`` / ``dead-requeue``
    records, carried through checkpoints), so quarantined blocks survive
    node crashes exactly like pending posts do.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._entries: dict[int, DeadLetter] = {}
        self._next_id = 0
        self.quarantined = 0
        self.requeued = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, block: "EventBlock", reason: str,
            error: BaseException | str | None = None,
            failures: int = 0, journal: bool = True) -> DeadLetter:
        """Quarantine a block (journals a ``dead`` record when durable).

        ``journal=False`` keeps the entry memory-only even in durable
        mode — used by the undeliverable-post path, which must not
        perturb journal accounting of runs that never enabled a
        supervision knob.
        """
        self._next_id += 1
        dead = DeadLetter(dl_id=self._next_id, block=block, reason=reason,
                          error=repr(error) if error is not None else None,
                          failures=failures, at=self.kernel.sim.now)
        self._entries[dead.dl_id] = dead
        self.quarantined += 1
        self.kernel.tracer.emit("supervise", "dead-letter",
                                node=self.kernel.node_id, dl_id=dead.dl_id,
                                event=block.event, reason=reason,
                                error=dead.error)
        if journal and self.kernel.store.enabled:
            self.kernel.store.journal_dead_letter(dead)
        hook = self.kernel.cluster.events.on_quarantine
        if hook is not None:
            hook(dead)
        return dead

    def take(self, dl_id: int) -> DeadLetter | None:
        """Remove a dead letter for requeue (journals when durable)."""
        dead = self._entries.pop(dl_id, None)
        if dead is None:
            return None
        self.requeued += 1
        if self.kernel.store.enabled:
            self.kernel.store.journal_dead_requeue(dl_id)
        self.kernel.cluster.events.supervisor.counters["requeued"] += 1
        self.kernel.tracer.emit("supervise", "requeue",
                                event=dead.block.event,
                                node=self.kernel.node_id, dl_id=dl_id)
        return dead

    def get(self, dl_id: int) -> DeadLetter | None:
        return self._entries.get(dl_id)

    def entries(self) -> list[DeadLetter]:
        """All quarantined blocks, oldest first."""
        return [self._entries[k] for k in sorted(self._entries)]

    # -- checkpoint / recovery ----------------------------------------

    def snapshot(self) -> tuple[DeadLetter, ...]:
        """Checkpoint form (entries copied so history stays frozen)."""
        return tuple(replace(dead) for dead in self.entries())

    def restore(self, entries: Iterable[DeadLetter]) -> None:
        """Reset to a checkpoint's quarantine set (recovery replay)."""
        self._entries = {}
        for dead in entries:
            self._entries[dead.dl_id] = replace(dead)
            self._next_id = max(self._next_id, dead.dl_id)

    def replay_add(self, data: dict[str, Any]) -> None:
        """Roll one ``dead`` journal record forward during replay."""
        dead = DeadLetter(dl_id=data["dl_id"], block=data["block"],
                          reason=data["reason"], error=data["error"],
                          failures=data["failures"], at=data["at"])
        self._entries[dead.dl_id] = dead
        self._next_id = max(self._next_id, dead.dl_id)

    def replay_remove(self, dl_id: int) -> None:
        """Roll one ``dead-requeue`` record forward during replay."""
        self._entries.pop(dl_id, None)

    def on_crash(self) -> None:
        """Memory is gone; recovery replays the journal (durable mode)."""
        self._entries.clear()
        self._next_id = 0

    def stats(self) -> dict[str, int]:
        return {"quarantined": self.quarantined, "requeued": self.requeued,
                "held": len(self._entries)}
