"""Cross-connection group commit: one fsync pair per *round* batch.

Batching per connection amortizes fsyncs across one connection's
pipelined records.  At many-producer scale that still pays one
spill-fsync + ledger-fsync pair per connection per batch window — with
64 producers trickling records, the disk sees 128 fsyncs per window
while each covers a handful of frames.  :class:`GroupCommitScheduler`
moves the batching to where the durability actually lives, the round:

* every session of a round submits its staged batch to the round's one
  scheduler and awaits its outcome;
* a single committer task drains **everything queued across all
  connections** into one commit — all spill appends, one spill fsync,
  all ledger appends, one ledger fsync, all merges — then resolves
  each submission;
* while that commit's fsyncs run, new submissions pile up behind it,
  so the coalescing window is exactly the disk's own latency: the
  slower the fsync, the bigger the batch it absorbs.  Nobody waits on
  a timer.

Every ack still goes out only after the fsync pair covering its record,
so durability-per-ack is byte-for-byte what the per-connection design
guaranteed.  Because one task does every append for the round, spill
order equals ledger order by construction — the prefix property that
recovery depends on — with no cross-task lock to misuse.

``ServiceLimits.commit_scope = "connection"`` keeps the scheduler but
drains one submission per commit — the per-connection baseline the
``make bench-service`` multi-round scenario measures group commit
against.

Failure containment is per batch: a mid-commit IO error rolls the
spill and any staged ledger entries back to the pre-batch boundary and
fails every submission in the batch (their connections drop; nothing
was acked, so producers resend); if even the rollback fails, the
scheduler fail-stops the round — further commits are refused until an
operator restarts with ``resume``, which reconciles from the last
durable prefix.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
from collections import deque
from dataclasses import dataclass, field

from ...exceptions import LedgerError, ServiceError
from .quotas import COMMIT_SCOPE_ROUND, ServiceLimits

__all__ = ["GroupCommitScheduler"]


@dataclass
class _Submission:
    """One connection's staged batch, awaiting the round's committer."""

    producer_id: str
    items: list[dict]
    future: asyncio.Future = field(repr=False)


class GroupCommitScheduler:
    """The single durable commit pipeline of one hosted round."""

    def __init__(self, round_state, limits: ServiceLimits) -> None:
        self.round = round_state
        self.cross_connection = limits.commit_scope == COMMIT_SCOPE_ROUND
        self.commits = 0
        self.cross_connection_batches = 0  # commits coalescing >1 session
        self.failed: str | None = None
        self._queue: deque[_Submission] = deque()
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        self._paused = False
        # Set whenever the committer is parked (no batch mid-commit);
        # cleared the instant it takes one.  paused() waits on it so a
        # migration never interleaves with a half-written batch.
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Session-facing API
    # ------------------------------------------------------------------
    async def submit(self, producer_id: str, items: list[dict]) -> None:
        """Durably commit *items*; returns once their statuses are final.

        Item statuses are resolved in place (``fresh`` → ``merged`` /
        ``duplicate`` / ``equivocation``); the caller acks from them.
        Raises whatever the commit raised (IO errors, fail-stop) —
        nothing was acked for this batch, so the connection must drop
        and its producer resend.

        Cancelling the *caller* does not cancel the commit: the
        committer task owns the durable work, and an abandoned
        submission simply has nobody left to ack it (its records are
        still durable, so the reconnecting producer's blind resend
        dedups).  This is what lets service shutdown cancel connection
        handlers without ever abandoning a half-committed batch.
        """
        if self._closed:
            raise ServiceError(
                f"round {self.round.round_id} is closed to new commits"
            )
        future = asyncio.get_running_loop().create_future()
        self._queue.append(_Submission(producer_id, items, future))
        if self._task is None:
            self._task = asyncio.create_task(self._run())
        self._wakeup.set()
        await future

    async def close(self) -> None:
        """Drain every queued submission, then stop the committer."""
        self._closed = True
        self._wakeup.set()
        if self._task is not None:
            task, self._task = self._task, None
            await task

    @contextlib.asynccontextmanager
    async def paused(self):
        """No commit runs — or starts — while this context is held.

        The migration primitive: ``migrate-out`` / ``migrate-in`` must
        read and mutate the round's spill, ledger, and accumulator as
        one atomic unit, which in a single-threaded event loop means
        "synchronously, with no commit batch in flight".  Entering the
        context waits for the current batch (if any) to finish and
        parks the committer; submissions keep queueing and drain the
        moment the context exits.  Holders must not await between the
        mutations they need to be atomic.
        """
        if self._paused:
            raise ServiceError(
                f"round {self.round.round_id}'s commit pipeline is already "
                "paused; one migration at a time"
            )
        self._paused = True
        try:
            await self._idle.wait()
            yield
        finally:
            self._paused = False
            self._wakeup.set()

    # ------------------------------------------------------------------
    # The committer task
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            if self._paused or not self._queue:
                self._idle.set()
                if self._closed and not self._queue:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            self._idle.clear()
            if self.cross_connection:
                batch = list(self._queue)
                self._queue.clear()
            else:
                batch = [self._queue.popleft()]
            try:
                try:
                    await self._commit(batch)
                finally:
                    # Whatever happened — commit-time dedup, a refused
                    # equivocation, a rolled-back batch — records that
                    # did not end up merged give their quota charges
                    # back (their producers will resend them).
                    for submission in batch:
                        self.round.refund_uncommitted(
                            submission.producer_id, submission.items
                        )
            except BaseException as exc:
                for submission in batch:
                    if not submission.future.cancelled():
                        submission.future.set_exception(exc)
                # A shared exception object would warn "never
                # retrieved" for abandoned futures; consuming it here
                # is enough (live callers re-raise their own copy).
                for submission in batch:
                    if submission.future.cancelled():
                        continue
                    submission.future.exception()
                if isinstance(exc, asyncio.CancelledError):
                    raise
            else:
                for submission in batch:
                    if not submission.future.cancelled():
                        submission.future.set_result(None)

    async def _commit(self, batch: list[_Submission]) -> None:
        """Spill, fsync, ledger, fsync, merge — for the whole batch.

        The committer is the only writer of the round's spill and
        ledger, so this coroutine needs no lock; its only failure mode
        is a real IO error, handled by rollback + fail-stop.
        """
        round_ = self.round
        loop = asyncio.get_running_loop()
        if self.failed is not None:
            raise ServiceError(
                "round refused the commit: a previous commit failed "
                f"({self.failed}) and the spill could not be rolled "
                "back; restart the service with resume=True"
            )
        self.commits += 1
        if len(batch) > 1:
            self.cross_connection_batches += 1
        flat = [
            (submission.producer_id, item)
            for submission in batch
            for item in submission.items
        ]
        # Resolve deferred duplicate checks first (no ordering hazard: a
        # committed ledger entry's digest never changes), hashing on the
        # executor so resend-heavy sessions do not stall the loop.
        to_verify = [
            item for _, item in flat if item["status"] == "verify-dup"
        ]
        if to_verify:
            digests = await loop.run_in_executor(
                None,
                lambda: [
                    hashlib.sha256(item["frame"]).digest()
                    for item in to_verify
                ],
            )
            for item, digest in zip(to_verify, digests):
                item["status"] = (
                    "duplicate"
                    if digest == item["known_digest"]
                    else "equivocation"
                )
        spill_mark = round_.writer.end_offset
        ledger_mark = round_.ledger.mark()
        appended_keys: list[tuple[str, int]] = []
        to_commit: list[tuple[str, dict]] = []
        batch_staged: dict[tuple[str, int], bytes] = {}
        try:
            for producer_id, item in flat:
                if item["status"] != "fresh":
                    continue
                if producer_id in round_.excluded:
                    # The producer was migrated off this shard after the
                    # item was staged; refuse instead of merging so the
                    # producer resends to the new owner (where the
                    # transferred ledger entries dedup the resend).
                    item["status"] = "moved"
                    continue
                key = (producer_id, item["seq"])
                # Re-check now: another connection of this producer may
                # have committed the seq since the item was staged —
                # in an earlier batch (ledger hit) or earlier in this
                # very batch (batch_staged hit).
                entry = round_.ledger.seen(producer_id, item["seq"])
                if entry is not None:
                    digest = hashlib.sha256(item["frame"]).digest()
                    item["status"] = (
                        "duplicate"
                        if entry.digest == digest
                        else "equivocation"
                    )
                    continue
                previous = batch_staged.get(key)
                if previous is not None:
                    item["status"] = (
                        "duplicate"
                        if previous == item["frame"]
                        else "equivocation"
                    )
                    continue
                round_.writer.append_frame(item["frame"])
                item["spill_end"] = round_.writer.end_offset
                batch_staged[key] = item["frame"]
                to_commit.append((producer_id, item))
            if to_commit:
                # Hash the batch and fsync the spill concurrently on
                # the executor (sha256 releases the GIL on large
                # buffers); both must finish before any ledger entry
                # exists, so a ledger entry can never point past
                # durable bytes.
                digests, _ = await asyncio.gather(
                    loop.run_in_executor(
                        None,
                        lambda: [
                            hashlib.sha256(item["frame"]).digest()
                            for _, item in to_commit
                        ],
                    ),
                    loop.run_in_executor(None, round_.writer.sync),
                )
                for (producer_id, item), digest in zip(to_commit, digests):
                    round_.ledger.append(
                        producer_id,
                        item["seq"],
                        digest,
                        item["spill_end"],
                    )
                    appended_keys.append((producer_id, item["seq"]))
                await loop.run_in_executor(None, round_.ledger.sync)
                for producer_id, item in to_commit:
                    round_.absorb(item["inner"])
                    round_.note_member(producer_id, item["seq"])
                    round_.records_merged += 1
                    round_.bytes_ingested += len(item["frame"])
                    item["status"] = "merged"
        except BaseException as exc:
            try:
                if appended_keys:
                    round_.ledger.rollback(ledger_mark, appended_keys)
                round_.writer.rollback(spill_mark)
            except BaseException as repair_exc:
                self.failed = repr(exc)
                raise LedgerError(
                    f"commit failed ({exc}) and rolling the spill back "
                    f"failed too ({repair_exc}); refusing further "
                    "commits — restart the service with resume=True"
                ) from exc
            raise
