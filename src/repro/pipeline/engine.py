"""Chunked perturbation engine: the exact per-user path in bounded memory.

The naive exact path (:mod:`repro.simulation.exact`) materializes the
full ``n x m`` report matrix, which at Kosarak scale (``m = 41,270``,
``n = 10^6``) is ~40 GB before the aggregation even starts.  This engine
instead streams users through the mechanism in chunks of configurable
size: only a few ``chunk_size x m`` blocks (one per worker) are ever
alive, so peak additional memory is ``O(workers * chunk_size * m)`` and
the per-bit counts come out of a
:class:`~repro.pipeline.accumulator.CountAccumulator` in ``O(m)`` state.

Every chunk is produced by the mechanism's own ``perturb_many`` — this
is the *real* encode→perturb→aggregate protocol, not the binomial
shortcut of :mod:`repro.simulation.fast`.  How chunks draw their
randomness depends on the sampler:

* **bitexact** chunks run inline and in order, consuming the caller's
  generator chunk after chunk, so with a single chunk
  (``chunk_size >= n``) the counts are bit-identical to a one-shot
  ``perturb_many`` call with the same generator.
* **fast** chunks each draw from their own generator, derived from the
  caller's generator state (:func:`repro.kernels.spawn_generators`),
  so output is a pure function of ``(generator state, chunk_size)``
  and chunks can run on a thread pool, one per available CPU, with
  output independent of the worker count.  A multiprocessing child
  runs them inline: its sibling processes already share the CPUs.
"""

from __future__ import annotations

import collections
import contextvars
import multiprocessing
import os
from concurrent.futures import Executor, Future, ThreadPoolExecutor

from .._validation import as_int_array, check_positive_int, check_rng
from ..datasets.base import ItemsetDataset
from ..exceptions import ValidationError
from ..kernels import resolve_sampler, spawn_generators
from ..mechanisms.base import CategoricalMechanism, Mechanism, UnaryMechanism
from ..mechanisms.idue_ps import IDUEPS
from .accumulator import CountAccumulator

__all__ = ["report_width", "iter_report_chunks", "stream_counts"]


def report_width(mechanism: Mechanism) -> int:
    """Width of one released report in bits (or histogram bins).

    The extended domain ``m + ell`` for Padding-and-Sampling pipelines,
    the plain item domain ``m`` otherwise.
    """
    if isinstance(mechanism, IDUEPS):
        return mechanism.extended_m
    return mechanism.m


def _available_cpus() -> int:
    """CPUs this process's chunks may run on.

    Its affinity mask where known, else the CPU count — but one in a
    multiprocessing child (a :class:`~repro.pipeline.ShardedRunner`
    worker): its sibling processes already share those CPUs, one chunk
    each, so a pool in every worker would multiply the chunks in flight
    (and their memory) by the CPU count.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class _InlineExecutor(Executor):
    """One worker and no thread: each task runs as it is submitted."""

    def submit(self, fn, /, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _chunk_producer(mechanism: Mechanism, data, packed: bool, sampler):
    """Validate the inputs; return ``(users, produce)``.

    ``produce(start, stop, rng)`` releases the reports of users
    ``[start, stop)`` from *rng* as a fresh array.
    """
    if isinstance(mechanism, IDUEPS):
        if not isinstance(data, ItemsetDataset):
            raise ValidationError(
                f"IDUEPS streams an ItemsetDataset, got {type(data).__name__}"
            )
        if data.m != mechanism.m:
            raise ValidationError(
                f"dataset domain {data.m} does not match mechanism domain "
                f"{mechanism.m}"
            )
        perturb = mechanism.perturb_many_packed if packed else mechanism.perturb_many

        def produce(start, stop, rng):
            shard = data.slice_users(start, stop)
            return perturb(shard.flat_items, shard.offsets, rng, sampler=sampler)

        return data.n, produce

    if not isinstance(mechanism, (UnaryMechanism, CategoricalMechanism)):
        raise ValidationError(
            f"cannot stream reports for {type(mechanism).__name__}; expected a "
            "UnaryMechanism, CategoricalMechanism, or IDUEPS"
        )
    items = as_int_array(data, "data")
    if items.ndim != 1:
        raise ValidationError(f"data must be a 1-D item array, got shape {items.shape}")
    if items.size and (items.min() < 0 or items.max() >= mechanism.m):
        raise ValidationError(f"inputs fall outside domain [0, {mechanism.m - 1}]")
    if isinstance(mechanism, CategoricalMechanism) and packed:
        raise ValidationError(
            "packed=True only applies to bit-vector reports; categorical "
            "mechanisms already release one id per user"
        )
    perturb = mechanism.perturb_many_packed if packed else mechanism.perturb_many

    def produce(start, stop, rng):
        return perturb(items[start:stop], rng, sampler=sampler)

    return items.size, produce


def _chunk_plan(mechanism, data, chunk_size, rng, packed, sampler):
    """``(produce, bounds, rngs)``: user ranges and their generators, in order.

    Under ``fast`` each chunk gets its own generator from
    :func:`~repro.kernels.spawn_generators`, built as it is reached;
    bitexact chunks all share *rng*, consumed in chunk order.
    """
    chunk_size = check_positive_int(chunk_size, "chunk_size")
    rng = check_rng(rng)
    users, produce = _chunk_producer(mechanism, data, packed, sampler)
    bounds = [
        (start, min(users, start + chunk_size))
        for start in range(0, users, chunk_size)
    ]
    if sampler.is_fast:
        rngs = spawn_generators(rng, len(bounds))
    else:
        rngs = (rng for _ in bounds)
    return produce, bounds, rngs


def iter_report_chunks(
    mechanism: Mechanism,
    data,
    *,
    chunk_size: int = 4096,
    rng=None,
    packed: bool = False,
    sampler=None,
):
    """Yield per-chunk released reports for a whole dataset.

    Parameters
    ----------
    mechanism:
        A :class:`UnaryMechanism` or :class:`CategoricalMechanism` (with
        *data* a 1-D array of single-item inputs), or an :class:`IDUEPS`
        (with *data* an :class:`ItemsetDataset`).
    data:
        The users' private inputs; only ``chunk_size`` of them are
        processed at a time.
    chunk_size:
        Users per chunk; peak memory scales linearly with it.
    rng:
        Generator / seed / None.  Bitexact chunks consume it chunk by
        chunk, so results are reproducible given ``(seed,
        chunk_size)``.  Fast chunks each draw from their own generator
        derived from its state; :func:`stream_counts` derives the same
        ones, so both see exactly the same chunks.
    packed:
        For bit-vector mechanisms, emit ``np.packbits``-packed ``uint8``
        chunks (the transport wire format, 8x smaller).  Invalid for
        categorical mechanisms, whose report is already a single id per
        user.
    sampler:
        ``None`` / ``"bitexact"`` / ``"fast"`` / a
        :class:`~repro.kernels.SamplerConfig`.  The default keeps the
        fixed-seed float64 streams; ``"fast"`` draws each chunk through
        the packed bit-plane kernel, in which case ``packed=True``
        chunks come straight out of the kernel with no 0/1 matrix or
        ``np.packbits`` pass at all.

    Yields
    ------
    ``chunk_size x width`` 0/1 ``int8`` matrices (unary), packed
    ``uint8`` matrices (``packed=True``), or 1-D ``int64`` id arrays
    (categorical).
    """
    sampler = resolve_sampler(sampler)
    produce, bounds, rngs = _chunk_plan(
        mechanism, data, chunk_size, rng, packed, sampler
    )
    for bound, chunk_rng in zip(bounds, rngs):
        yield produce(*bound, chunk_rng)


def _add_chunk(accumulator: CountAccumulator, chunk, categorical, packed) -> None:
    if categorical:
        accumulator.add_categories(chunk)
    elif packed:
        accumulator.add_packed_reports(chunk)
    else:
        accumulator.add_reports(chunk)


def stream_counts(
    mechanism: Mechanism,
    data,
    *,
    chunk_size: int = 4096,
    rng=None,
    packed: bool = False,
    round_id: int | None = None,
    accumulator: CountAccumulator | None = None,
    sampler=None,
    chunk_sink=None,
) -> CountAccumulator:
    """Run the exact per-user path end to end with bounded memory.

    Counts every chunk :func:`iter_report_chunks` yields for the same
    generator state into a :class:`CountAccumulator` and returns it;
    nothing proportional to ``n x m`` is ever allocated.  With
    ``packed=True`` the chunks make a round trip through the
    ``np.packbits`` wire format first, exercising what a real transport
    would ship.

    *sampler* selects the perturbation kernel (see
    :func:`iter_report_chunks`).  The throughput configuration is
    ``sampler="fast"`` with ``packed=True``: chunks leave the bit-plane
    kernel already packed and are absorbed by the accumulator's
    columnwise popcount, so no per-bit array exists anywhere in the
    loop.  Fast chunks run on a thread pool created for the call, one
    worker per available CPU, capped at the chunk count: each worker
    releases a chunk and counts it into a per-chunk accumulator, and
    the per-chunk states merge into the result, in chunk order, by
    exact integer addition.  At most one chunk per worker is in flight,
    and the pool's threads are joined before this returns.  With one
    worker the same loop runs inline, with no pool: always for bitexact
    chunks, whose frozen stream is one generator consumed chunk after
    chunk, and for fast chunks on one CPU or in a multiprocessing child
    (a :class:`~repro.pipeline.ShardedRunner` worker, whose siblings
    already keep the other CPUs busy).

    Pass *accumulator* to continue filling an existing round (e.g. users
    arriving in waves); its width must match the mechanism's, and a
    *round_id* given alongside it must match its round.

    *chunk_sink*, if given, is called with every released chunk, in
    chunk order, exactly as it is counted — the tap used by
    :class:`~repro.pipeline.collect.ShardStore` spilling (durable
    replay/audit files) and by transports that forward chunks while
    counting them.  Each chunk is a fresh array the sink may keep, but
    must not mutate.
    """
    width = report_width(mechanism)
    sampler = resolve_sampler(sampler)
    if accumulator is None:
        # The accumulator inherits the sampler's compute backend, so
        # `--compute threaded` accelerates both sides of the loop (the
        # popcount is exact on every backend; see repro.kernels.backends).
        accumulator = CountAccumulator(
            width,
            round_id=0 if round_id is None else round_id,
            compute=sampler.compute,
        )
    elif accumulator.m != width:
        raise ValidationError(
            f"accumulator width {accumulator.m} does not match report width {width}"
        )
    elif round_id is not None and accumulator.round_id != round_id:
        raise ValidationError(
            f"round_id={round_id} conflicts with the accumulator's round "
            f"{accumulator.round_id}"
        )
    categorical = isinstance(mechanism, CategoricalMechanism)
    produce, bounds, rngs = _chunk_plan(
        mechanism, data, chunk_size, rng, packed, sampler
    )
    workers = min(len(bounds), _available_cpus()) if sampler.is_fast else 1

    def count_chunk(bound, chunk_rng):
        chunk = produce(*bound, chunk_rng)
        partial = CountAccumulator(
            width, round_id=accumulator.round_id, compute=accumulator.compute
        )
        _add_chunk(partial, chunk, categorical, packed)
        return (chunk if chunk_sink is not None else None), partial

    def finish(future):
        chunk, partial = future.result()
        if chunk_sink is not None:
            chunk_sink(chunk)
        accumulator.merge(partial)

    pool = (
        ThreadPoolExecutor(workers, thread_name_prefix="repro-chunks")
        if workers > 1
        else _InlineExecutor()
    )
    with pool:
        in_flight = collections.deque()
        for bound, chunk_rng in zip(bounds, rngs):
            if len(in_flight) == workers:
                finish(in_flight.popleft())
            # Each task runs in its own copy of the caller's context, so
            # context-scoped state (a tracer's current span) carries over.
            context = contextvars.copy_context()
            in_flight.append(pool.submit(context.run, count_chunk, bound, chunk_rng))
        while in_flight:
            finish(in_flight.popleft())
    return accumulator
