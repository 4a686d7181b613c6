"""Pluggable compute backends for the packed sampling/counting kernels.

:mod:`repro.kernels.bernoulli` fixes *what* the hot kernels compute —
packed-word Bernoulli sampling and the vertical-counting popcount — but
not *how*.  This module makes the "how" a registry of named
:class:`ComputeBackend` objects selected through
``SamplerConfig(compute="...")`` and plumbed end to end (mechanisms,
streaming engine, accumulator, CLI):

``numpy`` (the baseline, always available)
    The reference implementation: the vectorized kernels of
    :mod:`.bernoulli`, unchanged.

``threaded``
    Tiles both kernels across a worker pool created per call.  Sampling
    splits the row range into fixed-size tiles, each drawn from its own
    generator derived from the parent generator's state
    (:func:`.bernoulli.spawn_generators`) — the output is a pure
    function of that state and *independent of the worker count*,
    because child streams are assigned by tile index, not by scheduling
    order.
    Counting splits rows into tiles, popcounts each, and sums — exact
    integer math, so the result is bit-identical to ``numpy`` always.
    Inside each tile the work is delegated to an *inner* backend
    (``numba`` when importable, else ``numpy``), so the tiles actually
    release the GIL where a JIT is present.  A call made off the main
    thread (a chunk of the streaming engine's pool) runs its tiles
    inline rather than nesting a second pool.

``numba`` (optional extra, graceful skip when absent)
    JIT-compiled kernels: a fused single-pass bit-plane combine for
    uniform sampling and a tight ``nogil`` popcount loop.  Registered
    unconditionally so the *name* always resolves, but
    :attr:`ComputeBackend.available` is False without the ``numba``
    package and resolution through :func:`get_compute_backend` then
    fails with an actionable message — callers that probe first (tests,
    benchmarks) skip cleanly instead of failing.

The bit-exactness contract (see ``docs/kernels.md``):

* **Counting is exact everywhere.**  ``packed_column_counts`` is
  integer math; every backend must return bit-identical counts for any
  input, so accumulator state never depends on the compute backend.
* **Sampling under ``exactness="bitexact"`` never reaches a compute
  backend** — the bitexact contract pins the historical float64/PCG64
  draw order, which is scalar numpy by definition.  Compute backends
  therefore cannot perturb bitexact streams no matter what they do.
* **Sampling under ``exactness="fast"`` is distribution-correct only.**
  Backends may consume the generator differently (the threaded backend
  derives per-tile generators; numba fuses plane draws), so fixed-seed
  bytes differ across backends — but every released bit follows the
  same Bernoulli law as the numpy kernel (verified by the cross-backend
  hypothesis suite in ``tests/property/test_property_backends.py``).
"""

from __future__ import annotations

import abc
import importlib.util
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..exceptions import ValidationError
from . import bernoulli as _bn

__all__ = [
    "ComputeBackend",
    "NumpyBackend",
    "ThreadedBackend",
    "NumbaBackend",
    "register_compute_backend",
    "get_compute_backend",
    "compute_backend_names",
    "available_compute_backends",
]


class ComputeBackend(abc.ABC):
    """One implementation of the packed hot kernels.

    Subclasses provide :meth:`packed_bernoulli` (sampling; only ever
    reached under the ``fast`` contract) and
    :meth:`packed_column_counts` (counting; must be bit-identical to
    the numpy baseline for every input).  ``available`` / ``requires``
    let optional-dependency backends register unconditionally while
    resolution and test collection stay graceful where the dependency
    is missing.
    """

    #: Registry key; also the value of ``SamplerConfig.compute``.
    name: str = "abstract"

    @property
    def available(self) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    @property
    def requires(self) -> str | None:
        """Human-readable missing requirement when not available."""
        return None

    @abc.abstractmethod
    def packed_bernoulli(
        self, p, n: int, rng: np.random.Generator, *, precision: int = 8
    ) -> np.ndarray:
        """Sample ``n`` packed Bernoulli rows (law of :func:`.bernoulli.packed_bernoulli`)."""

    @abc.abstractmethod
    def packed_column_counts(self, packed: np.ndarray, m: int) -> np.ndarray:
        """Per-column 1-counts; must equal the numpy baseline exactly."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(ComputeBackend):
    """The reference backend: the vectorized kernels, verbatim."""

    name = "numpy"

    def packed_bernoulli(self, p, n, rng, *, precision=8):
        return _bn.packed_bernoulli(p, n, rng, precision=precision)

    def packed_column_counts(self, packed, m):
        return _bn.packed_column_counts(packed, m)


class NumbaBackend(ComputeBackend):
    """JIT backend: fused plane combine + ``nogil`` popcount loops.

    Compilation is lazy (first kernel call), so importing this module —
    and registering the backend — costs nothing and works without numba
    installed.  The sampling law is identical to the numpy kernel: the
    same raw words are drawn in the same plane order and the same
    sparse correction runs on top; only the plane-combine loop is fused
    into a single JIT pass.  Non-uniform probability vectors fall back
    to the numpy kernel (the per-column recurrence is already one fused
    numpy pass per plane and gains little from a JIT).
    """

    name = "numba"

    def __init__(self) -> None:
        self._jit = None
        self._lock = threading.Lock()

    @property
    def available(self) -> bool:
        return importlib.util.find_spec("numba") is not None

    @property
    def requires(self) -> str | None:
        if self.available:
            return None
        return "the 'numba' package (pip install repro-idldp[numba])"

    # ------------------------------------------------------------------
    def _kernels(self):
        """Compile (once) and return the JIT kernels."""
        if self._jit is not None:
            return self._jit
        with self._lock:
            if self._jit is not None:
                return self._jit
            if not self.available:
                raise ValidationError(
                    f"compute backend 'numba' is unavailable: requires "
                    f"{self.requires}"
                )
            import numba

            @numba.njit(cache=True, nogil=True)
            def combine_planes(words, bits):  # pragma: no cover - JIT
                # words: (planes, n_words) uint64 raw draws, LSB plane
                # first; bits: per-plane threshold bits (uint8).  Fused
                # form of the plane recurrence in _uniform_planes: one
                # memory pass instead of one per plane.
                n_planes, n_words = words.shape
                out = np.empty(n_words, dtype=np.uint64)
                for i in range(n_words):
                    acc = words[0, i]
                    for plane in range(1, n_planes):
                        if bits[plane]:
                            acc |= words[plane, i]
                        else:
                            acc &= words[plane, i]
                    out[i] = acc
                return out

            @numba.njit(cache=True, nogil=True)
            def column_counts(packed, m):  # pragma: no cover - JIT
                rows, width = packed.shape
                counts = np.zeros(m, dtype=np.int64)
                for i in range(rows):
                    for j in range(width):
                        value = packed[i, j]
                        if value == 0:
                            continue
                        base = j * 8
                        stop = m - base
                        if stop > 8:
                            stop = 8
                        for bit in range(stop):
                            counts[base + bit] += (value >> (7 - bit)) & 1
                return counts

            self._jit = (combine_planes, column_counts)
        return self._jit

    # ------------------------------------------------------------------
    def packed_bernoulli(self, p, n, rng, *, precision=8):
        combine_planes, _ = self._kernels()
        probabilities = np.atleast_1d(np.asarray(p, dtype=np.float64))
        if probabilities.ndim != 1 or not bool(
            np.all(probabilities == probabilities.flat[0])
        ):
            # Per-column thresholds: the numpy kernel is already one
            # fused pass per plane; no JIT advantage worth duplicating.
            return _bn.packed_bernoulli(p, n, rng, precision=precision)
        n = int(n)
        value = float(probabilities[0])
        if not np.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ValidationError("probabilities must lie in [0, 1]")
        m = probabilities.size
        width = _bn.packed_width(m)
        tail_bits = 8 * width - m
        complement = value > 0.5
        generated = 1.0 - value if complement else value
        threshold, delta = _bn._pick_uniform_threshold(generated, precision)
        # Same draw order as the numpy kernel: one word batch per active
        # plane, lowest set bit first.  Drawing them as one contiguous
        # batch matches sequential per-plane draws for every raw-word
        # BitGenerator (random_raw streams are flat).
        lowest = _bn._trailing_zeros(threshold, precision)
        n_words = -(-(n * width) // 8)
        active = precision - lowest if threshold else 0
        if active:
            words = _bn._raw_words(rng, active * n_words).reshape(active, n_words)
            bits = ((threshold >> np.arange(lowest, precision)) & 1).astype(
                np.uint8
            )
            base = combine_planes(words, bits)
        else:
            base = np.zeros(n_words, dtype=np.uint64)
        packed = np.ascontiguousarray(
            base.view(np.uint8)[: n * width].reshape(n, width)
        )
        rate = _bn._correction_rate(threshold, delta, precision)
        if rate:
            _bn._apply_correction(packed, n, None, m, rate, delta > 0.0, rng)
        if complement:
            np.bitwise_not(packed, out=packed)
        if tail_bits:
            packed[:, -1] &= np.uint8((0xFF << tail_bits) & 0xFF)
        return packed

    def packed_column_counts(self, packed, m):
        _, column_counts = self._kernels()
        # Reuse the baseline's validation so error text stays uniform.
        if packed.ndim != 2 or packed.dtype != np.uint8:
            return _bn.packed_column_counts(packed, m)
        if _bn.packed_width(m) != packed.shape[1]:
            return _bn.packed_column_counts(packed, m)
        return column_counts(np.ascontiguousarray(packed), m)


class ThreadedBackend(ComputeBackend):
    """Tile both kernels across a thread pool.

    Parameters
    ----------
    tile_rows:
        Rows per tile.  Sampling determinism is *defined* by this value
        (each tile gets the generator at its tile index from
        :func:`.bernoulli.spawn_generators`), so it is part of the
        backend's identity, not a runtime tuning knob: two
        ThreadedBackends with equal ``tile_rows`` produce identical
        output from the same generator state regardless of
        ``max_workers`` or scheduling.
    max_workers:
        Pool size; defaults to the CPU count.  Purely a throughput
        knob — never affects results.  The pool lives for one kernel
        call, so no thread outlives it (or crosses a fork); a call made
        off the main thread runs its tiles inline.
    inner:
        Backend performing each tile's actual kernel work; defaults to
        ``numba`` when importable (tiles then release the GIL inside
        the JIT) and ``numpy`` otherwise.
    """

    name = "threaded"

    def __init__(
        self,
        *,
        tile_rows: int = 2048,
        max_workers: int | None = None,
        inner: ComputeBackend | None = None,
    ) -> None:
        if tile_rows < 1:
            raise ValidationError(f"tile_rows must be >= 1, got {tile_rows}")
        self.tile_rows = int(tile_rows)
        self.max_workers = int(max_workers or (os.cpu_count() or 1))
        if inner is None:
            numba = NumbaBackend()
            inner = numba if numba.available else NumpyBackend()
        self.inner = inner

    def _map(self, fn, jobs: list) -> list:
        """``[fn(job) for job in jobs]`` on a pool that lives for the call.

        Off the main thread the tiles run inline: the caller is already
        one of several workers (a chunk of the engine's pool), so a
        second pool would only nest threads, not add CPUs.
        """
        if threading.current_thread() is not threading.main_thread():
            return [fn(job) for job in jobs]
        workers = min(self.max_workers, len(jobs))
        with ThreadPoolExecutor(workers, thread_name_prefix="repro-kernels") as pool:
            return list(pool.map(fn, jobs))

    def _bounds(self, n: int) -> list[tuple[int, int]]:
        return [
            (start, min(n, start + self.tile_rows))
            for start in range(0, n, self.tile_rows)
        ]

    # ------------------------------------------------------------------
    def packed_bernoulli(self, p, n, rng, *, precision=8):
        n = int(n)
        if n <= self.tile_rows or self.max_workers == 1:
            return self.inner.packed_bernoulli(p, n, rng, precision=precision)
        bounds = self._bounds(n)
        # One child stream per tile, assigned by tile index before any
        # work is submitted: the output is a pure function of (rng
        # state, tile_rows), independent of worker count and completion
        # order.
        jobs = list(zip(bounds, _bn.spawn_generators(rng, len(bounds))))
        tiles = self._map(
            lambda job: self.inner.packed_bernoulli(
                p, job[0][1] - job[0][0], job[1], precision=precision
            ),
            jobs,
        )
        return np.vstack(tiles)

    def packed_column_counts(self, packed, m):
        rows = packed.shape[0] if getattr(packed, "ndim", 0) == 2 else 0
        if rows <= self.tile_rows or self.max_workers == 1:
            return self.inner.packed_column_counts(packed, m)
        partials = self._map(
            lambda span: self.inner.packed_column_counts(
                packed[span[0] : span[1]], m
            ),
            self._bounds(rows),
        )
        counts = np.zeros(m, dtype=np.int64)
        for partial in partials:
            counts += partial
        return counts


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, ComputeBackend] = {}


def register_compute_backend(
    backend: ComputeBackend, *, replace: bool = False
) -> ComputeBackend:
    """Register *backend* under its ``name``; returns it for chaining.

    Third-party backends (a C extension, CuPy, ...) register here and
    become reachable from ``SamplerConfig(compute=...)`` and the
    ``pipeline --compute`` flag with no further plumbing.  Re-using a
    taken name requires ``replace=True`` so a typo cannot silently
    shadow a built-in.
    """
    if not isinstance(backend, ComputeBackend):
        raise ValidationError(
            f"expected a ComputeBackend, got {type(backend).__name__}"
        )
    name = backend.name
    if not name or not isinstance(name, str):
        raise ValidationError(f"backend name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ValidationError(
            f"compute backend {name!r} is already registered; pass "
            "replace=True to override it"
        )
    _REGISTRY[name] = backend
    return backend


def compute_backend_names() -> tuple[str, ...]:
    """Every registered backend name (available or not), sorted."""
    return tuple(sorted(_REGISTRY))


def available_compute_backends() -> tuple[str, ...]:
    """Names of the backends that can actually run here, sorted."""
    return tuple(sorted(n for n, b in _REGISTRY.items() if b.available))


def get_compute_backend(name: str) -> ComputeBackend:
    """Resolve a backend by name; loud on unknown *and* on unavailable.

    Unknown names list the registry; known-but-unavailable names name
    the missing requirement — a config asking for ``numba`` on a box
    without it must fail at resolution, not deep inside a worker.
    """
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValidationError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{', '.join(compute_backend_names())}"
        )
    if not backend.available:
        raise ValidationError(
            f"compute backend {name!r} is unavailable: requires "
            f"{backend.requires}"
        )
    return backend


register_compute_backend(NumpyBackend())
register_compute_backend(NumbaBackend())
register_compute_backend(ThreadedBackend())
