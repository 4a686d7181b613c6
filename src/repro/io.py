"""Serialization of budget specs and solved mechanisms.

A deployment solves the IDUE optimization once (server side), ships the
parameters to devices, and must later reconstruct the matching estimator
— so the solved objects need a stable on-disk form.  Everything
round-trips through plain JSON-compatible dicts: no pickle, nothing
executable, safe to ship to clients.

Supported objects: :class:`~repro.core.budgets.BudgetSpec`, the uniform
unary mechanisms (SUE / OUE / UE), :class:`~repro.mechanisms.idue.IDUE`
and :class:`~repro.mechanisms.idue_ps.IDUEPS`.

Aggregation state (:class:`~repro.pipeline.CountAccumulator`) uses
the binary wire format of :mod:`repro.pipeline.collect.wire` instead of
JSON — counts are bulk numeric payload, and the wire frames carry the
version + CRC checks a collector needs; :func:`save_accumulator` /
:func:`load_accumulator` are the file-level entry points.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .core.budgets import BudgetSpec
from .exceptions import ValidationError
from .mechanisms.base import UnaryMechanism
from .mechanisms.idue import IDUE
from .mechanisms.idue_ps import IDUEPS
from .mechanisms.unary import (
    OptimizedUnaryEncoding,
    SymmetricUnaryEncoding,
    UnaryEncoding,
)

__all__ = [
    "spec_to_dict",
    "spec_from_dict",
    "mechanism_to_dict",
    "mechanism_from_dict",
    "save_mechanism",
    "load_mechanism",
    "save_accumulator",
    "load_accumulator",
]

_FORMAT_VERSION = 1


def spec_to_dict(spec: BudgetSpec) -> dict:
    """JSON-compatible representation of a budget specification."""
    if not isinstance(spec, BudgetSpec):
        raise ValidationError(f"spec must be a BudgetSpec, got {spec!r}")
    return {
        "type": "BudgetSpec",
        "version": _FORMAT_VERSION,
        "item_epsilons": spec.item_epsilons.tolist(),
    }


def spec_from_dict(payload: dict) -> BudgetSpec:
    """Inverse of :func:`spec_to_dict`."""
    if not isinstance(payload, dict) or payload.get("type") != "BudgetSpec":
        raise ValidationError(f"not a serialized BudgetSpec: {payload!r}")
    return BudgetSpec(np.asarray(payload["item_epsilons"], dtype=float))


def mechanism_to_dict(mechanism) -> dict:
    """JSON-compatible representation of a supported mechanism."""
    if isinstance(mechanism, IDUEPS):
        return {
            "type": "IDUEPS",
            "version": _FORMAT_VERSION,
            "m": mechanism.m,
            "ell": mechanism.ell,
            "name": mechanism.name,
            "a": np.asarray(mechanism.a).tolist(),
            "b": np.asarray(mechanism.b).tolist(),
            "spec": (
                spec_to_dict(mechanism.spec) if hasattr(mechanism, "spec") else None
            ),
        }
    if isinstance(mechanism, IDUE):
        return {
            "type": "IDUE",
            "version": _FORMAT_VERSION,
            "spec": spec_to_dict(mechanism.spec),
            "level_a": mechanism.level_a.tolist(),
            "level_b": mechanism.level_b.tolist(),
        }
    if isinstance(mechanism, (SymmetricUnaryEncoding, OptimizedUnaryEncoding)):
        return {
            "type": type(mechanism).__name__,
            "version": _FORMAT_VERSION,
            "epsilon": mechanism.target_epsilon,
            "m": mechanism.m,
        }
    if isinstance(mechanism, UnaryEncoding):
        return {
            "type": "UnaryEncoding",
            "version": _FORMAT_VERSION,
            "p": mechanism.p,
            "q": mechanism.q,
            "m": mechanism.m,
        }
    if isinstance(mechanism, UnaryMechanism):
        return {
            "type": "UnaryMechanism",
            "version": _FORMAT_VERSION,
            "a": np.asarray(mechanism.a).tolist(),
            "b": np.asarray(mechanism.b).tolist(),
        }
    raise ValidationError(
        f"cannot serialize mechanism of type {type(mechanism).__name__}"
    )


def mechanism_from_dict(payload: dict):
    """Inverse of :func:`mechanism_to_dict`."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise ValidationError(f"not a serialized mechanism: {payload!r}")
    kind = payload["type"]
    if payload.get("version") != _FORMAT_VERSION:
        raise ValidationError(
            f"unsupported serialization version {payload.get('version')!r}"
        )
    if kind == "IDUEPS":
        unary = UnaryMechanism(
            np.asarray(payload["a"], dtype=float),
            np.asarray(payload["b"], dtype=float),
        )
        mechanism = IDUEPS(unary, int(payload["m"]), int(payload["ell"]))
        mechanism.name = str(payload.get("name", "idue-ps"))
        if payload.get("spec") is not None:
            mechanism.spec = spec_from_dict(payload["spec"])
            mechanism.extended_spec = mechanism.spec.with_dummies(mechanism.ell)
        return mechanism
    if kind == "IDUE":
        return IDUE(
            spec_from_dict(payload["spec"]),
            np.asarray(payload["level_a"], dtype=float),
            np.asarray(payload["level_b"], dtype=float),
        )
    if kind == "SymmetricUnaryEncoding":
        return SymmetricUnaryEncoding(float(payload["epsilon"]), int(payload["m"]))
    if kind == "OptimizedUnaryEncoding":
        return OptimizedUnaryEncoding(float(payload["epsilon"]), int(payload["m"]))
    if kind == "UnaryEncoding":
        return UnaryEncoding(float(payload["p"]), float(payload["q"]), int(payload["m"]))
    if kind == "UnaryMechanism":
        return UnaryMechanism(
            np.asarray(payload["a"], dtype=float),
            np.asarray(payload["b"], dtype=float),
        )
    raise ValidationError(f"unknown serialized mechanism type {kind!r}")


def save_mechanism(mechanism, path: str) -> None:
    """Write a mechanism to a JSON file (creating parent directories)."""
    payload = mechanism_to_dict(mechanism)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def load_mechanism(path: str):
    """Read a mechanism from a JSON file written by :func:`save_mechanism`."""
    if not os.path.exists(path):
        raise ValidationError(f"mechanism file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return mechanism_from_dict(payload)


def save_accumulator(accumulator, path: str) -> None:
    """Write accumulator state as one wire-format snapshot frame.

    Creates parent directories like :func:`save_mechanism`; the file is
    a single frame, so :func:`load_accumulator`, a spill-file reader, or
    a socket producer can all consume it unchanged.  The write is atomic
    (temp file + ``os.replace``): a crash mid-save leaves either the
    previous snapshot or the new one, never a torn frame.
    """
    from .pipeline.collect import wire
    from .pipeline.collect.store import atomic_write_bytes

    frame = wire.dump_snapshot(accumulator)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    atomic_write_bytes(os.path.abspath(path), frame)


def load_accumulator(path: str):
    """Read a snapshot frame written by :func:`save_accumulator`.

    Raises :class:`~repro.exceptions.WireFormatError` on corrupted,
    truncated, wrong-magic, or wrong-version input, and
    :class:`ValidationError` if the file holds a chunk frame instead of
    a snapshot.
    """
    from .pipeline.accumulator import CountAccumulator
    from .pipeline.collect import wire

    if not os.path.exists(path):
        raise ValidationError(f"accumulator file not found: {path}")
    with open(path, "rb") as handle:
        obj = wire.loads(handle.read())
    if not isinstance(obj, CountAccumulator):
        raise ValidationError(
            f"{path} holds a {type(obj).__name__} frame, not an "
            "accumulator snapshot"
        )
    return obj
