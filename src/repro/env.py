"""The knob table: every ``REPRO_*`` environment variable the package reads.

Each :class:`Knob` row names its variable, the label its errors use, a
parser, a default and a one-line doc.  One resolution rule holds for
every row (:func:`resolve`): an explicit argument wins, then the
environment variable, then the default — and a bad value raises a
:class:`ValueError` naming the knob's label, the offending value and
where it came from (``argument``, the variable, or ``default``),
instead of a silent fallback or a cryptic failure deep inside a hot
loop.  A ``None`` default means "unset" and resolves to ``None``
unparsed.

The accessors (:func:`scan_shards`, :func:`ckpt_keep`, ...) are
one-line lookups into the table; ``README.md``'s "Environment knobs"
section lists the same rows for operators.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

__all__ = [
    "Knob",
    "KNOBS",
    "resolve",
    "OBS_MODES",
    "ADDR_FAMILIES",
    "EXECUTORS",
    "ENV_SCAN_SHARDS",
    "ENV_SCAN_EXECUTOR",
    "ENV_COUNT_BACKEND",
    "ENV_DIST_WORKERS",
    "ENV_FAULT_PLAN",
    "ENV_DIST_SHARD_DEADLINE",
    "ENV_DIST_RESPAWN_BASE",
    "ENV_DIST_CRASH_LOOP",
    "ENV_DIST_ADDRESS_BOOK",
    "ENV_DIST_SECRET",
    "ENV_OBS",
    "ENV_CKPT_KEEP",
    "ENV_FS_FAULT_PLAN",
    "ENV_ADDR_FAMILY",
    "ENV_DATA_DIR",
    "scan_shards",
    "scan_executor",
    "count_backend",
    "dist_workers",
    "fault_plan",
    "dist_shard_deadline",
    "dist_respawn_base",
    "dist_crash_loop_threshold",
    "dist_address_book",
    "dist_secret",
    "obs_mode",
    "ckpt_keep",
    "fs_fault_plan",
    "addr_family",
    "data_dir",
]

ENV_SCAN_SHARDS = "REPRO_SCAN_SHARDS"
ENV_SCAN_EXECUTOR = "REPRO_SCAN_EXECUTOR"
ENV_COUNT_BACKEND = "REPRO_COUNT_BACKEND"
ENV_DIST_WORKERS = "REPRO_DIST_WORKERS"
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"
ENV_DIST_SHARD_DEADLINE = "REPRO_DIST_SHARD_DEADLINE"
ENV_DIST_RESPAWN_BASE = "REPRO_DIST_RESPAWN_BASE"
ENV_DIST_CRASH_LOOP = "REPRO_DIST_CRASH_LOOP"
ENV_DIST_ADDRESS_BOOK = "REPRO_DIST_ADDRESS_BOOK"
ENV_DIST_SECRET = "REPRO_DIST_SECRET"
ENV_OBS = "REPRO_OBS"
ENV_CKPT_KEEP = "REPRO_CKPT_KEEP"
ENV_FS_FAULT_PLAN = "REPRO_FS_FAULT_PLAN"
ENV_ADDR_FAMILY = "REPRO_ADDR_FAMILY"
ENV_DATA_DIR = "REPRO_DATA_DIR"

#: The observability modes, least to most recorded.
OBS_MODES = ("off", "events", "full")

#: The address families the pipeline runs in.
ADDR_FAMILIES = ("v4", "v6")


def _executor_choices() -> tuple[str, ...]:
    # Imported lazily: the executor registry lives in the scan layer,
    # which itself imports this module for the other knobs.
    from repro.scan.executors import available_executors

    return tuple(available_executors())


def _backend_choices() -> tuple[str, ...]:
    # Imported lazily: the backend registry pulls in numpy machinery
    # this module doesn't otherwise need.
    from repro.bgp.backends import available_backends

    return tuple(available_backends())


def __getattr__(name: str):
    # ``EXECUTORS`` is registry-backed: reading it always reflects the
    # live executor registry (including anything registered at runtime)
    # instead of a tuple frozen at import.
    if name == "EXECUTORS":
        return _executor_choices()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Shared parsers: ``parse(raw, source, label) -> value``
# ---------------------------------------------------------------------------


def _positive_int(raw, source, label) -> int:
    try:
        # Round-trip through str so 2.5 (or True) is rejected rather
        # than silently truncated by int().
        value = int(str(raw).strip())
    except ValueError:
        raise ValueError(
            f"{label} must be a positive integer, got {raw!r} "
            f"(from {source})"
        ) from None
    if value < 1:
        raise ValueError(f"{label} must be >= 1, got {value} (from {source})")
    return value


def _seconds_or_off(raw, source, label) -> float | None:
    """A non-negative float; ``0`` switches the feature off (``None``)."""
    try:
        value = float(str(raw).strip())
    except ValueError:
        raise ValueError(
            f"{label} must be a number, got {raw!r} (from {source})"
        ) from None
    if not value >= 0:
        raise ValueError(f"{label} must be >= 0, got {value} (from {source})")
    return value or None


def _choice(choices):
    """One of ``choices`` (a tuple, or a callable reading a live registry)."""

    def parse(raw, source, label) -> str:
        allowed = choices() if callable(choices) else choices
        value = str(raw).strip().lower()
        if value not in allowed:
            raise ValueError(
                f"unknown {label} {raw!r} (from {source}); choose one of "
                + ", ".join(repr(c) for c in allowed)
            )
        return value

    return parse


def _plan(module: str, name: str):
    """A fault plan (``kind@site[:key=val]`` entries) of class ``name``.

    The class is imported lazily: both fault planes import this module
    for their own knobs.  An instance of the class passes through.
    """

    def parse(raw, source, label):
        plan_cls = getattr(importlib.import_module(module), name)
        if isinstance(raw, plan_cls):
            return raw
        try:
            return plan_cls.parse(raw)
        except ValueError as exc:
            raise ValueError(f"bad {label} (from {source}): {exc}") from None

    return parse


def _book_entry(entry, source) -> tuple[str, int]:
    if (
        isinstance(entry, tuple)
        and len(entry) == 2
        and not isinstance(entry[1], bool)
    ):
        host, port = str(entry[0]), entry[1]
        text = f"{host}:{port}"
    else:
        text = str(entry).strip()
        host, sep, port = text.rpartition(":")
        if not sep:
            raise ValueError(
                f"address book entry {text!r} must be HOST:PORT "
                f"(from {source})"
            )
    if not host:
        raise ValueError(
            f"address book entry {text!r} has an empty host (from {source})"
        )
    try:
        port_value = int(str(port).strip())
    except ValueError:
        raise ValueError(
            f"address book entry {text!r} has a non-integer port "
            f"(from {source})"
        ) from None
    if not 1 <= port_value <= 65535:
        raise ValueError(
            f"address book entry {text!r} port must be in 1..65535 "
            f"(from {source})"
        )
    return host, port_value


def _address_book(raw, source, label) -> tuple[tuple[str, int], ...]:
    """``host:port,...`` or a sequence of strings / ``(host, port)`` pairs.

    Duplicates are rejected: they would dial the same worker twice and
    deadlock its one-session-at-a-time accept loop.
    """
    if isinstance(raw, (list, tuple)):
        entries = list(raw)
    else:
        entries = [e for e in str(raw).split(",") if e.strip()]
    book = tuple(_book_entry(entry, source) for entry in entries)
    if len(set(book)) != len(book):
        raise ValueError(
            f"{label} has duplicate entries (from {source}): "
            + ",".join(f"{h}:{p}" for h, p in book)
        )
    return book


def _secret(raw, source, label) -> str:
    # A set-but-blank secret would silently authenticate everyone.
    if not str(raw).strip():
        raise ValueError(
            f"{label} must be a non-empty string (from {source})"
        )
    return str(raw)


def _path(raw, source, label) -> Path:
    return Path(raw)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One row of the knob table."""

    env: str
    label: str
    parse: Callable
    default: object
    doc: str


KNOBS: dict[str, Knob] = {knob.env: knob for knob in (
    Knob(ENV_SCAN_SHARDS, "scan shards", _positive_int, 1,
         "shard count of a sharded scan"),
    Knob(ENV_SCAN_EXECUTOR, "executor", _choice(_executor_choices),
         "serial", "executor registered in repro.scan.executors"),
    Knob(ENV_COUNT_BACKEND, "counting backend", _choice(_backend_choices),
         "searchsorted", "counting backend registered in "
         "repro.bgp.backends"),
    Knob(ENV_DIST_WORKERS, "distributed workers", _positive_int, None,
         "distributed fleet size (unset: one per shard, CPU-capped)"),
    Knob(ENV_FAULT_PLAN, "fault plan",
         _plan("repro.scan.faults", "FaultPlan"), "",
         "scan-plane chaos plan (repro.scan.faults syntax)"),
    Knob(ENV_DIST_SHARD_DEADLINE, "shard deadline", _seconds_or_off, 30.0,
         "seconds one attempt may hold a shard before speculative "
         "re-dispatch (0: off)"),
    Knob(ENV_DIST_RESPAWN_BASE, "respawn base", _seconds_or_off, 0.05,
         "base seconds of the exponential respawn backoff (0: off)"),
    Knob(ENV_DIST_CRASH_LOOP, "crash-loop threshold", _positive_int, 3,
         "consecutive spawn failures that degrade the fleet"),
    Knob(ENV_DIST_ADDRESS_BOOK, "address book", _address_book, "",
         "host:port,... of pre-started --listen workers to dial"),
    Knob(ENV_DIST_SECRET, "distributed secret", _secret, None,
         "shared HMAC key for the worker handshake (unset: no auth)"),
    Knob(ENV_OBS, "observability mode", _choice(OBS_MODES), "off",
         "off, events (events.jsonl) or full (events plus metrics.json)"),
    Knob(ENV_CKPT_KEEP, "checkpoint keep window", _positive_int, 2,
         "checkpoint generations the store retains"),
    Knob(ENV_FS_FAULT_PLAN, "storage fault plan",
         _plan("repro.orchestrator.storage_faults", "FsFaultPlan"), "",
         "storage-plane chaos plan (repro.orchestrator.storage_faults "
         "syntax)"),
    Knob(ENV_ADDR_FAMILY, "address family", _choice(ADDR_FAMILIES), "v4",
         "address family campaigns run in: v4 or v6"),
    Knob(ENV_DATA_DIR, "data directory", _path, "data",
         "where generated census datasets are cached"),
)}


def resolve(name: str, explicit=None, default=None):
    """Knob ``name``: explicit argument > environment variable > default.

    ``default`` (when not ``None``) replaces the table's default for
    this one lookup — e.g. a campaign's preset implies its family.
    """
    knob = KNOBS[name]
    if explicit is not None:
        raw, source = explicit, "argument"
    elif (raw := os.environ.get(name)) is not None:
        source = name
    else:
        raw = knob.default if default is None else default
        source = "default"
    return None if raw is None else knob.parse(raw, source, knob.label)


def _accessor(name: str):
    def get(explicit=None, default=None):
        return resolve(name, explicit, default)

    get.__doc__ = f"``{name}``: {KNOBS[name].doc}."
    return get


scan_shards = _accessor(ENV_SCAN_SHARDS)
scan_executor = _accessor(ENV_SCAN_EXECUTOR)
count_backend = _accessor(ENV_COUNT_BACKEND)
dist_workers = _accessor(ENV_DIST_WORKERS)
fault_plan = _accessor(ENV_FAULT_PLAN)
dist_shard_deadline = _accessor(ENV_DIST_SHARD_DEADLINE)
dist_respawn_base = _accessor(ENV_DIST_RESPAWN_BASE)
dist_crash_loop_threshold = _accessor(ENV_DIST_CRASH_LOOP)
dist_address_book = _accessor(ENV_DIST_ADDRESS_BOOK)
dist_secret = _accessor(ENV_DIST_SECRET)
obs_mode = _accessor(ENV_OBS)
ckpt_keep = _accessor(ENV_CKPT_KEEP)
fs_fault_plan = _accessor(ENV_FS_FAULT_PLAN)
addr_family = _accessor(ENV_ADDR_FAMILY)
data_dir = _accessor(ENV_DATA_DIR)
