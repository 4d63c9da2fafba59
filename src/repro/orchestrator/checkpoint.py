"""Self-verifying campaign checkpoint generations.

A checkpoint generation ``checkpoint.<gen>.npz`` is a fixed magic, the
SHA-256 of the body, then the body: one compressed ``.npz`` holding the
JSON manifest (the campaign position, accounting, RNG state) alongside
the state arrays (the live selection mask).  Each file verifies itself,
so the directory listing is the only record of generations.  Saves
never overwrite: every ``save()`` promotes generation *newest on disk
+ 1* via write-tmp-fsync-rename (plus a directory fsync) and prunes
generations beyond the keep-N window (``REPRO_CKPT_KEEP``, default 2).

``load()`` trusts nothing: generations are verified newest-first
(header, body digest, archive), and a torn write, bitrot, or
truncation quarantines the damaged file under ``quarantine/`` and
**rolls back** to the newest intact generation — from which shard-replay
determinism re-runs the lost tail byte-identically.  Every detection,
rollback, and injected fault is recorded as an incident for the
observability plane (``checkpoint.corrupt`` / ``checkpoint.rollback`` /
``storage.fault_fired`` events).

Storage faults are injectable deterministically via
``REPRO_FS_FAULT_PLAN`` (:mod:`repro.orchestrator.storage_faults`), and
``python -m repro.orchestrator verify [--repair]`` audits every artifact
through :meth:`CheckpointStore.audit`.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from repro.orchestrator.storage_faults import SimulatedCrash, flip_byte

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruption",
    "CheckpointStore",
]


def _fsync_path(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

#: Bump when the manifest/array schema changes shape.
#: v2: the manifest carries ``wave_attempts`` (wave-level retry budget).
#: v3: the manifest carries per-array integrity digests.
#: v4: the manifest carries ``hitlist_month`` (v6 hitlist seeding) and
#: the spec carries ``family``/``samples_per_prefix``.
#: v5: the file is ``_MAGIC`` + SHA-256(body) + the npz body; the
#: per-array digests are gone (the body digest covers every byte).
CHECKPOINT_VERSION = 5

#: Every v5+ generation starts with this; a pre-v5 generation is a bare
#: npz and starts with the zip signature instead.
_MAGIC = b"\x89RPCKPT\n"
_ZIP_SIGNATURE = b"PK\x03\x04"
_HEADER_BYTES = len(_MAGIC) + hashlib.sha256().digest_size

_MANIFEST_KEY = "manifest"

_GENERATION_RE = re.compile(r"^checkpoint\.(\d+)\.npz$")


class CheckpointCorruption(ValueError):
    """Every candidate checkpoint generation failed verification."""


class _CorruptGeneration(Exception):
    """Internal: one generation failed verification (reason in args)."""


class CheckpointStore:
    """Durable campaign state under one directory.

    Files:

    - ``campaign.json``        — the immutable (resolved) campaign
      spec, written once at plan time;
    - ``checkpoint.<gen>.npz`` — atomic, self-verifying checkpoint
      generations, newest ``REPRO_CKPT_KEEP`` kept (default 2);
    - ``quarantine/``          — checkpoint files that failed
      verification, moved aside for inspection instead of deleted;
    - ``status.json``          — the deterministic status document;
    - ``progress.json``        — wall-clock telemetry (timestamps,
      achieved probe rate, cumulative executor telemetry);
      deliberately *outside* the determinism contract;
    - ``events.jsonl``         — the structured trace-event log
      (:mod:`repro.obs`, ``REPRO_OBS=events|full``); append-only, so
      a resumed campaign continues the same file under a new run id;
    - ``metrics.json``         — the latest metrics-registry snapshot
      (``REPRO_OBS=full``).

    ``keep``/``fault_plan`` default to the validated environment knobs
    (``REPRO_CKPT_KEEP`` / ``REPRO_FS_FAULT_PLAN``); ``sweep=False``
    leaves orphaned tmp files in place so :meth:`audit` can report
    them.  The directory is created by the first write, so read-only
    use (``status``, ``verify``) of a missing directory leaves no
    trace.  Detections and injected faults are appended to
    :attr:`incidents` — the campaign runner drains them into the
    observability plane via :meth:`drain_incidents`.
    """

    def __init__(self, directory, keep=None, fault_plan=None,
                 sweep: bool = True):
        from repro.env import ckpt_keep, fs_fault_plan

        self.directory = Path(directory)
        self.keep = ckpt_keep(keep)
        self.fault_plan = fs_fault_plan(fault_plan)
        #: Pending observability incidents (dicts with a ``type`` key).
        self.incidents: list[dict] = []
        self._save_index = 0
        if sweep:
            # A kill mid-write leaves an orphaned tmp file next to the
            # real one; it is never a valid resume source (the rename
            # that would have promoted it never happened), so sweep
            # strays on open.
            for stray in self.directory.glob("*.tmp"):
                stray.unlink(missing_ok=True)
            for stray in self.directory.glob("*.tmp.npz"):
                stray.unlink(missing_ok=True)

    # -- paths ---------------------------------------------------------

    @property
    def spec_path(self) -> Path:
        return self.directory / "campaign.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.directory / "quarantine"

    @property
    def status_path(self) -> Path:
        return self.directory / "status.json"

    @property
    def progress_path(self) -> Path:
        return self.directory / "progress.json"

    @property
    def events_path(self) -> Path:
        return self.directory / "events.jsonl"

    @property
    def metrics_path(self) -> Path:
        return self.directory / "metrics.json"

    def generation_path(self, gen: int) -> Path:
        return self.directory / f"checkpoint.{gen}.npz"

    @property
    def checkpoint_path(self) -> Path | None:
        """The newest generation file's path (``None`` when empty)."""
        files = self.generation_files()
        return files[-1][1] if files else None

    def generation_files(self) -> list[tuple[int, Path]]:
        """``(gen, path)`` for every generation file on disk, ascending."""
        found = []
        for path in self.directory.glob("checkpoint.*.npz"):
            match = _GENERATION_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found)

    # -- incidents (observability seam) --------------------------------

    def _incident(self, type_: str, **data) -> None:
        self.incidents.append({"type": type_, **data})

    def drain_incidents(self) -> list[dict]:
        """Take (and clear) the pending observability incidents."""
        taken, self.incidents = self.incidents, []
        return taken

    def _fault_fired(self, spec) -> None:
        self._incident(
            "storage.fault_fired", kind=spec.kind, site=spec.site_label
        )

    # -- spec ----------------------------------------------------------

    def write_spec(self, spec_dict: dict) -> None:
        self._write_json(self.spec_path, spec_dict)

    def read_spec(self) -> dict:
        if not self.spec_path.exists():
            raise FileNotFoundError(
                f"no campaign.json under {self.directory} — "
                "run `plan` first"
            )
        try:
            return json.loads(self.spec_path.read_text())
        except ValueError as exc:
            raise ValueError(
                f"{self.spec_path} is not valid JSON ({exc}) — the "
                "campaign spec is truncated or corrupt; re-run `plan` "
                "to rewrite it, or audit the directory with "
                "`python -m repro.orchestrator verify`"
            ) from None

    # -- checkpoint ----------------------------------------------------

    def has_checkpoint(self) -> bool:
        return bool(self.generation_files())

    def save(self, manifest: dict, arrays: dict) -> None:
        """Atomically persist one checkpoint generation.

        The body is serialized in memory first so its SHA-256 can lead
        the file.  A failed save cleans up its tmp file and leaves the
        newest generation (and therefore the resume point) untouched,
        so the caller may simply retry — the generation number is only
        consumed on success.
        """
        index = self._save_index
        self._save_index += 1
        fault = self.fault_plan.save_fault(index)

        if _MANIFEST_KEY in arrays:
            raise ValueError(f"array name {_MANIFEST_KEY!r} is reserved")
        payload = dict(arrays)
        payload[_MANIFEST_KEY] = json.dumps(
            dict(manifest, version=CHECKPOINT_VERSION), sort_keys=True
        )
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        body = buffer.getvalue()
        data = _MAGIC + hashlib.sha256(body).digest() + body

        self.directory.mkdir(parents=True, exist_ok=True)
        files = self.generation_files()
        gen = (files[-1][0] if files else 0) + 1
        path = self.generation_path(gen)
        tmp = path.with_suffix(".tmp.npz")
        to_write = data
        if fault is not None and fault.kind == "torn_write":
            # A lying disk: the rename promotes a silent truncation.
            # The header keeps the digest of the *full* body, so the
            # tear surfaces at the next load and rolls back.
            to_write = data[: max(1, len(data) // 2)]
            self._fault_fired(fault)
        try:
            with open(tmp, "wb") as fh:
                if fault is not None and fault.kind == "enospc":
                    self._fault_fired(fault)
                    raise OSError(
                        errno.ENOSPC,
                        "no space left on device (injected enospc)",
                    )
                fh.write(to_write)
                # "Atomic" rename without durability is not atomic
                # under power loss: the rename can hit disk before the
                # data does, surfacing a truncated checkpoint.  fsync
                # the file before the rename and the directory after.
                fh.flush()
                if fault is not None and fault.kind == "fsync_fail":
                    self._fault_fired(fault)
                    raise OSError(
                        errno.EIO, "fsync: I/O error (injected fsync_fail)"
                    )
                os.fsync(fh.fileno())
            if fault is not None and fault.kind == "rename_crash":
                self._fault_fired(fault)
                raise SimulatedCrash(
                    f"injected rename_crash at save {index}: process "
                    "presumed dead mid-promote"
                )
            tmp.replace(path)
        except SimulatedCrash:
            # A real crash cleans up nothing — the orphaned tmp is
            # exactly what the next open's sweep exists for.
            raise
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        _fsync_path(self.directory)

        for _, old in files[: max(0, len(files) + 1 - self.keep)]:
            old.unlink(missing_ok=True)

        rot = self.fault_plan.gen_fault(gen)
        if rot is not None:
            flip_byte(path, rot.offset)
            self._fault_fired(rot)

    def _read_generation(self, path: Path):
        """Read + verify one generation; ``(manifest, arrays)``.

        Raises :class:`_CorruptGeneration` on any integrity failure,
        :class:`FileNotFoundError` when the file is gone (a live writer
        pruned it), and plain :class:`ValueError` on a schema-version
        mismatch (which is a code/state skew, not disk damage — never
        quarantined).
        """
        data = path.read_bytes()
        if data.startswith(_ZIP_SIGNATURE):
            raise ValueError(
                f"{path.name} is a bare npz from before checkpoint "
                f"version 5; it does not match this code's version "
                f"{CHECKPOINT_VERSION} — start over with `run --fresh`"
            )
        if len(data) < _HEADER_BYTES or not data.startswith(_MAGIC):
            raise _CorruptGeneration(
                f"bad header in {len(data)} bytes (torn write or bitrot?)"
            )
        body = data[_HEADER_BYTES:]
        if hashlib.sha256(body).digest() != data[len(_MAGIC):_HEADER_BYTES]:
            raise _CorruptGeneration(
                "body sha256 mismatch (torn write or bitrot?)"
            )
        try:
            with np.load(io.BytesIO(body)) as npz:
                manifest = json.loads(str(npz[_MANIFEST_KEY]))
                arrays = {
                    name: npz[name]
                    for name in npz.files
                    if name != _MANIFEST_KEY
                }
        except Exception as exc:
            # BadZipFile, zlib.error, json/KeyError — an opaque parse
            # failure becomes a named integrity failure.
            raise _CorruptGeneration(
                f"unreadable archive ({type(exc).__name__}: {exc})"
            ) from None
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {manifest.get('version')!r} does "
                f"not match this code's version {CHECKPOINT_VERSION}"
            )
        return manifest, arrays

    def verify_generation(self, path):
        """Verify one generation file; ``None`` or the failure reason."""
        try:
            self._read_generation(Path(path))
        except (_CorruptGeneration, ValueError, OSError) as exc:
            return str(exc)
        return None

    def quarantine(self, path) -> Path | None:
        """Move a damaged file under ``quarantine/``; the new path, or
        ``None`` when the file is already gone."""
        path = Path(path)
        self.quarantine_dir.mkdir(exist_ok=True)
        target = self.quarantine_dir / path.name
        copy = 1
        while target.exists():
            target = self.quarantine_dir / f"{path.name}.{copy}"
            copy += 1
        try:
            path.replace(target)
        except FileNotFoundError:
            return None
        return target

    def load(self) -> tuple[dict, dict]:
        """Load the newest *intact* checkpoint as ``(manifest, arrays)``.

        Generations are verified newest-first; damaged ones are
        quarantined (``checkpoint.corrupt`` incident) and the load rolls
        back to the survivor (``checkpoint.rollback`` incident).  A file
        that vanished after listing was pruned by a live writer, not
        damaged: the listing is simply taken again.  Only when *no*
        generation survives does :class:`CheckpointCorruption`
        propagate.
        """
        newest = 0
        quarantined = 0
        while True:
            files = self.generation_files()
            if not files and not quarantined:
                raise FileNotFoundError(
                    f"no checkpoint under {self.directory} — nothing to "
                    "resume"
                )
            if files:
                newest = max(newest, files[-1][0])
            for gen, path in reversed(files):
                try:
                    manifest, arrays = self._read_generation(path)
                except FileNotFoundError:
                    if self.generation_files() == files:
                        raise
                    break  # pruned after listing by a live writer
                except _CorruptGeneration as exc:
                    moved = self.quarantine(path)
                    if moved is not None:
                        quarantined += 1
                    self._incident(
                        "checkpoint.corrupt",
                        gen=gen,
                        reason=str(exc),
                        quarantined=moved.name if moved else None,
                    )
                    continue
                if gen != newest:
                    self._incident(
                        "checkpoint.rollback", from_gen=newest, to_gen=gen
                    )
                return manifest, arrays
            else:
                raise CheckpointCorruption(
                    f"every checkpoint generation under {self.directory} "
                    f"is corrupt ({quarantined} file(s) moved to "
                    f"{self.quarantine_dir.name}/) — audit with `python "
                    "-m repro.orchestrator verify`, or start over with "
                    "`run --fresh`"
                )

    def clear(self) -> None:
        """Drop every campaign artifact except the planned spec.

        That includes ``status.json``: a ``run --fresh`` that kept the
        previous attempt's status (or its ``progress.json`` /
        ``events.jsonl``) would serve a stale document from a campaign
        that no longer exists until the new run's first checkpoint.
        """
        for _, path in self.generation_files():
            path.unlink(missing_ok=True)
        if self.quarantine_dir.is_dir():
            for path in self.quarantine_dir.iterdir():
                path.unlink(missing_ok=True)
            self.quarantine_dir.rmdir()
        self.status_path.unlink(missing_ok=True)
        self.progress_path.unlink(missing_ok=True)
        self.events_path.unlink(missing_ok=True)
        self.metrics_path.unlink(missing_ok=True)

    # -- status & telemetry -------------------------------------------

    def write_status(self, status: dict) -> None:
        self._write_json(self.status_path, status)

    def write_progress(self, progress: dict) -> None:
        self._write_json(self.progress_path, _sanitize_floats(progress))

    def read_progress(self) -> dict | None:
        """The last progress document, or ``None`` (never raises on a
        malformed file — telemetry must not block a resume)."""
        if not self.progress_path.exists():
            return None
        try:
            document = json.loads(self.progress_path.read_text())
        except ValueError:
            return None
        return document if isinstance(document, dict) else None

    def write_metrics(self, snapshot: dict) -> None:
        """Persist a metrics-registry snapshot (wall-clock-side).

        Atomic (readers never see a torn file) but *not* durable: the
        snapshot is advisory telemetry rewritten at every checkpoint,
        so unlike the checkpoint itself it skips both fsyncs — under
        power loss the next checkpoint simply rewrites it, and paying
        two fsyncs per shard here is exactly the overhead the <5%
        observability budget cannot afford.
        """
        self._write_json(
            self.metrics_path, _sanitize_floats(snapshot), durable=False
        )

    @staticmethod
    def _write_json(path: Path, document: dict, durable: bool = True) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(
                    json.dumps(
                        document, indent=2, sort_keys=True, allow_nan=False
                    )
                    + "\n"
                )
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            tmp.replace(path)
        except BaseException:
            # A failed write (ENOSPC, fsync EIO) must clean up after
            # itself instead of leaving the tmp for the next open's
            # sweep — the retry is the caller's business, the mess is
            # ours.
            tmp.unlink(missing_ok=True)
            raise
        if durable:
            _fsync_path(path.parent)

    # -- fsck ----------------------------------------------------------

    def audit(self, repair: bool = False) -> list[dict]:
        """Audit every artifact; one finding dict per artifact.

        Findings are ``{"artifact", "ok", "detail", "repaired"}``.
        With ``repair=True``, reparable damage is fixed in place:
        corrupt generations are quarantined (the next load resumes from
        the newest intact one), stray tmp files are removed, and
        malformed derived documents (status, progress, metrics — all
        regenerated by the next run/resume) are deleted.  A generation
        of another checkpoint version is reported, never moved.
        ``campaign.json`` and ``events.jsonl`` are never modified: the
        spec is the store's source of truth and the event log is
        append-only history.
        """
        findings: list[dict] = []

        def finding(artifact, ok, detail, repaired=None):
            findings.append(
                {
                    "artifact": artifact,
                    "ok": ok,
                    "detail": detail,
                    "repaired": repaired,
                }
            )

        # The spec.
        spec_dict = None
        try:
            spec_dict = self.read_spec()
        except FileNotFoundError:
            finding("campaign.json", False, "missing — run `plan` first")
        except ValueError as exc:
            finding("campaign.json", False, str(exc))
        if spec_dict is not None:
            from repro.orchestrator.campaign import CampaignSpec

            try:
                CampaignSpec.from_dict(spec_dict)
                finding(
                    "campaign.json", True, "spec parses and validates"
                )
            except (ValueError, TypeError, KeyError) as exc:
                finding("campaign.json", False, f"spec invalid: {exc}")

        # The generations: each file verifies itself.
        files = self.generation_files()
        if not files:
            finding(
                "checkpoint.*.npz", True, "no checkpoints yet (campaign not run)"
            )
        for _, path in files:
            try:
                self._read_generation(path)
            except _CorruptGeneration as exc:
                repaired = None
                if repair:
                    moved = self.quarantine(path)
                    repaired = (
                        f"quarantined as {moved.relative_to(self.directory)}"
                        if moved
                        else "already gone"
                    )
                finding(path.name, False, str(exc), repaired)
            except (ValueError, OSError) as exc:
                # Version skew or a vanished file: not disk damage.
                finding(path.name, False, str(exc))
            else:
                finding(path.name, True, "header + body sha256 verified")

        # Orphaned tmp files.
        strays = sorted(
            path.name
            for pattern in ("*.tmp", "*.tmp.npz")
            for path in self.directory.glob(pattern)
        )
        if strays:
            repaired = None
            if repair:
                for name in strays:
                    (self.directory / name).unlink(missing_ok=True)
                repaired = "removed"
            finding(
                "strays",
                False,
                "orphaned tmp file(s): " + ", ".join(strays),
                repaired,
            )
        else:
            finding("strays", True, "none")

        # Derived JSON documents (all regenerated by a run/resume).
        for name, path in (
            ("status.json", self.status_path),
            ("progress.json", self.progress_path),
            ("metrics.json", self.metrics_path),
        ):
            if not path.exists():
                finding(name, True, "absent")
                continue
            try:
                json.loads(path.read_text())
                finding(name, True, "parses")
            except ValueError as exc:
                repaired = None
                if repair:
                    path.unlink(missing_ok=True)
                    repaired = "removed (regenerated on the next resume)"
                finding(name, False, f"not valid JSON ({exc})", repaired)

        # The trace-event log.
        if self.events_path.exists():
            from repro.obs.schema import validate_file

            errors = validate_file(self.events_path)
            if errors:
                shown = "; ".join(errors[:3])
                if len(errors) > 3:
                    shown += "; …"
                finding(
                    "events.jsonl",
                    False,
                    f"{len(errors)} schema error(s): {shown}",
                )
            else:
                with open(self.events_path) as fh:
                    count = sum(1 for line in fh if line.strip())
                finding("events.jsonl", True, f"{count} event(s) validate")
        else:
            finding("events.jsonl", True, "absent")

        # Quarantined damage is held, not hidden.
        if self.quarantine_dir.is_dir():
            held = sum(1 for _ in self.quarantine_dir.iterdir())
            if held:
                finding(
                    "quarantine/",
                    True,
                    f"{held} damaged file(s) held for inspection",
                )
        return findings


def _sanitize_floats(value):
    """Replace non-finite floats with ``None``, recursively.

    ``json.dumps`` would happily emit ``Infinity``/``NaN`` tokens that
    no strict JSON parser accepts; progress telemetry aggregates
    wall-clock rates, so a pathological clock must degrade to ``null``,
    not corrupt the file.  (Status/manifest JSON is deterministic by
    construction and goes through ``allow_nan=False`` instead, which
    *raises* — corruption there is a bug to surface, not to paper over.)
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize_floats(v) for v in value]
    return value
