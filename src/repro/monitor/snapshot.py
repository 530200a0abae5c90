"""Checkpoint and recovery of full monitor state.

A :class:`SnapshotStore` extends the estimator-level serialization of
:mod:`repro.core.serialization` to the composed state of a running
:class:`~repro.monitor.spreader.SpreaderMonitor`: every retained epoch's
estimator (any of the six methods, sharded or not), the window's rotation
bookkeeping, and the detector's hysteresis state.  A replay that is killed
mid-stream restores the latest snapshot and continues exactly where it left
off: the restored monitor produces the same window estimates and the same
alert feed as an uninterrupted run (the test-suite asserts this).

Snapshot format: one JSON document per checkpoint, written atomically and
durably (temp file, fsync, rename, fsync of the directory), named
``snapshot-<pairs_ingested>.json`` so the resume offset is visible in a
directory listing.  Restoring without a path falls back past retained
files that fail to load, newest first.  The envelope is versioned
independently of the estimator envelopes it embeds; see
``docs/monitoring.md`` for the compatibility rules.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import obs
from repro.core import serialization
from repro.monitor.config import MonitorSpec
from repro.monitor.spreader import SpreaderMonitor
from repro.monitor.window import Epoch

PathLike = str | Path

_log = obs.get_logger("monitor.snapshot")

_FORMAT = "freesketch-monitor-snapshot"
_FORMAT_VERSION = 1


class SnapshotError(RuntimeError):
    """A snapshot file could not be restored.

    Raised with the offending path and the operator's recovery options in
    the message, so ``repro.cli monitor --resume`` (and anything else
    restoring checkpoints) can fail with a actionable one-liner instead of
    an opaque traceback from the JSON layer.
    """

    def __init__(self, path: PathLike | None, reason: str, recovery: str) -> None:
        location = f"snapshot {Path(path)}" if path is not None else "snapshot"
        super().__init__(f"{location}: {reason}.  Recovery options: {recovery}")
        self.path = None if path is None else Path(path)
        self.reason = reason


def monitor_to_json(monitor: SpreaderMonitor) -> dict[str, object]:
    """Serialise a monitor (spec + window + detector state) to a JSON dict."""
    spec = getattr(monitor, "spec", None)
    if spec is None:
        raise ValueError(
            "monitor has no spec; build it via MonitorSpec.build() so snapshots "
            "can rebuild it on restore"
        )
    window = monitor.window
    return {
        "format": _FORMAT,
        "version": _FORMAT_VERSION,
        "spec": spec.to_json(),
        "window": {
            "epochs_started": window.epochs_started,
            "pairs_ingested": window.pairs_ingested,
            "regressions": window.regressions,
            "last_timestamp": window.last_timestamp,
            "epochs": [
                {
                    **epoch.summary(),
                    "estimator": serialization.to_obj(epoch.estimator),
                }
                for epoch in window.epochs
            ],
        },
        "spreader": monitor.state_to_json(),
    }


def monitor_from_json(payload: dict[str, object]) -> SpreaderMonitor:
    """Rebuild a monitor from :func:`monitor_to_json` output."""
    if payload.get("format") != _FORMAT:
        raise ValueError("not a monitor snapshot payload")
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported monitor snapshot version {payload.get('version')!r}")
    spec = MonitorSpec.from_json(payload["spec"])
    monitor = spec.build()
    window = monitor.window
    state = payload["window"]
    ring = []
    for record in state["epochs"]:
        epoch = Epoch(
            index=int(record["epoch"]),
            estimator=serialization.from_obj(record["estimator"]),
            start_time=record["start_time"],
            end_time=record["end_time"],
            pairs=int(record["pairs"]),
            closed=bool(record["closed"]),
        )
        ring.append(epoch)
    window._ring.clear()
    window._ring.extend(ring)
    window._epochs_started = int(state["epochs_started"])
    window._pairs_ingested = int(state["pairs_ingested"])
    # Older snapshots (pre regression-counting) lack the key; start at zero.
    window._regressions = int(state.get("regressions", 0))
    window._last_timestamp = state["last_timestamp"]
    monitor.state_from_json(payload["spreader"])
    return monitor


class SnapshotStore:
    """Directory of monitor checkpoints with atomic writes and retention.

    Parameters
    ----------
    directory:
        Where snapshots live; created on first save.
    keep:
        How many most-recent snapshots to retain (older ones are deleted on
        save); ``0`` disables pruning.
    """

    def __init__(self, directory: PathLike, keep: int = 3) -> None:
        if keep < 0:
            raise ValueError("keep must be non-negative")
        self.directory = Path(directory)
        self.keep = keep
        #: The file the last successful :meth:`restore` read.
        self.restored_path: Path | None = None

    def paths(self) -> list[Path]:
        """Existing snapshot files, oldest first (by resume offset)."""
        if not self.directory.is_dir():
            return []
        files = self.directory.glob("snapshot-*.json")
        return sorted(files, key=lambda path: self._offset(path))

    @staticmethod
    def _offset(path: Path) -> int:
        stem = path.stem  # snapshot-<pairs>
        try:
            return int(stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return -1

    def latest(self) -> Path | None:
        """Path of the most recent snapshot, or None when the store is empty."""
        paths = self.paths()
        return paths[-1] if paths else None

    def save(self, monitor: SpreaderMonitor) -> Path:
        """Checkpoint the monitor; return the snapshot path.

        The file's data reaches the disk before the rename publishes it, and
        the rename before ``save`` returns: after a power loss the snapshot
        is either complete or absent, never a renamed empty file.
        """
        with obs.timed(obs.histogram("monitor.snapshot.save_seconds")):
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = monitor_to_json(monitor)
            path = self.directory / f"snapshot-{monitor.window.pairs_ingested:012d}.json"
            temp = path.with_suffix(".json.tmp")
            with open(temp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
            directory = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
            if self.keep:
                for stale in self.paths()[: -self.keep]:
                    stale.unlink()
        obs.counter("monitor.snapshot.saves").add()
        _log.info(
            "snapshot_saved",
            path=str(path),
            pairs_ingested=monitor.window.pairs_ingested,
        )
        return path

    def restore(self, path: PathLike | None = None) -> SpreaderMonitor:
        """Rebuild a monitor from a snapshot (default: the newest loadable one).

        With no ``path`` the retained files are tried newest first: one that
        fails to load is skipped, logged as ``snapshot_restore_fallback`` and
        counted in ``monitor.snapshot.fallbacks``.  If every file fails, the
        newest file's error is raised.  An explicit ``path`` never falls
        back.  :attr:`restored_path` names the file the monitor came from.

        Raises :class:`SnapshotError` — naming the path and the recovery
        options — when the file is missing, truncated, or not a monitor
        snapshot.
        """
        if path is not None:
            return self._restore_file(Path(path))
        candidates = self.paths()[::-1]
        if not candidates:
            raise SnapshotError(
                None,
                f"no snapshot files found in {self.directory}",
                "start a fresh run without --resume (snapshots are written "
                "there once --snapshot-every is set), or point --snapshot-dir "
                "at the directory that holds them",
            )
        failures: list[SnapshotError] = []
        for candidate in candidates:
            try:
                monitor = self._restore_file(candidate)
            except SnapshotError as error:
                failures.append(error)
                continue
            if failures:
                obs.counter("monitor.snapshot.fallbacks").add()
                _log.warning(
                    "snapshot_restore_fallback",
                    skipped=[str(failure.path) for failure in failures],
                    restored=str(candidate),
                )
            return monitor
        raise failures[0]

    def _restore_file(self, path: Path) -> SpreaderMonitor:
        recovery = "restore an older snapshot by path, or start a fresh run without --resume"
        with obs.timed(obs.histogram("monitor.snapshot.load_seconds")):
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as error:
                _log.error("snapshot_restore_failed", path=str(path), error=str(error))
                raise SnapshotError(
                    path, f"cannot read the file ({error})", recovery
                ) from error
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as error:
                _log.error("snapshot_restore_failed", path=str(path), error=str(error))
                raise SnapshotError(
                    path,
                    f"file is truncated or corrupt (JSON parse failed: {error})",
                    recovery,
                ) from error
            try:
                monitor = monitor_from_json(payload)
            except (KeyError, TypeError, ValueError) as error:
                _log.error("snapshot_restore_failed", path=str(path), error=str(error))
                raise SnapshotError(
                    path,
                    f"payload is not a loadable monitor snapshot ({error})",
                    recovery,
                ) from error
        obs.counter("monitor.snapshot.loads").add()
        _log.info("snapshot_restored", path=str(path))
        self.restored_path = path
        return monitor
