"""Structured runtime logging on stdlib ``logging``.

The layers below used to operate silently: a failed background ingest
surfaced only as an exception message, clamped timestamps and snapshot
writes left no trace.  This module gives them one structured channel:

* :func:`get_logger` returns a :class:`StructuredLogger` — thin sugar over
  a stdlib logger in the ``repro.*`` hierarchy whose methods take an
  *event name* plus keyword fields (``log.warning("timestamps_clamped",
  clamped=3)``).  Unconfigured, events >= WARNING still reach
  stderr through logging's last-resort handler, so failure forensics never
  require opting in.
* :func:`configure_logging` installs the process-wide handler:
  ``--log-json`` renders each record as one JSON object per line
  (machine-parseable post-mortems, same spirit as the replay feed),
  otherwise a compact ``level logger event key=value ...`` line.

The structured fields ride in ``record.fields`` (via ``extra``), so any
stdlib handler/filter infrastructure composes with them.  The check in
:meth:`StructuredLogger._log` keeps disabled levels at one
``isEnabledFor`` call — logging in hot paths stays cheap when turned off.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import IO

#: Root of the repository's logger hierarchy.
ROOT_LOGGER = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def _level_for(name: str) -> int:
    try:
        return _LEVELS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {name!r}; choose from {', '.join(_LEVELS)}"
        ) from None


def _json_safe(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class JsonFormatter(logging.Formatter):
    """One JSON object per record: ts, level, logger, event, then fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, object] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            for key, value in fields.items():
                payload.setdefault(key, _json_safe(value))
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, separators=(",", ":"))


class KeyValueFormatter(logging.Formatter):
    """Human-first line: ``HH:MM:SS level logger event key=value ...``."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        line = f"{stamp} {record.levelname.lower():7s} {record.name} {record.getMessage()}"
        fields = getattr(record, "fields", None)
        if fields:
            rendered = " ".join(f"{key}={_json_safe(value)}" for key, value in fields.items())
            line = f"{line} {rendered}"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


class StructuredLogger:
    """Event + keyword-fields facade over one stdlib logger."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger) -> None:
        self._logger = logger

    def _log(self, level: int, event: str, fields: dict[str, object]) -> None:
        if self._logger.isEnabledFor(level):
            self._logger.log(level, event, extra={"fields": fields})

    def debug(self, event: str, **fields: object) -> None:
        self._log(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._log(logging.INFO, event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._log(logging.WARNING, event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._log(logging.ERROR, event, fields)

    def isEnabledFor(self, level: int) -> bool:  # noqa: N802 - stdlib parity
        return self._logger.isEnabledFor(level)


def get_logger(name: str) -> StructuredLogger:
    """The structured logger ``repro.<name>`` (idempotent, config-free)."""
    qualified = name if name.startswith(ROOT_LOGGER) else f"{ROOT_LOGGER}.{name}"
    return StructuredLogger(logging.getLogger(qualified))


def configure_logging(
    level: str = "info",
    json_mode: bool = False,
    stream: IO[str] | None = None,
) -> logging.Handler:
    """Install (or replace) the process-wide handler on the ``repro`` root.

    Called by the CLI from ``--log-level`` / ``--log-json``; safe to call
    again — the previous handler installed here is removed first, so tests
    and long-lived sessions can reconfigure without duplicating output.
    Returns the installed handler (tests capture its stream).
    """
    root = logging.getLogger(ROOT_LOGGER)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter() if json_mode else KeyValueFormatter())
    for existing in list(root.handlers):
        if getattr(existing, "_repro_obs_handler", False):
            root.removeHandler(existing)
    setattr(handler, "_repro_obs_handler", True)
    root.addHandler(handler)
    root.setLevel(_level_for(level))
    root.propagate = False
    return handler
