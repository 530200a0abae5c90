"""Text IO for edge streams.

The on-disk format is deliberately minimal and interoperable: one edge per
line, ``user<sep>item``, with ``#``-prefixed comment lines ignored.  This is
the format of the SNAP / KONECT edge lists the paper's social-graph datasets
ship in, so a user of this library can drop in the real Twitter / Flickr /
Orkut / LiveJournal files if they have them.

An optional third column carries the edge's arrival timestamp (a float),
which the continuous-monitoring subsystem uses for time-based epoching.
Files without the column keep working everywhere: readers fall back to the
monotonic event index, matching :meth:`repro.streams.GraphStream.timestamps`.
Because real edge dumps sometimes carry *other* third columns (weights,
labels), :func:`read_edge_file` only attaches an explicit arrival clock
when every line has a numeric third field and the sequence is
non-decreasing — the property actual timestamps have and weights almost
never do; anything else is ignored, preserving the historical "extra
fields are ignored" behaviour.

:func:`read_edge_file` reads an all-integer, whitespace-separated file with
``np.loadtxt`` into ``int64`` columns (plus a ``float64`` timestamp column),
which is what lets the served path encode whole column slices instead of
Python tuples.  It takes that route only for files whose rows the column
parse reproduces exactly, and reads every other file with its line parser;
both give the same pairs and timestamps.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import warnings
from pathlib import Path

import numpy as np

from repro.streams.stream import GraphStream

UserItemPair = tuple[object, object]
TimedPair = tuple[object, object, float]
PathLike = str | Path


def _parse_endpoints(user_raw: str, item_raw: str, as_int: bool) -> UserItemPair:
    # Both endpoints parse as integers or neither does, preserving the
    # historical "homogeneous line" behaviour of this reader.
    if as_int:
        try:
            return int(user_raw), int(item_raw)
        except ValueError:
            pass
    return user_raw, item_raw


def iter_edge_file(
    path: PathLike,
    separator: str | None = None,
    as_int: bool = True,
) -> Iterator[UserItemPair]:
    """Yield (user, item) pairs from an edge-list file.

    Parameters
    ----------
    path:
        File with one edge per line; lines starting with ``#`` are skipped.
    separator:
        Field separator; ``None`` means any whitespace.
    as_int:
        Parse endpoints as integers when possible (the common case for the
        public social-graph dumps); otherwise keep them as strings.
    """
    for user, item, _ in iter_timed_edge_file(path, separator=separator, as_int=as_int):
        yield user, item


def _iter_fields(path: PathLike, separator: str | None) -> Iterator[list[str]]:
    """Yield the fields of every data line (blank and ``#`` lines skipped)."""
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split(separator)
            if len(fields) < 2:
                raise ValueError(
                    f"{path}:{line_number}: expected at least two fields, got {stripped!r}"
                )
            yield fields


def _iter_rows(
    path: PathLike,
    separator: str | None,
    as_int: bool,
) -> Iterator[tuple]:
    """Yield ``(user, item, timestamp_or_None)`` rows; None = no numeric third field."""
    for fields in _iter_fields(path, separator):
        timestamp = None
        if len(fields) >= 3:
            try:
                timestamp = float(fields[2])
            except ValueError:
                pass
        user, item = _parse_endpoints(fields[0], fields[1], as_int)
        yield user, item, timestamp


def iter_timed_edge_file(
    path: PathLike,
    separator: str | None = None,
    as_int: bool = True,
) -> Iterator[TimedPair]:
    """Yield (user, item, timestamp) triples from an edge-list file.

    The timestamp is the line's third field when present and numeric, and the
    zero-based event index otherwise (non-numeric third fields are treated as
    unrelated extra columns and ignored), so timestamp-less files replay with
    the default monotonic clock.
    """
    for index, (user, item, timestamp) in enumerate(_iter_rows(path, separator, as_int)):
        yield user, item, float(index) if timestamp is None else timestamp


def read_edge_file(
    path: PathLike,
    separator: str | None = None,
    as_int: bool = True,
    name: str | None = None,
) -> GraphStream:
    """Read an edge-list file into a replayable :class:`GraphStream`.

    When the file carries a timestamp column — a numeric, non-decreasing
    third field on every line — the timestamps are attached to the stream
    (``stream.has_timestamps``).  Two-column files, and files whose third
    column is some other attribute (a weight, a label), produce a plain
    stream whose :meth:`~GraphStream.timestamps` default to the event index.

    An all-integer, whitespace-separated file comes back as a column-backed
    stream (:meth:`GraphStream.from_columns`); any other file is read line
    by line.  The pairs, timestamps and errors are the same either way.
    """
    name = name or Path(path).stem
    if as_int and separator is None:
        stream = _read_int_columns(path, name)
        if stream is not None:
            return stream
    return _read_lines(path, separator, as_int, name)


def _read_lines(
    path: PathLike, separator: str | None, as_int: bool, name: str
) -> GraphStream:
    """The line parser: one row at a time, any keys, exact error lines."""
    pairs = []
    timestamps = []
    attach = True
    previous = None
    for user, item, timestamp in _iter_rows(path, separator, as_int):
        pairs.append((user, item))
        if timestamp is None or (previous is not None and timestamp < previous):
            attach = False
        previous = timestamp
        timestamps.append(timestamp)
    return GraphStream(
        pairs,
        name=name,
        timestamps=timestamps if attach and timestamps else None,
    )


#: Bytes the line parser strips or splits on that ``np.loadtxt`` does too.
_BLANK = frozenset(b" \t\r\n\f\v")

#: The column parse: whitespace-separated, ``#`` ends a row.
_LOADTXT = {"comments": "#", "encoding": "utf-8"}


def _comments_alike(data: bytes) -> bool:
    """True when no ``#`` follows a non-blank byte.

    ``np.loadtxt`` ends a row at any ``#``; the line parser skips lines
    that start with one and otherwise reads ``#`` as part of a field.  A
    ``#`` at a line start or after whitespace begins either a comment line
    or a field that only a ``float()`` of the third field would look at,
    and there both parsers agree (or the column parse fails and falls back).
    """
    position = data.find(b"#")
    while position != -1:
        if position and data[position - 1] not in _BLANK:
            return False
        position = data.find(b"#", position + 1)
    return True


def _read_int_columns(path: PathLike, name: str) -> GraphStream | None:
    """The file as ``int64`` columns, or None where the line parser must read it.

    ``np.loadtxt`` accepts a subset of what ``int()``/``float()`` accept
    (no ``1_000``, no Unicode digits, nothing beyond ``int64``) and gives
    the same value wherever it accepts a field, so a file it parses whole,
    with the line parser's column count and comments, has the same rows.
    Anything else — a parse error, a warning (empty input), rows with
    another field count — returns None.
    """
    with open(path, "rb") as handle:
        if not _comments_alike(handle.read()):
            return None
    try:
        first = next(_iter_fields(path, None), None)
        if first is None:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if len(first) == 2:
                table = np.loadtxt(path, dtype=np.int64, ndmin=2, **_LOADTXT)
                users, items, times = table[:, 0], table[:, 1], None
            else:
                # Fields past the third are ignored, as the line parser does.
                table = np.loadtxt(
                    path,
                    dtype=[("user", np.int64), ("item", np.int64), ("time", np.float64)],
                    usecols=(0, 1, 2),
                    ndmin=1,
                    **_LOADTXT,
                )
                users, items, times = table["user"], table["item"], table["time"]
    except (ValueError, OverflowError, Warning):
        return None
    if times is not None and np.any(times[1:] < times[:-1]):
        times = None  # the line parser's rule: a decrease means not a clock
    return GraphStream.from_columns(
        np.ascontiguousarray(users),
        np.ascontiguousarray(items),
        name=name,
        timestamps=times,
    )


def write_edge_file(
    path: PathLike,
    pairs: Iterable[UserItemPair],
    separator: str = "\t",
    header: str | None = None,
    timestamps: Sequence[float] | None = None,
) -> int:
    """Write (user, item) pairs to an edge-list file; return the edge count.

    With ``timestamps`` (one per pair, or a timestamped
    :class:`GraphStream`'s :meth:`~GraphStream.timestamps`), a third column is
    written so the arrival clock survives the file round-trip.
    """
    if timestamps is None and isinstance(pairs, GraphStream) and pairs.has_timestamps:
        timestamps = pairs.timestamps()
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        if timestamps is None:
            for user, item in pairs:
                handle.write(f"{user}{separator}{item}\n")
                count += 1
        else:
            timestamps = [float(value) for value in timestamps]
            # strict zip: a length mismatch in either direction is an error,
            # never a silent truncation.  repr() keeps full float precision
            # (Unix-epoch timestamps need more than %g's 6 digits).
            for (user, item), timestamp in zip(pairs, timestamps, strict=True):
                handle.write(f"{user}{separator}{item}{separator}{timestamp!r}\n")
                count += 1
    return count
