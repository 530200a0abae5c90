"""Integer edge files as columns: the reader's exact fallback and user counts.

``read_edge_file`` reads an all-integer file with ``np.loadtxt`` into
``int64`` columns and every other file with its line parser.  The contract
tested here: for every file, the result has the same pairs (values and key
types), the same ``has_timestamps`` and the same timestamps (bit for bit) as
the line parser run directly, and an error keeps the line parser's message.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.monitor import MonitorSpec, monitor_from_json, monitor_to_json, replay_feed
from repro.streams.io import _read_lines, read_edge_file
from repro.streams.stream import GraphStream


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _assert_same_stream(actual: GraphStream, expected: GraphStream) -> None:
    assert actual.pairs() == expected.pairs()
    assert [tuple(map(type, pair)) for pair in actual.pairs()] == [
        tuple(map(type, pair)) for pair in expected.pairs()
    ]
    assert actual.has_timestamps == expected.has_timestamps
    assert _bits(actual.timestamps()) == _bits(expected.timestamps())
    assert len(actual) == len(expected)
    assert actual.user_count == expected.user_count


#: name -> (file text, whether the column parse takes it)
CORPUS = {
    "two_columns": ("1\t2\n3\t4\n1\t5\n", True),
    "spaces_and_tabs": ("1 2\n 3\t 4 \n", True),
    "negative_ids": ("-5 -7\n-9223372036854775808 1\n", True),
    "crlf_signs_zeros_blanks_comments": (
        "# header\r\n1 2\r\n+5 007\r\n\r\n   \n8 9 # note\r\n  # indented\n",
        True,
    ),
    "lone_cr_lines": ("1 2\r3 4\r", True),
    "integer_third_column": ("1 2 3\n4 5 6\n", True),
    "float_timestamps": ("1 2 0.5\n3 4 1.25\n3 5 1.25\n", True),
    "decreasing_third_column": ("1 2 5\n3 4 1\n", True),
    "labels_past_the_third": ("1 2 3 a\n4 5 6 b\n", True),
    "nan_timestamps": ("1 2 5\n3 4 nan\n6 7 1\n", True),
    "inf_timestamps": ("1 2 -inf\n3 4 inf\n", True),
    "huge_integer_timestamp": ("1 2 9007199254740993\n", True),
    "underscores": ("1_000 2\n3 4\n", False),
    "unicode_digits": ("١٢ 3\n4 5\n", False),
    "beyond_int64": ("9223372036854775808 1\n2 3\n", False),
    "mixed_two_and_three_fields": ("1 2\n3 4 5\n", False),
    "mixed_three_and_two_fields": ("1 2 3\n4 5\n", False),
    "non_numeric_third_column": ("1 2 x\n3 4 y\n", False),
    "glued_comment": ("1 2#x\n3 4\n", False),
    "glued_comment_after_timestamp": ("1 2 5#x\n3 4 6\n", False),
    "string_keys": ("alice bob\ncarol dave\n", False),
    "byte_order_mark": ("\ufeff1 2\n3 4\n", False),
    "float_ids": ("1.0 2\n", False),
    "empty": ("", False),
    "comment_only": ("# nothing\n\n# here\n", False),
}


@pytest.mark.parametrize("case", list(CORPUS))
def test_reader_matches_the_line_parser(case, tmp_path):
    text, columnar = CORPUS[case]
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    stream = read_edge_file(path)
    _assert_same_stream(stream, _read_lines(path, None, True, "edges"))
    assert stream.columnar is columnar
    assert stream.name == "edges"


def test_non_default_parse_options_take_the_line_parser(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("1,2\n3,4\n", encoding="utf-8")
    assert not read_edge_file(path, separator=",").columnar
    spaced = tmp_path / "edges.txt"
    spaced.write_text("1 2\n", encoding="utf-8")
    strings = read_edge_file(spaced, as_int=False)
    assert strings.pairs() == [("1", "2")] and not strings.columnar


@pytest.mark.parametrize(
    "text",
    ["1 2\n3\n4 5\n", "7\n", "1 2 3\n4\n"],
    ids=["second_line", "first_line", "after_timestamps"],
)
def test_errors_keep_the_line_parser_message(text, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as expected:
        _read_lines(path, None, True, "edges")
    with pytest.raises(ValueError) as actual:
        read_edge_file(path)
    assert str(actual.value) == str(expected.value)


def test_undecodable_bytes_raise_like_the_line_parser(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"1 2\n\xff 3\n")
    with pytest.raises(UnicodeDecodeError):
        read_edge_file(path)


def test_column_stream_round_trips_and_slices(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("1 2 0.5\n3 4 1.5\n1 6 2.5\n", encoding="utf-8")
    stream = read_edge_file(path)
    users, items = stream.to_int_arrays()
    assert users.dtype == items.dtype == np.int64
    assert users.tolist() == [1, 3, 1] and items.tolist() == [2, 4, 6]
    assert stream.timestamp_array().tolist() == [0.5, 1.5, 2.5]
    head = stream.prefix(2)
    assert head.pairs() == [(1, 2), (3, 4)]
    assert head.timestamps() == [0.5, 1.5]
    assert list(stream.iter_timed()) == [(1, 2, 0.5), (3, 4, 1.5), (1, 6, 2.5)]
    assert stream.stats()["user_count"] == stream.user_count == 2


class TestUserCount:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(1, 10), (2, 10), (1, 11)],
            [("a", 1), ("b", 1), ("a", 2)],
            [(7, 1), ("7", 2), (True, 3), (1, 4), (2.0, 5), (2, 6)],
        ],
        ids=["int", "str", "mixed"],
    )
    def test_equals_the_stats_count(self, pairs):
        assert GraphStream(pairs).user_count == GraphStream(pairs).stats()["user_count"]

    def test_string_and_int_ids_are_distinct_bool_and_int_are_not(self):
        assert GraphStream([(7, 1), ("7", 1), (True, 1), (1, 2)]).user_count == 3

    def test_counting_does_not_compute_stats(self, monkeypatch, tmp_path):
        def refuse(_self):
            raise AssertionError("user_count computed the full statistics")

        monkeypatch.setattr(GraphStream, "_compute_stats", refuse)
        assert GraphStream([(1, 2), (3, 4), (1, 5)]).user_count == 2
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n3 4\n1 5\n", encoding="utf-8")
        assert read_edge_file(path).user_count == 2


def test_replay_of_a_column_stream_never_builds_tuples(monkeypatch, tmp_path):
    """The served path slices columns: ``pairs()`` is never called, and the
    feed equals a replay of the same file's tuples."""
    path = tmp_path / "edges.txt"
    rng = np.random.default_rng(5)
    users = rng.integers(0, 40, 3_000)
    items = rng.integers(0, 500, 3_000)
    path.write_text("".join(f"{u}\t{i}\n" for u, i in zip(users, items)), encoding="utf-8")
    spec = MonitorSpec(
        method="FreeRS", memory_bits=1 << 12, expected_users=40, epoch_pairs=700, delta=0.05
    )
    tuples = _read_lines(path, None, True, "edges").pairs()
    expected = list(replay_feed(spec.build(), tuples, batch_size=256))
    stream = read_edge_file(path)
    assert stream.columnar

    def refuse(_self):
        raise AssertionError("the served path built the tuple list")

    monkeypatch.setattr(GraphStream, "pairs", refuse)
    assert list(replay_feed(spec.build(), stream, batch_size=256)) == expected
    # A resumed replay starts at the restored offset on both forms.
    resumed = {}
    for name, source in (("tuples", tuples), ("columns", stream)):
        monitor = spec.build()
        list(replay_feed(monitor, tuples[:1_100], batch_size=256))
        restored = monitor_from_json(json.loads(json.dumps(monitor_to_json(monitor))))
        resumed[name] = list(replay_feed(restored, source, batch_size=256, skip_pairs=1_100))
    assert resumed["columns"] == resumed["tuples"]
    assert resumed["columns"][-1]["pairs_ingested"] == 3_000
