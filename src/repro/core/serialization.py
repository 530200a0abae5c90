"""Snapshot serialization for every compared estimator.

Monitoring deployments need to checkpoint sketch state: a monitor restarts,
a snapshot is shipped to an analysis box, or an operator wants yesterday's
state next to today's.  This module serialises all six compared methods —
FreeBS, FreeRS, CSE, vHLL and the per-user LPC / HLL++ baselines — plus
:class:`repro.engine.ShardedEstimator` compositions of any of them, to a
compact, versioned, self-describing JSON envelope with base64-encoded
arrays, and restores them exactly: estimates, shared-array state and seeds
round-trip so a restored estimator continues the stream as if nothing
happened.

Dispatch is codec-table driven: each estimator kind has one
:class:`_Codec` (kind tag, estimator class, dump/load functions).  The six
compared methods take their tag and class from the central method registry
(:mod:`repro.registry` — the ``MethodSpec.tag`` field), so the snapshot
format and the method layer cannot drift apart; the engine-level
``Sharded`` envelope is registered locally.  Any other ``kind`` fails to
load with ``unknown snapshot kind``.

Format history:

* version 1 — FreeBS / FreeRS only (the ``FreeBSBatch`` / ``FreeRSBatch``
  kinds of that era's separate batch classes no longer load);
* version 2 — adds the ``CSE``, ``vHLL``, ``LPC``, ``HLL++`` and ``Sharded``
  kinds (sharded envelopes nest one sub-envelope per shard);
* version 3 — adds ``bytes`` / ``tuple`` key kinds and the columnar
  estimates payload (pure-int user populations ship as two encoded arrays —
  int64 keys + float64 values — instead of one JSON triple per user);
* version 4 — arrays are base64 text (``base64.b64encode``, C-backed)
  instead of base85, whose stdlib codec is pure Python and dominated the
  cost of a checkpoint.  Nothing else changed: ``bytes`` user keys keep
  their per-key base85 tag, because the monitor's detector state writes
  them too and carries no estimator version.

Versions 1-4 all load.  The array decoder follows the envelope's
``version`` (base85 up to v3, base64 from v4), never the text itself: a
base64 body read as base85 can decode without error, to the wrong bytes.
Every decoded array must also hold exactly ``count x itemsize`` bytes, so
a mislabelled envelope fails to load instead of restoring garbage.  The
estimates payload is dispatched on *shape* (columnar dict or triple list).

The format favours debuggability (a JSON envelope) over minimum size: the
arrays dominate, and base64 stores them a third larger than their raw bytes
(base85 stored them a quarter larger).
"""

from __future__ import annotations

from collections.abc import Callable

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.freebs import FreeBS
from repro.core.freers import FreeRS

PathLike = str | Path

_FORMAT_VERSION = 4

#: Payload versions this loader understands (older versions stay readable).
_ACCEPTED_VERSIONS = frozenset({1, 2, 3, 4})

#: Turns one encoded array back into its raw bytes.
_Decoder = Callable[[str], bytes]


def _b64decode(payload: str) -> bytes:
    # validate=True: a character outside the base64 alphabet (a base85 body
    # under a v4 label) raises instead of being skipped.
    return base64.b64decode(payload, validate=True)


def _array_decoder(version: object) -> _Decoder:
    """The array decoder of one envelope ``version``: base85 before v4."""
    if version not in _ACCEPTED_VERSIONS:
        raise ValueError(f"unsupported snapshot version {version!r}")
    return _b64decode if version == 4 else base64.b85decode


def _encode_array(array: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(array).tobytes()).decode("ascii")


def _decode_array(payload: str, decode: _Decoder, dtype: type, count: int) -> np.ndarray:
    raw = decode(payload)
    expected = count * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise ValueError(
            f"array payload decodes to {len(raw)} bytes, expected {expected} "
            f"({count} x {np.dtype(dtype).name})"
        )
    return np.frombuffer(raw, dtype=dtype).copy()


def _key_to_json(key: object) -> list:
    # JSON object keys must be strings; store (repr-tag, key) so integer and
    # string users round-trip without collision.  Bytes and tuples — the
    # other first-class user-key types — get their own tags so they survive
    # the round-trip as the same Python objects (a stringified tuple would
    # no longer match the interned key on restore).
    if isinstance(key, (int, np.integer)):
        return ["int", str(int(key))]
    if isinstance(key, bytes):
        return ["bytes", base64.b85encode(key).decode("ascii")]
    if isinstance(key, tuple):
        return ["tuple", [_key_to_json(part) for part in key]]
    return ["str", str(key)]


def _key_from_json(kind: str, key) -> object:
    if kind == "int":
        return int(key)
    if kind == "bytes":
        return base64.b85decode(key.encode("ascii"))
    if kind == "tuple":
        return tuple(_key_from_json(part_kind, part) for part_kind, part in key)
    return key


def _estimates_to_json(estimates: dict) -> list:
    return [[*_key_to_json(user), value] for user, value in estimates.items()]


def _estimates_from_json(triples: list) -> dict:
    return {_key_from_json(kind, key): float(value) for kind, key, value in triples}


def _estimates_payload(users: list, values: np.ndarray):
    """Estimates in wire form: columnar arrays for pure-int populations.

    The common case at scale — integer user ids — serialises as two encoded
    arrays (int64 keys in first-seen order + float64 values) instead of one
    JSON triple per user, cutting both payload size and the per-user
    encode/decode work by an order of magnitude.  Mixed/non-int key sets
    keep the legacy triple list.  ``type(k) is int`` (not isinstance): bools
    must keep the legacy path's int coercion and floats must not silently
    truncate.
    """
    if users and set(map(type, users)) == {int}:
        try:
            keys_arr = np.fromiter(users, dtype=np.int64, count=len(users))
        except OverflowError:  # ints beyond int64: legacy triples
            pass
        else:
            return {
                "encoding": "columnar-i64",
                "count": len(users),
                "keys": _encode_array(keys_arr),
                "values": _encode_array(values),
            }
    return _estimates_to_json(dict(zip(users, values.tolist())))


def _estimates_from_payload(payload, decode: _Decoder) -> dict:
    """Inverse of :func:`_estimates_payload`, dispatched on payload shape.

    A dict is the columnar form, a list the triple form; ``decode`` is the
    envelope version's array decoder.
    """
    if isinstance(payload, dict):
        count = int(payload["count"])
        keys = _decode_array(payload["keys"], decode, np.int64, count)
        values = _decode_array(payload["values"], decode, np.float64, count)
        return dict(zip(keys.tolist(), values.tolist()))
    return _estimates_from_json(payload)


@dataclass(frozen=True)
class _Codec:
    """One snapshot kind: its tag, estimator class and state dump/load."""

    tag: str
    cls: type
    dump: Callable[[object], dict]
    load: Callable[[dict, _Decoder], object]
    #: The generic loader attaches the envelope's cached estimates after
    #: ``load``; the sharded envelope carries them inside its sub-envelopes.
    attach_estimates: bool = True


# -- per-kind state codecs -----------------------------------------------------


def _dump_sharded(estimator) -> dict:
    return {
        "shards": estimator.num_shards,
        "seed": estimator.seed,
        "shard_pairs": list(estimator.shard_pair_counts),
        "sub": [to_obj(shard) for shard in estimator.shards],
    }


def _load_sharded(body: dict, _decode: _Decoder):
    from repro.engine.sharded import ShardedEstimator

    # Each sub-envelope carries its own version, so it picks its own decoder.
    shards = [_load_envelope(sub) for sub in body["sub"]]
    estimator = ShardedEstimator(
        lambda k: shards[k], shards=int(body["shards"]), seed=int(body["seed"])
    )
    estimator._shard_pairs = [int(count) for count in body["shard_pairs"]]
    return estimator


def _dump_freebs(estimator) -> dict:
    return {
        "memory_bits": estimator.M,
        "seed": estimator.seed,
        "pairs_processed": estimator.pairs_processed,
        "words": _encode_array(estimator._bits._words),
        "ones": estimator._bits.ones,
    }


def _load_freebs(body: dict, decode: _Decoder):
    estimator = FreeBS(body["memory_bits"], seed=body["seed"])
    _restore_bitarray(estimator._bits, body["words"], body["ones"], decode)
    estimator._pairs_processed = int(body["pairs_processed"])
    return estimator


def _dump_freers(estimator) -> dict:
    return {
        "registers": estimator.M,
        "register_width": estimator._registers.width,
        "seed": estimator.seed,
        "pairs_processed": estimator.pairs_processed,
        "values": _encode_array(estimator._registers.values),
    }


def _load_freers(body: dict, decode: _Decoder):
    estimator = FreeRS(
        body["registers"], register_width=body["register_width"], seed=body["seed"]
    )
    _restore_registers(estimator._registers, body["values"], estimator.M, decode)
    estimator._pairs_processed = int(body["pairs_processed"])
    return estimator


def _dump_cse(estimator) -> dict:
    return {
        "memory_bits": estimator.M,
        "virtual_size": estimator.m,
        "seed": estimator.seed,
        "words": _encode_array(estimator._bits._words),
        "ones": estimator._bits.ones,
    }


def _load_cse(body: dict, decode: _Decoder):
    from repro.baselines.cse import CSE

    estimator = CSE(
        body["memory_bits"], virtual_size=body["virtual_size"], seed=body["seed"]
    )
    _restore_bitarray(estimator._bits, body["words"], body["ones"], decode)
    return estimator


def _dump_vhll(estimator) -> dict:
    return {
        "registers": estimator.M,
        "virtual_size": estimator.m,
        "register_width": estimator._registers.width,
        "seed": estimator.seed,
        "values": _encode_array(estimator._registers.values),
    }


def _load_vhll(body: dict, decode: _Decoder):
    from repro.baselines.vhll import VirtualHLL

    estimator = VirtualHLL(
        body["registers"],
        virtual_size=body["virtual_size"],
        register_width=body["register_width"],
        seed=body["seed"],
    )
    _restore_registers(estimator._registers, body["values"], estimator.M, decode)
    return estimator


def _dump_lpc(estimator) -> dict:
    return {
        "bits_per_user": estimator.bits_per_user,
        "seed": estimator.seed,
        "users": [
            [
                *_key_to_json(user),
                _encode_array(sketch._bits._words),
                sketch._bits.ones,
            ]
            for user, sketch in estimator._sketches.items()
        ],
    }


def _load_lpc(body: dict, decode: _Decoder):
    from repro.baselines.per_user import PerUserLPC
    from repro.sketches.lpc import LinearProbabilisticCounter

    estimator = PerUserLPC(
        memory_bits=0,
        expected_users=1,
        bits_per_user=int(body["bits_per_user"]),
        seed=int(body["seed"]),
    )
    for key_kind, key, words, ones in body["users"]:
        sketch = LinearProbabilisticCounter(estimator.bits_per_user, seed=estimator.seed)
        _restore_bitarray(sketch._bits, words, ones, decode)
        estimator._sketches[_key_from_json(key_kind, key)] = sketch
    return estimator


def _dump_hllpp(estimator) -> dict:
    return {
        "registers_per_user": estimator.registers_per_user,
        "register_width": estimator.register_width,
        "seed": estimator.seed,
        "users": [
            [*_key_to_json(user), _hllpp_state(sketch)]
            for user, sketch in estimator._sketches.items()
        ],
    }


def _load_hllpp(body: dict, decode: _Decoder):
    from repro.baselines.per_user import PerUserHLLPP
    from repro.sketches.hllpp import HyperLogLogPlusPlus

    estimator = PerUserHLLPP(
        memory_bits=0,
        expected_users=1,
        registers_per_user=int(body["registers_per_user"]),
        register_width=int(body["register_width"]),
        seed=int(body["seed"]),
    )
    for key_kind, key, state in body["users"]:
        sketch = HyperLogLogPlusPlus(
            estimator.registers_per_user,
            width=estimator.register_width,
            seed=estimator.seed,
        )
        _restore_hllpp(sketch, state, decode)
        estimator._sketches[_key_from_json(key_kind, key)] = sketch
    return estimator


#: Dump/load state functions per registry method name; tag and class come
#: from the registry spec itself so the two layers cannot disagree.
_METHOD_STATE_CODECS: dict[str, tuple] = {
    "FreeBS": (_dump_freebs, _load_freebs),
    "FreeRS": (_dump_freers, _load_freers),
    "CSE": (_dump_cse, _load_cse),
    "vHLL": (_dump_vhll, _load_vhll),
    "LPC": (_dump_lpc, _load_lpc),
    "HLL++": (_dump_hllpp, _load_hllpp),
}

_CODECS: list[_Codec] = []
_CODEC_BY_TAG: dict[str, _Codec] = {}


def _codecs() -> list[_Codec]:
    """Build (once) the codec table from the method registry + the sharded kind."""
    if _CODECS:
        return _CODECS
    # Imported lazily: repro.core.__init__ loads this module, and the
    # registry imports repro.core — a module-level import would cycle.
    from repro.engine.sharded import ShardedEstimator
    from repro.registry import REGISTRY

    # The Sharded envelope is checked first: it composes the other kinds.
    table = [_Codec("Sharded", ShardedEstimator, _dump_sharded, _load_sharded, False)]
    for name, spec in REGISTRY.items():
        dump, load = _METHOD_STATE_CODECS[name]
        table.append(_Codec(spec.tag, spec.estimator_cls, dump, load))
    _CODECS.extend(table)
    _CODEC_BY_TAG.update({codec.tag: codec for codec in table})
    return _CODECS


def _dump_body(estimator) -> tuple:
    """Return ``(kind, body)`` for one estimator via the codec table."""
    for codec in _codecs():
        if isinstance(estimator, codec.cls):
            return codec.tag, codec.dump(estimator)
    raise TypeError(
        f"cannot serialise {type(estimator).__name__}; supported kinds: "
        "FreeBS, FreeRS, CSE, vHLL, LPC, HLL++ and "
        "Sharded compositions of them"
    )


def _hllpp_state(sketch) -> dict:
    """State of one private HLL++ sketch, preserving its representation."""
    if sketch._sparse is not None:
        # Entry order is preserved so densification (which replays the dict
        # in insertion order) happens on the same trajectory after a restore.
        return {
            "mode": "sparse",
            "entries": [[int(bucket), int(rank)] for bucket, rank in sketch._sparse.items()],
        }
    return {"mode": "dense", "values": _encode_array(sketch._registers.values)}


def _restore_hllpp(sketch, state: dict, decode: _Decoder) -> None:
    if state["mode"] == "sparse":
        for bucket, rank in state["entries"]:
            sketch._sparse[int(bucket)] = int(rank)
        if len(sketch._sparse) > sketch._sparse_limit:
            sketch._densify()
    else:
        values = _decode_array(state["values"], decode, np.uint8, sketch.m)
        sketch._sparse = None
        from repro.sketches.registers import RegisterArray

        registers = RegisterArray(sketch.m, width=sketch.width)
        for index in np.nonzero(values)[0]:
            registers.update(int(index), int(values[index]))
        sketch._registers = registers


def to_obj(estimator) -> dict:
    """Serialise an estimator to a JSON-ready envelope *dict*.

    The object-level half of :func:`dumps`: callers embedding snapshots in a
    larger JSON document (the monitor's :mod:`repro.monitor.snapshot`, the
    sharded sub-envelopes) use this directly instead of paying a render +
    re-parse round-trip per estimator.
    """
    kind, body = _dump_body(estimator)
    # The envelope carries the cached estimates: work out deferred ones first.
    estimator.settle()
    return {
        "format": "freesketch-snapshot",
        "version": _FORMAT_VERSION,
        "kind": kind,
        "estimates": (
            [] if kind == "Sharded" else _estimates_payload(*estimator._arena.estimate_columns())
        ),
        "body": body,
    }


def dumps(estimator) -> str:
    """Serialise an estimator to a JSON string (see module doc for coverage)."""
    return json.dumps(to_obj(estimator))


def _restore_bitarray(bits, words_payload: str, ones: int, decode: _Decoder) -> None:
    bits._words[:] = _decode_array(words_payload, decode, np.uint64, len(bits._words))
    bits._ones = int(ones)


def _restore_registers(registers, values_payload: str, count: int, decode: _Decoder) -> None:
    # Replaying through update() keeps the incremental harmonic-sum and
    # zero-count bookkeeping on a clean trajectory (see RegisterArray).
    values = _decode_array(values_payload, decode, np.uint8, count)
    for index in np.nonzero(values)[0]:
        registers.update(int(index), int(values[index]))


def _load_envelope(envelope: dict):
    decode = _array_decoder(envelope.get("version"))
    kind = envelope["kind"]
    _codecs()
    codec = _CODEC_BY_TAG.get(kind)
    if codec is None:
        raise ValueError(f"unknown snapshot kind {kind!r}")
    estimator = codec.load(envelope["body"], decode)
    if codec.attach_estimates:
        # Interned in mapping order: the snapshot's first-seen order.
        estimator._arena.load_estimates(
            _estimates_from_payload(envelope["estimates"], decode)
        )
    return estimator


def from_obj(envelope: dict):
    """Restore an estimator from an already-parsed envelope dict.

    The inverse of :func:`to_obj` — validates the same format/version
    markers :func:`loads` does, without requiring the caller to re-serialise
    a dict it already holds (the snapshot-restore hot path loads every
    retained epoch through here).
    """
    if not isinstance(envelope, dict) or envelope.get("format") != "freesketch-snapshot":
        raise ValueError("not a freesketch snapshot payload")
    return _load_envelope(envelope)


def loads(payload: str):
    """Restore an estimator previously serialised with :func:`dumps`."""
    return from_obj(json.loads(payload))


def save(estimator, path: PathLike) -> None:
    """Serialise ``estimator`` to a file."""
    Path(path).write_text(dumps(estimator), encoding="utf-8")


def load(path: PathLike):
    """Restore an estimator from a file written by :func:`save`."""
    return loads(Path(path).read_text(encoding="utf-8"))
