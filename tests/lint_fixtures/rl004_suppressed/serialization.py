# dest: src/repro/core/serialization.py
"""RL004 suppressed: the codec table does not know 'Ghost' (on purpose)."""

_ACCEPTED_VERSIONS = frozenset({1, 2, 3})

_METHOD_STATE_CODECS = {"Other": (None, None)}
