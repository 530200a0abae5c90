# dest: src/repro/core/serialization.py
"""RL004 firing: the codec table misses the registry's 'Ghost' entry."""

_ACCEPTED_VERSIONS = frozenset({1, 2, 3})

_METHOD_STATE_CODECS = {"Other": (None, None)}
