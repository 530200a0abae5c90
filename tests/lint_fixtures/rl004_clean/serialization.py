# dest: src/repro/core/serialization.py
"""RL004 clean: the codec table carries the registry's 'Ghost' entry."""

_ACCEPTED_VERSIONS = frozenset({1, 2, 3})

_METHOD_STATE_CODECS = {"Ghost": (None, None)}
