# dest: src/repro/analysis/example.py
"""RL003 firing: @hot_path-marked functions looping per element.

The marker extends the rule beyond the hot modules: this file lives
outside them, and still gets checked because of the decorator.  One loop
walks a parameter; the other walks an array's elements through
``.tolist()``, the shape a per-event attribution loop takes.
"""

from repro.engine import hot_path


@hot_path
def total(values):
    acc = 0.0
    for value in values:
        acc += value
    return acc


@hot_path
def attribute(estimates, users, codes, increments):
    for code, increment in zip(codes.tolist(), increments.tolist()):
        estimates[users[code]] += increment
