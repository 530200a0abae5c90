"""The shipped checker set, one module per rule."""

from repro.lint.base import Checker
from repro.lint.checkers.async_blocking import AsyncBlockingChecker
from repro.lint.checkers.async_cancel import AsyncCancelChecker
from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.checkers.hotpath import HotPathChecker
from repro.lint.checkers.locks import LockDisciplineChecker
from repro.lint.checkers.metrics_drift import MetricsDriftChecker
from repro.lint.checkers.registry_sync import RegistrySyncChecker


def all_checkers() -> list[Checker]:
    """Fresh instances of every shipped checker, in rule-id order."""
    return [
        LockDisciplineChecker(),
        AsyncBlockingChecker(),
        HotPathChecker(),
        RegistrySyncChecker(),
        DeterminismChecker(),
        MetricsDriftChecker(),
        AsyncCancelChecker(),
    ]
