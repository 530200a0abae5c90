"""RL005 — determinism: sketch state is a pure function of the stream.

The repository's strongest contract is bit-identity: batch == scalar,
sharded == plain, snapshot-restored == live, binary transport == NDJSON —
all asserted by the test suite, all void the moment sketch/engine/state
code reads a wall clock or an unseeded RNG.  This rule bans, inside
``sketches/``, ``engine/``, ``state/``, ``core/`` and ``hashing/``:

* module-global :mod:`random` calls (``random.random()``, ``shuffle`` ...)
  and unseeded ``random.Random()`` — seedable instances threaded through
  constructors are fine;
* the legacy global numpy RNG (``np.random.rand``, ``np.random.seed`` ...)
  and unseeded ``np.random.default_rng()`` — pass an explicit seed;
* wall-clock reads: ``time.time`` / ``time.time_ns`` /
  ``datetime.now`` / ``utcnow`` / ``today`` — timestamps are *inputs*,
  carried by the stream, never sampled by the estimator.

``time.perf_counter`` stays allowed: it feeds telemetry spans, never
estimator state.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import call_origin
from repro.lint.base import Checker, FileContext
from repro.lint.findings import Finding

_WALL_CLOCK = {
    "time.time": "take the timestamp from the stream instead",
    "time.time_ns": "take the timestamp from the stream instead",
    "datetime.datetime.now": "take the timestamp from the stream instead",
    "datetime.datetime.utcnow": "take the timestamp from the stream instead",
    "datetime.datetime.today": "take the timestamp from the stream instead",
    "datetime.date.today": "take the timestamp from the stream instead",
}

#: np.random attributes that are *not* the legacy global-state API.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}


class DeterminismChecker(Checker):
    rule = "RL005"
    title = (
        "sketch/engine/state code never reads wall clocks or unseeded "
        "RNGs (bit-identity contract)"
    )
    scope = (
        "src/repro/sketches/*.py",
        "src/repro/engine/*.py",
        "src/repro/state/*.py",
        "src/repro/core/*.py",
        "src/repro/hashing/*.py",
    )

    def check(self, context: FileContext) -> list[Finding]:
        aliases = context.import_aliases()
        findings: list[Finding] = []
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                self._check_call(context, aliases, node, findings)
        return findings

    def _check_call(
        self,
        context: FileContext,
        aliases: dict[str, str],
        call: ast.Call,
        findings: list[Finding],
    ) -> None:
        origin = call_origin(call.func, aliases)
        if origin is None:
            return
        if origin in _WALL_CLOCK:
            findings.append(
                self._finding(context, call, f"reads the wall clock via `{origin}`",
                              _WALL_CLOCK[origin])
            )
            return
        parts = origin.split(".")
        # Legacy numpy global RNG: numpy.random.<anything not Generator-API>.
        if len(parts) >= 3 and parts[0] == "numpy" and parts[1] == "random":
            attr = parts[2]
            if attr == "default_rng":
                if not call.args and not call.keywords:
                    findings.append(
                        self._finding(
                            context, call, "creates an unseeded `np.random.default_rng()`",
                            "pass an explicit seed derived from the estimator's seed",
                        )
                    )
            elif attr not in _NP_RANDOM_OK:
                findings.append(
                    self._finding(
                        context, call, f"uses the legacy global numpy RNG `np.random.{attr}`",
                        "use a seeded `np.random.default_rng(seed)` generator",
                    )
                )
            return
        # Module-global stdlib random: random.<fn>() mutates hidden state.
        if len(parts) == 2 and parts[0] == "random":
            if parts[1] == "Random":
                if not call.args and not call.keywords:
                    findings.append(
                        self._finding(
                            context, call, "creates an unseeded `random.Random()`",
                            "seed it from the estimator's seed",
                        )
                    )
            else:
                findings.append(
                    self._finding(
                        context, call, f"calls module-global `random.{parts[1]}`",
                        "use a seeded `random.Random(seed)` instance",
                    )
                )

    def _finding(self, context: FileContext, node: ast.Call, what: str, hint: str) -> Finding:
        return Finding(
            path=context.rel,
            line=node.lineno,
            col=node.col_offset,
            rule=self.rule,
            message=f"determinism: {what}",
            hint=hint,
        )
