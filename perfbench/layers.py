"""Per-layer metrics from the traced runs' spans, and the telemetry cross-check.

A span's self time is its duration minus the durations of its direct
children.  Ingest-side figures come from the ingest thread; read-side
figures from the spans recorded while the load generator ran (before the
gate's final queries).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import INGEST_THREAD

ID, PARENT, NAME, START, END, THREAD, ATTRS = range(7)

#: Ingest-thread spans with no parent: together they account for the
#: thread's time between handle start and the last batch.
_INGEST_ROOTS = ("handle.batch", "handle.lock_wait")


class Spans:
    """One traced run's spans and their self times."""

    def __init__(self, spans: list, load_end: float) -> None:
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self.spans = spans
        self.self_time = {
            span[ID]: span[END] - span[START] - child_time[span[ID]] for span in spans
        }
        self.load_end = load_end

    def named(self, name: str, ingest: bool | None = None, load: bool = False) -> list:
        """Spans called ``name``; ``ingest`` filters by thread, ``load`` keeps
        only those that started while the load generator ran."""
        return [
            span
            for span in self.spans
            if span[NAME] == name
            and (ingest is None or (span[THREAD] == INGEST_THREAD) == ingest)
            and (not load or span[START] < self.load_end)
        ]

    def total_self(self, spans: list) -> float:
        return sum(self.self_time[span[ID]] for span in spans)


def _duration(span) -> float:
    return span[END] - span[START]


def _mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _ops(spans: Spans, op: str, load: bool = True) -> list:
    return [
        span
        for span in spans.named("service.handle", load=load)
        if span[ATTRS]["op"] == op
    ]


def _metric_values(metrics: list[dict], name: str, **labels: str) -> list[dict]:
    return [
        entry
        for entry in metrics
        if entry["name"] == name
        and all(entry["labels"].get(key) == value for key, value in labels.items())
    ]


def telemetry_check(spans: Spans, metrics: list[dict]) -> tuple[list[str], float, float]:
    """Compare the ``metrics`` op's counts with the span counts.

    Only spans that ended before the final ``metrics`` request started can
    be in its answer.  Returns (mismatch descriptions, batch-time ratio,
    request-time ratio).
    """
    cutoff = max(span[START] for span in _ops(spans, "metrics", load=False))
    seen = [span for span in spans.spans if span[END] < cutoff]
    counts: dict[str, int] = defaultdict(int)
    for span in seen:
        counts[span[NAME]] += 1
    observes = {span[ID] for span in seen if span[NAME] == "spreader.observe"}
    full_in_observe = sum(
        1
        for span in seen
        if span[NAME] == "spreader.evaluate_full" and span[PARENT] in observes
    )
    ingest_batches = [
        span
        for span in seen
        if span[NAME] == "handle.batch" and span[THREAD] == INGEST_THREAD
    ]
    handled: dict[str, int] = defaultdict(int)
    handle_seconds = 0.0
    for span in seen:
        if span[NAME] == "service.handle":
            handled[span[ATTRS]["op"]] += 1
            handle_seconds += _duration(span)

    def counter(name: str, **labels: str) -> float:
        return sum(entry["value"] for entry in _metric_values(metrics, name, **labels))

    expected = {
        "monitor.rotations": sum(
            span[ATTRS]["closed"] for span in seen if span[NAME] == "window.ingest"
        ),
        "monitor.evaluations{path=full}": counts["spreader.evaluate_full"],
        "monitor.evaluations{path=incremental}": counts["spreader.observe"] - full_in_observe,
        "monitor.snapshot.saves": counts["snapshot.save"],
        "ingest.background.batches": len(ingest_batches),
    }
    reported = {
        "monitor.rotations": counter("monitor.rotations"),
        "monitor.evaluations{path=full}": counter("monitor.evaluations", path="full"),
        "monitor.evaluations{path=incremental}": counter(
            "monitor.evaluations", path="incremental"
        ),
        "monitor.snapshot.saves": counter("monitor.snapshot.saves"),
        "ingest.background.batches": counter("ingest.background.batches"),
    }
    for op in set(handled) | {
        entry["labels"]["op"]
        for entry in _metric_values(metrics, "service.requests")
        if entry["labels"]["op"] != "hello"
    }:
        expected[f"service.requests{{op={op}}}"] = handled[op]
        reported[f"service.requests{{op={op}}}"] = counter("service.requests", op=op)
    problems = [
        f"{name}: spans {expected[name]} != telemetry {reported[name]}"
        for name in expected
        if int(reported[name]) != expected[name]
    ]
    batch_hist = sum(
        entry["sum"] for entry in _metric_values(metrics, "ingest.background.batch_seconds")
    )
    request_hist = sum(
        entry["sum"] for entry in _metric_values(metrics, "service.request_seconds")
    )
    batch_seconds = sum(_duration(span) for span in ingest_batches)
    batch_ratio = batch_seconds / batch_hist if batch_hist else 0.0
    request_ratio = handle_seconds / request_hist if request_hist else 0.0
    return problems, batch_ratio, request_ratio


def ingest_timeline(spans: Spans) -> tuple[float, float, int]:
    """(ingest wall seconds, covered seconds, batches)."""
    start = min(span[START] for span in spans.named("handle.start"))
    batches = spans.named("handle.batch", ingest=True)
    end = max(span[END] for span in batches)
    roots = [
        span
        for name in _INGEST_ROOTS
        for span in spans.named(name, ingest=True)
        if span[PARENT] < 0 and span[END] <= end
    ]
    return end - start, sum(_duration(span) for span in roots), len(batches)


def layer_metrics(traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics pooled over the traced runs, plus cross-check problems.

    Each element of ``traced`` has ``spans`` (a :class:`Spans`), ``metrics``
    (the final ``metrics`` op answer) and ``records`` (the load generator's
    per-request records).
    """
    runs = len(traced)
    pooled: dict[str, list] = defaultdict(list)
    pairs = 0
    self_totals: dict[str, float] = defaultdict(float)
    incremental = observes = 0
    gaps, coverage, batch_ratios, request_ratios, wire = [], [], [], [], []
    problems: list[str] = []
    for run in traced:
        spans: Spans = run["spans"]
        for name in ("engine.encode", "sketch.update", "window.ingest", "spreader.observe"):
            self_totals[name] += spans.total_self(spans.named(name, ingest=True))
        run_observes = spans.named("spreader.observe", ingest=True)
        pairs += sum(span[ATTRS]["pairs"] for span in run_observes)
        observe_ids = {span[ID] for span in run_observes}
        observes += len(run_observes)
        incremental += len(run_observes) - sum(
            1 for span in spans.named("spreader.evaluate_full") if span[PARENT] in observe_ids
        )
        for name in ("topk.apply_updates", "topk.full_refresh", "spreader.evaluate_full"):
            pooled[name + ":self"].extend(spans.self_time[s[ID]] for s in spans.named(name))
        for name in ("merge.sliding", "merge.merge_into", "merge.refresh", "view.export"):
            pooled[name].extend(_duration(s) for s in spans.named(name))
        saves = spans.named("snapshot.save")
        pooled["snapshot.save"].extend(_duration(s) for s in saves)
        pooled["snapshot.bytes"].extend(s[ATTRS]["bytes"] for s in saves)
        pooled["window.closed"].extend(s[ATTRS]["closed"] for s in spans.named("window.ingest"))
        batch_times = [_duration(s) for s in spans.named("handle.batch", ingest=True)]
        pooled["handle.batch"].extend(batch_times)
        for op in ("batch_spread", "topk", "sliding"):
            pooled["service." + op].extend(spans.self_time[s[ID]] for s in _ops(spans, op))
        encodes = spans.named("frames.encode", load=True)
        pooled["frames.encode"].extend(_duration(s) for s in encodes)
        pooled["frames.bytes"].extend(s[ATTRS]["bytes"] for s in encodes)
        pooled["frames.decode"].extend(
            _duration(s) for s in spans.named("frames.decode", load=True)
        )
        wall, covered, batches = ingest_timeline(spans)
        gaps.append((wall - sum(batch_times)) / max(1, batches))
        coverage.append(covered / wall)
        handle_by_id = {
            s[ATTRS]["id"]: _duration(s) for s in spans.named("service.handle", load=True)
        }
        wire.extend(
            (record[5] - record[4]) - handle_by_id[record[1]]
            for record in run["records"]
            if record[6] and record[1] in handle_by_id
        )
        run_problems, batch_ratio, request_ratio = telemetry_check(spans, run["metrics"])
        problems.extend(run_problems)
        batch_ratios.append(batch_ratio)
        request_ratios.append(request_ratio)
    final = traced[-1]["metrics"]
    arena_bytes = sum(e["value"] for e in _metric_values(final, "state.arena.bytes"))
    arena_users = sum(e["value"] for e in _metric_values(final, "state.arena.users"))
    per_pair = 1e6 / max(1, pairs)
    batch_ms = np.asarray(pooled["handle.batch"]) * 1e3
    metrics = {
        "engine.encode_us_per_pair": self_totals["engine.encode"] * per_pair,
        "sketch.update_us_per_pair": self_totals["sketch.update"] * per_pair,
        "window.ingest_self_us_per_pair": self_totals["window.ingest"] * per_pair,
        "spreader.observe_self_us_per_pair": self_totals["spreader.observe"] * per_pair,
        "topk.apply_updates_us": _mean(pooled["topk.apply_updates:self"]) * 1e6,
        "merge.sliding_ms_per_call": _mean(pooled["merge.sliding"]) * 1e3,
        "merge.merge_into_ms": _mean(pooled["merge.merge_into"]) * 1e3,
        "merge.refresh_ms": _mean(pooled["merge.refresh"]) * 1e3,
        "topk.full_refresh_ms": _mean(pooled["topk.full_refresh:self"]) * 1e3,
        "spreader.evaluate_full_ms": _mean(pooled["spreader.evaluate_full:self"]) * 1e3,
        "window.rotations": sum(pooled["window.closed"]) / runs,
        "merge.sliding_calls": len(pooled["merge.sliding"]) / runs,
        "spreader.incremental_share": incremental / max(1, observes),
        "view.export_us_per_publish": _mean(pooled["view.export"]) * 1e6,
        "handle.batch_ms_p50": float(np.percentile(batch_ms, 50)),
        "handle.batch_ms_p99": float(np.percentile(batch_ms, 99)),
        "handle.gap_ms_per_batch": _mean(gaps) * 1e3,
        "snapshot.save_ms_per_call": _mean(pooled["snapshot.save"]) * 1e3,
        "snapshot.bytes_per_save": _mean(pooled["snapshot.bytes"]),
        "snapshot.saves": len(pooled["snapshot.save"]) / runs,
        # Only the columnar arena (CSE/vHLL) reports state gauges; the
        # dict-backed methods read 0.
        "state.bytes_per_user": arena_bytes / arena_users if arena_users else 0.0,
        "service.batch_spread_us": _mean(pooled["service.batch_spread"]) * 1e6,
        "service.topk_us": _mean(pooled["service.topk"]) * 1e6,
        "service.sliding_ms": _mean(pooled["service.sliding"]) * 1e3,
        "service.response_bytes_per_op": _mean(pooled["frames.bytes"]),
        "frames.encode_us_per_frame": _mean(pooled["frames.encode"]) * 1e6,
        "frames.decode_us_per_frame": _mean(pooled["frames.decode"]) * 1e6,
        "client.wire_ms": float(np.median(wire)) * 1e3 if wire else 0.0,
        "trace.coverage": _mean(coverage),
        "telemetry.batch_seconds_ratio": _mean(batch_ratios),
        "telemetry.request_seconds_ratio": _mean(request_ratios),
        "telemetry.count_mismatches": float(len(problems)),
    }
    return metrics, problems
