"""Served-path benchmark: one command, every metric by name with its unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload additive_ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on the unmodified
``repro.cli serve``; ``--trace 1`` runs traced and untraced servers in
interleaved pairs and reports the per-layer metrics.  Human-readable lines
go first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads, the metric catalog and the layer mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: A run whose load generator sent later than this (p99) is invalid.
LATE_LIMIT_MS = 25.0
#: Upper bound on any single wait for the server (launch, ingest, answers).
SERVER_TIMEOUT_S = 150.0
#: How long a stopped server may take to exit before it is killed.
STOP_TIMEOUT_S = 30.0
#: Traced-mode run order: (untraced, traced), (traced, untraced).
TRACE_ORDER = (False, True, True, False)
#: Traced mode runs four servers, so its stream is this share of the
#: untraced one (per-layer metrics are per pair or per call).
TRACE_STREAM_SHARE = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_pairs_per_s": "pairs/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "served_rse": "ratio",
}

PER_LAYER_UNITS = {
    "engine.encode_us_per_pair": "us",
    "sketch.update_us_per_pair": "us",
    "window.ingest_self_us_per_pair": "us",
    "spreader.observe_self_us_per_pair": "us",
    "topk.apply_updates_us": "us",
    "merge.sliding_ms_per_call": "ms",
    "merge.merge_into_ms": "ms",
    "merge.refresh_ms": "ms",
    "topk.full_refresh_ms": "ms",
    "spreader.evaluate_full_ms": "ms",
    "window.rotations": "count",
    "merge.sliding_calls": "count",
    "spreader.incremental_share": "ratio",
    "view.export_us_per_publish": "us",
    "handle.batch_ms_p50": "ms",
    "handle.batch_ms_p99": "ms",
    "handle.gap_ms_per_batch": "ms",
    "snapshot.save_ms_per_call": "ms",
    "snapshot.bytes_per_save": "bytes",
    "snapshot.saves": "count",
    "state.bytes_per_user": "bytes",
    "service.batch_spread_us": "us",
    "service.topk_us": "us",
    "service.sliding_ms": "ms",
    "service.response_bytes_per_op": "bytes",
    "frames.encode_us_per_frame": "us",
    "frames.decode_us_per_frame": "us",
    "client.wire_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.unsent": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "telemetry.batch_seconds_ratio": "ratio",
    "telemetry.request_seconds_ratio": "ratio",
    "telemetry.count_mismatches": "count",
}


def log(message: str) -> None:
    print(f"# {message}", flush=True)


class Server:
    """One ``serve`` process and the JSONL records it announces on stdout."""

    def __init__(self, command: list[str], env: dict, stderr_path: Path) -> None:
        self.launched = time.perf_counter()
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=ROOT, env=env
            )
        self.events: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            if line.startswith("{"):
                self.events.put((time.perf_counter(), json.loads(line)))
        self.events.put((time.perf_counter(), None))

    def wait_for(self, *types: str) -> tuple[float, dict]:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        while True:
            try:
                at, record = self.events.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"server did not announce {types} in time") from None
            if record is None:
                raise RuntimeError(f"server exited before announcing {types}")
            if record.get("type") in types:
                return at, record

    def stop(self) -> None:
        """SIGTERM: the traced entry point writes its spans and exits."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=10)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(timeout=10)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")


@dataclass
class ServedRun:
    traced: bool
    #: perf_counter at launch, at the ``serving`` announce and at the
    #: ``ingest-finished`` announce.
    launched: float
    serving_at: float
    finished_at: float
    records: list
    unsent: int
    peak_rss_mb: float
    served: object  # gate.Expected
    metrics: list
    load_end: float
    spans: list | None = None
    ingest_error: str | None = None

    @property
    def ingest_s(self) -> float:
        return self.finished_at - self.serving_at


class Bench:
    """Everything one benchmark invocation shares between its server runs."""

    def __init__(self, workload, seed: int, seconds: float, scale: float, work: Path) -> None:
        import numpy as np

        import workloads as wl
        from repro.streams.io import write_edge_file

        self.workload = workload
        self.work = work
        self.inputs = wl.make_inputs(workload, seed, seconds, scale)
        self.edge_path = work / "edges.tsv"
        write_edge_file(self.edge_path, self.inputs.pairs)
        ids_path = work / "ids.npz"
        np.savez(ids_path, *self.inputs.id_sets)
        self.plan_path = work / "plan.json"
        self.plan_path.write_text(
            json.dumps(
                {
                    "host": "127.0.0.1",
                    "id_sets": str(ids_path),
                    "connections": [
                        {"rate": c.rate, "offset": c.offset, "cycle": [list(op) for op in c.cycle]}
                        for c in workload.connections
                    ],
                }
            ),
            encoding="utf-8",
        )
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launches = 0

    def server_command(self, spans_path: Path | None) -> list[str]:
        import workloads as wl

        self.launches += 1
        args = [
            str(self.edge_path),
            "--method", self.workload.method,
            "--memory-bits", str(wl.MEMORY_BITS),
            "--seed", str(wl.SKETCH_SEED),
            "--epoch-pairs", str(self.inputs.epoch_pairs),
            "--window", str(wl.WINDOW_EPOCHS),
            "--top-k", str(wl.TOP_K),
            "--batch-size", str(self.inputs.batch_size),
            "--refresh-every", "1",
        ]  # fmt: skip
        if self.workload.snapshot_every:
            snapshots = self.work / f"snapshots-{self.launches}"
            every = str(self.workload.snapshot_every)
            args += ["--snapshot-dir", str(snapshots), "--snapshot-every", every]
        if spans_path is None:
            return [sys.executable, "-m", "repro.cli", "serve", *args]
        return [sys.executable, str(HERE / "serve_traced.py"), str(spans_path), *args]

    def launch(self, spans_path: Path | None = None) -> Server:
        command = self.server_command(spans_path)
        return Server(command, self.env, self.work / f"server-{self.launches}.err")

    def setup_only(self) -> tuple[float, float]:
        """Launch a server, wait for ``serving``, kill it; return both times."""
        server = self.launch()
        try:
            at, _ = server.wait_for("serving")
            return server.launched, at
        finally:
            server.kill()

    def served_run(self, traced: bool) -> ServedRun:
        import numpy as np

        import gate
        import workloads as wl
        from repro.service import ServiceClient

        loadgen = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py"), str(self.plan_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=self.env,
        )
        spans_path = self.work / f"spans-{self.launches + 1}.json" if traced else None
        server = None
        try:
            if loadgen.stdout.readline().strip() != "ready":
                raise RuntimeError("load generator failed to start")
            server = self.launch(spans_path)
            serving_at, serving = server.wait_for("serving")
            loadgen.stdin.write(f"go {serving['port']}\n")
            loadgen.stdin.flush()
            finished_at, finished = server.wait_for("ingest-finished", "ingest-failed")
            loadgen.stdin.write("stop\n")
            loadgen.stdin.flush()
            peak_rss = server.peak_rss_mb()
            load = json.loads(loadgen.stdout.readline())
            loadgen.wait(timeout=SERVER_TIMEOUT_S)
            load_end = time.perf_counter()
            with ServiceClient(
                port=serving["port"], timeout=SERVER_TIMEOUT_S, transport="binary"
            ) as client:
                served = gate.Expected(
                    batch_spread=client.batch_spread(np.asarray(self.inputs.users)),
                    topk=client.topk(wl.TOP_K),
                    sliding=client.sliding(),
                )
                metrics = client.metrics()
        finally:
            if loadgen.poll() is None:
                loadgen.kill()
            loadgen.wait()
            if server is not None:
                server.stop()
        spans = None
        if traced:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        return ServedRun(
            traced=traced,
            launched=server.launched,
            serving_at=serving_at,
            finished_at=finished_at,
            records=load["records"],
            unsent=load["unsent"],
            peak_rss_mb=peak_rss,
            served=served,
            metrics=metrics,
            load_end=load_end,
            spans=spans,
            ingest_error=finished.get("error"),
        )


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _latencies_ms(records: list, ops: tuple[str, ...]) -> list[float]:
    return [(r[5] - r[3]) * 1e3 for r in records if r[2] in ops and r[6]]


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    tamper=None,
) -> dict:
    """Run one benchmark invocation; return the result object.

    ``tamper`` (tests only) receives each served gate answer and returns
    the answer the gate should judge.
    """
    import gate
    import workloads as wl

    workload = wl.WORKLOADS[workload_name]
    work = HERE / "_work" / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    began = time.perf_counter()

    def phase(name: str) -> None:
        log(f"{name} done at {time.perf_counter() - began:.1f} s")

    try:
        stream_seconds = seconds * TRACE_STREAM_SHARE if trace else seconds
        bench = Bench(workload, seed, stream_seconds, scale, work)
        pairs = len(bench.inputs.pairs)
        log(f"{workload.name}: {workload.method}, {pairs} pairs, {bench.inputs.users.size} users")
        phase("inputs")
        runs: list[ServedRun] = []
        if trace:
            for traced in TRACE_ORDER:
                runs.append(bench.served_run(traced))
                phase("traced run" if traced else "untraced run")
        else:
            with SpeedProbe() as probe:
                windows = [bench.setup_only() for _ in range(SETUP_LAUNCHES - 1)]
                phase("set-up launches")
                runs.append(bench.served_run(False))
            windows.append((runs[-1].launched, runs[-1].serving_at))
            # (seconds, slowdown) per set-up launch.
            setups = [(end - start, probe.slowdown(start, end)) for start, end in windows]
            slowdown = probe.slowdown(runs[-1].serving_at, runs[-1].finished_at)
            phase(f"served run (ingest {runs[-1].ingest_s:.1f} s, slowdown {slowdown:.3f})")
        expected = gate.replay(workload, bench.inputs)
        phase("replay")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems: list[str] = []
    attempted = failed = 0
    late_ms: list[float] = []
    for index, run in enumerate(runs):
        served = run.served if tamper is None else tamper(run.served)
        bad = gate.mismatches(served, expected)
        problems += [f"run {index}: served {name} differs from the replay" for name in bad]
        if run.ingest_error:
            problems.append(f"run {index}: ingest failed: {run.ingest_error}")
        requests_failed = sum(1 for r in run.records if not r[6])
        attempted += len(run.records) + run.unsent + 3
        failed += requests_failed + run.unsent + len(bad)
        run_late = [(r[4] - r[3]) * 1e3 for r in run.records]
        late_ms += run_late
        if run.unsent or _percentile(run_late, 99) > LATE_LIMIT_MS:
            problems.append(
                f"run {index}: load generator fell behind "
                f"(late p99 {_percentile(run_late, 99):.1f} ms, {run.unsent} unsent)"
            )
    log(f"correctness gate: {len(runs)} run(s) checked, {len(problems)} problem(s)")

    if trace:
        import layers

        traced = [
            {"spans": layers.Spans(r.spans, r.load_end), "metrics": r.metrics, "records": r.records}
            for r in runs
            if r.traced
        ]
        values, cross_check = layers.layer_metrics(traced)
        problems += [f"telemetry cross-check: {problem}" for problem in cross_check]
        untraced = [r.ingest_s for r in runs if not r.traced]
        traced_s = [r.ingest_s for r in runs if r.traced]
        # TRACE_ORDER pairs each traced run with the untraced run beside it.
        ratios = [t / u - 1.0 for t, u in zip(traced_s, untraced)]
        values["trace.overhead_frac"] = statistics.median(ratios)
        values["loadgen.late_p99_ms"] = _percentile(late_ms, 99)
        values["loadgen.unsent"] = float(sum(r.unsent for r in runs))
        units = PER_LAYER_UNITS
    else:
        run = runs[0]
        reads = _latencies_ms(run.records, ("batch_spread", "topk"))
        slidings = sum(1 for r in run.records if r[2] == "sliding")
        log(f"samples: {len(reads)} reads, {slidings} sliding")
        log("set-up s, slowdown: " + ", ".join(f"{s:.3f} {d:.3f}" for s, d in setups))
        ingest = pairs / run.ingest_s
        read_p50 = _percentile(reads, 50)
        log(f"unscaled: ingest_pairs_per_s {ingest:.6g}, read_p50_ms {read_p50:.6g}")
        # At reference speed (probe.py): rates times the slowdown, times
        # divided by it.  read_p99_ms stays as measured: scaling it widened
        # its run-to-run spread on both workloads (README.md).
        values = {
            "setup_s": statistics.median(s / d for s, d in setups),
            "ingest_pairs_per_s": ingest * slowdown,
            "read_p50_ms": read_p50 / slowdown,
            "read_p99_ms": _percentile(reads, 99),
            "peak_rss_mb": run.peak_rss_mb,
            "served_rse": gate.served_rse(bench.inputs, run.served.batch_spread),
        }
        units = END_TO_END_UNITS
    for problem in problems:
        log(f"PROBLEM {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink the stream and epochs (tests)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so the finally blocks stop the
    # server and load generator and delete the work directory.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        known = ", ".join(wl.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    for name, metric in result["metrics"].items():
        log(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
