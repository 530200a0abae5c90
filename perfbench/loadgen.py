"""Open-loop load generator: one process, one asyncio loop, binary frames.

Usage: ``python3 perfbench/loadgen.py PLAN_JSON``.  The process imports
everything, prints ``ready`` and waits on stdin for ``go <port>``.  Each
connection of the plan then sends requests on a fixed schedule — request
``i`` is due at ``offset + i / rate`` seconds after go — whether or not
earlier answers have arrived (an open loop: a stalled server builds a
queue instead of slowing the client down).  Writes never block the
schedule; the socket buffers absorb the backlog.  On the stdin line
``stop`` the schedule ends: requests due before it but not yet sent are
counted as unsent, answers still in flight are awaited (bounded), and one
JSON line with every request's due, send and receive time is printed.

Only the small JSON header of each answer is parsed (to check ``ok`` and
the request id); array payloads are skipped so that reading a large answer
cannot make the generator late.
"""

from __future__ import annotations

import asyncio
import collections
import json
import struct
import sys
import threading
import time

import numpy as np

from repro.service import frames

#: How long in-flight answers may take after the schedule stops.
DRAIN_TIMEOUT_S = 60.0

#: Request ids are ``(connection + 1) * ID_STRIDE + sequence``: unique per run
#: and disjoint from the small ids of the final gate queries.
ID_STRIDE = 1_000_000_000

_now = time.perf_counter


def _request(op: list, request_id: int, id_sets: list[np.ndarray], seq: int) -> bytes:
    name, arg = op
    if name == "batch_spread":
        users = id_sets[seq % len(id_sets)][:arg]
        message = {"id": request_id, "op": name, "users": users}
        return frames.encode_frame(message, ((("users",), "ids"),))
    message = {"id": request_id, "op": name}
    if name == "topk":
        message["k"] = arg
    return frames.encode_frame(message)


class Connection:
    """One connection's schedule, sender and in-order receiver."""

    def __init__(self, index: int, spec: dict, id_sets, records: list) -> None:
        self.index = index
        self.rate = float(spec["rate"])
        self.offset = float(spec["offset"])
        self.cycle = spec["cycle"]
        self.id_sets = id_sets
        self.records = records
        self.sent = 0
        self.pending: collections.deque[list] = collections.deque()
        self.drained = asyncio.Event()
        self.drained.set()
        self.closed = False

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)
        hello = {"id": 0, "op": frames.HELLO_OP, "transports": [frames.TRANSPORT_BINARY]}
        self.writer.write(json.dumps(hello).encode("utf-8") + b"\n")
        reply = json.loads(await self.reader.readline())
        if (reply.get("result") or {}).get("transport") != frames.TRANSPORT_BINARY:
            raise ConnectionError(f"binary transport refused: {reply!r}")

    def due(self, seq: int, start: float) -> float:
        return start + self.offset + seq / self.rate

    async def send_loop(self, start: float, stop: dict) -> None:
        seq = 0
        while not self.closed:
            due = self.due(seq, start)
            if stop["at"] is not None and due >= stop["at"]:
                return
            delay = due - _now()
            if delay > 0:
                await asyncio.sleep(delay)
                if stop["at"] is not None and due >= stop["at"]:
                    return
            op = self.cycle[seq % len(self.cycle)]
            request_id = (self.index + 1) * ID_STRIDE + seq
            payload = _request(op, request_id, self.id_sets, seq)
            # [connection, id, op, due, send, receive, ok]
            record = [self.index, request_id, op[0], due - start, _now() - start, None, False]
            self.records.append(record)
            self.pending.append(record)
            self.drained.clear()
            self.writer.write(payload)
            self.sent += 1
            seq += 1

    async def receive_loop(self, start: float) -> None:
        try:
            while True:
                header = await self.reader.readexactly(frames.FRAME_HEADER_BYTES)
                payload = await self.reader.readexactly(frames.parse_frame_header(header))
                received = _now() - start
                record = self.pending.popleft()
                (header_len,) = struct.unpack_from("<I", payload, 0)
                message = json.loads(payload[4 : 4 + header_len])["msg"]
                record[5] = received
                record[6] = bool(message.get("ok")) and message.get("id") == record[1]
                if not self.pending:
                    self.drained.set()
        except (asyncio.IncompleteReadError, ConnectionError, IndexError):
            # Lost connection: everything still pending counts as failed.
            self.closed = True
            self.pending.clear()
            self.drained.set()

    def unsent(self, start: float, stop_at: float) -> int:
        """Requests due before the stop that the schedule never sent."""
        due_count = 0
        if stop_at > start + self.offset:
            due_count = int((stop_at - start - self.offset) * self.rate) + 1
            if self.due(due_count - 1, start) >= stop_at:
                due_count -= 1
        return max(0, due_count - self.sent)


async def run(plan: dict, port: int, stop: dict, stopped: asyncio.Event) -> dict:
    id_sets = list(np.load(plan["id_sets"]).values())
    records: list = []
    connections = [
        Connection(index, spec, id_sets, records)
        for index, spec in enumerate(plan["connections"])
    ]
    for connection in connections:
        await connection.open(plan["host"], port)
    start = _now()
    receivers = [asyncio.ensure_future(c.receive_loop(start)) for c in connections]
    senders = [asyncio.ensure_future(c.send_loop(start, stop)) for c in connections]
    await stopped.wait()
    await asyncio.gather(*senders)
    try:
        await asyncio.wait_for(
            asyncio.gather(*(c.drained.wait() for c in connections)), DRAIN_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        pass  # answers still missing count as failed
    for connection in connections:
        connection.writer.close()
    for receiver in receivers:
        receiver.cancel()
    await asyncio.gather(*receivers, return_exceptions=True)
    return {
        "records": records,
        "unsent": sum(c.unsent(start, stop["at"]) for c in connections),
    }


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    print("ready", flush=True)
    words = sys.stdin.readline().split()
    if len(words) != 2 or words[0] != "go":
        return 2
    port = int(words[1])
    stop: dict = {"at": None}

    async def main_async() -> dict:
        loop = asyncio.get_running_loop()
        stopped = asyncio.Event()

        def wait_for_stop() -> None:
            sys.stdin.readline()  # "stop" or EOF: either ends the schedule
            at = _now()

            def mark() -> None:
                stop["at"] = at
                stopped.set()

            loop.call_soon_threadsafe(mark)

        threading.Thread(target=wait_for_stop, daemon=True).start()
        return await run(plan, port, stop, stopped)

    result = asyncio.run(main_async())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
