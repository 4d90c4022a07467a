"""Closed-loop HTTP load generator, run as its own process.

    python loadgen.py SPEC.json OUT.json

It never imports ``repro``: requests are built from ``workloads`` and
plain data in the spec, and responses are framed by hand, so a change
to the program's own client cannot change the load.  One thread drives
every keep-alive connection through a selector; each connection sends
its next request only after the previous response has fully arrived.

Spec keys: ``host``, ``port``, ``workload`` (``hot``/``sweep``),
``seed``, ``connections``, ``seconds``, ``warmup_s``, ``pairs``,
``trace_end_s``, ``traced`` and ``keep_all``.  The first ``warmup_s``
are not timed.  The output holds the timed window's op count, failures,
wall and CPU time, per-op latencies, and the response bodies kept for
the correctness check (every body when ``keep_all``).  A server that
hangs, closes a connection or garbles a response ends the load: the
requests in flight count as failed and the output says why.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

_HEADER_END = b"\r\n\r\n"
#: A response slower than this counts as a hang.
RESPONSE_TIMEOUT_S = 60.0
SWEEP_CHECK_EVERY = 8


class _Conn:
    __slots__ = ("sock", "buf", "sent_at", "op", "key", "timed", "busy")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.sent_at = 0.0
        self.op = -1
        self.key = None
        self.timed = False
        self.busy = False


def _complete(buf: bytearray):
    """``(status, body_bytes, consumed)`` once a full response is buffered."""
    end = buf.find(_HEADER_END)
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = end + len(_HEADER_END) + length
    if len(buf) < total:
        return None
    status = int(head[0].split(" ", 2)[1])
    return status, bytes(buf[end + len(_HEADER_END):total]), total


class _Requests:
    """The workload's request stream: ``next() -> (key, path, body)``."""

    def __init__(self, spec: dict) -> None:
        self.workload = spec["workload"]
        seed = spec["seed"]
        if self.workload == "hot":
            self.path = "/v1/forecast"
            self.bodies = workloads.hot_bodies(spec["pairs"])
            self.order = workloads.hot_order(seed, len(self.bodies))
            self.cursor = 0
        elif self.workload == "sweep":
            self.path = "/v1/forecast/batch"
            self.batches = workloads.sweep_batches(seed, spec["pairs"],
                                                   spec["trace_end_s"])
        else:
            raise ValueError(f"unknown workload {self.workload!r}")

    def keep(self, op: int, timed: bool) -> bool:
        """Whether this answer goes to the correctness check.

        ``hot`` keeps the latest answer for every pair; ``sweep`` keeps
        every ``SWEEP_CHECK_EVERY``-th batch, a seeded sample because the
        batches themselves are seeded.
        """
        return self.workload == "hot" or (timed and op % SWEEP_CHECK_EVERY == 0)

    def next(self):
        if self.workload == "hot":
            index = self.order[self.cursor % len(self.order)]
            self.cursor += 1
            return index, self.path, self.bodies[index]
        now, items = next(self.batches)
        return (now, items), self.path, workloads.sweep_body(now, items)


def run(spec: dict) -> dict:
    host, port = spec["host"], int(spec["port"])
    traced = bool(spec.get("traced"))
    keep_all = bool(spec.get("keep_all"))
    requests = _Requests(spec)
    sel = selectors.DefaultSelector()
    conns = []
    for _ in range(int(spec["connections"])):
        sock = socket.create_connection((host, port), timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock)
        conns.append(conn)
        sel.register(sock, selectors.EVENT_READ, conn)

    latencies: list[float] = []
    kept: dict = {}
    kept_all: list = []
    failed = 0
    errors: list[str] = []
    state = {"op": 0, "phase": "warm", "deadline": 0.0}

    def send(conn: _Conn) -> bool:
        if state["phase"] == "drain":
            return False
        key, path, body = requests.next()
        timed = state["phase"] == "timed"
        head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        if traced and timed:
            head += f"X-Repro-Trace: pb{spec['seed']}-{state['op']}\r\n"
        conn.key, conn.timed, conn.op = key, timed, state["op"]
        conn.busy = True
        if timed:
            state["op"] += 1
        conn.sent_at = time.perf_counter()
        conn.sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        return True

    active = in_flight = 0
    t0 = cpu0 = 0.0
    last_done = 0.0
    try:
        for conn in conns:
            active += send(conn)
        warm_until = time.perf_counter() + float(spec["warmup_s"])
        seconds = float(spec["seconds"])
        while active:
            events = sel.select(timeout=RESPONSE_TIMEOUT_S)
            if not events:
                raise TimeoutError(f"no response within {RESPONSE_TIMEOUT_S} s")
            for sel_key, _ in events:
                conn = sel_key.data
                chunk = conn.sock.recv(262144)
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.buf += chunk
                done = _complete(conn.buf)
                if done is None:
                    continue
                finished = time.perf_counter()
                status, body, consumed = done
                del conn.buf[:consumed]
                conn.busy = False
                active -= 1
                if conn.timed:
                    latencies.append((finished - conn.sent_at) * 1000.0)
                    last_done = finished
                    if status != 200:
                        failed += 1
                        if len(errors) < 5:
                            errors.append(f"HTTP {status}: {body[:200]!r}")
                    if keep_all:
                        kept_all.append(body.decode())
                if status == 200 and requests.keep(conn.op, conn.timed):
                    kept[conn.key if requests.workload == "hot"
                         else conn.op] = (conn.key, body)
                now = time.perf_counter()
                if state["phase"] == "warm" and now >= warm_until:
                    state["phase"] = "timed"
                    t0, cpu0 = now, time.process_time()
                    state["deadline"] = now + seconds
                elif state["phase"] == "timed" and now >= state["deadline"]:
                    state["phase"] = "drain"
                active += send(conn)
    except (OSError, ValueError, IndexError) as exc:
        # a server that hangs, closes or garbles a response fails the
        # requests in flight; the run reports them instead of crashing
        in_flight = sum(conn.busy for conn in conns)
        failed += in_flight
        errors.append(f"load stopped with {in_flight} request(s) in flight: "
                      f"{type(exc).__name__}: {exc}")
        last_done = last_done or time.perf_counter()
        t0 = t0 or last_done
    cpu_s = time.process_time() - cpu0
    for conn in conns:
        sel.unregister(conn.sock)
        conn.sock.close()
    sel.close()
    return {
        "ops": len(latencies),
        "attempted": len(latencies) + in_flight,
        "failed": failed,
        "errors": errors,
        "wall_s": last_done - t0,
        "cpu_s": cpu_s,
        "latencies_ms": latencies,
        "kept": [[key, body.decode()] for key, body in kept.values()],
        "kept_all": kept_all,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[1]).read_text())
    result = run(spec)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
