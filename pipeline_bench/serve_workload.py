"""The ``serve`` workload: a spawned scheduling daemon under a closed loop.

Set-up spawns ``python -m repro.serve --port 0`` (default options, no disk
cache), compiles the hot set through the library pipeline for reference
fingerprints, and warms the daemon with one request per hot net.  The
measured window then runs one closed loop per persistent connection, each
drawing zipf-distributed hot nets plus a stated share of never-seen ones.
Every response is checked afterwards against a library
``find_all_schedules`` run of the same net.
"""

from __future__ import annotations

import json
import selectors
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.corpus.topologies import build_case
from repro.flowc.linker import link
from repro.petrinet.net import PetriNet
from repro.scheduling.ep import SchedulerOptions, find_all_schedules
from repro.scheduling.serialize import schedule_fingerprint
from repro.serve.protocol import net_to_dict

from metrics import peak_rss_mb, restart_peak_rss
from pipeline import Outcome, compile_system
from tracing import Tracer
from workloads import SystemInput, cold_spec, hot_set_specs, request_plan

#: Client connections, one closed loop each (the host's core count).
CONNECTIONS = 2

#: Seconds a request, the daemon's ready line or its shutdown may take
#: before the benchmark gives up on it.
REQUEST_TIMEOUT = 60.0

#: Seconds per slice of the window when taking the median request rate.
RATE_SLICE = 1.0

Fingerprints = Dict[str, Optional[str]]


def reference_fingerprints(net: PetriNet) -> Fingerprints:
    """Per-source schedule fingerprint of a library run (None: no schedule)."""
    results = find_all_schedules(net, options=SchedulerOptions())
    return {
        source: schedule_fingerprint(result.schedule) if result.success else None
        for source, result in results.items()
    }


def encode_request(net: PetriNet) -> bytes:
    return (json.dumps({"op": "schedule", "net": net_to_dict(net)}) + "\n").encode()


class Daemon:
    """A ``python -m repro.serve`` child process on a free local port."""

    def __init__(self, root: Path, env: Dict[str, str]):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self.process.stdout, selectors.EVENT_READ)
                if not selector.select(REQUEST_TIMEOUT):
                    raise RuntimeError("daemon printed no ready line")
            ready = json.loads(self.process.stdout.readline() or b"null")
            if not isinstance(ready, dict) or ready.get("event") != "ready":
                raise RuntimeError(f"daemon failed to start: {ready!r}")
            self.port = int(ready["port"])
        except BaseException:
            self.kill()
            raise

    def connect(self) -> "Connection":
        return Connection(self.port)

    def call(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One request on a fresh connection (stats, shutdown)."""
        with self.connect() as connection:
            return json.loads(connection.call((json.dumps(payload) + "\n").encode()))

    def close(self) -> None:
        """Ask for a graceful drain; kill the daemon if it does not exit."""
        if self.process.poll() is None:
            try:
                self.call({"op": "shutdown"})
                self.process.wait(REQUEST_TIMEOUT)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class Connection:
    """A persistent JSON-lines connection: one request, one response line."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT)
        self.reader = self.sock.makefile("rb")

    def call(self, request: bytes) -> bytes:
        self.send(request)
        return self.receive()

    def send(self, request: bytes) -> None:
        self.sock.sendall(request)

    def receive(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return line

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Reply:
    """One request as the client saw it; checked after the window closes.

    ``stage`` names where a failed request failed: ``rpc`` (connection
    error or timeout), ``daemon`` (error response) or ``check`` (wrong
    schedule); it stays empty for a good reply.
    """

    key: str
    seconds: float
    finished: float = 0.0
    from_cache: bool = False
    got: Fingerprints = field(default_factory=dict)
    stage: str = ""
    error: str = ""


class ColdNets:
    """Never-seen corpus nets, built on demand and shared by the connections."""

    def __init__(self, seed: int):
        self.seed = seed
        self._next = count()
        self._lock = threading.Lock()
        self.nets: Dict[str, PetriNet] = {}

    def take(self) -> Tuple[str, bytes]:
        with self._lock:
            index = next(self._next)
        spec = cold_spec(self.seed, index)
        net = link(build_case(spec).network).net
        with self._lock:
            self.nets[spec.label()] = net
        return spec.label(), encode_request(net)


@dataclass
class ServeSetup:
    """What set-up leaves for the window: daemon, hot requests, references."""

    daemon: Daemon
    hot: List[Tuple[str, bytes]]
    references: Dict[str, Fingerprints]
    hot_outcomes: List[Outcome]


def set_up(root: Path, env: Dict[str, str], warmup: SystemInput) -> ServeSetup:
    """Spawn and warm the daemon; compile the hot set for its references."""
    daemon = Daemon(root, env)
    try:
        warm = link(build_case(warmup.spec).network).net
        with daemon.connect() as connection:
            json.loads(connection.call(encode_request(warm)))
            hot: List[Tuple[str, bytes]] = []
            references: Dict[str, Fingerprints] = {}
            outcomes: List[Outcome] = []
            untraced = Tracer(False)
            for spec in hot_set_specs():
                request = encode_request(link(build_case(spec).network).net)
                hot.append((spec.label(), request))
                # the daemon searches while the library compiles the reference
                connection.send(request)
                outcome = compile_system(
                    SystemInput(spec.label(), spec=spec), untraced, SchedulerOptions()
                )
                outcomes.append(outcome)
                references[spec.label()] = outcome.fingerprints
                response = json.loads(connection.receive())
                if not response.get("ok"):
                    raise RuntimeError(f"warming {spec.label()} failed: {response}")
    except BaseException:
        daemon.close()
        raise
    return ServeSetup(daemon, hot, references, outcomes)


def _read_reply(line: bytes, seconds: float, reply: Reply) -> None:
    """Fill ``reply`` from one response line of the daemon."""
    try:
        response = json.loads(line)
        if not response.get("ok"):
            reply.stage, reply.error = "daemon", str(response.get("error"))
            return
        results = response["results"]
        got = {r["source"]: r["schedule_fingerprint"] if r["success"] else None for r in results}
        from_cache = all(r["from_cache"] for r in results)
    except (ValueError, KeyError, TypeError) as error:
        reply.stage, reply.error = "daemon", f"malformed response: {error!r}"
        return
    reply.seconds, reply.got, reply.from_cache = seconds, got, from_cache


def _client(
    connection_index: int,
    setup: ServeSetup,
    cold: ColdNets,
    seed: int,
    deadline: float,
    tracer: Tracer,
    replies: List[Reply],
    op_ids: Iterator[int],
) -> None:
    """One closed loop: next request only after the previous reply."""
    plan = request_plan(seed, connection_index)
    connection = setup.daemon.connect()
    try:
        while time.perf_counter() < deadline:
            rank = next(plan)
            with tracer.operation("request", next(op_ids)):
                if rank < 0:
                    with tracer.span("bench.input"):
                        key, request = cold.take()
                else:
                    key, request = setup.hot[rank]
                reply = Reply(key, float("inf"))
                try:
                    with tracer.span("serve.rpc"):
                        started = time.perf_counter()
                        line = connection.call(request)
                        seconds = time.perf_counter() - started
                except OSError as error:
                    reply.stage, reply.error = "rpc", f"{type(error).__name__}: {error}"
                    connection.close()
                    connection = setup.daemon.connect()
                else:
                    with tracer.span("bench.check"):
                        _read_reply(line, seconds, reply)
                reply.finished = time.perf_counter()
                replies.append(reply)
    finally:
        connection.close()


def measure(
    setup: ServeSetup, seed: int, seconds: float, tracers: List[Tracer]
) -> Tuple[List[Reply], float, float, Dict[str, object], Dict[str, PetriNet], List[float]]:
    """The measured window: ``CONNECTIONS`` closed loops for ``seconds``.

    Returns the replies, the window's start and wall clock, the daemon's
    stats counter deltas over the window, the cold nets that were sent and
    the daemon's peak RSS per one-second slice (its high-water mark is
    restarted at every slice, like the compile workloads' per round).
    """
    cold = ColdNets(seed)
    replies: List[Reply] = []
    op_ids = count()
    before = setup.daemon.call({"op": "stats"})["stats"]
    started = time.perf_counter()
    deadline = started + seconds
    errors: List[BaseException] = []

    def run(index: int) -> None:
        try:
            _client(index, setup, cold, seed, deadline, tracers[index], replies, op_ids)
        except BaseException as error:  # noqa: BLE001 - re-raised on the main thread
            errors.append(error)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(CONNECTIONS)]
    pid = str(setup.daemon.process.pid)
    peaks: List[float] = []
    restart_peak_rss(pid)
    for thread in threads:
        thread.start()
    tick = started + RATE_SLICE
    for thread in threads:
        # wake at every slice boundary, and as soon as the last loop ends, so
        # the window closes with the last reply rather than the next slice
        while thread.is_alive():
            thread.join(max(0.0, tick - time.perf_counter()))
            if time.perf_counter() >= tick:
                peaks.append(peak_rss_mb(pid))
                restart_peak_rss(pid)
                tick += RATE_SLICE
    wall = time.perf_counter() - started
    if not peaks:
        peaks.append(peak_rss_mb(pid))
    if errors:
        raise errors[0]
    after = setup.daemon.call({"op": "stats"})["stats"]
    delta = {
        name: after[name] - before[name]
        for name in ("requests", "errors", "timeouts", "live_searches", "cache_hits")
    }
    return replies, started, wall, delta, cold.nets, peaks


def check(replies: List[Reply], references: Dict[str, Fingerprints], cold: Dict[str, PetriNet]) -> None:
    """Mark every reply that disagrees with the library as failed."""
    for key, net in cold.items():
        references[key] = reference_fingerprints(net)
    for reply in replies:
        if not reply.stage and reply.got != references[reply.key]:
            reply.stage, reply.error = "check", "fingerprints differ from the library run"
        if reply.stage:
            reply.seconds = float("inf")


def windowed_rate(replies: List[Reply], started: float, wall: float) -> float:
    """Median over whole one-second slices of the window of replies checked good.

    A never-seen net whose search runs for seconds stalls one connection;
    the median keeps such a stall from setting the run's throughput.
    """
    slices = [0] * int(wall // RATE_SLICE)
    for reply in replies:
        index = int((reply.finished - started) // RATE_SLICE)
        if not reply.stage and index < len(slices):
            slices[index] += 1
    return statistics.median(slices) / RATE_SLICE
