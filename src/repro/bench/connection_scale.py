"""PR-9 experiment: how many consumers can one provider site hold?

Two phases, both against a single provider site running a trivial echo
handler over real loopback TCP:

* **sustain** (reactor only) — open N multiplexed consumer channels
  (default 5,000, ``OBIWAN_CONNECTION_SCALE`` overrides), pipeline one
  request down every one of them, and hold them all open while the
  requests complete.  The thread-per-connection backend cannot play this
  game at all: N connections would cost N serving threads before the
  first byte moves.
* **race** (reactor vs threaded) — N consumers (default 1,000,
  ``OBIWAN_CONNECTION_RACE`` overrides) each put
  ``REQUESTS_PER_CONSUMER`` echo requests in flight *concurrently*, the
  ``invoke_batch``-style fan-out the pipelined wire exists for.  The
  threaded backend can only express R in-flight requests as R blocking
  threads each holding its own pooled socket, with a serving thread per
  accepted connection on the far side.  The reactor submits every
  request as a pipelined future from one thread — R correlation ids
  share one channel per consumer, and no side of the wire spends a
  thread per connection.  The acceptance claim is a >= 3x wall-clock
  win for the reactor.

Wall time is measured with ``time.perf_counter`` because both phases
run real sockets and real threads — there is no simulated clock to
read.  The file-descriptor soft limit is raised (within the hard limit)
before the sustain phase; two fds per held connection.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.simnet.reactor import ReactorNetwork
from repro.simnet.tcp import TcpNetwork
from repro.util.clock import WallClock

DEFAULT_SUSTAIN_CONNECTIONS = 5000
DEFAULT_RACE_CONNECTIONS = 1000
REQUESTS_PER_CONSUMER = 8
#: Wall-clock trials per backend; the report keeps each backend's best
#: (minimum) time, the usual least-scheduler-noise estimate.
RACE_TRIALS = 3
SCALE_ENV = "OBIWAN_CONNECTION_SCALE"
RACE_ENV = "OBIWAN_CONNECTION_RACE"
#: Per-request timeout; generous because the threaded race deliberately
#: convoys a thousand threads through one accept loop.
TIMEOUT = 120.0


def _echo(message):
    return b"ok:" + message.payload


def _raise_fd_limit(needed: int) -> None:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))


@dataclass(frozen=True, slots=True)
class SustainPoint:
    """One provider holding every consumer channel open at once."""

    connections: int
    accepted: int
    open_at_peak: int
    wall_ms: float
    frames_pipelined: int
    loop_lag_max_ms: float


@dataclass(frozen=True, slots=True)
class RacePoint:
    """Reactor vs thread-per-connection on the same echo workload."""

    connections: int
    requests_per_consumer: int
    threaded_ms: float
    reactor_ms: float
    speedup: float


@dataclass(frozen=True, slots=True)
class ConnectionScaleReport:
    """The PR-9 acceptance numbers."""

    sustain: SustainPoint
    race: RacePoint

    def jsonable(self) -> dict:
        return {
            "experiment": "connection_scale",
            "sustain": {
                "connections": self.sustain.connections,
                "accepted": self.sustain.accepted,
                "open_at_peak": self.sustain.open_at_peak,
                "wall_ms": round(self.sustain.wall_ms, 1),
                "frames_pipelined": self.sustain.frames_pipelined,
                "loop_lag_max_ms": round(self.sustain.loop_lag_max_ms, 3),
            },
            "race": {
                "connections": self.race.connections,
                "requests_per_consumer": self.race.requests_per_consumer,
                "threaded_ms": round(self.race.threaded_ms, 1),
                "reactor_ms": round(self.race.reactor_ms, 1),
                "speedup": round(self.race.speedup, 3),
            },
        }


def sustain_run(connections: int = DEFAULT_SUSTAIN_CONNECTIONS) -> SustainPoint:
    """Hold ``connections`` consumer channels open against one provider."""
    _raise_fd_limit(2 * connections + 256)
    net = ReactorNetwork(WallClock(), timeout=TIMEOUT)
    try:
        net.attach("provider", _echo)
        # One up-front call warms the loop and the dispatch pool before
        # the clock starts.  The consumers stay unattached: submit() needs
        # no return listener, which is exactly how a mobile consumer behind
        # NAT-ish conditions would drive a provider.
        net.attach("warmup", _echo)
        net.call("warmup", "provider", b"hello")
        start = time.perf_counter()  # obilint: disable=OBI108 -- wall-clock benchmark measurement
        replies = [
            net.submit(f"consumer-{i}", "provider", b"ping", timeout=TIMEOUT)
            for i in range(connections)
        ]
        for reply in replies:
            assert reply.result(TIMEOUT) == b"ok:ping"
        wall_ms = (time.perf_counter() - start) * 1000.0  # obilint: disable=OBI108 -- wall-clock benchmark measurement
        stats = net.reactor_stats.snapshot()
        return SustainPoint(
            connections=connections,
            # the warmup consumer's channel is also in these counters;
            # claims use >= on purpose
            accepted=int(stats["connections_accepted"]),
            open_at_peak=int(stats["connections_high_water"]),
            wall_ms=wall_ms,
            frames_pipelined=int(stats["frames_pipelined"]),
            loop_lag_max_ms=stats["loop_lag_max_s"] * 1000.0,
        )
    finally:
        net.close()


def _race_threaded(connections: int, requests: int) -> float:
    """A blocking thread per in-flight request — the seed's only way to
    keep ``requests`` concurrent round trips outstanding per consumer."""
    net = TcpNetwork(WallClock(), timeout=TIMEOUT)
    try:
        net.attach("provider", _echo)
        # One consumer site id is enough: TcpNetwork pools sockets per
        # destination, so concurrent blocking calls each hold their own
        # connection — the in-flight count, not the site id, drives the
        # connection count here.
        net.attach("driver", _echo)
        barrier = threading.Barrier(connections * requests + 1)
        failures: list[BaseException] = []

        def one_request(index: int, seq: int) -> None:
            barrier.wait()
            try:
                payload = b"c%d:%d" % (index, seq)
                assert net.call("driver", "provider", payload) == (
                    b"ok:" + payload
                )
            except BaseException as exc:  # obilint: disable=OBI107 -- collected and re-raised on the bench thread below
                failures.append(exc)

        pool = [
            threading.Thread(
                target=one_request, args=(i, j), name=f"race-threaded-{i}-{j}"
            )
            for i in range(connections)
            for j in range(requests)
        ]
        # Threads are created (and parked on the barrier) before the clock
        # starts — generous to the threaded side, whose per-request thread
        # spawn is real issuance cost the reactor never pays.  The barrier
        # is the point of the workload: all in-flight requests really are
        # concurrent, exactly what the reactor holds as correlation ids.
        for thread in pool:
            thread.start()
        barrier.wait()
        start = time.perf_counter()  # obilint: disable=OBI108 -- wall-clock benchmark measurement
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - start  # obilint: disable=OBI108 -- wall-clock benchmark measurement
        if failures:
            raise failures[0]
        return elapsed * 1000.0
    finally:
        net.close()


def _race_reactor(connections: int, requests: int) -> float:
    """Every request a pipelined future; no per-connection threads."""
    net = ReactorNetwork(WallClock(), timeout=TIMEOUT)
    try:
        net.attach("provider", _echo)
        net.attach("warmup", _echo)
        net.call("warmup", "provider", b"hello")  # warm the loop
        start = time.perf_counter()  # obilint: disable=OBI108 -- wall-clock benchmark measurement
        replies = []
        for index in range(connections):
            for seq in range(requests):
                payload = b"c%d:%d" % (index, seq)
                replies.append(
                    (payload, net.submit(f"consumer-{index}", "provider", payload, timeout=TIMEOUT))
                )
        for payload, reply in replies:
            assert reply.result(TIMEOUT) == b"ok:" + payload
        elapsed = time.perf_counter() - start  # obilint: disable=OBI108 -- wall-clock benchmark measurement
        return elapsed * 1000.0
    finally:
        net.close()


def race_run(
    connections: int = DEFAULT_RACE_CONNECTIONS,
    requests: int = REQUESTS_PER_CONSUMER,
) -> RacePoint:
    _raise_fd_limit(2 * connections * requests + 256)
    threaded_ms = min(
        _race_threaded(connections, requests) for _ in range(RACE_TRIALS)
    )
    reactor_ms = min(
        _race_reactor(connections, requests) for _ in range(RACE_TRIALS)
    )
    return RacePoint(
        connections=connections,
        requests_per_consumer=requests,
        threaded_ms=threaded_ms,
        reactor_ms=reactor_ms,
        speedup=threaded_ms / reactor_ms if reactor_ms else float("inf"),
    )


def connection_scale_report(
    sustain_connections: int | None = None,
    race_connections: int | None = None,
) -> ConnectionScaleReport:
    """Run both phases; env knobs shrink them for CI smoke runs."""
    if sustain_connections is None:
        sustain_connections = int(os.environ.get(SCALE_ENV, DEFAULT_SUSTAIN_CONNECTIONS))
    if race_connections is None:
        race_connections = int(os.environ.get(RACE_ENV, DEFAULT_RACE_CONNECTIONS))
    return ConnectionScaleReport(
        sustain=sustain_run(sustain_connections),
        race=race_run(race_connections),
    )
