"""How many consumers can one provider site hold?

Two phases, both against a single provider site running a trivial echo
handler over real loopback TCP on the reactor transport:

* **sustain** — open N multiplexed consumer channels (default 5,000,
  ``OBIWAN_CONNECTION_SCALE`` overrides), pipeline one request down
  every one of them, and hold them all open while the requests
  complete.  A thread-per-connection transport would spend N serving
  threads before the first byte moved.
* **fan-out** — N consumers (default 1,000, ``OBIWAN_CONNECTION_FANOUT``
  overrides) each put ``REQUESTS_PER_CONSUMER`` echo requests in flight
  *concurrently*, the ``invoke_batch``-style fan-out the pipelined wire
  exists for.  Every request is a pipelined future submitted from one
  thread; R correlation ids share one channel per consumer.  Every
  reply is checked against its request, and the wall time is reported.

Wall time is measured with ``time.perf_counter`` because both phases
run real sockets and real threads — there is no simulated clock to
read.  The file-descriptor soft limit is raised (within the hard limit)
before each phase; two fds per held connection.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.simnet.reactor import ReactorNetwork
from repro.util.clock import WallClock

DEFAULT_SUSTAIN_CONNECTIONS = 5000
DEFAULT_FANOUT_CONNECTIONS = 1000
REQUESTS_PER_CONSUMER = 8
SCALE_ENV = "OBIWAN_CONNECTION_SCALE"
FANOUT_ENV = "OBIWAN_CONNECTION_FANOUT"
#: Per-request timeout; generous so a loaded machine slows the run
#: down rather than failing it.
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
class FanOutPoint:
    """Many consumers, each with several requests in flight at once."""

    connections: int
    requests_per_consumer: int
    wall_ms: float
    frames_pipelined: int
    in_flight_high_water: int


@dataclass(frozen=True, slots=True)
class ConnectionScaleReport:
    """Both phases' numbers."""

    sustain: SustainPoint
    fanout: FanOutPoint

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
            "fanout": {
                "connections": self.fanout.connections,
                "requests_per_consumer": self.fanout.requests_per_consumer,
                "wall_ms": round(self.fanout.wall_ms, 1),
                "frames_pipelined": self.fanout.frames_pipelined,
                "in_flight_high_water": self.fanout.in_flight_high_water,
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


def fanout_run(
    connections: int = DEFAULT_FANOUT_CONNECTIONS,
    requests: int = REQUESTS_PER_CONSUMER,
) -> FanOutPoint:
    """Put ``requests`` pipelined futures in flight per consumer from one
    thread, then check every reply."""
    _raise_fd_limit(2 * connections + 256)
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
        wall_ms = (time.perf_counter() - start) * 1000.0  # obilint: disable=OBI108 -- wall-clock benchmark measurement
        stats = net.reactor_stats.snapshot()
        return FanOutPoint(
            connections=connections,
            requests_per_consumer=requests,
            wall_ms=wall_ms,
            frames_pipelined=int(stats["frames_pipelined"]),
            in_flight_high_water=int(stats["in_flight_high_water"]),
        )
    finally:
        net.close()


def connection_scale_report(
    sustain_connections: int | None = None,
    fanout_connections: int | None = None,
) -> ConnectionScaleReport:
    """Run both phases; env knobs shrink them for CI smoke runs."""
    if sustain_connections is None:
        sustain_connections = int(os.environ.get(SCALE_ENV, DEFAULT_SUSTAIN_CONNECTIONS))
    if fanout_connections is None:
        fanout_connections = int(os.environ.get(FANOUT_ENV, DEFAULT_FANOUT_CONNECTIONS))
    return ConnectionScaleReport(
        sustain=sustain_run(sustain_connections),
        fanout=fanout_run(fanout_connections),
    )
