"""Bench smoke: one reactor loop holding and fanning out to many consumers.

Phase one holds thousands of multiplexed consumer channels open against
a single provider site (default 5,000; ``OBIWAN_CONNECTION_SCALE``
shrinks it for CI).  Phase two fans out 8 pipelined requests from each
of 1,000 consumers (``OBIWAN_CONNECTION_FANOUT`` shrinks it) and checks
every reply.  Sanity claims hold at any scale; the 5,000-channel bar
only applies at full scale, so the CI smoke stays fast.  Records
``BENCH_pr9.json`` at the repo root when ``OBIWAN_BENCH_RECORD`` is set
(the CI bench-smoke job does).
"""

import json
import os
from pathlib import Path

from repro.bench.connection_scale import (
    DEFAULT_SUSTAIN_CONNECTIONS,
    connection_scale_report,
)


def test_connection_scale_smoke(once):
    report = once(connection_scale_report)
    sustain, fanout = report.sustain, report.fanout

    # The provider accepted one connection per consumer and held them all
    # open at once (the +1s are the warmup consumer and its probe carrier).
    assert sustain.accepted >= sustain.connections
    assert sustain.open_at_peak >= sustain.connections
    assert sustain.frames_pipelined >= sustain.connections

    # Every fan-out request went out pipelined (each reply was checked
    # inside the run), with more than one in flight on a channel.
    assert fanout.frames_pipelined >= fanout.connections * fanout.requests_per_consumer
    assert fanout.in_flight_high_water > 1

    # The 5,000-channel bar, judged only at full scale.
    if sustain.connections >= DEFAULT_SUSTAIN_CONNECTIONS:
        assert sustain.connections >= 5000

    print("\nConnection scale (one provider site, loopback TCP, reactor):")
    print(
        f"  sustain  {sustain.connections} consumer channels held"
        f"  ({sustain.accepted} accepted, peak {sustain.open_at_peak} open)"
        f"  in {sustain.wall_ms:.0f} ms, loop lag max {sustain.loop_lag_max_ms:.2f} ms"
    )
    print(
        f"  fan-out  {fanout.connections} consumers x {fanout.requests_per_consumer} requests"
        f"  in {fanout.wall_ms:.0f} ms, in-flight depth {fanout.in_flight_high_water}"
    )

    if os.environ.get("OBIWAN_BENCH_RECORD"):
        target = Path(__file__).resolve().parent.parent / "BENCH_pr9.json"
        target.write_text(
            json.dumps(report.jsonable(), indent=2, sort_keys=True) + "\n"
        )
        print(f"  recorded {target}")
