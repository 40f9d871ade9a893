"""Network substrate for the OBIWAN reproduction.

The paper's prototype ran over Java RMI on a 10 Mb/s LAN.  This package
provides the equivalent message layer with three interchangeable
transports:

:class:`~repro.simnet.loopback.LoopbackNetwork`
    Synchronous in-process delivery that charges a simulated clock
    according to a :class:`~repro.simnet.link.Link` cost model.  Fully
    deterministic; used by every figure benchmark.
:class:`~repro.simnet.threaded.ThreadedNetwork`
    Real threads and queues, one dispatcher per site — proves the
    middleware works under genuine concurrency.
:class:`~repro.simnet.reactor.ReactorNetwork`
    Length-prefixed, pipelined frames over localhost TCP sockets, every
    socket on one event loop — the closest analogue of the paper's
    RMI-over-LAN deployment.

All transports share partition/disconnection injection (the mobility
scenarios of the paper) and per-link traffic statistics.
"""

from repro.simnet.link import (
    LAN_10MBPS,
    LOCAL,
    WAN,
    WIRELESS_GPRS,
    WIRELESS_WLAN,
    Link,
)
from repro.simnet.loopback import LoopbackNetwork
from repro.simnet.message import Message, MessageKind
from repro.simnet.network import Endpoint, Network
from repro.simnet.partition import ConnectivityMap
from repro.simnet.reactor import ReactorNetwork
from repro.simnet.stats import LinkStats, NetworkStats
from repro.simnet.threaded import ThreadedNetwork

__all__ = [
    "Link",
    "LOCAL",
    "LAN_10MBPS",
    "WAN",
    "WIRELESS_WLAN",
    "WIRELESS_GPRS",
    "Message",
    "MessageKind",
    "Network",
    "Endpoint",
    "ConnectivityMap",
    "NetworkStats",
    "LinkStats",
    "LoopbackNetwork",
    "ThreadedNetwork",
    "ReactorNetwork",
]
