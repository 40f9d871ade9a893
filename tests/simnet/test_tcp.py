"""Tests for the localhost TCP transport as callers see it.

:class:`ReactorNetwork` is the one socket backend; these tests drive it
through the plain ``call``/``cast`` surface over real localhost sockets.
Frame-level and pipelining behaviour lives in ``test_reactor.py``.
"""

import threading

import pytest

from repro.simnet.reactor import ReactorNetwork
from repro.util.clock import WallClock
from repro.util.errors import TransportError


@pytest.fixture
def net():
    network = ReactorNetwork(WallClock())
    yield network
    network.close()


def _echo(message):
    return b"echo:" + message.payload


class TestBasics:
    def test_request_response_over_sockets(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        assert net.call("a", "b", b"hello") == b"echo:hello"
        # The call really crossed a socket: b's listener accepted it.
        assert net.reactor_stats.snapshot()["connections_accepted"] >= 1

    def test_large_payload_roundtrip(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        blob = bytes(range(256)) * 4096  # 1 MiB
        assert net.call("a", "b", blob) == b"echo:" + blob

    def test_cast_delivered(self, net):
        received = []
        done = threading.Event()

        def on_cast(message):
            received.append(message.payload)
            done.set()

        net.attach("a", lambda m: None)
        net.attach("b", on_cast)
        net.cast("a", "b", b"fire")
        assert done.wait(2.0)
        assert received == [b"fire"]


class TestFailureModes:
    def test_handler_exception_reported(self, net):
        net.attach("a", lambda m: None)

        def bad(message):
            raise ValueError("remote bug")

        net.attach("b", bad)
        with pytest.raises(TransportError, match="remote bug"):
            net.call("a", "b", b"x")

    def test_reconnect_after_peer_detach_and_reattach(self, net):
        """A channel to a detached peer is dropped; a re-attached peer (new
        listener) is reachable again through a fresh connection."""
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        assert net.call("a", "b", b"one") == b"echo:one"
        accepted = net.reactor_stats.snapshot()["connections_accepted"]
        net.detach("b")
        with pytest.raises(TransportError):
            net.call("a", "b", b"gone")
        net.attach("b", _echo)
        assert net.call("a", "b", b"two") == b"echo:two"
        # The second call was accepted by the new listener: the channel from
        # before the detach was not reused against it.
        assert net.reactor_stats.snapshot()["connections_accepted"] > accepted

    def test_concurrent_clients(self, net):
        net.attach("server", _echo)
        results = {}
        errors = []

        def client(name):
            try:
                net.attach(name, lambda m: None)
                results[name] = net.call(name, "server", name.encode())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(f"c{i}",)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == {f"c{i}": b"echo:c%d" % i for i in range(6)}
