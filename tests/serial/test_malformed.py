"""Decoder robustness against malformed frames."""

import pytest

from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.registry import TypeRegistry
from repro.util.errors import SerializationError


@pytest.fixture
def registry():
    return TypeRegistry()


def test_truncated_frame(registry):
    data = Encoder(registry).encode("hello world")
    with pytest.raises(SerializationError, match="truncated"):
        Decoder(registry).decode(data[:-3])


def test_trailing_garbage(registry):
    data = Encoder(registry).encode(42)
    with pytest.raises(SerializationError, match="trailing"):
        Decoder(registry).decode(data + b"\x00")


def test_unknown_tag(registry):
    with pytest.raises(SerializationError, match="unknown wire tag"):
        Decoder(registry).decode(b"\xee")


def test_empty_frame(registry):
    with pytest.raises(SerializationError):
        Decoder(registry).decode(b"")


def test_dangling_backreference(registry):
    from repro.serial import tags

    frame = bytes([tags.REF]) + (99).to_bytes(4, "big")
    with pytest.raises(SerializationError, match="dangling"):
        Decoder(registry).decode(frame)


def test_unknown_object_type_name(registry):
    sender = TypeRegistry()

    class OnlyHere:
        pass

    sender.register(OnlyHere, name="sender.OnlyHere")
    data = Encoder(sender).encode(OnlyHere())
    with pytest.raises(SerializationError, match="sender.OnlyHere"):
        Decoder(registry).decode(data)


def test_depth_limit_enforced(registry):
    nested = current = []
    for _ in range(20):
        nxt: list = []
        current.append(nxt)
        current = nxt
    encoder = Encoder(registry, max_depth=10)
    with pytest.raises(SerializationError, match="depth"):
        encoder.encode(nested)


def test_oversized_int_rejected(registry):
    with pytest.raises(SerializationError, match="too large"):
        Encoder(registry).encode(1 << 3000)


def test_corrupt_length_prefix(registry):
    from repro.serial import tags

    # STR claiming 2^31 bytes with nothing behind it.
    frame = bytes([tags.STR]) + (2**31).to_bytes(4, "big")
    with pytest.raises(SerializationError):
        Decoder(registry).decode(frame)


def _object_frame(name: str, state: object) -> bytes:
    """An OBJECT frame naming ``name`` whose state is ``state``."""
    from repro.serial import tags

    raw = name.encode("utf-8")
    body = Encoder(TypeRegistry()).encode(state)
    return bytes([tags.OBJECT]) + len(raw).to_bytes(4, "big") + raw + body


@pytest.mark.parametrize(
    "state",
    [
        (1, 0, False, -5),  # prefetch below its bound
        (1, 0, False, 0, 7),  # codec outside {0, 1}
        (-1, 0, False),  # chunk below its bound
        ("x", 0, False),  # not a number
        (1, 0, False, 0, 0, 0, 0),  # too wide
        (1, 0),  # too narrow
        5,  # not a tuple at all
    ],
)
def test_malformed_replication_mode_is_typed(state):
    from repro.core import interfaces  # noqa: F401 - registers the class
    from repro.serial.registry import global_registry

    with pytest.raises(SerializationError, match="ReplicationMode"):
        Decoder(global_registry).decode(_object_frame("core.ReplicationMode", state))


def test_replication_mode_tails_still_decode():
    from repro.core.interfaces import ReplicationMode
    from repro.serial.registry import global_registry

    frame = _object_frame("core.ReplicationMode", (2, 0, False, 4, 1))
    mode = Decoder(global_registry).decode(frame)
    assert mode == ReplicationMode(chunk=2, prefetch=4, codec=1)


@pytest.mark.parametrize("state", [("obj:1", "get", ()), 5])
def test_malformed_invoke_request_is_typed(state):
    from repro.rmi import protocol  # noqa: F401 - registers the class
    from repro.serial.registry import global_registry

    with pytest.raises(SerializationError, match="rmi.InvokeRequest"):
        Decoder(global_registry).decode(_object_frame("rmi.InvokeRequest", state))
