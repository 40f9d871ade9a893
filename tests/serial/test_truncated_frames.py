"""Typed decode errors for short, sliced, and unknown-tag frames (PR 8).

A short TCP read or a sender crash mid-encode used to escape the decoder
as a raw ``struct.error`` / ``IndexError``; an unknown tag byte raised a
bare :class:`SerializationError`.  Both now have dedicated types —
:class:`TruncatedFrameError` (also a :class:`ReplicationError`, so the
replication engine treats a torn replica frame as a failed refresh) and
:class:`UnknownWireTagError` (carries the offending byte) — and these
tests slice real frames at every byte boundary to prove no raw exception
ever leaks.
"""

import struct

import pytest

from repro.serial import tags
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.registry import TypeRegistry
from repro.util.errors import (
    ReplicationError,
    SerializationError,
    TruncatedFrameError,
    UnknownWireTagError,
)


@pytest.fixture
def registry():
    return TypeRegistry()


def _decode_sliced(registry, frame: bytes) -> None:
    """Decode every proper prefix of ``frame``; each must fail typed."""
    decoder = Decoder(registry)
    for cut in range(len(frame)):
        try:
            decoder.decode(frame[:cut])
        except TruncatedFrameError:
            continue
        except SerializationError:
            # Some prefixes are structurally complete but semantically
            # broken (e.g. a dangling back-reference) — still typed.
            continue
        except (struct.error, IndexError) as exc:  # pragma: no cover
            pytest.fail(f"raw {type(exc).__name__} escaped at cut={cut}")
        else:
            # A prefix that decodes cleanly would be a framing bug: every
            # frame is length-delimited from byte 0.
            pytest.fail(f"prefix of length {cut} decoded successfully")


# ----------------------------------------------------------------------
# reflective path
# ----------------------------------------------------------------------
class TestReflectiveTruncation:
    def test_every_prefix_of_a_scalar_frame_fails_typed(self, registry):
        _decode_sliced(registry, Encoder(registry).encode("hello wire"))

    def test_every_prefix_of_a_container_frame_fails_typed(self, registry):
        value = {"k": [1, 2.5, b"bytes", ("t", frozenset({3}))], "n": None}
        _decode_sliced(registry, Encoder(registry).encode(value))

    def test_every_prefix_of_an_object_frame_fails_typed(self, registry):
        class Thing:
            def __init__(self, a=0, b=""):
                self.a = a
                self.b = b

        registry.register(Thing)
        _decode_sliced(registry, Encoder(registry).encode(Thing(7, "state")))

    def test_error_carries_offset_wanted_available(self, registry):
        frame = Encoder(registry).encode("hello world")
        with pytest.raises(TruncatedFrameError) as info:
            Decoder(registry).decode(frame[:-3])
        err = info.value
        assert err.wanted > err.available >= 0
        assert err.offset > 0
        assert "truncated" in str(err)

    def test_truncation_is_both_serialization_and_replication_error(self):
        err = TruncatedFrameError("torn", offset=5, wanted=8, available=2)
        assert isinstance(err, SerializationError)
        assert isinstance(err, ReplicationError)

    def test_float_frame_short_read(self, registry):
        frame = Encoder(registry).encode(2.75)
        with pytest.raises(TruncatedFrameError):
            Decoder(registry).decode(frame[:5])


# ----------------------------------------------------------------------
# compiled path
# ----------------------------------------------------------------------
class TestCompiledTruncation:
    def _compiled_frame(self, registry) -> bytes:
        class Packed:
            def __init__(self, n: int = 0, label: str = "", ratio: float = 0.0):
                self.n = n
                self.label = label
                self.ratio = ratio

        registry.register(Packed)
        frame = Encoder(registry, compiled=True).encode(Packed(9, "wire", 0.5))
        assert frame[0] == tags.OBJECT_SCHEMA
        return frame

    def test_every_prefix_of_a_compiled_frame_fails_typed(self, registry):
        _decode_sliced(registry, self._compiled_frame(registry))

    def test_mid_payload_cut_names_the_class(self, registry):
        frame = self._compiled_frame(registry)
        with pytest.raises(TruncatedFrameError, match="Packed"):
            Decoder(registry).decode(frame[: len(frame) - 2])


# ----------------------------------------------------------------------
# unknown tags
# ----------------------------------------------------------------------
class TestUnknownTag:
    def test_unknown_tag_raises_typed_error_naming_the_tag(self, registry):
        with pytest.raises(UnknownWireTagError, match="0xee") as info:
            Decoder(registry).decode(b"\xee")
        assert info.value.tag == 0xEE

    def test_every_unassigned_byte_is_rejected(self, registry):
        assigned = {
            value
            for name, value in vars(tags).items()
            if name.isupper() and isinstance(value, int)
        }
        decoder = Decoder(registry)
        for byte in range(256):
            if byte in assigned:
                continue
            with pytest.raises(UnknownWireTagError) as info:
                decoder.decode(bytes([byte]))
            assert info.value.tag == byte

    def test_unknown_tag_is_a_serialization_error(self, registry):
        # Callers catching SerializationError see this shape, with text
        # naming the "unknown wire tag".
        with pytest.raises(SerializationError, match="unknown wire tag"):
            Decoder(registry).decode(bytes([0xEE]))

    def test_nested_unknown_tag_surfaces_typed(self, registry):
        # LIST of 1 element whose tag is bogus.
        frame = bytes([tags.LIST]) + (1).to_bytes(4, "big") + b"\xe1"
        with pytest.raises(UnknownWireTagError) as info:
            Decoder(registry).decode(frame)
        assert info.value.tag == 0xE1
