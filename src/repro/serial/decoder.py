"""Wire-format decoder — the inverse of :mod:`repro.serial.encoder`.

Objects are materialized with their registered factory *before* their
state is decoded, and registered in the memo immediately, so cyclic graphs
rebuild correctly.  Swizzled descriptors are handed to the unswizzler
(the replication layer), which typically returns a freshly built
proxy-out.
"""

from __future__ import annotations

import struct

from repro.serial import tags
from repro.serial.compiled import codec_for
from repro.serial.encoder import _LAZY_GUARD_DEPTH, _RecursionGuard
from repro.serial.registry import TypeRegistry, global_registry
from repro.serial.swizzle import NullSwizzler, SwizzleDescriptor, Unswizzler
from repro.util.clock import perf_ns
from repro.util.errors import SerializationError, TruncatedFrameError, UnknownWireTagError

_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")


class Decoder:
    """Decodes wire frames produced by :class:`repro.serial.Encoder`."""

    def __init__(
        self,
        registry: TypeRegistry | None = None,
        unswizzler: Unswizzler | None = None,
        *,
        max_depth: int = 50_000,
        stats: object | None = None,
    ):
        self.registry = registry if registry is not None else global_registry
        self.unswizzler = unswizzler if unswizzler is not None else NullSwizzler()
        self.max_depth = max_depth
        self.stats = stats
        self._fast_hits = 0

    def decode(self, data: bytes) -> object:
        reader = _Reader(data)
        start = perf_ns() if self.stats is not None else 0
        self._fast_hits = 0
        # Decoding nests as deeply as encoding did; see the encoder's
        # _RecursionGuard for rationale (and why it arms lazily).
        with _RecursionGuard(self.max_depth) as guard:
            value = self._read(reader, memo=[], depth=0, guard=guard)
        if not reader.exhausted:
            raise SerializationError(
                f"trailing garbage after frame: {reader.remaining} bytes unread"
            )
        if self.stats is not None:
            self.stats.add(
                frames_decoded=1,
                decode_ns=perf_ns() - start,
                decodes_fast=self._fast_hits,
            )
        return value

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _read(
        self, reader: "_Reader", memo: list[object], depth: int, guard: "_RecursionGuard"
    ) -> object:
        if depth >= _LAZY_GUARD_DEPTH and not guard.armed:
            guard.ensure()
        tag = reader.u8()
        if tag == tags.NONE:
            return None
        if tag == tags.TRUE:
            return True
        if tag == tags.FALSE:
            return False
        if tag == tags.INT:
            length = reader.u8()
            return int.from_bytes(reader.take(length), "big", signed=True)
        if tag == tags.FLOAT:
            return _F64.unpack(reader.take(8))[0]
        if tag == tags.STR:
            return str(reader.take(reader.u32()), "utf-8")
        if tag == tags.BYTES:
            return bytes(reader.take(reader.u32()))
        if tag == tags.BYTEARRAY:
            out = bytearray(reader.take(reader.u32()))
            memo.append(out)
            return out
        if tag == tags.REF:
            index = reader.u32()
            try:
                return memo[index]
            except IndexError:
                raise SerializationError(f"dangling back-reference #{index}") from None
        if tag == tags.LIST:
            out: list[object] = []
            memo.append(out)
            for _ in range(reader.u32()):
                out.append(self._read(reader, memo, depth + 1, guard))
            return out
        if tag == tags.TUPLE:
            # Tuples are immutable: decode into a placeholder slot, then
            # patch the memo.  Self-referential tuples cannot be built in
            # Python either, so an inner REF to an under-construction tuple
            # is a sender bug and surfaces as a placeholder leak.
            slot = len(memo)
            memo.append(_PENDING)
            items = tuple(self._read(reader, memo, depth + 1, guard) for _ in range(reader.u32()))
            memo[slot] = items
            return items
        if tag == tags.SET:
            slot = len(memo)
            memo.append(_PENDING)
            items = {self._read(reader, memo, depth + 1, guard) for _ in range(reader.u32())}
            memo[slot] = items
            return items
        if tag == tags.FROZENSET:
            slot = len(memo)
            memo.append(_PENDING)
            items = frozenset(self._read(reader, memo, depth + 1, guard) for _ in range(reader.u32()))
            memo[slot] = items
            return items
        if tag == tags.DICT:
            mapping: dict[object, object] = {}
            memo.append(mapping)
            for _ in range(reader.u32()):
                key = self._read(reader, memo, depth + 1, guard)
                mapping[key] = self._read(reader, memo, depth + 1, guard)
            return mapping
        if tag == tags.OBJECT:
            name = str(reader.take(reader.u32()), "utf-8")
            entry = self.registry.lookup_name(name)
            instance = entry.factory()
            memo.append(instance)
            state = self._read(reader, memo, depth + 1, guard)
            try:
                entry.set_state(instance, state)
            except (ValueError, TypeError) as exc:
                # A state of the wrong shape for the class: the same typed
                # error the compiled path raises for a corrupt frame.
                raise SerializationError(f"corrupt state for {name!r}: {exc}") from None
            return instance
        if tag == tags.OBJECT_SCHEMA:
            name = str(reader.take(reader.u32()), "utf-8")
            schema_hash = reader.u32()
            entry = self.registry.lookup_name(name)
            codec = codec_for(entry.cls)
            if codec is None or codec.name != name or codec.schema_hash != schema_hash:
                raise SerializationError(
                    f"compiled frame for {name!r} (schema 0x{schema_hash:08x}) does not "
                    "match a codec on this site — peers must share class definitions"
                )
            # The codec registers the instance in the memo itself, then
            # walks the memoryview with offset arithmetic; we just move
            # the cursor to where it stopped.
            try:
                instance, end = codec.decode(reader.buffer, reader.tell(), memo, entry.factory)
            except (struct.error, IndexError) as exc:
                # The generated decoder reads with offset arithmetic, so a
                # short buffer surfaces as struct.error / IndexError —
                # normalize to the same typed error the reflective path
                # raises instead of letting the raw exception escape.
                raise TruncatedFrameError(
                    f"truncated compiled frame for {name!r}: {exc}",
                    offset=reader.tell(),
                    available=reader.remaining,
                ) from None
            except ValueError as exc:
                raise SerializationError(
                    f"corrupt compiled frame for {name!r}: {exc}"
                ) from None
            reader.seek(end)
            self._fast_hits += 1
            return instance
        if tag == tags.SWIZZLED:
            kind = str(reader.take(reader.u32()), "utf-8")
            slot = len(memo)
            memo.append(_PENDING)
            data = self._read(reader, memo, depth + 1, guard)
            materialized = self.unswizzler.unswizzle(SwizzleDescriptor(kind=kind, data=data))
            memo[slot] = materialized
            return materialized
        raise UnknownWireTagError(f"unknown wire tag 0x{tag:02x}", tag=tag)


_PENDING = object()


class _Reader:
    """Bounds-checked cursor over a ``memoryview`` of the frame.

    ``take`` hands out zero-copy subviews; scalar consumers
    (``int.from_bytes``, ``struct.unpack``, ``str``) read them directly,
    and only values that must outlive the frame (BYTES payloads) copy.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes | memoryview):
        self._data = data if isinstance(data, memoryview) else memoryview(data)
        self._pos = 0

    def take(self, count: int) -> memoryview:
        end = self._pos + count
        if end > len(self._data):
            raise TruncatedFrameError(
                f"truncated frame: wanted {count} bytes at offset {self._pos}, "
                f"only {len(self._data) - self._pos} available",
                offset=self._pos,
                wanted=count,
                available=len(self._data) - self._pos,
            )
        chunk = self._data[self._pos : end]
        self._pos = end
        return chunk

    @property
    def buffer(self) -> memoryview:
        return self._data

    def tell(self) -> int:
        return self._pos

    def seek(self, pos: int) -> None:
        if pos < self._pos or pos > len(self._data):
            raise SerializationError(
                f"compiled frame cursor out of bounds: {pos} not in "
                f"[{self._pos}, {len(self._data)}]"
            )
        self._pos = pos

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos
