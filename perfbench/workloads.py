"""The three closed-loop workloads, driven through the public API only.

Each workload builds its world in :meth:`Workload.build` (the part timed
as ``setup_s``), then hands the runner an endless, seeded stream of
operations from :meth:`Workload.ops`.  An operation is a ``(kind, thunk,
starts_unit)`` triple: ``kind`` is ``"read"`` or ``"write"``, the thunk
performs the operation, checks its result and returns ``True`` when the
result is right, and ``starts_unit`` marks the first operation of a
session (``fault_walk``) or every operation (the others).  Everything
between two thunks (building the next session's list, evicting replicas)
runs inside the timed loop but outside any operation.

All inputs derive from the seed through string-seeded ``random.Random``
instances, so one seed gives the same objects, the same operation schedule
and the same wire bytes in every process.  Input properties that would
otherwise make one seed's mean differ from another's (object sizes,
record blob sizes) take evenly spaced values over their ranges
in a seeded order, so every seed runs the same mix in another order.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator

from repro import obiwan
from repro.bench.harness import FIG56_CHUNKS, FIG56_LIST_LENGTH
from repro.bench.workloads import PayloadNode, payload_for_size
from repro.core.interfaces import Incremental
from repro.core.meta import obi_id_of
from repro.core.runtime import World

@obiwan.compile
class FeedRecord:
    """A blob-heavy record: one 1-4 KB blob and six small int fields."""

    def __init__(self, blob: bytes = b"", f0: int = 0, f1: int = 0, f2: int = 0,
                 f3: int = 0, f4: int = 0, f5: int = 0):
        self.blob = blob
        self.f0 = f0
        self.f1 = f1
        self.f2 = f2
        self.f3 = f3
        self.f4 = f4
        self.f5 = f5

    def get_blob(self) -> bytes:
        return self.blob


RECORD_FIELDS = ("f0", "f1", "f2", "f3", "f4", "f5")


def evenly(lo: float, hi: float, count: int) -> list[float]:
    """The midpoints of ``count`` equal strata of ``[lo, hi)``."""
    width = (hi - lo) / count
    return [lo + (k + 0.5) * width for k in range(count)]


class Workload:
    """Base class: one world, one client thread, a seeded op stream."""

    name = ""
    transport = ""
    #: Units (sessions for ``fault_walk``, operations otherwise) at the
    #: start of the timed loop over which the wire counters are read.  A
    #: fixed prefix of a seeded schedule makes ``wire_bytes_per_op`` and
    #: ``link_ms_per_op`` repeat exactly for one seed, however many
    #: operations the timed loop then fits in.
    window_units = 0
    warmup_units = 0
    #: Units that make one full turn of the workload's mix.  Rates and
    #: latencies are taken over whole epochs only, and a traced run
    #: switches between untraced and traced stretches only between them.
    epoch_units = 1

    def __init__(self, seed: int, *, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.world: World | None = None

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{self.seed}:{purpose}")

    def sized(self, count: int) -> int:
        return max(1, int(count * self.scale))

    # -- lifecycle -------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.world is not None:
            self.world.close()
            self.world = None

    def ops(self, stream: str) -> Iterator[tuple[str, Callable[[], bool], bool]]:
        """Endless ``(kind, thunk, starts_unit)`` stream.  Each ``stream``
        name (``"warmup"``, ``"loop"``) draws from its own seeded source,
        so the timed loop starts at the head of its schedule."""
        raise NotImplementedError

    def rounds(self, stream: str, count: int,
               shares: tuple[tuple[str, float], ...]) -> Iterator[tuple[str, int]]:
        """``(label, slot)`` in rounds that visit each of ``count`` slots
        once, in a seeded order, with a fixed number of each label per
        round; the last label takes what rounding leaves."""
        rng = self.rng(f"{stream}:rounds")
        labels = [label for label, share in shares[:-1] for _ in range(round(count * share))]
        labels += [shares[-1][0]] * (count - len(labels))
        while True:
            rng.shuffle(labels)
            yield from zip(labels, rng.sample(range(count), count))

    def verify_end(self) -> list[str]:
        """End-of-run checks; returns one message per violation."""
        return []

    # -- telemetry the runner reads ---------------------------------------
    def sites(self):
        return list(self.world.sites.values()) if self.world is not None else []

    def traffic(self) -> tuple[int, float]:
        """(bytes, modelled link seconds) of every frame so far."""
        stats = self.world.network.stats
        return stats.total_bytes, stats.total_transfer_seconds

    def reactor_stats(self):
        return getattr(self.world.network, "reactor_stats", None)

    def feed_primary_logs(self) -> list[object]:
        """Change logs whose ``record`` pushes to followers."""
        return []

    def feed_state(self) -> dict[str, int]:
        return {"lag_serials": 0, "frames_pushed": 0, "frames_applied": 0,
                "push_failures": 0}


class FaultWalk(Workload):
    """Loopback transport; the paper's Figure 5 experiment as a load.

    Each session exports a fresh seeded ``PayloadNode`` list of the
    figure's length, replicates its root under ``Incremental(chunk)`` with
    a chunk from the figure's sweep, and walks every node while object
    faults pull the rest in chunks (one read op, checked by the index
    sum).  Each node the walk modified is then put back (one write op per
    node, checked against the returned version and the master's state),
    and both sides drop the session so the next one faults again.
    """

    name = "fault_walk"
    transport = "loopback"
    window_units = 2 * len(FIG56_CHUNKS)  # two epochs
    warmup_units = 2
    epoch_units = len(FIG56_CHUNKS)
    #: Object sizes span 64 B to 4 KB, the figure's 16 KB row left out.
    SIZE_RANGE = (64, 4097)
    #: One node in this many is modified and put back.  Figure 5 has no
    #: writes; this share is the benchmark's own (see NOTES.md).
    MODIFY_EVERY = 8

    def build(self) -> None:
        self.world = World.loopback()
        self.provider = self.world.create_site("S2")
        self.consumer = self.world.create_site("S1")
        # The first round trip sets up the provider's name server and
        # the consumer's lookup path; nothing is replicated yet.
        self.provider.naming.rebind("perfbench", self.provider.export(PayloadNode(0)))
        self.consumer.naming.lookup("perfbench")

    def _sessions(self, stream: str) -> Iterator[tuple[int, int]]:
        """Epochs of one session per chunk, in a seeded order.

        The sizes of an epoch are evenly spaced over :attr:`SIZE_RANGE`
        and pair with the chunks at random, so every epoch faults the same
        number of times and moves about the same bytes whatever the seed.
        """
        rng = self.rng(f"{stream}:sessions")
        sizes = [int(size) for size in evenly(*self.SIZE_RANGE, len(FIG56_CHUNKS))]
        while True:
            chunks = rng.sample(FIG56_CHUNKS, len(FIG56_CHUNKS))
            rng.shuffle(sizes)
            yield from zip(chunks, sizes)

    def ops(self, stream):
        rng = self.rng(f"{stream}:modify")
        length = self.sized(FIG56_LIST_LENGTH)
        for chunk, size in self._sessions(stream):
            payload = payload_for_size(size)
            nodes = [PayloadNode(index=i, payload=bytes(payload)) for i in range(length)]
            for node, nxt in zip(nodes, nodes[1:]):
                node.next = nxt
            ref = self.provider.export(nodes[0])
            chosen = set(rng.sample(range(length), max(1, length // self.MODIFY_EVERY)))
            modify = [position in chosen for position in range(length)]
            session = _WalkSession(self.consumer, ref, chunk, length, modify)
            yield "read", session.walk, True
            for position, replica in session.modified:
                new_payload = bytes([position % 251]) * len(payload)
                yield "write", _put_back_op(self.consumer, replica, nodes[position],
                                            new_payload), False
            for replica in session.replicas:
                self.consumer.evict(replica)
            for node in nodes:
                self.provider.drop_master(obi_id_of(node))


class _WalkSession:
    def __init__(self, consumer, ref, chunk: int, length: int, modify: list[bool]):
        self.consumer = consumer
        self.ref = ref
        self.chunk = chunk
        self.length = length
        self.modify = modify
        self.replicas: list[object] = []
        self.modified: list[tuple[int, object]] = []

    def walk(self) -> bool:
        consumer = self.consumer
        root = consumer.replicate(self.ref, mode=Incremental(self.chunk))
        total = 0
        prev = None
        node = root
        position = 0
        while node is not None:
            total += node.get_index()  # faults when ``node`` is a proxy-out
            if prev is not None:
                node = prev.get_next()  # the replica spliced in by the fault
            self.replicas.append(node)
            if self.modify[position]:
                self.modified.append((position, node))
            prev = node
            node = node.get_next()
            position += 1
        return position == self.length and total == self.length * (self.length - 1) // 2


def _put_back_op(consumer, replica, master, payload: bytes) -> Callable[[], bool]:
    def put_back() -> bool:
        replica.set_payload(payload)
        version = consumer.put_back(replica)
        return version == 2 and master.payload == payload

    return put_back


class RmiCalls(Workload):
    """Reactor TCP; synchronous stub calls on 256 exported masters.

    80% ``get_index`` (read, checked against the seeded index) and 20%
    ``set_payload`` with a 32-512 B argument (write, checked for its
    ``None`` return; the masters' final payloads are checked at the end).
    """

    name = "rmi_calls"
    transport = "reactor"
    window_units = 12 * 256  # twelve rounds
    warmup_units = 256
    OBJECTS = 256
    MIX = (("read", 0.8), ("write", 0.2))

    def build(self) -> None:
        rng = self.rng("objects")
        self.world = World.reactor()
        provider = self.world.create_site("S2")
        consumer = self.world.create_site("S1")
        count = self.sized(self.OBJECTS)
        self.masters = [PayloadNode(index=rng.randrange(1 << 30), payload=b"\x00" * 64)
                        for _ in range(count)]
        self.expected_payload = [m.payload for m in self.masters]
        self.stubs = [consumer.remote_stub(provider.export(m)) for m in self.masters]
        # First connection and pipelining negotiation.
        self.stubs[0].get_index()

    def ops(self, stream):
        rng = self.rng(f"{stream}:arguments")
        for kind, slot in self.rounds(stream, len(self.stubs), self.MIX):
            if kind == "read":
                yield kind, self._read(slot), True
            else:
                yield kind, self._write(slot, rng.randbytes(rng.randrange(32, 513))), True

    def _read(self, slot: int) -> Callable[[], bool]:
        stub, want = self.stubs[slot], self.masters[slot].index
        return lambda: stub.get_index() == want

    def _write(self, slot: int, payload: bytes) -> Callable[[], bool]:
        stub = self.stubs[slot]

        def write() -> bool:
            self.expected_payload[slot] = payload
            return stub.set_payload(payload) is None

        return write

    def verify_end(self) -> list[str]:
        return [
            f"master {slot} holds a payload the last write did not send"
            for slot, master in enumerate(self.masters)
            if master.payload != self.expected_payload[slot]
        ]


class SyncFeed(Workload):
    """Reactor TCP; a feed primary with one follower, a consumer syncing.

    The consumer holds replicas of 64 blob-heavy records.  70% of ops
    ``refresh`` a record (read, checked field by field against the
    master's model).  20% change one or two small fields of the consumer's
    replica and ``put_back`` (write); 10% change them on the follower's
    mirror and write them through the primary with ``put_through``
    (write).  Both writes are checked against the expected version.  The
    write-throughs leave the consumer's replica behind its master, so a
    refresh that brings nothing in fails its check.  Every write is pushed
    to the follower inside ``ChangeLog.record`` and acknowledged before it
    returns.  At the end the masters must match the model, and after one
    last refresh of every replica, master, replica and follower mirror
    must have equal state fingerprints, with the follower 0 serials behind.
    """

    name = "sync_feed"
    transport = "reactor"
    window_units = 24 * 64  # twenty-four rounds
    warmup_units = 128
    RECORDS = 64
    MIX = (("read", 0.7), ("through", 0.1), ("write", 0.2))

    def build(self) -> None:
        rng = self.rng("records")
        self.world = World.reactor()
        self.primary_site = self.world.create_site("P")
        follower_site = self.world.create_site("F")
        self.consumer = self.world.create_site("C")
        count = self.sized(self.RECORDS)
        sizes = evenly(1024, 4097, count)
        rng.shuffle(sizes)
        self.masters = [
            FeedRecord(rng.randbytes(int(size)), *(rng.randrange(1000) for _ in RECORD_FIELDS))
            for size in sizes
        ]
        refs = [self.primary_site.export(m) for m in self.masters]
        self.primary = self.primary_site.feed_primary()
        self.follower = follower_site.feed_follow("P")
        self.replicas = [self.consumer.replicate(ref) for ref in refs]
        self.blobs = [m.blob for m in self.masters]
        #: What each master must hold, and what each consumer replica holds.
        self.model = [
            {"version": 1, **{f: getattr(m, f) for f in RECORD_FIELDS}} for m in self.masters
        ]
        self.replica_model = [
            {f: getattr(m, f) for f in RECORD_FIELDS} for m in self.masters
        ]

    def ops(self, stream):
        rng = self.rng(f"{stream}:changes")
        for label, slot in self.rounds(stream, len(self.replicas), self.MIX):
            if label == "read":
                yield "read", self._refresh(slot), True
                continue
            fields = rng.sample(RECORD_FIELDS, rng.choice((1, 2)))
            values = {f: rng.randrange(1000) for f in fields}
            if label == "through":
                yield "write", self._put_through(slot, values), True
            else:
                yield "write", self._put(slot, values), True

    def _refresh(self, slot: int) -> Callable[[], bool]:
        replica, blob = self.replicas[slot], self.blobs[slot]
        model, replica_model = self.model[slot], self.replica_model[slot]

        def refresh() -> bool:
            fresh = self.consumer.refresh(replica)
            replica_model.update((f, model[f]) for f in RECORD_FIELDS)
            return fresh is replica and fresh.blob == blob and all(
                getattr(fresh, f) == model[f] for f in RECORD_FIELDS
            )

        return refresh

    def _put(self, slot: int, values: dict[str, int]) -> Callable[[], bool]:
        replica, model, replica_model = self.replicas[slot], self.model[slot], self.replica_model[slot]

        def put() -> bool:
            for field_name, value in values.items():
                setattr(replica, field_name, value)
            replica_model.update(values)
            # A put ships the replica's whole state: the last writer wins,
            # stale fields included.
            model.update(replica_model)
            model["version"] += 1
            return self.consumer.put_back(replica) == model["version"]

        return put

    def _put_through(self, slot: int, values: dict[str, int]) -> Callable[[], bool]:
        oid, model = obi_id_of(self.masters[slot]), self.model[slot]

        def put_through() -> bool:
            mirror = self.follower.site.master_object_for(oid)
            for field_name, value in values.items():
                setattr(mirror, field_name, value)
            model.update(values)
            model["version"] += 1
            return self.follower.put_through(mirror).get(oid) == model["version"]

        return put_through

    def verify_end(self) -> list[str]:
        errors = [
            f"record {slot}: master differs from the model"
            for slot, master in enumerate(self.masters)
            if any(getattr(master, f) != self.model[slot][f] for f in RECORD_FIELDS)
        ]
        fingerprint = self.primary_site.fingerprinter.of_object
        for slot, master in enumerate(self.masters):
            mirror = self.follower.site.master_object_for(obi_id_of(master))
            if mirror is None:
                errors.append(f"record {slot} has no follower mirror")
                continue
            replica = self.consumer.refresh(self.replicas[slot])
            prints = {fingerprint(master), fingerprint(replica), fingerprint(mirror)}
            if len(prints) != 1:
                errors.append(f"record {slot}: master, replica and mirror differ")
        lag = self.feed_state()["lag_serials"]
        if lag:
            errors.append(f"follower lags the primary by {lag} serials")
        return errors

    def feed_primary_logs(self) -> list[object]:
        return [self.primary_site.change_log]

    def feed_state(self) -> dict[str, int]:
        stats = self.primary_site.feed_stats.snapshot()
        follower_stats = self.follower.site.feed_stats.snapshot()
        return {
            "lag_serials": self.primary_site.change_log.latest_serial
            - self.follower.last_applied_serial,
            "frames_pushed": stats["frames_pushed"],
            "frames_applied": follower_stats["frames_applied"],
            "push_failures": stats["push_failures"],
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FaultWalk, RmiCalls, SyncFeed)
}
