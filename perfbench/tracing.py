"""Per-layer attribution by spans recorded around each layer's public calls.

:class:`LayerTracer` wraps the public entry points of every layer (the
table :data:`LAYER_CALLS`) while tracing is on, and restores them when it
is off, so a run can interleave traced and untraced stretches.  The
program itself is not edited: every span is taken from here.

A span is ``(id, parent, kind, start_ns, end_ns, extra, failed)``.  Its
parent is the innermost open span on the same thread.  A span that opens
on a thread with nothing open (a server-side dispatch thread of the
reactor) is linked to the newest transport span still open anywhere: with
one client thread and synchronous calls that is the call it serves.
Spans that no operation encloses are reported as unlinked busy time.
The link is checked: every span that opens while an operation runs must
lead up to that operation, and :attr:`Attribution.mislinked` counts the
ones that do not.

Self time: each operation's interval is partitioned among the spans of
its tree by a sweep — every instant goes to the deepest span covering it,
and where concurrent children overlap, to the earlier one.  The parts
therefore sum to the operation's wall time exactly, and the operation's
own part (time in no layer call) is the unattributed remainder.
"""

from __future__ import annotations

import gzip
import itertools
from bisect import bisect_right
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

from repro.core.proxy_in import ProxyIn
from repro.core.runtime import Site
from repro.core.versions import ChangeLog
from repro.feed.follower import FeedFollower
from repro.rmi.endpoint import InvokeFuture, RmiEndpoint
from repro.rmi.skeleton import ObjectTable
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.simnet.network import PendingReply

#: Span kinds that are transport calls: a dispatch thread's first span
#: links to the newest one of these still open.
TRANSPORT_KINDS = frozenset({"simnet.call", "simnet.wait"})

#: ``(kind, class, method)`` for every wrapped call.  ``None`` as the
#: class stands for the world's concrete network class.
LAYER_CALLS = (
    ("simnet.call", None, "call"),
    ("simnet.call", None, "submit"),
    ("simnet.wait", PendingReply, "result"),
    ("serial.encode", Encoder, "encode"),
    ("serial.encode", Encoder, "encode_compiled"),
    ("serial.decode", Decoder, "decode"),
    ("rmi.invoke", RmiEndpoint, "invoke"),
    ("rmi.invoke", RmiEndpoint, "invoke_async"),
    ("rmi.invoke", RmiEndpoint, "invoke_batch"),
    ("rmi.invoke", RmiEndpoint, "invoke_oneway"),
    ("rmi.future", InvokeFuture, "result"),
    ("rmi.dispatch", ObjectTable, "dispatch"),
    ("core.fault", Site, "resolve_fault"),
    ("core.demand", ProxyIn, "demand"),
    ("core.package", ProxyIn, "get"),
    ("core.package", ProxyIn, "get_delta"),
    ("core.put_apply", ProxyIn, "put"),
    ("core.put_apply", ProxyIn, "put_delta"),
    ("core.sync", Site, "put_back"),
    ("core.sync", Site, "refresh"),
    ("core.sync", Site, "put_back_cluster"),
    ("core.sync", Site, "refresh_cluster"),
    ("core.replicate", Site, "replicate"),
    ("feed.push", ChangeLog, "record"),
    ("feed.apply", FeedFollower, "handle_events"),
)

#: Layer each span kind's self time is reported under.
LAYER_OF_KIND = {
    "op": "bench.unattributed",
    "simnet.call": "simnet.self",
    "simnet.wait": "simnet.self",
    "serial.encode": "serial.encode",
    "serial.decode": "serial.decode",
    "rmi.invoke": "rmi.invoke_self",
    "rmi.future": "rmi.invoke_self",
    "rmi.dispatch": "rmi.dispatch_self",
    "core.fault": "core.fault_self",
    "core.demand": "core.package",
    "core.package": "core.package",
    "core.put_apply": "core.put_apply",
    "core.sync": "core.sync_self",
    "core.replicate": "core.replicate_self",
    "feed.push": "feed.push_self",
    "feed.apply": "feed.apply_self",
}

#: The parts an operation's wall time is split into.
BREAKDOWN = tuple(dict.fromkeys(LAYER_OF_KIND.values()))


def _extra(kind: str, result: object) -> int:
    """Work size a span carries: bytes encoded, objects in a fault's package."""
    if kind == "serial.encode":
        return len(result) if result is not None else 0
    if kind == "core.demand":
        return getattr(result, "object_count", 0)
    return 0


class LayerTracer:
    """Records spans from wrapped layer calls; one instance per run."""

    def __init__(self, network_cls: type):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_transport: list[int] = []
        self._client = threading.get_ident()
        self._primary_logs: set[int] = set()
        self._targets = [
            (kind, cls if cls is not None else network_cls, name)
            for kind, cls, name in LAYER_CALLS
        ]
        self._saved: list[tuple[type, str, object]] = []

    def watch_primary_logs(self, logs: list[object]) -> None:
        """Time ``ChangeLog.record`` as feed push on these logs only."""
        self._primary_logs = {id(log) for log in logs}

    # -- switching -------------------------------------------------------
    def start(self) -> None:
        """Wrap every layer call (between operations only)."""
        for kind, cls, name in self._targets:
            self._saved.append((cls, name, cls.__dict__.get(name)))
            setattr(cls, name, self._wrap(kind, getattr(cls, name)))

    def stop(self) -> None:
        """Put the original functions back."""
        while self._saved:
            cls, name, original = self._saved.pop()
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        if threading.get_ident() != self._client:
            try:
                return self._open_transport[-1]
            except IndexError:
                return 0
        return 0

    def _wrap(self, kind: str, func):
        tracer = self
        transport = kind in TRANSPORT_KINDS
        feed_push = kind == "feed.push"
        sized = kind in ("serial.encode", "core.demand")
        spans = self.spans
        ids = self._ids
        open_transport = self._open_transport

        def traced(*args, **kwargs):
            if feed_push and id(args[0]) not in tracer._primary_logs:
                return func(*args, **kwargs)
            stack = tracer._stack()
            sid = next(ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            if transport:
                open_transport.append(sid)
            result = None
            failed = True
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                if transport:
                    open_transport.remove(sid)
                spans.append((sid, parent, kind, start, end,
                              _extra(kind, result) if sized and not failed else 0, failed))

        return traced

    def op(self, thunk):
        """Run one operation as a root span; returns the thunk's result."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter_ns()
        try:
            return thunk()
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((sid, 0, "op", start, end, 0, False))

    # -- analysis ----------------------------------------------------------
    def attribute(self) -> "Attribution":
        children: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[1]:
                children[span[1]].append(span)
        for kids in children.values():
            kids.sort(key=lambda span: span[3])
        result = Attribution()
        for span in self.spans:
            kind, duration = span[2], span[4] - span[3]
            result.count[kind] += 1
            result.inclusive_ns[kind] += duration
            result.extra[kind] += span[5]
            result.failed[kind] += span[6]
            if kind == "op":
                result.ops += 1
                result.op_wall_ns += duration
                _partition(span, span[3], span[4], children, result.self_ns)
            elif not span[1]:
                _partition(span, span[3], span[4], children, result.unlinked_ns)
        result.mislinked = _count_mislinked(self.spans)
        return result

    def write(self, path: Path) -> None:
        """All spans, one CSV line each, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,kind,start_ns,end_ns,extra,failed\n")
            for span in self.spans:
                out.write("%d,%d,%s,%d,%d,%d,%d\n" % span)


class Attribution:
    """Totals over every recorded span; ``self_ns`` partitions op time."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_wall_ns = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.unlinked_ns: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        #: Spans opened while an operation ran but not linked into its tree.
        self.mislinked = 0

    @staticmethod
    def by_layer(ns_by_kind: dict[str, int]) -> dict[str, int]:
        """Sum per-kind nanoseconds into the :data:`BREAKDOWN` parts."""
        layers = dict.fromkeys(BREAKDOWN, 0)
        for kind, ns in ns_by_kind.items():
            layers[LAYER_OF_KIND[kind]] += ns
        return layers


def _partition(span: tuple, lo: int, hi: int, children, acc) -> None:
    """Give every instant of ``[lo, hi)`` to the deepest span covering it."""
    cursor = lo
    for kid in children.get(span[0], ()):
        start, end = max(kid[3], cursor), min(kid[4], hi)
        if end <= start:
            continue
        acc[span[2]] += start - cursor
        _partition(kid, start, end, children, acc)
        cursor = end
    acc[span[2]] += hi - cursor


def _count_mislinked(spans: list[tuple]) -> int:
    """Spans that open inside an operation's interval but whose chain of
    parents does not end at that operation."""
    parent_of = {span[0]: span[1] for span in spans}
    root_of: dict[int, int] = {}

    def root(sid: int) -> int:
        chain = []
        while sid not in root_of and parent_of.get(sid, 0):
            chain.append(sid)
            sid = parent_of[sid]
        top = root_of.get(sid, sid)
        for link in chain:
            root_of[link] = top
        return top

    ops = sorted((span[3], span[4], span[0]) for span in spans if span[2] == "op")
    starts = [op[0] for op in ops]
    mislinked = 0
    for span in spans:
        if span[2] == "op":
            continue
        at = bisect_right(starts, span[3]) - 1
        if at >= 0 and span[3] < ops[at][1] and root(span[0]) != ops[at][2]:
            mislinked += 1
    return mislinked
