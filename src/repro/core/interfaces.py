"""Interfaces and replication modes.

An :class:`Interface` is the Python analogue of the paper's ``IA``: the
set of methods that may be invoked on an object through OBIWAN — remotely
via its proxy-in, or locally via its proxy-out before the target is
replicated.  obicomp derives it from a user class's public methods.

A :class:`ReplicationMode` is the ``mode`` argument of the paper's
``IProvideRemote::get(mode)``: it selects, *at run time*, how much of the
reachability graph a fetch brings over and whether the fetched objects
share a single proxy pair (a cluster) or get one pair each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.serial.registry import global_registry
from repro.util.errors import ClusterError, SerializationError


@dataclass(frozen=True)
class Interface:
    """The invocable surface of a compiled class."""

    name: str
    methods: tuple[str, ...]

    def __contains__(self, method: str) -> bool:
        return method in self.methods

    def __iter__(self):
        return iter(self.methods)


#: Sentinel for "no bound" in mode parameters.
UNBOUNDED = 0


@dataclass(frozen=True)
class ReplicationMode:
    """How a ``get`` traverses and packages the reachability graph.

    Attributes
    ----------
    chunk:
        Maximum number of objects fetched per get/fault
        (:data:`UNBOUNDED` = the whole reachable graph — the paper's
        transitive-closure mode).
    depth:
        Maximum BFS depth from the fetch root (:data:`UNBOUNDED` = no
        depth bound).  The paper's clusters are depth-defined: "the
        application specifies the depth of the partial reachability graph
        that it wants to replicate as a whole".
    clustered:
        ``True`` → the fetched objects form one cluster sharing a single
        proxy pair; they cannot be individually updated (Section 4.3).
        ``False`` → every fetched object gets its own proxy-in so it can
        be individually ``put`` / refreshed (Section 4.2).
    prefetch:
        Read-ahead budget for the object-fault fast path.  ``0`` (the
        default) keeps the paper's one-round-trip-per-fault protocol.
        ``k > 0`` lets one fault fetch up to ``k`` objects of the
        incremental chunk in a single round trip (the provider widens the
        demand scope) and piggyback up to ``k`` sibling faults pending on
        the same provider site onto that round trip.  Prefetch is purely a
        transfer-scheduling knob: per-object-pair mode still gives every
        prefetched member its own proxy-in, and clustered fetches never
        widen (cluster membership is a semantic boundary).
    codec:
        Serialization-codec announcement (PR 7).  ``0`` (the default)
        requests the reflective wire format.  ``1`` announces that the
        consumer decodes obicodec ``OBJECT_SCHEMA`` frames, so a
        codec-enabled provider may use the compiled fast path for the
        payload.  Like ``prefetch``, the field travels only when set, so
        the common frame stays a 3-tuple.
    """

    chunk: int = 1
    depth: int = UNBOUNDED
    clustered: bool = False
    prefetch: int = 0
    codec: int = 0

    def __post_init__(self) -> None:
        if self.chunk < 0 or self.depth < 0:
            raise ClusterError("mode bounds must be >= 0 (0 means unbounded)")
        if self.prefetch < 0:
            raise ClusterError("prefetch must be >= 0 (0 disables read-ahead)")
        if self.codec not in (0, 1):
            raise ClusterError("codec must be 0 (reflective) or 1 (obicodec)")
        if self.chunk == UNBOUNDED and self.depth == UNBOUNDED and self.clustered:
            # A whole-graph cluster is legal; nothing to check.
            pass

    @property
    def unbounded(self) -> bool:
        return self.chunk == UNBOUNDED and self.depth == UNBOUNDED

    def demand_scope(self) -> "ReplicationMode":
        """The traversal bound a *fault-time* demand should use.

        With prefetch set on a chunk-bounded per-object mode, the provider
        walks ``max(chunk, prefetch)`` objects so one round trip carries
        the faulting target plus its read-ahead frontier.  Explicit
        ``get``/``replicate`` calls, clustered fetches and unbounded or
        depth-only modes keep their exact scope.
        """
        if (
            self.prefetch <= self.chunk
            or self.clustered
            or self.chunk == UNBOUNDED
        ):
            return self
        return replace(self, chunk=self.prefetch)

    def describe(self) -> str:
        scope_parts = []
        if self.chunk != UNBOUNDED:
            scope_parts.append(f"{self.chunk} objects")
        if self.depth != UNBOUNDED:
            scope_parts.append(f"depth {self.depth}")
        scope = " and ".join(scope_parts) if scope_parts else "whole graph"
        style = "clustered" if self.clustered else "per-object pairs"
        if self.prefetch:
            style += f", prefetch {self.prefetch}"
        return f"{scope}, {style}"


def Incremental(
    chunk: int = 1, *, depth: int = UNBOUNDED, prefetch: int = 0
) -> ReplicationMode:
    """Per-object incremental replication: ``chunk`` objects per fault,
    each with its own proxy pair (paper Section 4.2).  ``prefetch=k``
    turns on the batched-demand fast path: one fault round trip carries
    up to ``k`` objects of read-ahead."""
    if chunk == UNBOUNDED and depth == UNBOUNDED:
        raise ClusterError("Incremental() needs a chunk or depth bound; use Transitive()")
    return ReplicationMode(chunk=chunk, depth=depth, clustered=False, prefetch=prefetch)


def Transitive() -> ReplicationMode:
    """Replicate the whole transitive closure in one step, one proxy pair
    per object so everything stays individually updatable."""
    return ReplicationMode(chunk=UNBOUNDED, depth=UNBOUNDED, clustered=False)


def Cluster(size: int = UNBOUNDED, *, depth: int = UNBOUNDED) -> ReplicationMode:
    """Replicate ``size`` objects (or up to ``depth``) as one cluster with
    a single proxy pair (paper Section 4.3).  Cluster members cannot be
    individually updated — use :meth:`Site.put_back_cluster`."""
    return ReplicationMode(chunk=size, depth=depth, clustered=True)


def _mode_state(mode: object) -> object:
    assert isinstance(mode, ReplicationMode)
    if mode.codec:
        return (mode.chunk, mode.depth, mode.clustered, mode.prefetch, mode.codec)
    if mode.prefetch:
        return (mode.chunk, mode.depth, mode.clustered, mode.prefetch)
    # With the newer knobs unset the 3-tuple keeps every plain get and
    # demand two fields shorter.
    return (mode.chunk, mode.depth, mode.clustered)


def _mode_set_state(mode: object, state: object) -> None:
    if not isinstance(state, tuple) or not 3 <= len(state) <= 5:
        raise SerializationError(
            f"core.ReplicationMode state must be a 3-, 4- or 5-tuple, got {state!r}"
        )
    chunk, depth, clustered, *rest = state
    object.__setattr__(mode, "chunk", chunk)
    object.__setattr__(mode, "depth", depth)
    object.__setattr__(mode, "clustered", clustered)
    object.__setattr__(mode, "prefetch", rest[0] if rest else 0)
    object.__setattr__(mode, "codec", rest[1] if len(rest) > 1 else 0)
    try:
        mode.__post_init__()  # type: ignore[attr-defined]
    except (ClusterError, TypeError) as exc:
        raise SerializationError(
            f"core.ReplicationMode state {state!r} is out of range: {exc}"
        ) from None


global_registry.register(
    ReplicationMode,
    name="core.ReplicationMode",
    get_state=_mode_state,
    set_state=_mode_set_state,
)


def _interface_state(iface: object) -> object:
    assert isinstance(iface, Interface)
    return (iface.name, list(iface.methods))


def _interface_set_state(iface: object, state: object) -> None:
    name, methods = state  # type: ignore[misc]
    object.__setattr__(iface, "name", name)
    object.__setattr__(iface, "methods", tuple(methods))


global_registry.register(
    Interface,
    name="core.Interface",
    get_state=_interface_state,
    set_state=_interface_set_state,
)
