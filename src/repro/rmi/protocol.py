"""The invocation protocol: what travels inside transport payloads.

Five frame bodies, all ordinary registered classes:

* :class:`InvokeRequest` — target object id, method name, arguments;
* :class:`InvokeSuccess` — the return value;
* :class:`InvokeFailure` — a structured description of a remote exception;
* :class:`InvokeBatchRequest` / :class:`InvokeBatchResponse` — several
  invocations on one destination site sharing a single network round
  trip (the batched-demand fast path of the fault resolver).  Each
  batched call succeeds or fails independently.

Failures carry the exception's wire name so well-known middleware
exceptions (``NameNotFoundError``, ``DisconnectedError``, …) re-raise as
their own types at the caller, while arbitrary application exceptions
surface as :class:`~repro.util.errors.RemoteError` — the same split Java
RMI makes between declared exceptions and ``RemoteException``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serial.registry import global_registry
from repro.util import errors
from repro.util.errors import RemoteError


@dataclass(slots=True)
class InvokeRequest:
    """A method call on an exported object.

    ``trace`` is optional causal-trace context — the caller's
    ``(trace_id, span_id)`` from :mod:`repro.obs.context` — and follows
    the prefetch precedent: requests without it serialize to a 4-tuple,
    requests carrying it widen to a 5-tuple, so untraced requests stay
    one field shorter.
    """

    object_id: str
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    trace: tuple | None = None

    def __getstate__(self) -> object:
        if self.trace is None:
            return (self.object_id, self.method, self.args, self.kwargs)
        return (self.object_id, self.method, self.args, self.kwargs, self.trace)

    def __setstate__(self, state: object) -> None:
        if len(state) == 4:  # type: ignore[arg-type]
            self.object_id, self.method, self.args, self.kwargs = state  # type: ignore[misc]
            self.trace = None
        else:
            (
                self.object_id,
                self.method,
                self.args,
                self.kwargs,
                self.trace,
            ) = state  # type: ignore[misc]


@dataclass(slots=True)
class InvokeSuccess:
    """A normal return."""

    value: object = None

    def __getstate__(self) -> object:
        return self.value

    def __setstate__(self, state: object) -> None:
        self.value = state


@dataclass(slots=True)
class InvokeFailure:
    """A remote exception, flattened for the wire."""

    error_name: str = ""
    message: str = ""
    remote_traceback: str = ""

    def __getstate__(self) -> object:
        return (self.error_name, self.message, self.remote_traceback)

    def __setstate__(self, state: object) -> None:
        self.error_name, self.message, self.remote_traceback = state  # type: ignore[misc]

    @classmethod
    def from_exception(cls, exc: BaseException, traceback_text: str = "") -> "InvokeFailure":
        return cls(
            error_name=type(exc).__name__,
            message=str(exc),
            remote_traceback=traceback_text,
        )

    def to_exception(self) -> BaseException:
        """The local exception this failure reconstructs to.

        Middleware exceptions from :mod:`repro.util.errors` reconstruct as
        their own type; anything else becomes :class:`RemoteError`.
        """
        error_cls = _WELL_KNOWN.get(self.error_name)
        if error_cls is not None:
            return error_cls(self.message)
        return RemoteError(
            f"remote invocation failed: {self.error_name}: {self.message}",
            remote_type=self.error_name,
            remote_traceback=self.remote_traceback,
        )

    def raise_(self) -> "NoReturn":  # type: ignore[name-defined]  # noqa: F821
        """Re-raise at the caller."""
        raise self.to_exception()


@dataclass(slots=True)
class InvokeBatchRequest:
    """Several invocations for one destination site, one round trip."""

    requests: list[InvokeRequest] = field(default_factory=list)

    def __getstate__(self) -> object:
        return self.requests

    def __setstate__(self, state: object) -> None:
        self.requests = state  # type: ignore[assignment]


@dataclass(slots=True)
class InvokeBatchResponse:
    """Positional results for an :class:`InvokeBatchRequest` — each an
    :class:`InvokeSuccess` or :class:`InvokeFailure`, aligned with the
    request list."""

    results: list = field(default_factory=list)

    def __getstate__(self) -> object:
        return self.results

    def __setstate__(self, state: object) -> None:
        self.results = state  # type: ignore[assignment]


@dataclass(slots=True)
class NeedFull:
    """Control reply: a delta-encoded request cannot be applied here.

    Returned (not raised) by the delta put/refresh verbs when the
    receiver must see full state — base version mismatch, fingerprint
    divergence, or missing delta history.  Travelling as an ordinary
    return value keeps the downgrade on the normal success path: the
    consumer reissues the legacy full-state operation and both sides
    converge.
    """

    reason: str = ""

    def __getstate__(self) -> object:
        return self.reason

    def __setstate__(self, state: object) -> None:
        self.reason = state  # type: ignore[assignment]


#: Middleware exception types that cross the wire losslessly.
_WELL_KNOWN: dict[str, type[BaseException]] = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type)
    and issubclass(obj, errors.ObiwanError)
    and obj is not errors.ObiwanError
}


for _protocol_cls, _wire_name in (
    (InvokeRequest, "rmi.InvokeRequest"),
    (InvokeSuccess, "rmi.InvokeSuccess"),
    (InvokeFailure, "rmi.InvokeFailure"),
    (InvokeBatchRequest, "rmi.InvokeBatchRequest"),
    (InvokeBatchResponse, "rmi.InvokeBatchResponse"),
    (NeedFull, "rmi.NeedFull"),
):
    global_registry.register(_protocol_cls, name=_wire_name)
