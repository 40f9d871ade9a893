"""Trace-context wire compatibility.

The trace field follows the prefetch precedent: an untraced request
serializes to a 4-tuple — one field shorter on every untraced call —
and the 5-tuple only appears when a caller actually stamps context.
Sites with tracing on and off (traced consumer against untraced
provider, and the reverse) must interoperate unchanged.
"""

from __future__ import annotations

from repro.core.interfaces import Incremental
from repro.rmi.protocol import InvokeRequest
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from tests.models import make_chain


class TestFrameCompat:
    def test_untraced_request_keeps_the_legacy_state_shape(self):
        request = InvokeRequest("obj:1", "get", (1,), {"k": 2})
        state = request.__getstate__()
        assert len(state) == 4  # what a pre-tracing decoder expects

    def test_untraced_request_bytes_identical_to_legacy_encoding(self):
        with_field = InvokeRequest("obj:1", "get", (1,), {"k": 2})
        explicit_none = InvokeRequest("obj:1", "get", (1,), {"k": 2}, trace=None)
        assert Encoder().encode(with_field) == Encoder().encode(explicit_none)

    def test_traced_request_widens_to_five_and_round_trips(self):
        request = InvokeRequest("obj:1", "get", (), {}, trace=("trace:7", "span:9"))
        assert len(request.__getstate__()) == 5
        decoded = Decoder().decode(Encoder().encode(request))
        assert decoded.trace == ("trace:7", "span:9")
        assert decoded.object_id == "obj:1"

    def test_legacy_four_tuple_decodes_with_trace_none(self):
        """A frame from a peer that predates tracing installs trace=None."""
        request = InvokeRequest.__new__(InvokeRequest)
        request.__setstate__(("obj:1", "get", (1,), {"k": 2}))
        assert request.trace is None
        assert request.args == (1,)

    def test_untraced_caller_never_stamps(self):
        decoded = Decoder().decode(
            Encoder().encode(InvokeRequest("obj:1", "get"))
        )
        assert decoded.trace is None


class TestMixedDeployment:
    def _walk(self, consumer, head) -> list[int]:
        seen = [head.get_index()]
        node = head.get_next()
        while node is not None:
            seen.append(node.get_index())
            node = node.get_next()
        return seen

    def test_traced_consumer_against_untraced_provider(self, zsites):
        provider, consumer = zsites
        collector = consumer.enable_tracing()
        assert not provider.tracing_enabled

        provider.export(make_chain(4), name="chain")
        head = consumer.replicate("chain", mode=Incremental(1))
        assert self._walk(consumer, head) == [0, 1, 2, 3]

        kinds = {span.kind for span in collector.spans()}
        assert "replicate" in kinds
        assert "fault" in kinds
        assert "rmi.invoke" in kinds

    def test_untraced_consumer_against_traced_provider(self, zsites):
        provider, consumer = zsites
        collector = provider.enable_tracing()
        assert not consumer.tracing_enabled

        provider.export(make_chain(4), name="chain")
        head = consumer.replicate("chain", mode=Incremental(1))
        assert self._walk(consumer, head) == [0, 1, 2, 3]

        # The untraced consumer never stamps context, so no rmi.serve
        # wrapper fires at the provider — the requests look exactly
        # legacy.  The provider's own local work (package builds) still
        # records, each as its own root trace.
        recorded = collector.spans()
        assert {span.kind for span in recorded} == {"build_package"}
        assert all(span.parent_id is None for span in recorded)

    def test_disable_tracing_restores_the_null_path(self, zsites):
        provider, consumer = zsites
        collector = consumer.enable_tracing()
        provider.export(make_chain(3), name="chain")
        consumer.replicate("chain", mode=Incremental(1))
        recorded = len(collector.spans())
        assert recorded > 0

        consumer.disable_tracing()
        assert not consumer.tracing_enabled
        provider.export(make_chain(3), name="chain2")
        head = consumer.replicate("chain2", mode=Incremental(1))
        assert head.get_index() == 0
        assert len(collector.spans()) == recorded  # nothing new recorded

    def test_enable_tracing_is_idempotent(self, zsites):
        _provider, consumer = zsites
        first = consumer.enable_tracing()
        second = consumer.enable_tracing()
        assert first is second
