"""Smoke tests for the benchmark: tiny runs of every workload.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import itertools
import json

import pytest

import run
from repro.core.meta import obi_id_of
from repro.core.runtime import Site
from tracing import LayerTracer
from workloads import WORKLOADS, FaultWalk, RmiCalls, SyncFeed

TINY = 0.1
END_TO_END = [name for name, _unit, _kind in run.END_TO_END]
PER_LAYER = [name for name, _unit, _kind in run.PER_LAYER]


@pytest.fixture(scope="module")
def results():
    """One untraced and one traced tiny run of every workload."""
    return {
        (name, trace): run.run(cls, 1, 0.3, trace, scale=TINY)
        for name, cls in WORKLOADS.items()
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_checks(results, name, trace):
    result = results[(name, trace)]
    assert result["correct"], result["record"]["notes"]
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(results, name):
    metrics = results[(name, False)]["metrics"]
    assert list(metrics) == END_TO_END
    for metric in metrics.values():
        assert metric["value"] > 0 and metric["unit"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(results, name):
    metrics = results[(name, True)]["metrics"]
    assert list(metrics) == PER_LAYER
    parts = sum(metrics[part]["value"] for part in run.BREAKDOWN_METRICS.values())
    assert parts == pytest.approx(metrics["bench.op_wall_us_per_op"]["value"], rel=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_records_its_environment(results, name):
    record = results[(name, False)]["record"]
    environment = record["environment"]
    assert environment["workload"] == name
    assert environment["transport"] == WORKLOADS[name].transport
    assert environment["seed"] == 1 and environment["cpu_count"] >= 1
    for settings in environment["site_settings"].values():
        assert not settings["delta_sync"] and not settings["compiled_codec"]
    assert set(record["metric_kinds"].values()) == {"wall-clock", "exact count", "simulated"}


def test_wire_metrics_repeat_exactly_for_one_seed():
    first = run.run(RmiCalls, 5, 0.2, False, scale=TINY)["metrics"]
    second = run.run(RmiCalls, 5, 0.2, False, scale=TINY)["metrics"]
    for name in ("wire_bytes_per_op", "link_ms_per_op"):
        assert first[name]["value"] == second[name]["value"]


class WrongIndexRmi(RmiCalls):
    """Expects every read to return one more than the seeded index."""

    def _read(self, slot):
        stub, want = self.stubs[slot], self.masters[slot].index + 1
        return lambda: stub.get_index() == want


class DivergedMirrorFeed(SyncFeed):
    """Corrupts one follower mirror before the end-of-run check."""

    def verify_end(self):
        mirror = self.follower.site.master_object_for(obi_id_of(self.masters[0]))
        mirror.f0 += 1
        return super().verify_end()


def test_wrong_expected_value_counts_as_failure():
    result = run.run(WrongIndexRmi, 1, 0.2, False, scale=TINY)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["record"]["notes"]["error_rate"] > 0


def test_diverged_follower_fails_the_end_check():
    result = run.run(DivergedMirrorFeed, 1, 0.2, False, scale=TINY)
    assert not result["correct"]
    assert any("differ" in error for error in result["record"]["notes"]["end_check_failures"])


def test_refresh_that_brings_nothing_in_fails(monkeypatch):
    """Write-throughs on the follower leave the consumer's replicas behind
    their masters, so a refresh that fetches nothing is caught."""
    monkeypatch.setattr(Site, "refresh", lambda site, replica: replica)
    result = run.run(SyncFeed, 1, 0.2, False, scale=TINY)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("differ" in error for error in result["record"]["notes"]["end_check_failures"])


def test_command_exits_non_zero_on_a_wrong_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(WORKLOADS, "rmi_calls", WrongIndexRmi)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "rmi_calls", "--seed", "1", "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["failed"] > 0 and not last["correct"]


def _schedule(cls, seed, count=200):
    workload = cls(seed, scale=TINY)
    if cls is FaultWalk:
        return list(itertools.islice(workload._sessions("loop"), count))
    return list(itertools.islice(workload.rounds("loop", 64, cls.MIX), count))


@pytest.mark.parametrize("cls", [FaultWalk, RmiCalls, SyncFeed])
def test_seeds_give_different_schedules(cls):
    assert _schedule(cls, 1) == _schedule(cls, 1)
    assert _schedule(cls, 1) != _schedule(cls, 2)


def test_seeds_share_metric_names_but_not_values():
    one = run.run(SyncFeed, 1, 0.2, False, scale=TINY)["metrics"]
    two = run.run(SyncFeed, 2, 0.2, False, scale=TINY)["metrics"]
    assert list(one) == list(two)
    assert one["wire_bytes_per_op"]["value"] != two["wire_bytes_per_op"]["value"]


def test_partition_sums_to_op_time_with_overlapping_children():
    tracer = LayerTracer(object)
    tracer.spans.extend([
        (1, 0, "op", 0, 100, 0, False),
        (2, 1, "simnet.call", 10, 90, 0, False),
        (3, 2, "rmi.dispatch", 20, 60, 0, False),
        (4, 2, "serial.encode", 50, 70, 0, False),  # overlaps its sibling
        (5, 0, "serial.decode", 200, 210, 0, False),  # enclosed by no op
    ])
    attribution = tracer.attribute()
    # The encode span is clipped to where its overlapping sibling ends.
    assert attribution.self_ns == {"op": 20, "simnet.call": 30,
                                   "rmi.dispatch": 40, "serial.encode": 10}
    assert sum(attribution.self_ns.values()) == attribution.op_wall_ns == 100
    assert attribution.unlinked_ns == {"serial.decode": 10}


def test_span_linked_outside_its_operation_is_counted():
    tracer = LayerTracer(object)
    tracer.spans.extend([
        (1, 0, "op", 0, 100, 0, False),
        (2, 1, "simnet.call", 10, 90, 0, False),
        (3, 2, "rmi.dispatch", 20, 60, 0, False),  # linked into op 1
        (4, 0, "feed.apply", 30, 40, 0, False),  # opened in op 1, linked to nothing
        (5, 0, "op", 100, 200, 0, False),
        (6, 2, "rmi.dispatch", 120, 130, 0, False),  # opened in op 5, linked to op 1
        (7, 0, "serial.decode", 300, 310, 0, False),  # between operations
    ])
    assert tracer.attribute().mislinked == 2
