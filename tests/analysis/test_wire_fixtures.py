"""Every seeded-defect fixture under fixtures/wire/ is caught by its rule.

Same contract as the flow corpus: each fixture holds exactly the defect
its OBI3xx rule exists for, and trips *only* that rule even with every
wire rule selected — the precision claim the OBI3xx rules ship with.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.wire.rules import BASELINE_ENV

FIXTURES = Path(__file__).parent / "fixtures" / "wire"
REPO_BASELINE = Path(__file__).parents[2] / ".github" / "wire-baseline.json"

CASES = [
    ("obi301_tag_collision.py", "OBI301"),
    ("obi302_field_reorder.py", "OBI302"),
    ("obi303_unencodable_field.py", "OBI303"),
    ("obi305_unguarded_widened_tuple.py", "OBI305"),
    ("obi306_schema_input_drift.py", "OBI306"),
]

ALL_WIRE = {rule for _fixture, rule in CASES}


@pytest.fixture(autouse=True)
def pinned_baseline(monkeypatch):
    """OBI302 compares against the repo's committed baseline regardless of
    where the test process was started from."""
    monkeypatch.setenv(BASELINE_ENV, str(REPO_BASELINE))


@pytest.mark.parametrize(("fixture", "rule"), CASES)
def test_fixture_detected_by_its_rule(fixture, rule):
    report = analyze_paths([FIXTURES / fixture], select={rule})
    rules_hit = {finding.rule for finding in report.all_findings()}
    assert rule in rules_hit, f"{fixture} not detected by {rule}"


@pytest.mark.parametrize(("fixture", "rule"), CASES)
def test_fixture_trips_exactly_its_rule(fixture, rule):
    report = analyze_paths([FIXTURES / fixture], select=ALL_WIRE)
    assert {finding.rule for finding in report.all_findings()} == {rule}


def test_every_wire_rule_has_a_fixture():
    from repro.analysis.rules import build_rules

    wire_ids = {rule.id for rule in build_rules() if rule.id.startswith("OBI3")}
    assert wire_ids == ALL_WIRE


def test_self_host_is_clean_under_strict():
    """The shipped tree satisfies its own wire contract."""
    src = Path(__file__).parents[2] / "src" / "repro"
    report = analyze_paths([src], select=ALL_WIRE, strict=True)
    assert not report.failed(strict=True), [
        finding.format() for finding in report.all_findings()
    ]


def test_missing_baseline_silences_obi302_only(monkeypatch, tmp_path):
    """Without a committed baseline OBI302 has nothing to enforce — the
    other five rules keep working."""
    monkeypatch.setenv(BASELINE_ENV, str(tmp_path / "nowhere.json"))
    report = analyze_paths([FIXTURES / "obi302_field_reorder.py"], select=ALL_WIRE)
    assert not report.all_findings()
    report = analyze_paths([FIXTURES / "obi301_tag_collision.py"], select=ALL_WIRE)
    assert {finding.rule for finding in report.all_findings()} == {"OBI301"}


def test_wire_findings_stay_suppressible(tmp_path):
    source = (FIXTURES / "obi301_tag_collision.py").read_text(encoding="utf-8")
    patched = source.replace(
        "DELTA = 0x05  # collides with STR",
        "DELTA = 0x05  # obilint: disable=OBI301 -- test fixture",
    )
    path = tmp_path / "suppressed_tags.py"
    path.write_text(patched, encoding="utf-8")
    report = analyze_paths([path], select={"OBI301"})
    assert not report.findings
    assert any(finding.rule == "OBI301" for finding in report.suppressed)
