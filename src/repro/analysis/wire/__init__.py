"""obiwire: static wire-protocol contract extraction and analysis.

The wire contract of an OBIWAN deployment is scattered across four
surfaces: the tag table (:mod:`repro.serial.tags`), the registered frame
classes (:mod:`repro.core.packages`, :mod:`repro.rmi.protocol`, …), the
conditionally-widened state tuples (``ReplicationMode``,
``InvokeRequest``), and the RMI verbs the runtime actually issues.  A
change to any of them is a *deployment* event — every peer build must
agree — yet nothing in the codebase said so until now.

This package extracts all four into one canonical, fingerprinted spec
(:mod:`~repro.analysis.wire.spec`), diffs two specs for breaking changes
(:mod:`~repro.analysis.wire.diff`), and enforces the OBI3xx evolution
rules through the ordinary obilint engine
(:mod:`~repro.analysis.wire.rules`).  The ``obiwire`` CLI
(:mod:`~repro.analysis.wire.cli`) generates the spec, compares it
against the committed ``.github/wire-baseline.json``, and reports
breaking changes between any two spec files.
"""

from repro.analysis.wire.diff import Change, diff_specs, render_diff
from repro.analysis.wire.extract import Extraction, extract_modules, spec_of
from repro.analysis.wire.spec import WireClass, WireField, WireSpec

__all__ = [
    "Change",
    "Extraction",
    "WireClass",
    "WireField",
    "WireSpec",
    "diff_specs",
    "extract_modules",
    "render_diff",
    "spec_of",
]
