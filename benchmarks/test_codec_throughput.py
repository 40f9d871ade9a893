"""PR-7 bench smoke: obicodec schema-compiled serialization.

Asserts the headline acceptance claims — the compiled fast path moves a
registered-class workload through the serializer at >= 2x the combined
encode+decode throughput of the reflective codec with every roundtrip
(and fingerprint) exact, and turning the codec knob on leaves the PR-2
fault-batching and PR-4 delta-sync e2e benches no slower — and records
``BENCH_pr7.json`` at the repo root when ``OBIWAN_BENCH_RECORD`` is set
(the CI bench-smoke job does).
"""

import json
import os
from pathlib import Path

from repro.bench.codec_throughput import codec_throughput_report


def test_codec_throughput_smoke(once):
    report = once(codec_throughput_report)
    micro = report["micro"]

    # run_throughput raises on any drift, so reaching this line means
    # every compiled roundtrip rebuilt the exact instance dict and the
    # exact replica fingerprint of its reflective twin.
    assert micro["roundtrips_verified"] == micro["reflective"]["objects"]

    # The acceptance bar: >= 2x combined serializer throughput, and a
    # frame that dropped the per-field names.
    assert micro["combined_speedup"] >= 2.0
    assert micro["encode_speedup"] > 1.0
    assert micro["decode_speedup"] > 1.0
    assert micro["bytes_per_frame_compiled"] < micro["bytes_per_frame_reflective"]

    # E2E guardrails: the codec announcement alone (fault batching walks an
    # object-reference graph, so nothing compiles there) must be noise,
    # and the all-scalar delta-sync workload must not get slower or
    # fatter on the wire.
    walk = report["fault_batching_e2e"]
    assert walk["compiled_ms"] <= walk["reflective_ms"] * 1.02
    sync = report["delta_sync_e2e"]
    assert sync["compiled_ms"] <= sync["reflective_ms"]
    assert sync["compiled_bytes"] <= sync["reflective_bytes"]

    print("\nPR-7 obicodec:")
    for row in (micro["reflective"], micro["compiled"]):
        print(
            f"  {row['label']:<10} encode {row['encode_mb_s']:>7.1f} MB/s, "
            f"decode {row['decode_mb_s']:>7.1f} MB/s, "
            f"{row['frame_bytes'] // row['objects']} B/frame"
        )
    print(
        f"  speedups      encode {micro['encode_speedup']:.1f}x, decode "
        f"{micro['decode_speedup']:.1f}x, combined {micro['combined_speedup']:.1f}x"
    )
    print(
        f"  e2e           fault batching {walk['overhead_pct']:+.2f}%, "
        f"delta sync {sync['reflective_ms']:.0f} -> {sync['compiled_ms']:.0f} ms"
    )

    if os.environ.get("OBIWAN_BENCH_RECORD"):
        target = Path(__file__).resolve().parent.parent / "BENCH_pr7.json"
        target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"  recorded {target}")
