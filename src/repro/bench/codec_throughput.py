"""PR-7 experiment: obicodec schema-compiled serialization throughput.

Measures the serializer itself, off the network: a registered all-scalar
record class is encoded and decoded in bulk through the reflective codec
and through the compiled ``OBJECT_SCHEMA`` fast path, and the report
compares MB/s, objects/s and bytes per frame.  Correctness rides along —
every compiled roundtrip must rebuild the exact instance dict (insertion
order included) and the exact replica fingerprint the reflective path
produces, because fingerprints are how the delta engine detects drift.

Wall times come from :class:`~repro.util.clock.WallClock` and take the
best of ``repeats`` runs, the standard defence against scheduler noise.

The two e2e reruns PR 7 promises (fault batching with pure announcement
overhead, delta sync with compiled full-state frames) live in their own
modules — this one re-invokes them with ``compiled_codec=True`` so one
report carries all three acceptance numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.obicomp import compile_class
from repro.serial.compiled import codec_for
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.delta import Fingerprinter
from repro.serial.registry import global_registry
from repro.util.clock import WallClock

DEFAULT_OBJECTS = 2000
DEFAULT_REPEATS = 5


@compile_class
class TelemetryRecord:
    """The bench object: ten scalar fields, the obicodec sweet spot.

    Shaped like the per-object telemetry a mobile site would sync —
    fixed-width counters and flags plus two variable-length runs."""

    def __init__(self, index: int = 0):
        self.index = index
        self.samples = 0
        self.errors = 0
        self.watermark = -1
        self.mean = 0.0
        self.variance = 0.0
        self.live = False
        self.station = ""
        self.region = ""
        self.digest = b""

    def fill(self, seed: int) -> "TelemetryRecord":
        self.samples = seed * 7919
        self.errors = seed % 17
        self.watermark = seed * seed
        self.mean = seed * 0.5
        self.variance = seed / 3.0
        self.live = bool(seed % 2)
        self.station = f"station-{seed:04d}"
        self.region = "eu-west" if seed % 2 else "ap-south"
        self.digest = seed.to_bytes(8, "big") * 4
        return self


@dataclass(frozen=True, slots=True)
class CodecResult:
    """One codec's bulk encode/decode, measured."""

    label: str
    objects: int
    frame_bytes: int
    encode_s: float
    decode_s: float

    @property
    def encode_mb_s(self) -> float:
        return self.frame_bytes / max(1e-9, self.encode_s) / 1e6

    @property
    def decode_mb_s(self) -> float:
        return self.frame_bytes / max(1e-9, self.decode_s) / 1e6

    def jsonable(self) -> dict:
        return {
            "label": self.label,
            "objects": self.objects,
            "frame_bytes": self.frame_bytes,
            "encode_s": round(self.encode_s, 6),
            "decode_s": round(self.decode_s, 6),
            "encode_mb_s": round(self.encode_mb_s, 2),
            "decode_mb_s": round(self.decode_mb_s, 2),
            "encode_objs_s": round(self.objects / max(1e-9, self.encode_s)),
            "decode_objs_s": round(self.objects / max(1e-9, self.decode_s)),
        }


def _measure(
    label: str, encoder: Encoder, decoder: Decoder, records: list, repeats: int
) -> tuple[CodecResult, list]:
    """Best-of-``repeats`` bulk encode + decode; returns the last decode."""
    clock = WallClock()
    frames = [encoder.encode(record) for record in records]  # warm + sizes
    frame_bytes = sum(len(frame) for frame in frames)
    encode_s = decode_s = float("inf")
    decoded: list = []
    for _ in range(repeats):
        start = clock.now()
        frames = [encoder.encode(record) for record in records]
        encode_s = min(encode_s, clock.now() - start)
        start = clock.now()
        decoded = [decoder.decode(frame) for frame in frames]
        decode_s = min(decode_s, clock.now() - start)
    return (
        CodecResult(
            label=label,
            objects=len(records),
            frame_bytes=frame_bytes,
            encode_s=encode_s,
            decode_s=decode_s,
        ),
        decoded,
    )


def run_throughput(
    *, objects: int = DEFAULT_OBJECTS, repeats: int = DEFAULT_REPEATS
) -> dict:
    """The serializer microbenchmark: reflective vs compiled, one class."""
    assert codec_for(TelemetryRecord) is not None, "bench class must compile a codec"
    records = [TelemetryRecord(index=i).fill(i) for i in range(objects)]

    reflective, decoded_reflective = _measure(
        "reflective", Encoder(global_registry), Decoder(global_registry), records, repeats
    )
    compiled, decoded_compiled = _measure(
        "compiled",
        Encoder(global_registry, compiled=True),
        Decoder(global_registry),
        records,
        repeats,
    )

    fingerprinter = Fingerprinter(global_registry)
    mismatches = [
        i
        for i, (original, fast, slow) in enumerate(
            zip(records, decoded_compiled, decoded_reflective)
        )
        if vars(fast) != vars(original)
        or list(vars(fast)) != list(vars(original))
        or fingerprinter.of_object(fast) != fingerprinter.of_object(slow)
    ]
    if mismatches:
        raise AssertionError(f"compiled roundtrip drift on records {mismatches[:5]}")

    return {
        "workload": (
            f"{objects} TelemetryRecord objects x 10 scalar fields, "
            f"best of {repeats} bulk runs"
        ),
        "reflective": reflective.jsonable(),
        "compiled": compiled.jsonable(),
        "encode_speedup": round(reflective.encode_s / max(1e-9, compiled.encode_s), 2),
        "decode_speedup": round(reflective.decode_s / max(1e-9, compiled.decode_s), 2),
        "combined_speedup": round(
            (reflective.encode_s + reflective.decode_s)
            / max(1e-9, compiled.encode_s + compiled.decode_s),
            2,
        ),
        "bytes_per_frame_reflective": reflective.frame_bytes // objects,
        "bytes_per_frame_compiled": compiled.frame_bytes // objects,
        "roundtrips_verified": objects,
    }


def codec_throughput_report(
    *, objects: int = DEFAULT_OBJECTS, repeats: int = DEFAULT_REPEATS
) -> dict:
    """The PR-7 acceptance report: microbench + both e2e reruns.

    The e2e sections rerun the PR-2 and PR-4 benches with the codec knob
    on and report simulated wall clock against the knob-off numbers from
    the same process — "no slower" is the bar, the byte savings on the
    delta-sync workload (all-scalar records) are the upside.
    """
    from repro.bench.delta_sync import run_sync
    from repro.bench.fault_batching import run_walk

    micro = run_throughput(objects=objects, repeats=repeats)

    walk_off = run_walk(16)
    walk_on = run_walk(16, compiled_codec=True)
    sync_off = run_sync(False)
    sync_on = run_sync(False, compiled_codec=True)

    return {
        "micro": micro,
        "fault_batching_e2e": {
            "reflective_ms": round(walk_off.wall_clock_ms, 3),
            "compiled_ms": round(walk_on.wall_clock_ms, 3),
            "overhead_pct": round(
                (walk_on.wall_clock_ms / max(1e-9, walk_off.wall_clock_ms) - 1) * 100, 2
            ),
        },
        "delta_sync_e2e": {
            "reflective_ms": round(sync_off.wall_clock_ms, 3),
            "compiled_ms": round(sync_on.wall_clock_ms, 3),
            "reflective_bytes": sync_off.bytes_on_wire,
            "compiled_bytes": sync_on.bytes_on_wire,
            "bytes_reduction": round(
                sync_off.bytes_on_wire / max(1, sync_on.bytes_on_wire), 2
            ),
        },
    }
