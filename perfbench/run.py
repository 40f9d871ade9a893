"""The replication stack's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fault_walk --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced stretches of the same loop:
the traced ones give the per-layer metrics, and the ops/s of the two
kinds of stretch give the measured tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and
the environment block.  A full record (environment, every metric with
whether it is wall-clock, simulated or an exact count) is written under
``.perfbench/`` in the checkout, with the traced run's spans.  The exit
code is 0 only when every operation and every end-of-run check passed.
See ``perfbench/NOTES.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Worlds built per run, one after another.  Each is timed while it is
#: built and then runs ``1/REPS`` of the timed loop.  ``setup_s``,
#: ``ops_per_s`` and the p50 latencies are medians over the worlds; the
#: p90 latencies pool the samples of all worlds, so that at least ten
#: samples lie beyond them on every workload.
REPS = 5
#: Shortest untraced or traced stretch in a ``--trace 1`` run, as a share
#: of one world's time.
SEGMENT_SHARE = 0.05

#: ``(name, unit, kind)`` of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "wall-clock"),
    ("ops_per_s", "1/s", "wall-clock"),
    ("read_p50_ms", "ms", "wall-clock"),
    ("read_p90_ms", "ms", "wall-clock"),
    ("write_p50_ms", "ms", "wall-clock"),
    ("write_p90_ms", "ms", "wall-clock"),
    ("wire_bytes_per_op", "B", "exact count"),
    ("link_ms_per_op", "ms", "simulated"),
)

#: ``(name, unit, kind)`` of every per-layer metric (traced run).
PER_LAYER = (
    ("simnet.round_trips_per_op", "count/op", "count"),
    ("simnet.self_us_per_op", "us/op", "wall-clock"),
    ("simnet.loop_lag_max_ms", "ms", "wall-clock"),
    ("simnet.frames_pipelined", "count/op", "count"),
    ("serial.encode_us_per_op", "us/op", "wall-clock"),
    ("serial.decode_us_per_op", "us/op", "wall-clock"),
    ("serial.encodes_per_op", "count/op", "count"),
    ("serial.decodes_per_op", "count/op", "count"),
    ("serial.bytes_encoded_per_op", "B/op", "count"),
    ("serial.fast_path_share", "ratio", "count"),
    ("rmi.invokes_per_op", "count/op", "count"),
    ("rmi.invoke_self_us_per_op", "us/op", "wall-clock"),
    ("rmi.dispatch_self_us_per_op", "us/op", "wall-clock"),
    ("rmi.remote_failures", "count", "count"),
    ("core.faults_per_op", "count/op", "count"),
    ("core.objects_per_fault", "count", "count"),
    ("core.fault_self_us_per_op", "us/op", "wall-clock"),
    ("core.package_us_per_op", "us/op", "wall-clock"),
    ("core.put_apply_us_per_op", "us/op", "wall-clock"),
    ("core.sync_self_us_per_op", "us/op", "wall-clock"),
    ("core.replicate_self_us_per_op", "us/op", "wall-clock"),
    ("core.puts_full", "count/op", "count"),
    ("core.puts_delta", "count/op", "count"),
    ("core.refreshes_full", "count/op", "count"),
    ("core.refreshes_delta", "count/op", "count"),
    ("core.stripe_waits", "count", "count"),
    ("feed.push_us_per_write", "us", "wall-clock"),
    ("feed.push_self_us_per_op", "us/op", "wall-clock"),
    ("feed.apply_us_per_frame", "us", "wall-clock"),
    ("feed.apply_self_us_per_op", "us/op", "wall-clock"),
    ("feed.frames_pushed_per_write", "count", "count"),
    ("feed.lag_serials_end", "count", "count"),
    ("feed.push_failures", "count", "count"),
    ("bench.op_wall_us_per_op", "us/op", "wall-clock"),
    ("bench.unattributed_us_per_op", "us/op", "wall-clock"),
    ("bench.unlinked_busy_us_per_op", "us/op", "wall-clock"),
    ("bench.mislinked_spans", "count", "count"),
    ("bench.trace_overhead_pct", "%", "wall-clock"),
)

#: Per-layer self-time metrics that, with the unattributed remainder,
#: add up to ``bench.op_wall_us_per_op``; keyed by tracing breakdown part.
BREAKDOWN_METRICS = {
    "simnet.self": "simnet.self_us_per_op",
    "serial.encode": "serial.encode_us_per_op",
    "serial.decode": "serial.decode_us_per_op",
    "rmi.invoke_self": "rmi.invoke_self_us_per_op",
    "rmi.dispatch_self": "rmi.dispatch_self_us_per_op",
    "core.fault_self": "core.fault_self_us_per_op",
    "core.package": "core.package_us_per_op",
    "core.put_apply": "core.put_apply_us_per_op",
    "core.sync_self": "core.sync_self_us_per_op",
    "core.replicate_self": "core.replicate_self_us_per_op",
    "feed.push_self": "feed.push_self_us_per_op",
    "feed.apply_self": "feed.apply_self_us_per_op",
    "bench.unattributed": "bench.unattributed_us_per_op",
}


def deciles(samples_ns: list[int]) -> tuple[float, float]:
    """(p50, p90) in milliseconds."""
    if not samples_ns:
        return 0.0, 0.0
    if len(samples_ns) == 1:
        value = samples_ns[0] / 1e6
        return value, value
    cuts = statistics.quantiles(samples_ns, n=10, method="inclusive")
    return cuts[4] / 1e6, cuts[8] / 1e6


class Telemetry:
    """Counters the program keeps itself, summed over the run's traced
    stretches (each stretch adds its end reading minus its start one)."""

    FIELDS = ("frames_pipelined", "puts_full", "puts_delta", "refreshes_full",
              "refreshes_delta", "stripe_waits", "encodes_fast", "encodes_reflective",
              "frames_pushed", "frames_applied", "push_failures")

    def __init__(self, workload):
        self.workload = workload
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self._start: dict[str, int] | None = None

    def read(self) -> dict[str, int]:
        wl = self.workload
        reading = dict.fromkeys(self.FIELDS, 0)
        reactor = wl.reactor_stats()
        if reactor is not None:
            reading["frames_pipelined"] = reactor.snapshot()["frames_pipelined"]
        for site in wl.sites():
            sync = site.sync_stats.snapshot()
            serial = site.serial_stats.snapshot()
            for key in ("puts_full", "puts_delta", "refreshes_full", "refreshes_delta"):
                reading[key] += sync[key]
            reading["encodes_fast"] += serial["encodes_fast"]
            reading["encodes_reflective"] += serial["encodes_reflective"]
            reading["stripe_waits"] += site.stripe_metrics()["acquire_waits"]
        feed = wl.feed_state()
        for key in ("frames_pushed", "frames_applied", "push_failures"):
            reading[key] = feed[key]
        return reading

    def begin(self) -> None:
        self._start = self.read()

    def end(self) -> None:
        now = self.read()
        for key in self.FIELDS:
            self.totals[key] += now[key] - self._start[key]
        self._start = None


class SubRun:
    """One world's share of a run: its set-up, warm-up and timed loop."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.end_errors: list[str] = []
        self.latencies: dict[str, list[int]] = {"read": [], "write": []}
        self.ops = 0
        self.loop_s = 0.0
        #: ``(ops, seconds, read samples, write samples)`` of the timed
        #: loop up to the start of its last epoch.
        self.epochs = (0, 0.0, 0, 0)
        self.window: tuple[int, float, int] | None = None
        #: ``stretches[traced] = [ops, seconds, writes]``
        self.stretches = {False: [0, 0.0, 0], True: [0, 0.0, 0]}
        self.telemetry: dict[str, int] = {}
        self.loop_lag_max_s = 0.0
        self.lag_serials_end = 0
        self.site_settings: dict[str, dict[str, object]] = {}

    def execute(self, kind: str, thunk, timer) -> float:
        """Run and check one operation; returns its wall seconds."""
        self.attempted += 1
        began = perf_counter()
        try:
            ok = timer(thunk)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            ok = False
            if len(self.failures) < 5:
                self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - began
        if not ok:
            self.failed += 1
        return elapsed


def _direct(thunk):
    return thunk()


def run(workload_cls, seed: int, seconds: float, trace: bool, *, scale: float = 1.0,
        out_dir: Path | None = None) -> dict:
    """Build ``REPS`` worlds in turn and give each ``seconds / REPS`` of
    the timed loop; returns the combined, checked result."""
    tracer = None
    subruns = []
    for rep in range(REPS):
        workload = workload_cls(seed, scale=scale)
        try:
            began = perf_counter()
            workload.build()
            setup_s = perf_counter() - began
            if trace and tracer is None:
                from tracing import LayerTracer

                tracer = LayerTracer(type(workload.world.network))
            sub = _subrun(workload, seconds / REPS, tracer, window=rep == 0, scale=scale)
        finally:
            if tracer is not None:
                tracer.stop()  # a no-op unless the loop raised while traced
            workload.close()
        sub.setup_s = setup_s
        subruns.append(sub)
    return _result(workload, subruns, seed, seconds, tracer, out_dir)


def _subrun(wl, seconds: float, tracer, *, window: bool, scale: float) -> SubRun:
    sub = SubRun()
    sub.site_settings = {
        site.name: {"delta_sync": site.delta_sync, "compiled_codec": site.compiled_codec,
                    "stripes": site.stripe_count}
        for site in wl.sites()
    }
    warmup_units = max(1, int(wl.warmup_units * scale))
    window_units = max(1, int(wl.window_units * scale)) if window else -1
    units = 0
    for kind, thunk, starts_unit in wl.ops("warmup"):
        if starts_unit:
            if units == warmup_units:
                break
            units += 1
        sub.execute(kind, thunk, _direct)
    gc.collect()

    telemetry = None
    reactor = wl.reactor_stats()
    if reactor is not None:
        reactor.loop_lag_max_s = 0.0  # count loop lag from the timed loop only
    if tracer is not None:
        tracer.watch_primary_logs(wl.feed_primary_logs())
        telemetry = Telemetry(wl)
    segment = max(0.05, seconds * SEGMENT_SHARE)
    traced = False
    units = 0
    bytes0, link0 = wl.traffic()
    ops = wl.ops("loop")
    kind, thunk, starts_unit = next(ops)
    began = stretch_began = perf_counter()
    deadline = began + seconds
    while True:
        if starts_unit:
            if units == window_units:
                wire_bytes, link_s = wl.traffic()
                sub.window = (wire_bytes - bytes0, link_s - link0, sub.ops)
            if units % wl.epoch_units == 0:
                now = perf_counter()
                sub.epochs = (sub.ops, now - began, len(sub.latencies["read"]),
                              len(sub.latencies["write"]))
                if tracer is not None and now - stretch_began >= segment:
                    sub.stretches[traced][1] += now - stretch_began
                    if traced:
                        tracer.stop()
                        telemetry.end()
                    else:
                        telemetry.begin()
                        tracer.start()
                    traced = not traced
                    stretch_began = perf_counter()
            units += 1
        elapsed = sub.execute(kind, thunk, tracer.op if traced else _direct)
        sub.ops += 1
        stretch = sub.stretches[traced]
        stretch[0] += 1
        stretch[2] += kind == "write"
        if not traced:
            sub.latencies[kind].append(int(elapsed * 1e9))
        if perf_counter() >= deadline and (sub.window is not None or window_units < 0):
            break
        kind, thunk, starts_unit = next(ops)
    ended = perf_counter()
    sub.loop_s = ended - began
    sub.stretches[traced][1] += ended - stretch_began
    if traced:
        tracer.stop()
        telemetry.end()
    if telemetry is not None:
        sub.telemetry = telemetry.totals
    if reactor is not None:
        sub.loop_lag_max_s = reactor.loop_lag_max_s
    sub.lag_serials_end = wl.feed_state()["lag_serials"]
    sub.end_errors = wl.verify_end()
    return sub


def _result(wl, subruns: list[SubRun], seed, seconds, tracer, out_dir) -> dict:
    attempted = sum(sub.attempted for sub in subruns)
    failed = sum(sub.failed + bool(sub.end_errors) for sub in subruns)
    end_errors = [error for sub in subruns for error in sub.end_errors]
    notes = {
        "op_failures": [f for sub in subruns for f in sub.failures][:5],
        "error_rate": failed / attempted,
        "setup_times_s": [sub.setup_s for sub in subruns],
    }
    if tracer is not None:
        att = tracer.attribute()
        metrics = _per_layer(att, subruns)
        notes["unlinked_busy_us_per_op_by_layer"] = {
            layer: ns / 1e3 / max(1, att.ops) for layer, ns in att.by_layer(att.unlinked_ns).items()
        }
        if att.mislinked:
            failed += 1
            end_errors.append(f"{att.mislinked} spans opened during an operation "
                              "are not linked into its tree")
        if out_dir is not None:
            tracer.write(out_dir / "spans" / f"{wl.name}.csv.gz")
        table = PER_LAYER
    else:
        wire_bytes, link_s, window_ops = subruns[0].window
        metrics = {
            "setup_s": statistics.median(sub.setup_s for sub in subruns),
            **_end_to_end(subruns),
            "wire_bytes_per_op": wire_bytes / window_ops,
            "link_ms_per_op": link_s * 1e3 / window_ops,
        }
        notes.update(
            subruns=[_end_to_end([sub]) for sub in subruns],
            samples={kind: sum(len(_whole_epochs(sub)[2][kind]) for sub in subruns)
                     for kind in ("read", "write")},
            wire_window={"units": wl.window_units, "ops": window_ops},
        )
        table = END_TO_END
    notes["end_check_failures"] = end_errors[:5]
    return {
        "correct": failed == 0 and not end_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
        "record": {
            "environment": {
                **environment(wl, seed, seconds, tracer is not None),
                "site_settings": subruns[0].site_settings,
            },
            "metric_kinds": {name: kind for name, _unit, kind in table},
            "notes": notes,
        },
    }


def _whole_epochs(sub: SubRun) -> tuple[int, float, dict[str, list[int]]]:
    """Ops, seconds and latency samples of ``sub``'s whole epochs, or of
    its whole loop when it ran less than one epoch."""
    ops, seconds, reads, writes = sub.epochs
    if not ops:
        return sub.ops, sub.loop_s, sub.latencies
    return ops, seconds, {"read": sub.latencies["read"][:reads],
                          "write": sub.latencies["write"][:writes]}


def _end_to_end(subruns: list[SubRun]) -> dict[str, float]:
    """Wall-clock metrics over the whole epochs of ``subruns``."""
    epochs = [_whole_epochs(sub) for sub in subruns]
    metrics = {"ops_per_s": statistics.median(ops / seconds for ops, seconds, _ in epochs)}
    for kind in ("read", "write"):
        metrics[f"{kind}_p50_ms"] = statistics.median(deciles(lat[kind])[0] for *_, lat in epochs)
        metrics[f"{kind}_p90_ms"] = deciles([ns for *_, lat in epochs for ns in lat[kind]])[1]
    return metrics


def _per_layer(att, subruns: list[SubRun]) -> dict[str, float]:
    ops = max(1, att.ops)
    per_op = lambda ns: ns / 1e3 / ops  # noqa: E731 - tiny local helper
    layers = att.by_layer(att.self_ns)
    totals = {key: sum(sub.telemetry[key] for sub in subruns) for key in Telemetry.FIELDS}
    count, extra = att.count, att.extra
    encodes_known = totals["encodes_fast"] + totals["encodes_reflective"]
    stretch = {
        traced: [sum(sub.stretches[traced][i] for sub in subruns) for i in range(3)]
        for traced in (False, True)
    }
    writes = stretch[True][2]
    untraced_rate = stretch[False][0] / max(stretch[False][1], 1e-9)
    traced_rate = stretch[True][0] / max(stretch[True][1], 1e-9)
    metrics = {
        "simnet.round_trips_per_op": count["simnet.call"] / ops,
        "simnet.loop_lag_max_ms": max(sub.loop_lag_max_s for sub in subruns) * 1e3,
        "simnet.frames_pipelined": totals["frames_pipelined"] / ops,
        "serial.encodes_per_op": count["serial.encode"] / ops,
        "serial.decodes_per_op": count["serial.decode"] / ops,
        "serial.bytes_encoded_per_op": extra["serial.encode"] / ops,
        "serial.fast_path_share": totals["encodes_fast"] / encodes_known if encodes_known else 0.0,
        "rmi.invokes_per_op": count["rmi.invoke"] / ops,
        "rmi.remote_failures": att.failed["rmi.invoke"] + att.failed["rmi.future"],
        "core.faults_per_op": count["core.fault"] / ops,
        "core.objects_per_fault": (extra["core.demand"] / count["core.fault"]
                                   if count["core.fault"] else 0.0),
        "core.puts_full": totals["puts_full"] / ops,
        "core.puts_delta": totals["puts_delta"] / ops,
        "core.refreshes_full": totals["refreshes_full"] / ops,
        "core.refreshes_delta": totals["refreshes_delta"] / ops,
        "core.stripe_waits": totals["stripe_waits"],
        "feed.push_us_per_write": att.inclusive_ns["feed.push"] / 1e3 / writes if writes else 0.0,
        "feed.apply_us_per_frame": (layers["feed.apply_self"] / 1e3 / totals["frames_applied"]
                                    if totals["frames_applied"] else 0.0),
        "feed.frames_pushed_per_write": totals["frames_pushed"] / writes if writes else 0.0,
        "feed.lag_serials_end": max(sub.lag_serials_end for sub in subruns),
        "feed.push_failures": totals["push_failures"],
        "bench.op_wall_us_per_op": per_op(att.op_wall_ns),
        "bench.unlinked_busy_us_per_op": per_op(sum(att.unlinked_ns.values())),
        "bench.mislinked_spans": att.mislinked,
        "bench.trace_overhead_pct": (untraced_rate - traced_rate) / untraced_rate * 100,
    }
    for part, name in BREAKDOWN_METRICS.items():
        metrics[name] = per_op(layers[part])
    return {name: metrics[name] for name, _unit, _kind in PER_LAYER}


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on the last usable CPU.

    The reactor workloads hand each call across four threads.  With the
    threads free to run on both CPUs of a 2-core box, GIL hand-offs
    between cores made ``sync_feed``'s write p90 swing 1.4-3.1 ms from one
    run to the next.  The figures are then for one CPU, without the cost
    of hand-offs between cores; ``--cpus all`` measures with it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(wl, seed: int, seconds: float, trace: bool) -> dict:
    cpus_used = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    pinned = cpus_used is not None and len(cpus_used) == 1 < (os.cpu_count() or 1)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_used": cpus_used,
        "cpu_pinning": ("one CPU: the client, the reactor loop and every dispatch thread share it"
                        if pinned else "none"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "workload": wl.name,
        "transport": wl.transport,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "client_threads": 1,
        "worlds_per_run": REPS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpus", choices=("one", "all"), default="one",
                        help="run every thread on one CPU (the default) or on all of them")
    args = parser.parse_args(argv)
    if args.cpus == "one":
        pin_to_one_cpu()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 out_dir=OUT_DIR)
    record = result.pop("record")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, **record}, indent=2) + "\n")
    kinds = record["metric_kinds"]
    for name, metric in result["metrics"].items():
        print(f"{name:34} {metric['value']:>14.6g} {metric['unit']:9} {kinds[name]}")
    print(f"{'error_rate':34} {record['notes']['error_rate']:>14.6g} {'ratio':9} exact count")
    for problem in record["notes"]["op_failures"] + record["notes"]["end_check_failures"]:
        print(f"FAILED {problem}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
