"""The repository's end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload cqa-mix --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``cqa-mix``: the paper's demo 3 -- consistent answers next to raw SQL
  and query rewriting, over S/SJ/SJU/SJUD queries, read-only;
* ``dml-churn``: single-row DML by key against the 256-entry plan
  cache, with a consistent point read every 4th op;
* ``durable-follow``: the same kind of DML on a durable writer, each
  write acknowledged by a flush and followed by a drain of a 2-worker
  shard follower; a copy of the directory taken after round 128 is
  reopened at the end.

Every workload is a closed loop with one client.  Inputs and the op
stream come from ``--seed`` and are built before anything is timed.  A
run sets the workload up several times (``setup_s`` is the median), warms
up on one round of the stream, then runs whole rounds until
``--seconds`` of operation time have passed (and at least 128 on
``durable-follow``), checking every output outside the timed region.

With ``--trace 0`` the last line is the end-to-end result.  With
``--trace 1`` the same loop runs twice -- untraced, then with a span
around every public entry point of each ``repro`` package -- and the
last line carries the per-layer metrics of the traced pass plus the
tracing overhead (the untraced pass's throughput over the traced one).
The spans themselves are written to ``perfbench/out/``.

Every time is scaled to a reference CPU speed by a calibration kernel
timed between operations (see ``clock.py``): the machines this runs on
change speed under their neighbours' load, and unscaled times would
measure that instead of the program.

The lines before the last are a report for people: every end-to-end
number the workload has, and in a traced run where its time went.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

from clock import Clock, Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The end-to-end metrics in the result line, with their units.
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}

#: Units of the per-layer metrics in a traced run's result line.
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Every end-to-end number a workload reports (in the human report),
#: with its unit: the op-kind latencies exist only where that kind runs.
REPORTED = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "fail_ratio": "ratio",
    "cqa_ms_p50": "ms",
    "cqa_ms_p90": "ms",
    "sql_ms_p50": "ms",
    "rewrite_ms_p50": "ms",
    "write_ms_p50": "ms",
    "write_ms_p90": "ms",
    "sync_ms_p50": "ms",
    "sync_ms_p90": "ms",
    "recover_s": "s",
    "disk_bytes_per_row": "B",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(samples: list[float], decile: int) -> float:
    """The ``decile``-th decile of ``samples``, in ms."""
    if len(samples) < 2:
        return samples[0] * 1000.0
    return statistics.quantiles(samples, n=10, method="inclusive")[decile - 1] * 1000.0


class Pass:
    """One set-up-and-measure pass over a workload's inputs."""

    def __init__(
        self, workload, inputs, seconds: float, setups: int, tracer=None, out: Path = OUT
    ):
        from workloads import measure

        clock = Clock()
        setup_times = []
        state = None
        try:
            for _ in range(setups):
                if state is not None:
                    self._discard(workload, state)
                # Each set-up, and the measured loop after them, starts
                # with no garbage left over from the one before.
                gc.collect()
                watch = Stopwatch(clock)
                with tracer.setup() if tracer is not None else nullcontext():
                    state = workload.setup(inputs, out, watch.split)
                raw, scaled = watch.stop()
                if tracer is not None:
                    tracer.setup_scale = scaled / raw
                setup_times.append(scaled)
            if tracer is not None:
                tracer.db = state["db"]
            gc.collect()
            self.meter, self.extras = measure(
                workload, inputs, state, seconds, clock, tracer
            )
        finally:
            if state is not None:
                self._discard(workload, state)
        self.setup_times = setup_times
        self.setup_s = statistics.median(setup_times)

    @staticmethod
    def _discard(workload, state) -> None:
        workload.close(state)
        workload.discard(state)

    @property
    def ops_per_s(self) -> float:
        return sum(len(s) for s in self.meter.samples.values()) / self.meter.scaled

    def reported(self) -> dict[str, float]:
        samples = self.meter.samples
        values = {
            "setup_s": self.setup_s,
            "ops_per_s": self.ops_per_s,
            "fail_ratio": self.meter.failed / max(self.meter.attempted, 1),
        }
        for kind in ("cqa", "sql", "rewrite", "write", "sync"):
            if samples.get(kind):
                values[f"{kind}_ms_p50"] = _percentile(samples[kind], 5)
                values[f"{kind}_ms_p90"] = _percentile(samples[kind], 9)
        for name in ("recover_s", "disk_bytes_per_row"):
            if name in self.extras:
                values[name] = self.extras[name]
        return values


def _report(name: str, seed: int, passes: list[Pass]) -> None:
    for label, one in zip(("untraced", "traced"), passes):
        values = one.reported()
        counts = {kind: len(s) for kind, s in one.meter.samples.items()}
        print(f"{name} seed={seed} {label}: {one.meter.attempted} ops attempted,"
              f" {one.meter.failed} failed, samples {counts}")
        print("  set-ups (s):", " ".join(f"{t:.4f}" for t in one.setup_times))
        for metric, unit in REPORTED.items():
            shown = f"{values[metric]:.4f} {unit}" if metric in values else "n/a"
            print(f"  {metric:<20} {shown}")


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import streams
    from repro.constraints.denial import to_denial_constraints
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = streams.BUILDERS[args.workload](args.seed)
    # The generated inputs live as long as the run; keep them out of the
    # collector's reach so they do not lengthen the program's pauses.
    gc.collect()
    gc.freeze()

    if not args.trace:
        passes = [Pass(workload, inputs, args.seconds, workload.setups)]
        values = passes[0].reported()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        plain = Pass(workload, inputs, args.seconds, 1)
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            traced = Pass(workload, inputs, args.seconds, 1, tracer)
        finally:
            restore()
        passes = [plain, traced]
        writes = len(traced.meter.samples.get("write", ()))
        layers = spans.layer_metrics(tracer, writes)
        extras = traced.extras
        layers.update(
            {
                "constraints.denials": float(len(to_denial_constraints(inputs.constraints))),
                "engine.feed_bytes_per_record": extras.get("feed_bytes_per_record", 0.0),
                "engine.segments_reclaimed": float(extras.get("segments_reclaimed", 0)),
                "engine.restore_ms": extras.get("recover_s", 0.0) * 1000.0,
                "engine.restore_records": float(extras.get("restore_records", 0)),
                "trace.overhead_pct": (plain.ops_per_s / traced.ops_per_s - 1.0) * 100.0,
            }
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.json.gz")
        print(f"{args.workload}: where the traced ops' time went"
              f" ({tracer.ops} ops; self and inclusive ms per op)")
        for span_name, calls, self_ms, inclusive_ms in spans.breakdown(tracer):
            print(f"  {span_name:<24} {calls:>8} calls {self_ms / tracer.ops:>10.4f}"
                  f" {inclusive_ms / tracer.ops:>10.4f}")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<40} {layers[name]:.4f} {unit}")

    _report(args.workload, args.seed, passes)
    attempted = sum(one.meter.attempted for one in passes)
    failed = min(sum(one.meter.failed for one in passes), attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
