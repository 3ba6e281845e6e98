"""Run the benchmark over many seeds and summarise it the way it is judged.

Usage, from the repository root::

    python3 perfbench/sweep.py --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed 1-10 (one process at
a time, ``run_seconds`` from ``BENCHMARK.json``), then one traced run on
the first seed.  Per end-to-end metric it reports the median and the
spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- next
to the metric's bound.  With ``--out`` the result lines and the summary
are written as JSON, which is how a baseline is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def _run(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    """Median, quartiles and spread of every end-to-end metric."""
    summary = {}
    for metric in SPEC["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[metric["name"]] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": metric["bound"],
        }
    return summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the runs and summary as JSON")
    args = parser.parse_args(argv)
    report = {
        "machine": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
        },
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(_run(workload, seed, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: failed {runs[-1]['failed']} {values}", flush=True)
        entry = {"runs": runs, "summary": summarise(runs)}
        for name, row in entry["summary"].items():
            print(f"  {name:<12} median {row['median']:.4f} spread {row['spread']:.4f}"
                  f" (bound {row['bound']})", flush=True)
        entry["traced"] = _run(workload, SEEDS[0], 1)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
