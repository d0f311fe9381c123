"""Run-to-run spread of the benchmark's metrics, checked against BENCHMARK.json.

Runs bench/run.py once per seed on each workload, one run at a time, and
prints, per metric, the median of the runs and the distance between the
first and third quartiles as a share of that median (Python's
statistics.quantiles(values, n=4)).  An end-to-end spread must stay under a
third of the metric's bound; setup_s is reported but not held to that.
Exits 1 if any spread is at or above that line.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--baseline FILE]

``--baseline FILE`` writes the medians, quartiles and every run's value into
the ``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) section of
FILE, keeping the other section; bench/baseline.json is made this way.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and interquartile distance / median of the runs."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / abs(med) if med else 0.0}


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="write the summary into this baseline file")
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    section: dict[str, dict] = {}
    steady = True
    for wl in args.workloads.split(","):
        runs = []
        seeds = seed_list(args.seeds)
        for seed in seeds:
            cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(doc)
            print(f"{wl} seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
                  f"failed={doc['failed']}", flush=True)
        entry = section[wl] = {"seeds": seeds, "attempted": [r["attempted"] for r in runs],
                               "failed": [r["failed"] for r in runs], "metrics": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summary(values)
            entry["metrics"][m["name"]] = {"unit": m["unit"], **s, "runs": values}
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and s["iqr_over_median"] >= bound / 3:
                flag, steady = "  <-- at or above bound/3", False
            limit = f" bound {bound}" if bound is not None else ""
            print(f"  {wl:13s} {m['name']:32s} median {s['median']:.6g} {m['unit']}"
                  f"  iqr/median {s['iqr_over_median']:.4f}{limit}{flag}", flush=True)
            print("      runs: " + " ".join(f"{v:.4g}" for v in values), flush=True)
    if args.baseline:
        path = Path(args.baseline)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.update({
            "commit": commit(),
            "host": {"machine": platform.machine(), "processor": platform.processor() or "unknown",
                     "python": platform.python_version()},
            "run_seconds": spec["run_seconds"],
        })
        doc["per_layer" if args.trace else "end_to_end"] = section
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
