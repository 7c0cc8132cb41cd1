#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/record.py --seeds 1-10 [--workloads bundled,...]
        [--append LABEL]

For each workload it runs ``run.py`` once per seed with ``--trace 0`` and
prints, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound from
``BENCHMARK.json``. With ``--append`` it also makes one traced run per
workload at the first seed and appends an entry with the machine notes,
the end-to-end summaries and the per-layer values to
``perfbench/BENCH_trajectory.json``.
"""
from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "BENCH_trajectory.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d trace %d failed" % (workload, seed, trace))
    machine = next((ln[len("machine: "):] for ln in lines if ln.startswith("machine: ")), "{}")
    return json.loads(lines[-1]), machine


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", help="comma list (default: every workload)")
    p.add_argument("--append", metavar="LABEL", help="append a trajectory entry")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    entry = {
        "label": args.append,
        "date": datetime.date.today().isoformat(),
        "seeds": seeds,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    status = 0
    for workload in names:
        samples: dict[str, list[float]] = {}
        for seed in seeds:
            result, machine = run_once(bench, workload, seed, 0)
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.5g" % (k, m["value"]) for k, m in result["metrics"].items())),
                flush=True)
        summary = {}
        for name, values in samples.items():
            s = summarise(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "over bound" if s["spread"] > bound else (
                    "over bound/3" if s["spread"] > bound / 3 else "ok")
                if s["spread"] > bound:
                    status = 1
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %s %s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], bound, flag))
            summary[name] = s
        entry["workloads"][workload] = {"end_to_end": summary}
        entry["machine"] = json.loads(machine)
        if args.append:
            traced, _ = run_once(bench, workload, seeds[0], 1)
            entry["workloads"][workload]["per_layer_seed%d" % seeds[0]] = {
                k: m["value"] for k, m in traced["metrics"].items()
            }
    if args.append:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
        print("appended %r to %s" % (args.append, TRAJECTORY.relative_to(ROOT)))
    return status


if __name__ == "__main__":
    sys.exit(main())
