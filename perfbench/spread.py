"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a tefuse checkout:

    python3 perfbench/spread.py --workloads ahu,wide,long --seeds 1-10 \
        [--seconds 30] [--trace 0] [--log runs.jsonl]

For every workload and metric it prints the median of the per-run values
and the interquartile range as a share of that median (quartiles from
``statistics.quantiles(values, n=4)``), and checks the share against the
metric's bound in BENCHMARK.json. The JSON summary on the last line also
holds the same statistics for the uncalibrated (raw) end-to-end values and
the calibration readings. Every line every run printed goes to ``--log``
for later analysis.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = open(args.log, "a", encoding="utf-8") if args.log else None
    report = {}
    ok = True
    try:
        for workload in args.workloads.split(","):
            values: dict[str, list[float]] = {}
            raw: dict[str, list[float]] = {}
            failed = runs = 0
            for seed in seed_list(args.seeds):
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if log:
                    for line in lines:
                        log.write(json.dumps({"workload": workload, "seed": seed,
                                              "line": json.loads(line)}) + "\n")
                    log.flush()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    ok = False
                    continue
                result = json.loads(lines[-1])
                summary = json.loads(lines[-2])
                for name, value in summary.get("raw", {}).items():
                    raw.setdefault(name, []).append(value)
                if "host.calib_s" in summary:
                    raw.setdefault("host.calib_s", []).append(summary["host.calib_s"])
                runs += 1
                failed += result["failed"] + (not result["correct"])
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            report[workload] = {
                "failed": failed, "runs": runs,
                "metrics": {n: summarize(v) for n, v in values.items() if len(v) >= 2},
                "raw": {n: summarize(v) for n, v in raw.items() if len(v) >= 2},
            }
            ok = ok and failed == 0
            for name, s in report[workload]["metrics"].items():
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" and s["iqr_share"] > bound:
                    flag, ok = "  OVER BOUND", False
                print(f"{workload:5} {name:45} median {s['median']:.6g}  "
                      f"iqr {s['iqr_share']:.3f}" + (f" / bound {bound}" if bound else "")
                      + flag, flush=True)
    finally:
        if log:
            log.close()
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
