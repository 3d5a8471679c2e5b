"""Benchmark of the tefuse CLI: cluster + evaluate, end to end and per layer.

Usage, from the root of a tefuse checkout:

    python3 perfbench/run.py --workload {ahu,wide,long} --seed N \
        --seconds S --trace {0,1}

One operation is ``tefuse cluster`` (or ``inject-noise``) followed by
``tefuse evaluate`` on the workload's input (evaluate several times for the
workloads where it is sub-second), each command in a fresh interpreter
running ``perfbench/op.py`` with a fresh output directory. An operation
fails if a command exits non-zero or if ``tree.json`` or ``report.csv``
differs from the pinned digest (for a seed without pins: from the first
operation of this invocation).

With ``--trace 0`` the run first times bare ``import tefuse.cli`` processes,
then repeats operations for about ``--seconds`` seconds (at least three) and
reports medians of the end-to-end metrics in host-calibrated seconds: each
command's raw time times ``CALIB_REF_S / mean(reading before, reading
after)``, the readings taken in the same process (see ``calib.py``). With
``--trace 1`` it alternates untraced and traced operations (at least two
pairs) and reports the per-layer metrics of the traced ones, calibrated the
same way. Every operation prints one JSON line with its raw timings,
calibration readings and host facts; the last line of standard output is the
result object.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calib import CALIB_REF_S
from tracer import END, START, SpanTree, call_counts, layer_metrics
from workloads import WORKLOADS, Workload, pins, sha256

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 8
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
median = statistics.median


def host_facts() -> dict:
    """Load average and cumulative steal ticks, read-only from /proc."""
    facts = {"loadavg": list(os.getloadavg()), "steal_ticks": None}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("cpu "):
                    facts["steal_ticks"] = int(line.split()[8])
                    break
    except OSError:
        pass
    return facts


class Runner:
    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(root / "src")}
        self.children = 0
        self.csv = work / f"{workload.name}.csv"
        self.expected = pins(workload.name, seed)

    def child(self, argv: list[str] | None, threads: int = 1,
              traced: bool = False) -> dict | None:
        """Run op.py in a fresh interpreter and calibrate its timings; None
        if it did not complete."""
        self.children += 1
        stem = self.work / f"child{self.children}"
        spec = {"argv": argv, "threads": threads, "result": f"{stem}.result.json",
                "trace": f"{stem}.trace.json" if traced else None}
        Path(f"{stem}.spec.json").write_text(json.dumps(spec), "utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "op.py"), f"{stem}.spec.json"],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: child timed out: {argv}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"perfbench: child exited {proc.returncode}: {argv}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(Path(spec["result"]).read_text("utf-8"))
        result["setup_s"] = result["setup_raw_s"] * CALIB_REF_S[1] / result["setup_calib_s"]
        if argv is not None:
            factor = CALIB_REF_S[threads] / statistics.fmean(result["calib_s"])
            result["command_s"] = result["command_raw_s"] * factor
        if traced:
            result["trace"] = doc = json.loads(Path(spec["trace"]).read_text("utf-8"))
            # Scaling the clock scales every span by the command's factor.
            for span in doc["spans"]:
                span[START] *= factor
                span[END] *= factor
        return result

    def operation(self, index: int, traced: bool = False) -> dict:
        out = self.work / f"op{index}"
        record = {"op": index, "traced": traced, "ok": False, "exit": [],
                  "host_before": host_facts()}
        children = [self.child(
            self.workload.cluster_argv(self.csv, out / "tree", self.seed),
            self.workload.threads, traced)]
        reports = []
        for run in range(self.workload.evaluate_runs):
            if children[-1] is None or children[-1]["exit"] != 0:
                break
            children.append(self.child(
                Workload.evaluate_argv(self.csv, out / "tree", out / f"eval{run}"),
                traced=traced))
            if children[-1] is not None and children[-1]["exit"] == 0:
                reports.append(sha256(out / f"eval{run}" / "report.csv"))
        record["exit"] = [c and c["exit"] for c in children]
        record["host_after"] = host_facts()
        if len(reports) == self.workload.evaluate_runs:
            cluster, evaluates = children[0], children[1:]
            record.update({
                "ok": True,
                "tree_sha256": sha256(out / "tree" / "tree.json"),
                "report_sha256": reports,
                "raw_s": {"setup": [c["setup_raw_s"] for c in children],
                          "cluster": cluster["command_raw_s"],
                          "evaluate": [c["command_raw_s"] for c in evaluates]},
                "calib_s": {"setup": [c["setup_calib_s"] for c in children],
                            "cluster": cluster["calib_s"],
                            "evaluate": [c["calib_s"] for c in evaluates]},
                "s": {"setup": [c["setup_s"] for c in children],
                      "cluster": cluster["command_s"],
                      "evaluate": [c["command_s"] for c in evaluates]},
                "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
            })
            if traced:
                record["trace"] = [cluster["trace"], evaluates[0]["trace"]]
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps({k: v for k, v in record.items() if k != "trace"}), flush=True)
        return record

    def check_digests(self, ops: list[dict]) -> None:
        """Mark operations whose outputs differ from the pins (or, for an
        unpinned seed, from the first successful operation)."""
        reference = self.expected
        for op in ops:
            if not op["ok"]:
                continue
            if reference is None:
                reference = {"tree_sha256": op["tree_sha256"],
                             "report_sha256": op["report_sha256"][0]}
            got = [("tree_sha256", op["tree_sha256"])]
            got += [("report_sha256", r) for r in op["report_sha256"]]
            for key, digest in got:
                if digest != reference[key]:
                    op["ok"] = False
                    print(f"perfbench: op {op['op']} {key} {digest} != {reference[key]}",
                          file=sys.stderr)


def pipeline_s(op: dict) -> float:
    return op["s"]["cluster"] + statistics.fmean(op["s"]["evaluate"])


def host_calib_s(ops: list[dict], setups=()) -> float:
    """Median single-thread calibration reading of the run."""
    return median([s["setup_calib_s"] for s in setups]
                  + [c for op in ops for c in op["calib_s"]["setup"]])


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    setups = [s for s in (runner.child(None) for _ in range(SETUP_SAMPLES)) if s]
    ops: list[dict] = []
    start = time.perf_counter()
    while True:
        ops.append(runner.operation(len(ops)))
        elapsed = time.perf_counter() - start
        # Stop once another operation of average length would overrun.
        if len(ops) >= MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > seconds:
            break
    runner.check_digests(ops)
    good = [op for op in ops if op["ok"]]
    if not good:
        return ops, {}
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]
                          + [s for op in good for s in op["s"]["setup"]]),
        "cluster_s": median(op["s"]["cluster"] for op in good),
        "evaluate_s": median(e for op in good for e in op["s"]["evaluate"]),
        "pipeline_s": median(pipeline_s(op) for op in good),
        "peak_rss_mb": median(op["peak_rss_mb"] for op in good),
    }
    raw = {
        "setup_s": median([s["setup_raw_s"] for s in setups]
                          + [s for op in good for s in op["raw_s"]["setup"]]),
        "cluster_s": median(op["raw_s"]["cluster"] for op in good),
        "evaluate_s": median(e for op in good for e in op["raw_s"]["evaluate"]),
        "pipeline_s": median(op["raw_s"]["cluster"] + statistics.fmean(op["raw_s"]["evaluate"])
                             for op in good),
    }
    print(json.dumps({"summary": "end_to_end", "ops": len(good), "raw": raw,
                      "host.calib_s": host_calib_s(good, setups),
                      "calibrated": metrics}), flush=True)
    return ops, metrics


def per_layer(runner: Runner, seconds: float) -> tuple[list[dict], dict, bool]:
    ops: list[dict] = []
    start = time.perf_counter()
    while True:
        ops.append(runner.operation(len(ops)))
        ops.append(runner.operation(len(ops), traced=True))
        elapsed = time.perf_counter() - start
        pairs = len(ops) // 2
        if pairs >= MIN_TRACED_PAIRS and elapsed * (pairs + 1) / pairs > seconds:
            break
    runner.check_digests(ops)
    good = [op for op in ops if op["ok"]]
    traced = [op for op in good if op["traced"]]
    untraced = [op for op in good if not op["traced"]]
    if not traced or not untraced:
        return ops, {}, False
    layers, counts, levels = [], [], []
    for op in traced:
        trees = [SpanTree(doc["spans"]) for doc in op["trace"]]
        layers.append(layer_metrics(trees, runner.workload.threads))
        counts.append(call_counts(trees))
        levels.append(op["trace"][0]["te_per_level"])
    # Call counts are exact: a difference between traced runs is a defect.
    repeatable = all(c == counts[0] for c in counts) and all(v == levels[0] for v in levels)
    metrics = {name: median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = (median(pipeline_s(op) for op in traced)
                                   - median(pipeline_s(op) for op in untraced))
    metrics["host.calib_s"] = host_calib_s(good)
    print(json.dumps({"summary": "per_layer", "traced_ops": len(traced),
                      "te_per_level": levels[0], "calls": counts[0],
                      "repeatable_counts": repeatable, "calibrated": metrics}), flush=True)
    return ops, metrics, repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="shifts every generator seed; 0 gives the acceptance inputs")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "tefuse" / "cli.py").is_file() \
            or not (root / "tests" / "synthdata.py").is_file() \
            or not spec_path.is_file():
        print("perfbench: run from the root of a tefuse checkout "
              "(needs src/tefuse, tests/synthdata.py and BENCHMARK.json)", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text("utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, workload, args.seed, work)
        input_sha = workload.write_input(root, runner.csv, args.seed)
        input_ok = runner.expected is None or input_sha == runner.expected["input_sha256"]
        if not input_ok:
            print(f"perfbench: input {input_sha} != pinned "
                  f"{runner.expected['input_sha256']}", file=sys.stderr)
        print(json.dumps({"workload": workload.name, "seed": args.seed,
                          "input_sha256": input_sha, "pinned": runner.expected is not None,
                          "nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__, "calib_ref_s": CALIB_REF_S}), flush=True)
        compileall.compile_dir(root / "src" / "tefuse", quiet=1)
        runner.child(None)  # discarded: warms the file cache and the bytecode

        if args.trace:
            ops, metrics, repeatable = per_layer(runner, args.seconds)
        else:
            ops, metrics = end_to_end(runner, args.seconds)
            repeatable = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # left in place while another run uses it

    if not metrics:
        print("perfbench: no operation succeeded; nothing to report", file=sys.stderr)
        return 1
    failed = sum(not op["ok"] for op in ops)
    result = {
        "correct": failed == 0 and input_ok and repeatable,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
