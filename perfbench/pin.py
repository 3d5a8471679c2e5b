"""Record the digests the benchmark pins, for a range of seeds.

Usage, from the root of a tefuse checkout:

    python3 perfbench/pin.py [--seeds 0-10]

For every workload and seed it generates the input, runs one untraced
operation and writes the SHA-256 of the input CSV, ``tree.json`` and
``report.csv`` to ``pins.json``. Run it only when the benchmark itself is
defined or changed; a change that claims a gain leaves the pins alone, so
that its runs prove the outputs are unchanged byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from run import Runner
from spread import seed_list
from workloads import PINS, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-10")
    args = parser.parse_args(argv)
    root = Path.cwd()
    pins: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in seed_list(args.seeds):
            work = root / ".bench_work" / f"pin-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                runner = Runner(root, workload, seed, work)
                input_sha = workload.write_input(root, runner.csv, seed)
                op = runner.operation(0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not op["ok"] or len(set(op["report_sha256"])) != 1:
                print(f"perfbench: {name} seed {seed} did not complete cleanly",
                      file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = {
                "input_sha256": input_sha,
                "tree_sha256": op["tree_sha256"],
                "report_sha256": op["report_sha256"][0],
            }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
