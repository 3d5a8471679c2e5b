"""Check tree.json and report.csv against perfbench/pins.json over many seeds.

Usage, from the root of a tefuse checkout:

    python3 .github/check_pins.py

For each workload in WORKLOADS_CHECKED and each seed in SEEDS this runs one
benchmark operation (cluster, then evaluate) through ``perfbench/run.py``'s
``Runner``, unchanged, and checks its outputs with ``Runner.check_digests``.
It exits 1 unless every seed is pinned, every generated input matches its
pinned digest and every operation stays ok. Timings are not looked at.
SEEDS is every seed ``perfbench/pins.json`` pins, 0 included: seed 0 gives
the inputs the benchmark's speed claims are measured on. ``long`` is
checked too: it is the only discrete-target (accuracy) path, and
the transfer-entropy kernel runs there on 25k-row windows, one source per
chunk, where ``ahu`` and ``wide`` batch several.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import Runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOADS_CHECKED = ("ahu", "wide", "long")
SEEDS = tuple(range(11))


def check(name: str, seed: int) -> bool:
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as work:
        runner = Runner(ROOT, workload, seed, Path(work))
        if runner.expected is None:
            print(f"check_pins: {name} seed {seed} is not pinned", file=sys.stderr)
            return False
        if workload.write_input(ROOT, runner.csv, seed) != runner.expected["input_sha256"]:
            print(f"check_pins: {name} seed {seed} input differs from its pin",
                  file=sys.stderr)
            return False
        op = runner.operation(0)
        runner.check_digests([op])
        return op["ok"]


def main() -> int:
    failed = [(name, seed)
              for name in WORKLOADS_CHECKED
              for seed in SEEDS
              if not check(name, seed)]
    print(f"check_pins: {len(failed)} failed {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
