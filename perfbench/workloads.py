"""The benchmark's workloads: inputs, CLI arguments and pinned outputs.

Inputs come from the ``tests/synthdata.py`` generators. ``--seed S`` shifts
each generator seed by S, so seed 0 gives the acceptance-test inputs.
``pins.json`` holds, per workload and seed, the SHA-256 of the input CSV and
of the ``tree.json`` and ``report.csv`` that the pipeline produced from it
when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

AHU_SOURCES = "OAT,RAT,OA_Damper_CMD,Cool_Valve_CMD,DAT,Su_Fan_Speed_CMD,DA_Static_P,Re_Fan_Speed_CMD"
OCC_SOURCES = "Temperature,Humidity,Light,CO2,HumidityRatio"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    rows: int
    data_seed: int
    threads: int
    # cluster / inject-noise arguments after --input; {seed} is the noise seed
    args: tuple[str, ...]
    noise_seed: int | None = None
    # evaluate runs per operation: a sub-second command needs more samples
    # than one per cluster run to give a steady median
    evaluate_runs: int = 1

    def cluster_argv(self, csv: Path, out: Path, seed: int) -> list[str]:
        args = [a.format(seed=self.noise_seed + seed) if self.noise_seed is not None else a
                for a in self.args]
        return ["--threads", str(self.threads), args[0], "--input", str(csv),
                *args[1:], "--out", str(out)]

    @staticmethod
    def evaluate_argv(csv: Path, tree: Path, out: Path) -> list[str]:
        return ["evaluate", "--input", str(csv), "--tree", str(tree), "--out", str(out)]

    def write_input(self, root: Path, path: Path, seed: int) -> str:
        """Generate the input CSV for ``seed``; returns its SHA-256."""
        for sub in ("src", "tests"):
            if str(root / sub) not in sys.path:
                sys.path.insert(0, str(root / sub))
        import synthdata

        dataset = getattr(synthdata, self.generator)(n=self.rows, seed=self.data_seed + seed)
        synthdata.write_dataset_csv(dataset, path)
        return sha256(path)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ahu",
            why="the paper's AHU protocol: 8 sources, 10 symbols at depth 5, 98 TE "
                "calls over 4.7k-row windows; the counting kernel is ~97 % of "
                "cluster; continuous target, RMSE path",
            generator="ahu_like", rows=6720, data_seed=40, threads=1,
            args=("cluster", "--target", "Zone_Temp", "--sources", AHU_SOURCES,
                  "--alphabet", "10", "--depth", "5", "--target-alphabet", "10",
                  "--train-fraction", "0.7"),
            evaluate_runs=3,
        ),
        Workload(
            name="wide",
            why="noise rejection at sensor-array width: 24 sources, 23 levels, "
                "2346 small TE calls (75 % re-score surviving pairs); the only "
                "workload that runs the --threads pool",
            generator="ahu_like", rows=960, data_seed=40, threads=2,
            args=("inject-noise", "--target", "Zone_Temp", "--sources", AHU_SOURCES,
                  "--alphabet", "5", "--depth", "2", "--target-alphabet", "10",
                  "--noise-count", "16", "--seed", "{seed}"),
            noise_seed=7, evaluate_runs=3,
        ),
        Workload(
            name="long",
            why="100k rows fitted on a quarter: row-linear CSV parsing and "
                "estimator train/predict are ~1/3 of the run, 28 TE calls over "
                "25k rows; discrete target, accuracy path, largest memory",
            generator="occupancy_like", rows=100_000, data_seed=20, threads=1,
            args=("cluster", "--target", "Occupancy", "--sources", OCC_SOURCES,
                  "--alphabet", "5", "--depth", "3", "--train-fraction", "0.25"),
        ),
    )
}


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def pins(workload: str, seed: int) -> dict | None:
    """Pinned digests for a workload and seed, or None if the seed is not pinned."""
    if not PINS.exists():
        return None
    return json.loads(PINS.read_text("utf-8")).get(workload, {}).get(str(seed))
