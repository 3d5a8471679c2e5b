"""Self-tests of the benchmark: trace counts, repeatability, transparency.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Each traced operation runs the real CLI on a workload's seed-0 input, so
the module takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import Runner  # noqa: E402
from tracer import SpanTree, Tracer, call_counts, layer_metrics, te_per_level  # noqa: E402
from workloads import WORKLOADS, pins  # noqa: E402


def _levels(sources: int) -> list[int]:
    """TE calls per level when every pair is re-scored at every level: the
    first level scores each source alone and every pair; later levels score
    the new node alone and every pair of the m active nodes."""
    return [sources + sources * (sources - 1) // 2] + [
        1 + m * (m - 1) // 2 for m in range(sources - 1, 1, -1)]


# "repeat" counts TE calls whose (source bytes, target bytes, k) were scored
# earlier in the run. "rescored" counts only the pairs of surviving nodes
# scored again at a later level (sum of C(m-1, 2) over later levels); the
# rest of the repeats come from fused nodes whose repartitioned symbols equal
# those of a node scored earlier.
EXPECTED = {
    "ahu": {"levels": [36, 22, 16, 11, 7, 4, 2], "repeat": 48, "rescored": 35},
    "wide": {"levels": _levels(24), "repeat": 1900, "rescored": 1771},
    "long": {"levels": [15, 7, 4, 2], "repeat": 10, "rescored": 4},
}


@pytest.fixture(scope="module")
def runners(tmp_path_factory):
    made = {}

    def get(name):
        if name not in made:
            work = tmp_path_factory.mktemp(name)
            runner = Runner(ROOT, WORKLOADS[name], 0, work)
            WORKLOADS[name].write_input(ROOT, runner.csv, 0)
            made[name] = runner
        return made[name]

    return get


@pytest.fixture(scope="module")
def traced_ops(runners):
    ops = {}

    def get(name):
        if name not in ops:
            ops[name] = runners(name).operation(0, traced=True)
        return ops[name]

    return get


def _trees(op):
    return [SpanTree(doc["spans"]) for doc in op["trace"]]


def test_wide_expected_levels_follow_pair_structure():
    assert len(EXPECTED["wide"]["levels"]) == 23
    assert sum(EXPECTED["wide"]["levels"]) == 2346
    assert EXPECTED["wide"]["levels"][:3] == [300, 254, 232]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_te_counts_per_level_and_repeat_ratio(traced_ops, name):
    op = traced_ops(name)
    assert op["ok"], op["exit"]
    assert op["trace"][0]["te_per_level"] == EXPECTED[name]["levels"]
    metrics = layer_metrics(_trees(op), WORKLOADS[name].threads)
    calls = sum(EXPECTED[name]["levels"])
    assert metrics["infotheory.transfer_entropy.calls"] == calls
    surviving = sum((m - 1) * (m - 2) // 2 for m in range(len(EXPECTED[name]["levels"]), 1, -1))
    assert surviving == EXPECTED[name]["rescored"]
    assert metrics["infotheory.transfer_entropy.repeat_ratio"] == pytest.approx(
        EXPECTED[name]["repeat"] / calls, abs=1e-12)
    assert metrics["clustering.levels"] == len(EXPECTED[name]["levels"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_outputs_unchanged(traced_ops, name):
    op = traced_ops(name)
    pinned = pins(name, 0)
    assert pinned is not None
    assert op["tree_sha256"] == pinned["tree_sha256"]
    assert set(op["report_sha256"]) == {pinned["report_sha256"]}


def test_call_counts_repeat_across_traced_runs(runners, traced_ops):
    first = traced_ops("ahu")
    second = runners("ahu").operation(1, traced=True)
    assert second["ok"]
    assert call_counts(_trees(first)) == call_counts(_trees(second))
    assert first["trace"][0]["te_per_level"] == second["trace"][0]["te_per_level"]


def test_every_layer_is_traced(traced_ops):
    counts = call_counts(_trees(traced_ops("ahu")))
    layers = {name.split(".")[0] for name in counts}
    assert {"cli", "ingest", "sdf", "embedding", "infotheory", "fusion",
            "clustering", "estimate"} <= layers


def test_removed_function_gives_zero_calls():
    # Spans of a run in which merge_pair, embed and load_csv no longer exist.
    spans = [[1, None, "cli.main", "cli", 1, 0.0, 1.0, None, None],
             [2, 1, "clustering.cluster", "clustering", 1, 0.1, 0.9, None, None],
             [3, 2, "infotheory.transfer_entropy", "infotheory", 1, 0.2, 0.3, 10, "a"],
             [4, 2, "infotheory.transfer_entropy", "infotheory", 2, 0.25, 0.35, 10, "a"],
             [5, 2, "fusion.fuse", "fusion", 1, 0.4, 0.5, None, None]]
    metrics = layer_metrics([SpanTree(spans)], threads=2)
    assert metrics["fusion.merge_pair.calls"] == 0
    assert metrics["embedding.embed.calls"] == 0
    assert metrics["ingest.load_csv.rows_per_s"] == 0.0
    assert metrics["infotheory.transfer_entropy.repeat_ratio"] == 0.5
    assert metrics["clustering.self_s"] == pytest.approx(0.8 - 0.15 - 0.1)
    assert te_per_level(spans) == [2]


def test_install_wraps_references_in_every_namespace():
    sys.path.insert(0, str(ROOT / "src"))
    import tefuse.clustering
    import tefuse.infotheory

    tracer = Tracer()
    tracer.install()
    assert tefuse.clustering.transfer_entropy is tefuse.infotheory.transfer_entropy
    assert hasattr(tefuse.clustering.transfer_entropy, "__wrapped__")
    tefuse.infotheory.transfer_entropy([0, 1, 0, 1, 1, 0], [1, 0, 1, 1, 0, 0], 1)
    assert [s[2] for s in tracer.spans] == ["infotheory.transfer_entropy"]


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    proc = subprocess.run([*spec["command"], "--workload", "ahu", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
