"""The package's public names: exactly the documented list, each importable,
and none of the removed ones left behind in a module."""

import pytest

import tefuse
from tefuse import errors, infotheory, sdf

PUBLIC = [
    "__version__",
    # ingest
    "Dataset", "RunConfig", "load_csv", "split_index",
    "append_noise_channels", "read_config_file",
    # sdf
    "Partition", "SymbolSequence", "fit_mep_partition",
    "fit_uniform_partition", "symbolize",
    # embedding
    "StateSequence", "embed", "decode_state",
    # infotheory
    "transfer_entropy", "transfer_entropies", "causation_entropy_pair",
    # fusion
    "MergedSequence", "merge_pair", "fuse",
    # clustering
    "MergeRecord", "MergeTree", "score_pair", "cluster", "export_tree",
    "tree_from_json", "leaf_sequences", "replay_merges",
    # estimate
    "EvaluationReport", "LevelScore", "discretize_target", "evaluate_levels",
    # errors
    "PipelineError", "MissingColumn", "UnparseableHeader", "UnreadableCsv",
    "EmptyAfterFiltering", "DegenerateInput", "LengthMismatch",
    "SequenceTooShort", "TreeDatasetMismatch", "MalformedArtifact",
]

# wrappers that only tests called; every entropy is a row of
# infotheory._entropies and fusion goes through sdf._repartition
REMOVED = ["shannon_entropy", "conditional_entropy", "repartition", "EmptySequence"]


def test_all_is_the_public_list():
    assert tefuse.__all__ == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from tefuse import *", namespace)
    assert [name for name in PUBLIC if name not in namespace] == []
    assert all(namespace[name] is getattr(tefuse, name) for name in PUBLIC)


@pytest.mark.parametrize("module", [tefuse, infotheory, sdf, errors],
                         ids=lambda module: module.__name__)
def test_removed_names_are_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []
