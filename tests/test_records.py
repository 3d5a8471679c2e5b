"""The package's record types: their constructors check and coerce as
documented, they refuse assignment, and the value records compare by value."""

import copy
import json
import math
import pickle

import numpy as np
import pytest

from tefuse import (Dataset, EvaluationReport, LevelScore, MergedSequence, MergeRecord,
                    MergeTree, Partition, RunConfig, StateSequence, SymbolSequence, cluster,
                    export_tree, tree_from_json)
from tefuse.ingest import noise_columns

BASE = {"target_column": "y", "source_columns": ("a", "b")}

# (changed fields, exception type, message) for every check RunConfig makes
RUN_CONFIG_ERRORS = [
    ({"source_columns": "ab"}, TypeError,
     "column names must be strings, and the sources a sequence"),
    ({"target_column": 1}, TypeError,
     "column names must be strings, and the sources a sequence"),
    ({"source_columns": ("a", 2)}, TypeError,
     "column names must be strings, and the sources a sequence"),
    ({"alphabet": True}, TypeError, "alphabet must be an integer, not True"),
    ({"target_alphabet": 2.0}, TypeError, "target_alphabet must be an integer, not 2.0"),
    ({"depth": "3"}, TypeError, "depth must be an integer, not '3'"),
    ({"fused_alphabet": 3.5}, TypeError, "fused_alphabet must be an integer, not 3.5"),
    ({"stop_at": False}, TypeError, "stop_at must be an integer, not False"),
    ({"seed": None}, TypeError, "seed must be an integer, not None"),
    ({"train_fraction": True}, TypeError, "train_fraction must be a number, not True"),
    ({"train_fraction": "0.5"}, TypeError, "train_fraction must be a number, not '0.5'"),
    ({"source_columns": ()}, ValueError, "at least one source column is required"),
    ({"source_columns": ("a", "a")}, ValueError, "source columns must be unique"),
    ({"source_columns": ("y", "a")}, ValueError,
     "target column 'y' cannot also be a source"),
    ({"alphabet": 1}, ValueError, "alphabet must be >= 2"),
    ({"target_alphabet": 1}, ValueError, "target alphabet must be >= 2"),
    ({"fused_alphabet": 1}, ValueError, "fused alphabet must be >= 2"),
    ({"depth": -1}, ValueError, "depth must be >= 0"),
    ({"stop_at": 0}, ValueError, "stop-at must be >= 1"),
    ({"seed": -1}, ValueError, "seed must be >= 0"),
    ({"train_fraction": 0.0}, ValueError, "train fraction must be in (0, 1]"),
    ({"train_fraction": 1.5}, ValueError, "train fraction must be in (0, 1]"),
    ({"partitioner": "quantile"}, ValueError,
     "partitioner must be one of ('mep', 'uniform')"),
    ({"target_kind": "labels"}, ValueError,
     "target kind must be one of ('auto', 'discrete', 'continuous')"),
]


@pytest.mark.parametrize("changes, error, message", RUN_CONFIG_ERRORS)
def test_run_config_refuses_from_the_constructor_and_through_replace(changes, error,
                                                                      message):
    with pytest.raises(error) as info:
        RunConfig(**{**BASE, **changes})
    assert str(info.value) == message
    with pytest.raises(error) as info:
        RunConfig(**BASE).replace(**changes)
    assert str(info.value) == message


def test_replace_refuses_a_source_named_like_a_noise_channel():
    # inject-noise appends its channels through replace, which checks again
    config = RunConfig(target_column="y", source_columns=("a", "noise_1"))
    with pytest.raises(ValueError, match="^source columns must be unique$"):
        config.replace(source_columns=config.source_columns + noise_columns(1))


def test_run_config_signature_defaults_and_coercion():
    config = RunConfig("y", ["a", "b"], np.int64(4))
    assert config.source_columns == ("a", "b")
    assert type(config.alphabet) is int and config.alphabet == 4
    assert config.fused_alphabet == 4  # unset, the source alphabet
    assert RunConfig.defaults() == {
        "alphabet": 5, "target_alphabet": 10, "depth": 3, "fused_alphabet": None,
        "stop_at": 1, "train_fraction": 0.7, "seed": 0, "partitioner": "mep",
        "target_kind": "auto"}
    assert list(config.to_dict()) == [
        "target_column", "source_columns", *RunConfig.defaults()]
    assert RunConfig.from_dict(config.to_dict()) == config


def test_run_config_compares_and_hashes_by_value():
    config = RunConfig(**BASE)
    same = RunConfig(**BASE, fused_alphabet=5)
    assert config == same and hash(config) == hash(same)
    assert config.replace(depth=2) != config
    assert config.replace(depth=2).depth == 2 and config.depth == 3
    assert config != tuple(config.to_dict().values())
    assert repr(config).startswith("RunConfig(target_column='y', source_columns=('a', 'b'), "
                                   "alphabet=5, ")


@pytest.fixture(scope="module")
def tree():
    rng = np.random.default_rng(21)
    leaves = [SymbolSequence(rng.integers(0, 3, 300), 3, f"s{i}") for i in range(4)]
    target = SymbolSequence(rng.integers(0, 2, 300), 2, "z")
    return cluster(leaves, target, RunConfig(target_column="z",
                                             source_columns=("s0", "s1", "s2", "s3"),
                                             alphabet=3, depth=1))


def test_merge_tree_equals_its_json_round_trip(tree):
    parsed = tree_from_json(export_tree(tree, "json"))
    assert parsed == tree and hash(parsed) == hash(tree)
    assert all(a == b for a, b in zip(parsed.merges, tree.merges))
    assert parsed is not tree and parsed.merges[0] is not tree.merges[0]


def test_merge_tree_differs_in_one_candidate_scores_last_bit(tree):
    doc = json.loads(export_tree(tree, "json"))
    score = doc["merges"][0]["candidates"][-1][1]
    doc["merges"][0]["candidates"][-1][1] = math.nextafter(score, math.inf)
    parsed = tree_from_json(json.dumps(doc))
    assert parsed != tree
    assert parsed.merges[0] != tree.merges[0]
    assert parsed.merges[1:] == tree.merges[1:]


def test_level_score_is_a_value():
    score = LevelScore(1, "rmse", 0.5, 3)
    assert score == LevelScore(level=1, metric="rmse", value=0.5, n_test=3)
    assert score != LevelScore(1, "rmse", 0.5, 4)
    assert repr(score) == "LevelScore(level=1, metric='rmse', value=0.5, n_test=3)"


def test_sequences_coerce_to_int64():
    small = np.array([0, 1, 1], dtype=np.int32)
    assert SymbolSequence([0, 1, 1], 2).symbols.dtype == np.int64
    assert SymbolSequence(small, 2).symbols.dtype == np.int64
    assert StateSequence(small, depth=1, base=2).states.dtype == np.int64
    merged = MergedSequence(small, 2, 2, ["x", "y"])
    assert merged.values.dtype == np.int64 and merged.parents == ("x", "y")


def test_partition_and_dataset_coerce_to_float64():
    assert Partition([1, 2], 3, "uniform").edges.dtype == np.float64
    dataset = Dataset(["a", "b"], ([1, 2], np.array([3, 4], dtype=np.int32)))
    assert dataset.names == ("a", "b") and dataset.dropped_rows == 0
    assert [c.dtype for c in dataset.columns] == [np.float64, np.float64]


# (constructor, arguments, exception type, message) for the other checks
RECORD_ERRORS = [
    (Partition, ([1.0], 1, "uniform"), ValueError, "alphabet_size must be >= 2"),
    (Partition, ([1.0], 3, "uniform"), ValueError,
     "a partition into b bins needs exactly b-1 edges"),
    (Partition, ([2.0, 1.0], 3, "uniform"), ValueError, "edges must be strictly increasing"),
    (Partition, ([1.0], 2, "other"), ValueError, "unknown partition kind 'other'"),
    (SymbolSequence, ([[0]], 2), ValueError, "symbols must be one-dimensional"),
    (SymbolSequence, ([0], 0), ValueError, "alphabet_size must be >= 1"),
    (SymbolSequence, ([0, 2], 2), ValueError, "symbol out of range for declared alphabet"),
    (StateSequence, ([0], -1, 2), ValueError, "depth must be >= 0"),
    (StateSequence, ([0], 0, 0), ValueError, "base must be >= 1"),
    (Dataset, (("a",), ()), ValueError, "one name per column required"),
    (Dataset, (("a", "a"), ([1.0], [2.0])), ValueError, "column names must be unique"),
    (Dataset, (("a",), ([],)), ValueError, "a dataset needs at least one row"),
    (Dataset, (("a", "b"), ([1.0], [1.0, 2.0])), ValueError,
     "all columns must have identical length"),
]


@pytest.mark.parametrize("make, args, error, message", RECORD_ERRORS)
def test_records_refuse_as_documented(make, args, error, message):
    with pytest.raises(error) as info:
        make(*args)
    assert str(info.value) == message


def _records(tree):
    return [
        RunConfig(**BASE), tree, tree.merges[0], LevelScore(0, "rmse", 1.0, 2),
        Dataset(("a",), ([1.0],)), Partition([0.5], 2, "uniform"),
        SymbolSequence([0, 1], 2, "x"), StateSequence([0, 3], 1, 2),
        MergedSequence([0, 3], 2, 2, ("x", "y")),
        EvaluationReport((), {}, np.arange(2), np.zeros(2), ()),
    ]


def test_records_refuse_assignment(tree):
    for record in _records(tree):
        name = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_array_records_compare_by_identity():
    seq = SymbolSequence([0, 1], 2, "x")
    assert seq == seq and seq != SymbolSequence([0, 1], 2, "x")
    assert len({seq, SymbolSequence([0, 1], 2, "x")}) == 2


def test_records_copy_and_pickle_through_the_constructor(tree):
    for record in _records(tree):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record)
            assert repr(clone) == repr(record)
