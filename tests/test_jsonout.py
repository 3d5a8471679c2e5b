"""Every JSON artifact is ``json.dumps(doc, indent=2)`` plus a line break,
byte for byte: the manifests and reports through
:func:`tefuse.jsonout._json_bytes`, and tree.json though
:func:`tefuse.clustering._export_json` writes the text itself."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tefuse.cli import main
from tefuse.clustering import MergeRecord, MergeTree, export_tree
from tefuse.jsonout import _json_bytes

from synthdata import ahu_like, write_dataset_csv

NAN, INF = float("nan"), float("inf")
# JSON's structure, escapes, controls, a lone surrogate and non-ASCII text
TRICKY = st.sampled_from('"\\[]{},: \n\t\x00\x1f\x7f\ud800é€𝄞')
NAMES = st.text(TRICKY | st.characters(), max_size=8)
SCALARS = (
    st.none() | st.booleans() | NAMES
    | st.integers() | st.sampled_from([2**64, -(2**100), 10**40])
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
)
DOCS = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(NAMES, children, max_size=5)),
    max_leaves=40,
)
# few ids and a few equal-valued scores, so that entries repeat and the
# writer's cache must tell 0.0 from -0.0 and 1 from 1.0
IDS = st.integers(0, 3) | st.integers(0, 10**6)
SCORES = (st.sampled_from([0, -0.0, 0.0, 1, 1.0, -1, NAN, INF, -INF, 2**64, -(2**100)])
          | st.integers() | st.floats())
MERGES = st.builds(
    MergeRecord,
    level=st.integers(0, 30),
    pair=st.tuples(IDS, IDS),
    score=SCORES,
    all_candidate_scores=st.lists(st.tuples(st.tuples(IDS, IDS), SCORES),
                                  max_size=8).map(tuple),
    te_to_target=st.lists(st.tuples(IDS, SCORES), max_size=6).map(tuple),
)
TREES = st.builds(
    MergeTree,
    leaves=st.lists(NAMES, max_size=4).map(tuple),
    node_names=st.lists(NAMES, max_size=6).map(tuple),
    merges=st.lists(MERGES, max_size=4).map(tuple),
    levels=st.lists(st.lists(IDS, max_size=4).map(tuple), max_size=4).map(tuple),
)


def indented(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def tree_doc(tree: MergeTree) -> dict:
    """The document tree.json holds, as json.loads gives it back."""
    return {
        "leaves": list(tree.leaves),
        "node_names": list(tree.node_names),
        "merges": [
            {
                "level": record.level,
                "pair": list(record.pair),
                "score": record.score,
                "candidates": [[list(pair), score]
                               for pair, score in record.all_candidate_scores],
                "te_to_target": [[node_id, value] for node_id, value in record.te_to_target],
            }
            for record in tree.merges
        ],
        "levels": [list(level) for level in tree.levels],
    }


@settings(deadline=None, max_examples=200)
@given(TREES)
@example(MergeTree(leaves=(), node_names=(), merges=(), levels=((),)))
@example(MergeTree(leaves=('a"b', "c\\d", "é€𝄞"), node_names=('a"b', "c\\d", "é€𝄞"),
                   merges=(), levels=((0, 1, 2),)))
@example(MergeTree(
    leaves=("x", "y"), node_names=("x", "y", "(x+y)"),
    merges=(MergeRecord(
        level=1, pair=(0, 1), score=-0.0,
        all_candidate_scores=(((0, 1), 0.0), ((0, 1), -0.0), ((0, 1), 0),
                              ((0, 1), 1), ((0, 1), 1.0), ((0, 1), NAN),
                              ((0, 1), INF), ((0, 1), -INF)),
        te_to_target=((0, 1.0), (0, 1), (1, -0.0), (1, 0.0)),
    ),),
    levels=((0, 1), (2,)),
))
def test_export_equals_indented_dumps(tree):
    assert export_tree(tree, "json") == indented(tree_doc(tree))


@settings(deadline=None, max_examples=100)
@given(DOCS)
def test_equals_indented_dumps(doc):
    assert _json_bytes(doc) == indented(doc)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [{}], {"": {}}, [[], [[]], {}], "[,]", 0, None,
    {"a\\": ["\\\"", "]", "{", ","]},
], ids=repr)
def test_named_cases(doc):
    assert _json_bytes(doc) == indented(doc)


def _pair_tree(first, second) -> MergeTree:
    """Two leaves whose one merge holds the same candidate and TE entries
    with the scores ``first`` and then ``second``."""
    return MergeTree(
        leaves=("x", "y"), node_names=("x", "y", "(x+y)"),
        merges=(MergeRecord(
            level=1, pair=(0, 1), score=first,
            all_candidate_scores=(((0, 1), first), ((0, 1), second), ((0, 1), first)),
            te_to_target=((0, first), (0, second), (1, second)),
        ),),
        levels=((0, 1), (2,)),
    )


# values that a dict key takes as one, though json.dumps writes them apart
@pytest.mark.parametrize("first, second", [
    (0, 0.0), (0.0, 0), (0.0, -0.0), (-0.0, 0.0), (0, -0.0), (-0.0, 0),
    (1, 1.0), (1.0, 1), (-1, -1.0), (-1.0, -1), (2**53, 2.0**53), (2.0**53, 2**53),
], ids=repr)
def test_equal_keyed_values_written_apart(first, second):
    written = export_tree(_pair_tree(first, second), "json")
    assert written == indented(tree_doc(_pair_tree(first, second)))
    doc = json.loads(written)
    candidates = [score for _, score in doc["merges"][0]["candidates"]]
    assert [repr(score) for score in candidates] == [repr(first), repr(second), repr(first)]
    assert [type(score) for score in candidates] == [type(first), type(second), type(first)]


@pytest.mark.parametrize("name", [
    "", 'a"b', "c\\d", "tab\tnew\nline", "\x00\x1f\x7f", "\ud800", "é€𝄞",
], ids=repr)
def test_names_written_as_json_dumps(name):
    tree = MergeTree(leaves=(name, "y"), node_names=(name, "y", f"({name}+y)"),
                     merges=(), levels=((0, 1),))
    written = export_tree(tree, "json")
    assert written == indented(tree_doc(tree))
    assert json.loads(written)["leaves"] == [name, "y"]


def test_wide_inject_noise_tree(tmp_path):
    """A tree of the benchmark's ``wide`` shape: 24 sources, 23 levels and
    every candidate score, about 275 KB indented."""
    csv = tmp_path / "ahu.csv"
    write_dataset_csv(ahu_like(n=960, seed=40), csv)
    assert main([
        "inject-noise", "--input", str(csv), "--target", "Zone_Temp",
        "--sources", "OAT,RAT,OA_Damper_CMD,Cool_Valve_CMD,DAT,Su_Fan_Speed_CMD,"
                     "DA_Static_P,Re_Fan_Speed_CMD",
        "--alphabet", "5", "--depth", "2", "--target-alphabet", "10",
        "--noise-count", "16", "--seed", "7", "--out", str(tmp_path / "run"),
    ]) == 0
    written = (tmp_path / "run" / "tree.json").read_bytes()
    doc = json.loads(written)
    assert len(doc["leaves"]) == 24 and len(doc["merges"]) == 23
    assert written == indented(doc)
