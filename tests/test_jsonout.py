"""_json_bytes writes ``json.dumps(doc, indent=2)`` plus a line break, byte
for byte, whatever the block size."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tefuse.cli import main
from tefuse.jsonout import _BLOCK_CHARS, _json_bytes

from synthdata import ahu_like, write_dataset_csv

BLOCK_CHARS = [1, 2, 3, 7, _BLOCK_CHARS]
# JSON's structure, escapes, controls, a lone surrogate and non-ASCII text,
# all of which must stay inside their strings
TRICKY = st.sampled_from('"\\[]{},: \n\t\x00\x1f\x7f\ud800é€𝄞')
TEXT = st.text(TRICKY | st.characters(), max_size=8)
SCALARS = (
    st.none() | st.booleans() | TEXT
    | st.integers() | st.sampled_from([2**64, -(2**100), 10**40])
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
)
DOCS = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(TEXT, children, max_size=5)),
    max_leaves=40,
)


def indented(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


@settings(deadline=None, max_examples=100)
@given(DOCS)
def test_equals_indented_dumps(doc):
    expected = indented(doc)
    for block_chars in BLOCK_CHARS:
        assert _json_bytes(doc, block_chars) == expected


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [{}], {"": {}}, [[], [[]], {}], "[,]", 0, None,
    {"a\\": ["\\\"", "]", "{", ","]},
], ids=repr)
@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
def test_named_cases(doc, block_chars):
    assert _json_bytes(doc, block_chars) == indented(doc)


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
    for block_chars in BLOCK_CHARS:
        assert _json_bytes(doc, block_chars) == written
