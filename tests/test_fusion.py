import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tefuse import (LengthMismatch, SymbolSequence, fit_mep_partition, fuse, merge_pair,
                    symbolize)
from tefuse.fusion import as_symbol_sequence

from oracles import entropy_oracle, repartition_oracle


def test_merge_encoding():
    x = SymbolSequence([0, 1, 0], 2, "x")
    y = SymbolSequence([1, 1, 0], 2, "y")
    merged = merge_pair(x, y)
    assert merged.values.tolist() == [1, 3, 0]
    assert merged.alphabet_size == 4
    assert merged.parents == ("x", "y")


def test_constant_minor_digit():
    x = SymbolSequence([0, 1, 2], 3, "x")
    y = SymbolSequence([0, 0, 0], 2, "y")
    assert merge_pair(x, y).values.tolist() == [0, 2, 4]


def test_decode_inverts_merge():
    rng = np.random.default_rng(0)
    x = SymbolSequence(rng.integers(0, 5, 200), 5, "x")
    y = SymbolSequence(rng.integers(0, 3, 200), 3, "y")
    dx, dy = merge_pair(x, y).decode()
    assert np.array_equal(dx, x.symbols)
    assert np.array_equal(dy, y.symbols)


def test_merge_length_mismatch():
    with pytest.raises(LengthMismatch):
        merge_pair(SymbolSequence([0, 1], 2), SymbolSequence([0], 2))


def test_fuse_balanced_binary_pair_relabels_losslessly():
    rng = np.random.default_rng(1)
    x = SymbolSequence(rng.integers(0, 2, 400), 2, "x")
    y = SymbolSequence(rng.integers(0, 2, 400), 2, "y")
    fused = fuse(x, y, 4)
    merged = merge_pair(x, y)
    assert fused.alphabet_size == 4
    assert np.array_equal(fused.symbols, merged.values)
    assert fused.source_name == "(x+y)"


def test_fuse_compresses_25_to_5_with_balance():
    rng = np.random.default_rng(2)
    x = SymbolSequence(rng.integers(0, 5, 5000), 5, "a")
    y = SymbolSequence(rng.integers(0, 5, 5000), 5, "b")
    fused = fuse(x, y, 5)
    assert fused.alphabet_size == 5
    counts = np.bincount(fused.symbols, minlength=5)
    # bins can only split at merged-value boundaries, so occupancy is
    # balanced up to the heaviest single merged value
    merged_counts = np.bincount(merge_pair(x, y).values, minlength=25)
    assert max(counts) - min(counts) <= 2 * merged_counts.max()
    assert abs(counts.max() - 1000) <= merged_counts.max()


def test_fuse_with_self_is_order_isomorphic():
    rng = np.random.default_rng(3)
    symbols = rng.integers(0, 4, 300)
    x = SymbolSequence(symbols, 4, "x")
    fused = fuse(x, x, 4)
    assert np.array_equal(fused.symbols, symbols)


def test_fuse_deterministic():
    rng = np.random.default_rng(4)
    x = SymbolSequence(rng.integers(0, 5, 500), 5, "x")
    y = SymbolSequence(rng.integers(0, 5, 500), 5, "y")
    a = fuse(x, y, 5)
    b = fuse(x, y, 5)
    assert np.array_equal(a.symbols, b.symbols)


def test_fuse_never_increases_entropy():
    rng = np.random.default_rng(5)
    for trial in range(15):
        bx, by = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x = SymbolSequence(rng.integers(0, bx, 400), bx, "x")
        y = SymbolSequence(rng.integers(0, by, 400), by, "y")
        target = int(rng.integers(2, 7))
        merged = as_symbol_sequence(merge_pair(x, y))
        fused = fuse(x, y, target)
        assert fused.alphabet_size <= target
        assert (entropy_oracle(fused.symbols.tolist())
                <= entropy_oracle(merged.symbols.tolist()) + 1e-12)


def _fuse_and_check(x, y, fused, fit_length):
    """fuse, held to the float quantile path of the same merge for its
    symbols and alphabet, and to the merge's full-alphabet view for its
    name."""
    got = fuse(x, y, fused, fit_length=fit_length)
    merged = merge_pair(x, y)
    symbols, alphabet = repartition_oracle(merged.values.tolist(), fused, fit_length)
    assert got.symbols.tolist() == symbols
    assert got.alphabet_size == alphabet
    assert got.source_name == as_symbol_sequence(merged).source_name
    return got


@pytest.mark.parametrize("x, y, fused, fit_length, log", [
    # 4 distinct merged values in the fit window, target 6: a lossless
    # relabel; merged value 8 never occurs there and clamps to the top
    ([0, 1, 0, 1, 0, 2], [0, 0, 1, 1, 0, 0], 6, 5, "lossless relabel"),
    # merged value 0 holds most rows: four of five edges collapse
    ([0] * 60 + [1, 1, 2, 2, 0, 1, 2, 1], [0] * 60 + [0, 1, 0, 1, 2, 2, 1, 2], 6, None,
     "ties collapsed 4 quantile edges, alphabet 6 -> 2"),
    # 12 evenly used values, target 4: four plain quantile bins
    ([0, 1, 2] * 8, [v // 6 for v in range(24)], 4, None, None),
], ids=["lossless-relabel", "collapsed-edges", "quantile"])
def test_fuse_equals_repartition_of_the_merge(caplog, x, y, fused, fit_length, log):
    x, y = SymbolSequence(x, 3, "x"), SymbolSequence(y, 4, "(y+z)")
    with caplog.at_level(logging.INFO, logger="tefuse.sdf"):
        got = _fuse_and_check(x, y, fused, fit_length)
    assert got.source_name == "(x+(y+z))"
    # the path the case names fired, once
    if log is None:
        assert caplog.text == ""
    else:
        assert caplog.text.count(log) == 1


@settings(deadline=None, max_examples=150)
@given(data=st.data(), bx=st.integers(1, 6), by=st.integers(1, 6), n=st.integers(1, 60),
       fused=st.integers(2, 12))
def test_fuse_equals_repartition_on_random_pairs(data, bx, by, n, fused):
    # skewed draws make heavy ties; small alphabets make relabels
    skew = st.integers(0, 2 * max(bx, by)).map(lambda v: v if v < max(bx, by) else 0)
    xs = data.draw(st.lists(skew.map(lambda v: min(v, bx - 1)), min_size=n, max_size=n))
    ys = data.draw(st.lists(skew.map(lambda v: min(v, by - 1)), min_size=n, max_size=n))
    fit_length = data.draw(st.one_of(st.none(), st.integers(1, n)))
    x, y = SymbolSequence(xs, bx, "x"), SymbolSequence(ys, by, "y")
    _fuse_and_check(x, y, fused, fit_length)


# What a merge keeps. At the default fused alphabet (the working alphabet b),
# a maximum entropy leaf x of exactly equal-count bins is its own fused node:
# the b - 1 quantile edges of x * b_y + y on the training prefix are the last
# merged values of x's bins, so the fused training symbols are x's and the
# minor parent y is dropped. A fused alphabet of b_x * b_y keeps both.
@settings(deadline=None, max_examples=100)
@given(data=st.data(), b=st.integers(2, 6), by=st.integers(2, 6),
       per_bin=st.integers(1, 30), held_out=st.integers(0, 20))
def test_fuse_at_the_working_alphabet_keeps_an_equal_count_major_parent(
        data, b, by, per_bin, held_out):
    train_len = b * per_bin
    values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=train_len + held_out,
                                max_size=train_len + held_out, unique=True))
    x = symbolize(values, fit_mep_partition(values[:train_len], b), "x")
    assert np.bincount(x.symbols[:train_len], minlength=b).tolist() == [per_bin] * b
    y = SymbolSequence(data.draw(st.lists(st.integers(0, by - 1), min_size=len(values),
                                          max_size=len(values))), by, "y")
    fused = fuse(x, y, b, fit_length=train_len)
    assert fused.alphabet_size == b
    assert fused.symbols[:train_len].tolist() == x.symbols[:train_len].tolist()


@settings(deadline=None, max_examples=100)
@given(data=st.data(), bx=st.integers(1, 6), by=st.integers(1, 6), n=st.integers(1, 60))
def test_fuse_at_the_product_alphabet_relabels_losslessly(data, bx, by, n):
    xs = data.draw(st.lists(st.integers(0, bx - 1), min_size=n, max_size=n))
    ys = data.draw(st.lists(st.integers(0, by - 1), min_size=n, max_size=n))
    x, y = SymbolSequence(xs, bx, "x"), SymbolSequence(ys, by, "y")
    fused = fuse(x, y, max(2, bx * by))
    # the fused symbols rank the distinct merged values, which decode to (x, y)
    merged = np.unique(merge_pair(x, y).values)
    assert fused.alphabet_size == len(merged)
    assert (merged[fused.symbols] // by).tolist() == xs
    assert (merged[fused.symbols] % by).tolist() == ys
