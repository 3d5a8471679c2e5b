import json
import logging

import numpy as np
import pytest

from tefuse import (
    DegenerateInput,
    Partition,
    SymbolSequence,
    fit_mep_partition,
    fit_uniform_partition,
    repartition,
    symbolize,
)

from oracles import bin_counts, sort_and_split_edges


class TestMepPartition:
    def test_quantile_edges_on_1_to_100(self):
        values = np.arange(1, 101, dtype=float)
        part = fit_mep_partition(values, 5)
        assert part.edges.tolist() == [20, 40, 60, 80]
        assert part.edges.tolist() == sort_and_split_edges(values, 5)
        assert bin_counts(values, part.edges) == [20] * 5

    def test_all_equal_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            fit_mep_partition(np.ones(40), 2)

    def test_binary_tie_placement(self):
        values = np.array([0.0] * 50 + [1.0] * 50)
        part = fit_mep_partition(values, 2)
        assert part.edges.tolist() == [0.0]
        assert part.edges.tolist() == sort_and_split_edges(values, 2)
        assert bin_counts(values, part.edges) == [50, 50]

    def test_collapsed_quantiles_are_degenerate(self):
        # Plenty of distinct values, but 96% mass on one of them: the
        # quantile edges coincide and the fit must refuse, not mangle.
        values = np.array([0.0] * 96 + [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateInput):
            fit_mep_partition(values, 3)

    def test_small_alphabet_rejected(self):
        with pytest.raises(ValueError):
            fit_mep_partition(np.arange(10.0), 1)

    def test_balance_on_distinct_values(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n = int(rng.integers(10, 400))
            b = int(rng.integers(2, 9))
            values = rng.permutation(np.arange(n, dtype=float) + rng.uniform(0, 1))
            if n < b:
                continue
            part = fit_mep_partition(values, b)
            counts = bin_counts(values, part.edges)
            assert max(counts) - min(counts) <= 1

    def test_determinism(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=500)
        a = fit_mep_partition(values, 7)
        b = fit_mep_partition(values.copy(), 7)
        assert np.array_equal(a.edges, b.edges)


class TestUniformPartition:
    def test_equal_spacing(self):
        part = fit_uniform_partition(np.array([0.0, 3.0, 7.5, 10.0]), 5)
        assert np.allclose(part.edges, [2, 4, 6, 8])

    def test_constant_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            fit_uniform_partition(np.full(10, 3.3), 4)

    def test_midpoint_for_two_bins(self):
        part = fit_uniform_partition(np.array([-1.0, 0.25, 1.0]), 2)
        assert part.edges.tolist() == [0.0]


class TestSymbolize:
    def test_edge_rule(self):
        part = Partition(np.array([20.0, 40.0, 60.0, 80.0]), 5, "max-entropy")
        assert symbolize([1, 50, 99], part).symbols.tolist() == [0, 2, 4]

    def test_out_of_range_clamps(self):
        part = Partition(np.array([0.0, 1.0]), 3, "uniform")
        seq = symbolize([-100.0, 100.0], part)
        assert seq.symbols.tolist() == [0, 2]

    def test_value_on_edge_goes_to_lower_bin(self):
        part = Partition(np.array([1.0, 2.0]), 3, "uniform")
        assert symbolize([1.0, 2.0], part).symbols.tolist() == [0, 1]

    def test_monotone(self):
        rng = np.random.default_rng(3)
        values = np.sort(rng.normal(size=300))
        part = fit_mep_partition(values, 6)
        symbols = symbolize(values, part).symbols
        assert np.all(np.diff(symbols) >= 0)

    def test_nan_rejected(self):
        part = Partition(np.array([0.0]), 2, "uniform")
        with pytest.raises(ValueError):
            symbolize([0.0, float("nan")], part)


class TestRepartition:
    def test_adjacent_values_collapse(self, caplog):
        values = np.repeat(np.arange(10), 10)
        seq = SymbolSequence(values, 10, "m")
        with caplog.at_level(logging.WARNING, logger="tefuse.sdf"):
            out = repartition(seq, 5)
        assert caplog.text == ""  # no edge collapsed
        assert out.alphabet_size == 5
        # pairs of adjacent merged values share one output symbol
        assert out.symbols.tolist() == (values // 2).tolist()
        counts = np.bincount(out.symbols)
        assert max(counts) - min(counts) == 0

    def test_few_distinct_relabels_losslessly(self):
        seq = SymbolSequence([4, 9, 4, 0, 9, 9], 10, "m")
        out = repartition(seq, 5)
        assert out.alphabet_size == 3
        assert out.symbols.tolist() == [1, 2, 1, 0, 2, 2]

    def test_balanced_input_is_order_isomorphic(self):
        values = np.tile(np.arange(5), 20)
        out = repartition(SymbolSequence(values, 5, "m"), 5)
        assert out.symbols.tolist() == values.tolist()

    def test_ordinal_structure_preserved(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            values = rng.integers(0, 25, size=300)
            out = repartition(SymbolSequence(values, 25, "m"), 5)
            order = np.argsort(values, kind="stable")
            assert np.all(np.diff(out.symbols[order]) >= 0)

    def test_heavy_ties_shrink_alphabet(self, caplog):
        # 7 distinct values but almost everything is 0: quantile edges
        # collide and the output alphabet drops below the target.
        values = np.array([0] * 194 + [1, 2, 3, 4, 5, 6], dtype=np.int64)
        with caplog.at_level(logging.WARNING, logger="tefuse.sdf"):
            out = repartition(SymbolSequence(values, 7, "m"), 6)
        # all five edges sit at 0; the four duplicates go, one edge stays
        assert out.alphabet_size == 2
        assert out.symbols.tolist() == [0] * 194 + [1] * 6
        assert "ties collapsed 4 quantile edges, alphabet 6 -> 2" in caplog.text
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(out.symbols[order]) >= 0)

    def test_fit_prefix_clamps_unseen_values(self):
        # values 20..24 never occur in the fit window; they clamp to the top
        values = np.concatenate([np.tile(np.arange(10), 10), np.arange(20, 25)])
        seq = SymbolSequence(values, 25, "m")
        out = repartition(seq, 5, fit_length=100)
        assert out.symbols[:100].tolist() == (values[:100] // 2).tolist()
        assert out.symbols[100:].tolist() == [4] * 5

    def test_relabel_fit_prefix_clamps(self):
        seq = SymbolSequence([0, 3, 0, 3, 9], 10, "m")
        out = repartition(seq, 4, fit_length=4)
        assert out.alphabet_size == 2
        assert out.symbols.tolist() == [0, 1, 0, 1, 1]



class TestPartitionSerialization:
    @pytest.mark.parametrize("fit, kind", [(fit_mep_partition, "max-entropy"),
                                           (fit_uniform_partition, "uniform")],
                             ids=["mep", "uniform"])
    def test_to_dict_is_plain_json(self, fit, kind):
        # partitions.json holds each leaf's to_dict(): builtin types whose
        # edges read back as the same floats
        part = fit(np.linspace(-3.5, 96.25, 101) ** 3, 5)
        doc = part.to_dict()
        assert doc == {"edges": part.edges.tolist(), "alphabet_size": 5, "kind": kind}
        assert [type(e) for e in doc["edges"]] == [float] * 4
        assert type(doc["alphabet_size"]) is int
        assert json.loads(json.dumps(doc)) == doc
