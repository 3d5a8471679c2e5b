import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tefuse import (
    Dataset,
    DegenerateInput,
    Partition,
    PipelineError,
    RunConfig,
    fit_mep_partition,
    fit_uniform_partition,
    split_index,
    symbolize,
)
from tefuse.clustering import fit_leaves
from tefuse.sdf import _repartition

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

    def test_more_bins_than_values_allocates_no_edges(self):
        # 10**18 - 1 edges would take 8 EiB: the fit refuses before reading any
        with pytest.raises(DegenerateInput) as raised:
            fit_mep_partition(np.arange(10.0), 10**18)
        assert str(raised.value) == \
            f"need at least {10**18} distinct values for {10**18} bins, got 10"

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

    def test_range_too_narrow_for_its_bins_is_degenerate(self):
        # two ulps of range: the equal-width edges round onto each other
        with pytest.raises(DegenerateInput) as raised:
            fit_uniform_partition(np.array([1.0, 1.0000000000000002, 1.0]), 5)
        assert str(raised.value) == ("the range [1.0, 1.0000000000000002] is too narrow for "
                                     "5 equal-width bins; use fewer bins or maximum entropy "
                                     "partitioning")

    def test_midpoint_for_two_bins(self):
        part = fit_uniform_partition(np.array([-1.0, 0.25, 1.0]), 2)
        assert part.edges.tolist() == [0.0]

    @pytest.mark.parametrize("values, b, edges", [
        ([-1e308, 0.0, 1e308], 2, "[inf]"),
        ([0.0, 1e308], 3, "[3.333333333333333e+307, inf]"),
    ])
    def test_edges_past_float64_range_are_an_error(self, values, b, edges):
        # they once came back as edges, and symbolize put every value in bin 0
        with np.errstate(over="ignore"), pytest.raises(PipelineError) as raised:
            fit_uniform_partition(np.array(values), b)
        assert str(raised.value) == f"the {b}-bin edges {edges} are not all finite"

    def test_bulk_fit_names_the_column_whose_edges_overflow(self):
        columns = {"a": np.arange(4.0), "b": np.array([-1e308, 0.0, 1e308, 1.0])}
        dataset = Dataset(names=[*columns, "y"], columns=[*columns.values(), np.zeros(4)])
        config = _leaves_config(list(columns), alphabet=2, partitioner="uniform",
                                train_fraction=1.0)
        with np.errstate(over="ignore"), pytest.raises(PipelineError) as raised:
            fit_leaves(dataset, config)
        assert str(raised.value) == "column 'b': the 2-bin edges [inf] are not all finite"


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
        with caplog.at_level(logging.WARNING, logger="tefuse.sdf"):
            out = _repartition(values, 5, None, "m")
        assert caplog.text == ""  # no edge collapsed
        assert out.alphabet_size == 5
        # pairs of adjacent merged values share one output symbol
        assert out.symbols.tolist() == (values // 2).tolist()
        counts = np.bincount(out.symbols)
        assert max(counts) - min(counts) == 0

    def test_few_distinct_relabels_losslessly(self):
        out = _repartition(np.array([4, 9, 4, 0, 9, 9]), 5, None, "m")
        assert out.alphabet_size == 3
        assert out.symbols.tolist() == [1, 2, 1, 0, 2, 2]

    def test_balanced_input_is_order_isomorphic(self):
        values = np.tile(np.arange(5), 20)
        out = _repartition(values, 5, None, "m")
        assert out.symbols.tolist() == values.tolist()

    def test_ordinal_structure_preserved(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            values = rng.integers(0, 25, size=300)
            out = _repartition(values, 5, None, "m")
            order = np.argsort(values, kind="stable")
            assert np.all(np.diff(out.symbols[order]) >= 0)

    def test_heavy_ties_shrink_alphabet(self, caplog):
        # 7 distinct values but almost everything is 0: quantile edges
        # collide and the output alphabet drops below the target.
        values = np.array([0] * 194 + [1, 2, 3, 4, 5, 6], dtype=np.int64)
        with caplog.at_level(logging.WARNING, logger="tefuse.sdf"):
            out = _repartition(values, 6, None, "m")
        # all five edges sit at 0; the four duplicates go, one edge stays
        assert out.alphabet_size == 2
        assert out.symbols.tolist() == [0] * 194 + [1] * 6
        assert "ties collapsed 4 quantile edges, alphabet 6 -> 2" in caplog.text
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(out.symbols[order]) >= 0)

    def test_fit_prefix_clamps_unseen_values(self):
        # values 20..24 never occur in the fit window; they clamp to the top
        values = np.concatenate([np.tile(np.arange(10), 10), np.arange(20, 25)])
        out = _repartition(values, 5, 100, "m")
        assert out.symbols[:100].tolist() == (values[:100] // 2).tolist()
        assert out.symbols[100:].tolist() == [4] * 5

    def test_relabel_fit_prefix_clamps(self):
        out = _repartition(np.array([0, 3, 0, 3, 9]), 4, 4, "m")
        assert out.alphabet_size == 2
        assert out.symbols.tolist() == [0, 1, 0, 1, 1]


# Few values, so ties are heavy and quantile edges often collapse; both
# zeros, so an edge's sign shows which of them a sort put there; and the
# smallest subnormal, whose equal-width bins collapse
TIED = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 7.25, 1e300, -1e-300, 5e-324])
ELEMENTS = [TIED, st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False)]


@st.composite
def source_matrices(draw):
    """1-6 columns of one length, each column's values from one of ELEMENTS."""
    n = draw(st.integers(1, 40))
    return np.array([draw(arrays(np.float64, n, elements=draw(st.sampled_from(ELEMENTS)),
                                 fill=st.nothing()))
                     for _ in range(draw(st.integers(1, 6)))])


def _leaves_config(names, **kw):
    return RunConfig(target_column="y", source_columns=tuple(names), **kw)


class TestBulkFit:
    """fit_leaves fits every source's training prefix in one pass; each
    column must get what its own one-column fit and symbolize give, and a
    column that cannot be fitted must fail as its one-column fit does."""

    @settings(deadline=None, max_examples=300)
    @given(matrix=source_matrices(), b=st.integers(2, 6), partitioner=st.sampled_from(["mep", "uniform"]),
           fraction=st.floats(0.05, 1.0))
    def test_fit_leaves_equals_per_column_fits(self, matrix, b, partitioner, fraction):
        names = [f"c{i}" for i in range(len(matrix))]
        dataset = Dataset(names=[*names, "y"], columns=[*matrix, np.zeros(matrix.shape[1])])
        config = _leaves_config(names, alphabet=b, partitioner=partitioner,
                                train_fraction=fraction)
        fit = fit_mep_partition if partitioner == "mep" else fit_uniform_partition
        train_len = split_index(matrix.shape[1], fraction)
        expected = []
        for name, values in zip(names, matrix):
            try:
                partition = fit(values[:train_len], b)
            except (DegenerateInput, ValueError) as exc:
                # the first column in config order that cannot be fitted
                named = isinstance(exc, DegenerateInput)
                with pytest.raises(type(exc)) as raised:
                    fit_leaves(dataset, config)
                assert str(raised.value) == (f"column {name!r}: {exc}" if named else str(exc))
                return
            expected.append((partition, symbolize(values, partition, name)))
        got = fit_leaves(dataset, config)
        assert len(got) == len(expected)
        for (partition, seq), (want, want_seq) in zip(got, expected):
            # bit for bit: a zero edge keeps its sign
            assert partition.edges.view(np.int64).tolist() == want.edges.view(np.int64).tolist()
            assert (partition.alphabet_size, partition.kind) == (want.alphabet_size, want.kind)
            assert seq.symbols.tolist() == want_seq.symbols.tolist()
            assert (seq.alphabet_size, seq.source_name) == (b, want_seq.source_name)

    @pytest.mark.parametrize("partitioner, columns, message", [
        ("mep", {"a": np.arange(12.0), "b": np.ones(12), "c": np.zeros(12)},
         "column 'b': need at least 3 distinct values for 3 bins, got 1"),
        ("mep", {"a": np.arange(12.0), "c": [0.0] * 10 + [1.0, 2.0], "b": np.ones(12)},
         "column 'c': ties collapse the 3-bin quantile edges; "
         "use fewer bins or uniform partitioning"),
        ("uniform", {"a": np.arange(12.0), "c": np.zeros(12), "b": np.ones(12)},
         "column 'c': constant series cannot be uniformly partitioned"),
    ], ids=["too-few-distinct", "collapsed-edges", "uniform-constant"])
    def test_first_degenerate_column_is_named(self, partitioner, columns, message):
        names = list(columns)
        dataset = Dataset(names=[*names, "y"], columns=[*columns.values(), np.zeros(12)])
        config = _leaves_config(names, alphabet=3, partitioner=partitioner,
                                train_fraction=1.0)
        with pytest.raises(DegenerateInput) as raised:
            fit_leaves(dataset, config)
        assert str(raised.value) == message

    def test_one_column_fit_names_nothing(self):
        with pytest.raises(DegenerateInput) as raised:
            fit_mep_partition(np.ones(12), 3)
        assert str(raised.value) == "need at least 3 distinct values for 3 bins, got 1"


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
