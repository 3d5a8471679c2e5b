import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tefuse import (
    Dataset,
    DegenerateInput,
    LengthMismatch,
    PipelineError,
    RunConfig,
    TreeDatasetMismatch,
    append_noise_channels,
    cluster,
    discretize_target,
    embed,
    evaluate_levels,
    split_index,
)
from tefuse.clustering import leaf_sequences, replay_merges
from tefuse.estimate import (
    ACCURACY,
    RMSE,
    _held_out_symbols,
    _labels,
    _median,
    EvaluationReport,
    LevelScore,
    predictions_csv,
    report_csv,
    report_json,
    resolve_target_kind,
    target_symbols,
)
from tefuse.ingest import noise_columns

from oracles import (predict_oracle, predictions_csv_oracle, sort_and_split_edges,
                     train_oracle)


class TestDiscretizeTarget:
    def test_ten_equal_bins_with_median_representatives(self):
        values = np.arange(1, 101, dtype=float)
        seq, part, reps = discretize_target(values, 10)
        assert part.edges.tolist() == sort_and_split_edges(values, 10)
        assert np.bincount(seq.symbols).tolist() == [10] * 10
        assert reps[0] == 5.5
        assert reps[-1] == 95.5

    def test_symmetric_representatives(self):
        values = np.concatenate([-np.arange(1, 51.0), np.arange(1, 51.0)])
        _, _, reps = discretize_target(values, 2)
        median = np.median(values)
        assert reps[0] - median == -(reps[1] - median)

    def test_empty_bin_inherits_neighbor(self):
        # top quantile edge equals the maximum, leaving the top bin empty
        values = np.array([1.0, 2.0, 3.0, 3.0, 3.0, 3.0])
        seq, part, reps = discretize_target(values, 3)
        assert part.edges.tolist() == [2.0, 3.0]
        assert np.bincount(seq.symbols, minlength=3).tolist() == [2, 4, 0]
        assert not np.isnan(reps).any()
        assert reps[2] == reps[1]

    def test_median_past_float64_range_is_an_error(self):
        # the upper bin's median of 1.7e308 and 1.75e308 once came back inf
        values = np.array([1.0, 2.0, 1.7e308, 1.75e308])
        with np.errstate(over="ignore"), pytest.raises(PipelineError) as raised:
            discretize_target(values, 2, "t")
        assert str(raised.value) == ("column 't': the 2-bin medians [1.5, inf] "
                                     "are not all finite")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-3.0, -1.5, -0.0, 0.0, 0.5, 2.0, 7.0]),
                    min_size=8, max_size=40),
           st.integers(0, 30), st.integers(2, 5))
    def test_only_the_top_bin_is_empty(self, values, top_ties, b):
        # many ties, piled on the maximum too, which can empty the top bin
        values = np.array(values + [max(values)] * top_ties)
        try:
            seq, _, reps = discretize_target(values, b)
        except DegenerateInput:
            assume(False)
        assert np.bincount(seq.symbols, minlength=b)[:-1].all()
        assert reps.tobytes() == _nearest_fill_representatives(values, seq.symbols, b).tobytes()


def _nearest_fill_representatives(values, symbols, b):
    """Each populated bin's ``np.median``, and each empty bin the nearest
    populated bin's, the lower one on a tie: any bin may be empty here."""
    reps = np.full(b, np.nan)
    for s in range(b):
        if (symbols == s).any():
            reps[s] = np.median(values[symbols == s])
    populated = np.flatnonzero(~np.isnan(reps))
    for s in range(b):
        if np.isnan(reps[s]):
            reps[s] = reps[populated[np.argmin(np.abs(populated - s))]]
    return reps


def _bits(x):
    return np.float64(x).tobytes()


MEDIAN_CASES = {
    "odd": [3.0, -1.0, 2.5],
    "even": [4.0, 1.0, -2.0, 8.5],
    "tied_odd": [2.0, 2.0, 1.0, 2.0, 5.0],
    "tied_even": [1.0, 3.0, 3.0, 1.0],
    "one": [-7.25],
    "inexact_mean": [0.1, 0.2],
    "huge_pair": [1.5e308, 1.7e308],
    "opposite_pair": [-1.5, 1.5],
    "zeros_odd": [-0.0, 0.0, -0.0],
    "zeros_even": [0.0, -0.0, -0.0, 0.0],
    "negative_zeros": [-0.0, -0.0],
    "zero_beside_value": [-0.0, 4.0],
    "zeros_off_middle": [-0.0, 0.0, 2.0, 3.0, 4.0],
}


class TestMedian:
    """The per-bin medians come from one sort; each must be np.median of
    the bin's values bit for bit."""

    @pytest.mark.parametrize("name", list(MEDIAN_CASES))
    def test_named_case_equals_np_median(self, name):
        values = np.array(MEDIAN_CASES[name])
        with np.errstate(over="ignore"):
            want = np.median(values)
            got = _median(np.sort(values))
        if got is None:
            assert want == 0.0
        else:
            assert _bits(got) == _bits(want)

    def test_random_ties_and_signed_zeros_equal_np_median(self):
        rng = np.random.default_rng(21)
        pool = np.array([-0.0, 0.0, -1.0, 1.0, 2.5, 0.1, 0.2, -3e-300])
        deferred = 0
        for _ in range(2000):
            values = rng.choice(pool, int(rng.integers(1, 40)))
            got, want = _median(np.sort(values)), np.median(values)
            if got is None:
                deferred += 1
                assert want == 0.0
            else:
                assert _bits(got) == _bits(want)
        assert 0 < deferred < 2000

    def test_representatives_equal_per_bin_np_median(self):
        # the old per-bin loop, with ties and both signed zeros in the data
        rng = np.random.default_rng(22)
        for trial in range(40):
            values = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.0, 0.5, 3.0, -2.5, 7.0, 9.0],
                                int(rng.integers(20, 200)))
            values[:5] = [-4.0, -3.0, 11.0, 12.0, 13.0]
            seq, _, reps = discretize_target(values, 4)
            for s in range(4):
                members = values[seq.symbols == s]
                if len(members):
                    assert _bits(reps[s]) == _bits(np.median(members))


def _program(train, labels, queries, alphabet):
    """The program's predictions for ``queries``, from training states
    ``train`` with next symbols ``labels``."""
    labels = np.asarray(labels)
    ids = np.concatenate([np.asarray(train), queries]).astype(np.int64)
    return _held_out_symbols(ids, len(labels), labels,
                             np.bincount(labels, minlength=alphabet)).tolist()


class TestTrainPredict:
    """The reference frequency estimator that evaluate_levels is held to;
    the named behaviours are asserted on the program too."""

    def test_deterministic_mapping_gives_point_masses(self):
        states = np.array([0, 1, 2, 0, 1, 2])
        labels = np.array([1, 0, 1, 1, 0, 1])
        est = train_oracle(states, labels)
        for dist in est.distributions:
            assert dist.max() == 1.0
            assert abs(dist.sum() - 1.0) < 1e-9
        preds, values = predict_oracle(est, states)
        assert np.array_equal(preds, labels)
        assert values is None

    def test_single_row(self):
        est = train_oracle(np.array([7]), np.array([1]), target_alphabet=2)
        assert est.prior.tolist() == [0.0, 1.0]
        assert est.states.tolist() == [[7]]
        assert est.distributions[0].tolist() == [0.0, 1.0]

    def test_conflicting_labels_three_to_one(self):
        states = np.zeros(4, dtype=int)
        labels = np.array([0, 0, 0, 1])
        est = train_oracle(states, labels)
        assert est.states.tolist() == [[0]]
        assert est.distributions[0].tolist() == [0.75, 0.25]
        assert predict_oracle(est, np.array([0]))[0].tolist() == [0]
        assert _program(states, labels, [0], 2) == [0]

    def test_unseen_state_falls_back_to_prior(self):
        est = train_oracle(np.array([0, 0, 1]), np.array([1, 1, 0]))
        preds, _ = predict_oracle(est, np.array([99]))
        assert preds.tolist() == [1]  # prior argmax
        assert _program([0, 0, 1], [1, 1, 0], [99], 2) == [1]

    def test_tie_breaks_toward_lower_symbol(self):
        states = np.array([5, 5, 5, 5])
        labels = np.array([1, 3, 3, 1])
        est = train_oracle(states, labels, target_alphabet=4)
        preds, _ = predict_oracle(est, np.array([5]))
        assert preds.tolist() == [1]
        assert _program(states, labels, [5], 4) == [1]

    def test_distributions_normalized(self):
        rng = np.random.default_rng(0)
        est = train_oracle(rng.integers(0, 10, 500), rng.integers(0, 4, 500))
        for dist in est.distributions:
            assert abs(dist.sum() - 1.0) < 1e-9
        assert abs(est.prior.sum() - 1.0) < 1e-9

    def test_representatives_map_to_values(self):
        est = train_oracle(np.array([0, 1]), np.array([0, 1]), target_alphabet=2)
        est.bin_representatives = np.array([10.0, 20.0])
        preds, values = predict_oracle(est, np.array([1, 0, 1]))
        assert values.tolist() == [20.0, 10.0, 20.0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            train_oracle(np.array([0, 1]), np.array([0]))

    def test_labels_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            train_oracle(np.array([0, 1]), np.array([0, 2]), target_alphabet=2)
        with pytest.raises(ValueError):
            train_oracle(np.array([0, 1]), np.array([0, -1]))

    def test_two_column_states_match_tuple_table(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            states = rng.integers(-2, 3, (300, 2))
            labels = rng.integers(0, 3, 300)
            est = train_oracle(states, labels, target_alphabet=3)
            counts = {}
            for row, label in zip(map(tuple, states.tolist()), labels.tolist()):
                counts.setdefault(row, [0, 0, 0])[label] += 1
            assert est.states.tolist() == sorted(map(list, counts))
            prior = max(range(3), key=lambda s: (labels == s).sum())
            # rows from a wider range mix seen and unseen states
            queries = rng.integers(-3, 4, (200, 2))
            want = [
                max(range(3), key=counts[row].__getitem__) if row in counts
                else prior
                for row in map(tuple, queries.tolist())
            ]
            preds, _ = predict_oracle(est, queries)
            assert preds.tolist() == want
            assert any(row not in counts for row in map(tuple, queries.tolist()))


class TestTargetKind:
    def test_binary_labels_are_discrete(self):
        cfg = RunConfig(target_column="z", source_columns=("a",))
        assert resolve_target_kind(np.array([0.0, 1.0, 0.0]), cfg) == "discrete"

    def test_continuous_values(self):
        cfg = RunConfig(target_column="z", source_columns=("a",))
        assert resolve_target_kind(np.array([71.2, 70.9, 72.4]), cfg) == "continuous"

    def test_override_wins(self):
        cfg = RunConfig(target_column="z", source_columns=("a",),
                        target_kind="continuous")
        assert resolve_target_kind(np.array([0.0, 1.0]), cfg) == "continuous"

    def test_forced_discrete_needs_integral_values(self):
        # forcing discrete lifts the target_alphabet bound on the class
        # count, but a continuous series once made every float a class
        cfg = RunConfig(target_column="z", source_columns=("a",), target_alphabet=2,
                        target_kind="discrete")
        assert resolve_target_kind(np.arange(5.0), cfg) == "discrete"
        with pytest.raises(ValueError, match="'z'"):
            resolve_target_kind(np.array([71.2, 70.9, 72.4]), cfg)

    def test_discrete_labels_bypass_discretization(self):
        rng = np.random.default_rng(1)
        ds = Dataset(
            names=("a", "z"),
            columns=(rng.normal(size=50), rng.integers(0, 2, 50).astype(float)),
        )
        cfg = RunConfig(target_column="z", source_columns=("a",), alphabet=3,
                        depth=1)
        seq, kind, labels, reps = target_symbols(ds, cfg)
        assert kind == "discrete"
        assert seq.alphabet_size == 2
        assert labels.tolist() == [0.0, 1.0]
        assert np.array_equal(seq.symbols, ds.column("z").astype(int))


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-5, 5), st.integers(-2**53, 2**53)),
                    min_size=1, max_size=40))
    def test_labels_and_symbols_match_np_unique(self, ints):
        values = np.array(ints, dtype=np.float64)
        want, inverse = np.unique(values, return_inverse=True)
        assert _labels(values).tolist() == want.tolist()
        ds = Dataset(names=("a", "z"), columns=(np.zeros(len(values)), values))
        cfg = RunConfig(target_column="z", source_columns=("a",),
                        target_kind="discrete")
        seq, _, labels, reps = target_symbols(ds, cfg)
        assert labels.tolist() == reps.tolist() == want.tolist()
        assert seq.symbols.tolist() == inverse.ravel().tolist()

    @pytest.mark.parametrize("values, negative", [
        ([-0.0, 0.0, 1.0], True),
        ([0.0, -0.0, 1.0], False),
        ([1.0, -0.0, 0.0, -0.0], True),
    ])
    def test_zero_label_takes_sign_of_first_occurrence(self, values, negative):
        # written out: np.unique's quicksort picks this sign by sort order
        labels = _labels(np.array(values))
        assert labels.tolist() == [0.0, 1.0]
        assert bool(np.signbit(labels[0])) is negative


def _driven_dataset(n=1200, seed=2, independent=False):
    """Two informative channels and one distractor; the binary target
    follows threshold crossings of the first channel unless ``independent``."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    a = np.sin(2 * np.pi * t / 96) + rng.normal(scale=0.05, size=n)
    b = a + rng.normal(scale=0.3, size=n)
    c = rng.normal(size=n)
    if independent:
        z = rng.integers(0, 2, n).astype(float)
    else:
        z = np.empty(n)
        z[0] = 0.0
        z[1:] = (a[:-1] > 0.5).astype(float)
    return Dataset(names=("a", "b", "c", "z"), columns=(a, b, c, z))


def _continuous_dataset(n=1500, seed=3):
    """A random walk and a distractor; the target follows the walk's
    previous value plus noise."""
    rng = np.random.default_rng(seed)
    a = np.cumsum(rng.normal(size=n))
    z = np.empty(n)
    z[0] = 0.0
    z[1:] = a[:-1] * 0.5 + rng.normal(scale=0.1, size=n - 1)
    return Dataset(names=("a", "b", "z"), columns=(a, rng.normal(size=n), z))


def _run(dataset, **kw):
    defaults = dict(
        target_column="z",
        source_columns=("a", "b", "c"),
        alphabet=3,
        depth=1,
        train_fraction=0.7,
    )
    defaults.update(kw)
    config = RunConfig(**defaults)
    leaves = leaf_sequences(dataset, config)
    target_seq, _, _, _ = target_symbols(dataset, config)
    tree = cluster(leaves, target_seq, config)
    return evaluate_levels(tree, dataset, config), config


class TestEvaluateLevels:
    def test_report_shape_and_metric(self):
        report, _ = _run(_driven_dataset())
        assert [r.level for r in report.rows] == [0, 1, 2]
        assert all(r.metric == "accuracy" for r in report.rows)
        assert all(r.n_test == 1200 - 840 for r in report.rows)
        assert all(0.0 <= r.value <= 1.0 for r in report.rows)

    def test_driven_target_is_predictable(self):
        report, _ = _run(_driven_dataset())
        assert report.rows[0].value > 0.8
        assert report.rows[-1].value > 0.8

    def test_independent_target_tracks_prior(self):
        ds = _driven_dataset(independent=True, n=3000)
        report, config = _run(ds)
        z_test = ds.column("z")[2100:]
        z_train = ds.column("z")[:2100]
        majority = max(np.mean(z_test), 1 - np.mean(z_test))
        # prior fallback dominates: accuracy stays near the majority rate
        for row in report.rows:
            assert abs(row.value - majority) < 0.08

    def test_continuous_target_rmse(self):
        report, _ = _run(_continuous_dataset(), source_columns=("a", "b"),
                         target_alphabet=8)
        assert all(r.metric == "rmse" for r in report.rows)
        assert all(r.value >= 0.0 for r in report.rows)

    @pytest.mark.parametrize("noise, stop_at", [(0, 1), (4, 1), (4, 3)])
    @pytest.mark.parametrize("continuous", [False, True])
    def test_matches_radix_state_reference(self, continuous, noise, stop_at):
        # Each level's states built from the radix embedding of all its
        # nodes, windows ending at t predicting the target at t+1, must give
        # the same predictions as evaluate_levels, which ranks the coarsest
        # level's window ids and folds each merged pair's ids into the next
        # finer level. With four noise channels the tree has 6 or 7 leaves,
        # and at stop_at 3 its coarsest level holds three nodes.
        ds = _continuous_dataset() if continuous else _driven_dataset()
        sources = ("a", "b") if continuous else ("a", "b", "c")
        if noise:
            ds = append_noise_channels(ds, noise, seed=5)
            sources += noise_columns(noise)
        report, config = _run(ds, source_columns=sources, depth=2,
                              target_alphabet=8, stop_at=stop_at)
        metric = RMSE if continuous else ACCURACY
        assert report.rows[0].metric == metric
        leaves = leaf_sequences(ds, config)
        target_seq, _, labels, reps = target_symbols(ds, config)
        tree = cluster(leaves, target_seq, config)
        assert len(tree.levels[-1]) == stop_at
        nodes = replay_merges(leaves, tree, config)
        n, s, k = ds.n, split_index(ds.n, config.train_fraction), config.depth
        tsyms = target_seq.symbols
        truth = ds.column("z")[s:]
        rows, predicted = [], []
        for level, active in enumerate(tree.levels):
            states = np.column_stack([embed(nodes[a], k).states for a in active])
            est = train_oracle(states[: s - k - 1], tsyms[k + 1: s],
                               target_alphabet=target_seq.alphabet_size)
            est.bin_representatives = reps
            syms, values = predict_oracle(est, states[s - k - 1: n - k - 1])
            want = values if continuous else labels[syms]
            assert report.predicted[level].tolist() == want.tolist()
            value = (np.sqrt(np.mean((values - truth) ** 2)) if continuous
                     else np.mean(syms == tsyms[s:]))
            rows.append(LevelScore(level=level, metric=metric, value=float(value),
                                   n_test=n - s))
            predicted.append(values)
        assert report.positions.tolist() == list(range(s, n))
        assert len(report.predicted) == len(tree.levels)
        reference = EvaluationReport(rows=tuple(rows), config=config.to_dict(),
                                     positions=np.arange(s, n), truth=truth,
                                     predicted=tuple(predicted))
        assert report_json(report) == report_json(reference)
        assert predictions_csv(report) == predictions_csv(reference)

    def test_deterministic(self):
        ds = _driven_dataset()
        r1, _ = _run(ds)
        r2, _ = _run(ds)
        assert report_csv(r1) == report_csv(r2)
        assert predictions_csv(r1) == predictions_csv(r2)

    def test_exports(self):
        report, _ = _run(_driven_dataset())
        csv_text = report_csv(report).decode()
        assert csv_text.splitlines()[0] == "level,metric,value,n_test"
        assert len(csv_text.splitlines()) == 1 + len(report.rows)
        assert '"levels"' in report_json(report).decode()
        pred_lines = predictions_csv(report).decode().splitlines()
        assert pred_lines[0] == "level,row,truth,predicted"
        assert len(pred_lines) == 1 + len(report.rows) * report.rows[0].n_test

    def test_rejects_full_train_fraction(self):
        ds = _driven_dataset()
        config = RunConfig(target_column="z", source_columns=("a", "b", "c"),
                           alphabet=3, depth=1, train_fraction=1.0)
        leaves = leaf_sequences(ds, config)
        target_seq, _, _, _ = target_symbols(ds, config)
        tree = cluster(leaves, target_seq, config)
        with pytest.raises(ValueError):
            evaluate_levels(tree, ds, config)

    def test_rmse_past_float64_range_is_an_error(self):
        # squared errors of a target near 1e200 once gave an infinite RMSE
        rng = np.random.default_rng(3)
        ds = Dataset(names=("a", "b", "z"),
                     columns=(rng.uniform(-1, 1, 60), rng.normal(size=60),
                              rng.uniform(1, 1.7, 60) * 1e200))
        with np.errstate(over="ignore"), pytest.raises(PipelineError) as raised:
            _run(ds, source_columns=("a", "b"), target_kind="continuous")
        assert str(raised.value) == "column 'z': the level 0 RMSE is inf"

    def test_tree_of_other_sources_rejected(self):
        ds = _driven_dataset()
        config = RunConfig(target_column="z", source_columns=("a", "b", "c"),
                           alphabet=3, depth=1, train_fraction=0.7)
        leaves = leaf_sequences(ds, config)
        target_seq, _, _, _ = target_symbols(ds, config)
        tree = cluster(leaves, target_seq, config)
        for sources in (("b", "a", "c"), ("a", "c", "b"), ("a", "b")):
            other = RunConfig(**{**config.to_dict(), "source_columns": sources})
            with pytest.raises(TreeDatasetMismatch):
                evaluate_levels(tree, ds, other)


class TestPredictionsCsv:
    """The writer formats each distinct number once; its text must equal
    the row-by-row writer's."""

    @pytest.mark.parametrize("continuous", [False, True])
    def test_matches_row_writer(self, continuous):
        ds = _continuous_dataset() if continuous else _driven_dataset()
        sources = ("a", "b") if continuous else ("a", "b", "c")
        report, _ = _run(ds, source_columns=sources, target_alphabet=8)
        assert predictions_csv(report).decode() == predictions_csv_oracle(report)

    def test_signed_zeros_and_non_finite_values(self):
        values = np.array([0.0, -0.0, 1.5, -0.0, np.nan, np.inf, -np.inf, 0.0,
                           5e-324, 1e300, -np.nan])
        predicted = (values[::-1].copy(), -values, values, np.zeros(len(values)))
        for truth, zeros in ((values, ("1,10,0.0,-0.0", "1,11,-0.0,0.0")),
                             (-values, ("2,10,-0.0,0.0", "2,11,0.0,-0.0"))):
            report = EvaluationReport(rows=(), config={},
                                      positions=np.arange(10, 10 + len(values)),
                                      truth=truth, predicted=predicted)
            text = predictions_csv(report).decode()
            assert text == predictions_csv_oracle(report)
            assert all(f"\n{line}\n" in text for line in zeros)

    def test_non_float_arrays(self):
        report = EvaluationReport(
            rows=(), config={}, positions=np.arange(3), truth=np.array([1, 2, 3]),
            predicted=(np.array([0.5, 0.5, 2.0], dtype=np.float32),
                       np.array([True, False, True])))
        assert predictions_csv(report).decode() == predictions_csv_oracle(report)

    def test_no_held_out_rows(self):
        empty = np.array([])
        report = EvaluationReport(rows=(), config={}, positions=np.arange(0),
                                  truth=empty, predicted=(empty, empty))
        assert predictions_csv(report) == b"level,row,truth,predicted\n"
        assert predictions_csv_oracle(report) == "level,row,truth,predicted\n"


# How held-out ids pick states: a mix of seen and unseen states; no state
# seen, as at a level no held-out row shares with training; one state queried
# many times; only seen states; and more queries than states, each seen
# state read, as on a long series with few states.
QUERY_SHAPES = ("mixed", "unseen", "one_state", "seen_only", "dense")


@st.composite
def held_out_cases(draw):
    """(ids, n_train, targets, alphabet): training ids with their next
    symbols, then held-out ids. States take ids from 0..40 with gaps, and
    each (state, symbol) count is 0..3, so ties are common in the table and
    in the prior."""
    alphabet = draw(st.integers(1, 6))
    states = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    counts = st.lists(st.integers(0, 3), min_size=alphabet, max_size=alphabet)
    train = [(state, symbol) for state in states
             for symbol, count in enumerate(draw(counts)) for _ in range(count)]
    train = draw(st.permutations(train or [(states[0], 0)]))
    seen = sorted({state for state, _ in train})
    other = st.integers(0, 45)
    shape = draw(st.sampled_from(QUERY_SHAPES))
    if shape == "unseen":
        test = draw(st.lists(other.filter(lambda i: i not in seen), min_size=1, max_size=60))
    elif shape == "one_state":
        state = draw(other)
        test = draw(st.lists(st.sampled_from([state, state, draw(other)]),
                             min_size=1, max_size=60))
    elif shape == "seen_only":
        test = draw(st.lists(st.sampled_from(seen), min_size=1, max_size=60))
    elif shape == "dense":
        test = draw(st.permutations(seen + draw(st.lists(other, min_size=len(seen),
                                                         max_size=4 * len(seen)))))
    else:
        test = draw(st.lists(other, min_size=1, max_size=60))
    ids = np.array([state for state, _ in train] + test, dtype=np.int64)
    targets = np.array([symbol for _, symbol in train], dtype=np.int64)
    return ids, len(train), targets, alphabet


class TestHeldOutSymbols:
    """Each held-out row's prediction is its state's most frequent next
    symbol in training, or the prior's for a state no training row has,
    ties going to the lower symbol; held to the reference estimator."""

    @settings(max_examples=300, deadline=None)
    @given(held_out_cases())
    def test_matches_reference_estimator(self, case):
        ids, n_train, targets, alphabet = case
        got = _held_out_symbols(ids, n_train, targets,
                                np.bincount(targets, minlength=alphabet))
        want = predict_oracle(train_oracle(ids[:n_train], targets, alphabet),
                              ids[n_train:])[0]
        assert got.tolist() == want.tolist()


# Values a prediction can take, the signed zeros and non-finite ones included.
PREDICTION_VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
                              st.floats())


@st.composite
def prediction_arrays(draw, rows):
    """One level's predictions: ``rows`` picks from at most 10 values, as
    float64, float32, int or bool."""
    kind = draw(st.sampled_from(["float64", "float64", "float32", "int", "bool"]))
    if kind == "float32":
        pool = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
                         st.floats(width=32))
    elif kind == "int":
        pool = st.integers(-2**63, 2**63 - 1)
    elif kind == "bool":
        pool = st.booleans()
    else:
        pool = PREDICTION_VALUES
    values = draw(st.lists(pool, min_size=1, max_size=10))
    # a seeded pick per row: drawing 9000 picks one by one is slow to generate
    picks = np.random.default_rng(draw(st.integers(0, 2**32))).integers(len(values), size=rows)
    dtype = {"float64": np.float64, "float32": np.float32, "int": np.int64,
             "bool": np.bool_}[kind]
    return np.array([values[i] for i in picks.tolist()], dtype=dtype)


@st.composite
def evaluation_reports(draw):
    rows = draw(st.integers(0, 300))
    levels = draw(st.integers(0, 30))
    start = draw(st.integers(0, 10**6))
    truth = draw(st.lists(PREDICTION_VALUES, min_size=rows, max_size=rows))
    predicted = tuple(draw(prediction_arrays(rows)) for _ in range(levels))
    return EvaluationReport(rows=(), config={}, positions=np.arange(start, start + rows),
                            truth=np.array(truth, dtype=np.float64), predicted=predicted)


@settings(max_examples=100, deadline=None)
@given(evaluation_reports())
def test_predictions_csv_matches_row_writer(report):
    assert predictions_csv(report).decode() == predictions_csv_oracle(report)
