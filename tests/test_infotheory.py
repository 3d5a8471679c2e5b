import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tefuse import (
    EmptySequence,
    LengthMismatch,
    SequenceTooShort,
    SymbolSequence,
    causation_entropy_pair,
    conditional_entropy,
    shannon_entropy,
    transfer_entropies,
    transfer_entropy,
)
from tefuse import infotheory
from tefuse.infotheory import _counts, _fold, _history, _joint_ids, _windows

from oracles import (
    causation_pair_oracle,
    conditional_entropy_oracle,
    dense_causation_entropy_pair_oracle,
    dense_transfer_entropies_oracle,
    entropy_oracle,
    joint_ids_oracle,
    te_oracle,
    te_ratio_sum_oracle,
)


class TestJointIds:
    def test_counts_match_row_sort(self):
        # dense ids follow lexicographic row order, so their counts equal
        # np.unique's row counts element for element
        rng = np.random.default_rng(14)
        for trial in range(60):
            n = int(rng.integers(1, 300))
            m = int(rng.integers(1, 7))
            scale = [1, 3, n + 5, 10**17][trial % 4]
            rows = rng.integers(-4, 5, (n, m)) * scale
            rows[:, 0] += int(rng.integers(-scale, scale + 1))
            want = np.unique(rows, axis=0, return_counts=True)[1]
            got = np.bincount(_joint_ids(*rows.T))
            assert got.tolist() == want.tolist()

    def test_extreme_labels_stay_exact(self):
        big = 10**17
        first = np.array([-big, big, 0, big, -big])
        second = np.array([big, -big, big, big, big])
        assert _joint_ids(first, second).tolist() == [0, 2, 1, 3, 0]
        info = np.iinfo(np.int64)
        assert _joint_ids([info.max, info.min, 0]).tolist() == [2, 0, 1]

    @pytest.mark.parametrize("m", range(1, 13))
    def test_lazy_fold_matches_eager_fold(self, m):
        # column widths below, at and beyond the row count, offset labels
        # of +-1e17, and the int64 extremes
        rng = np.random.default_rng(40 + m)
        info = np.iinfo(np.int64)
        for n in (1, 2, 7, 200):
            for trial in range(6):
                columns = []
                for _ in range(m):
                    width = int(rng.choice([1, 2, max(n - 1, 1), n, 3 * n]))
                    offset = int(rng.choice([0, -3, 10**17, -10**17]))
                    columns.append(rng.integers(0, width, n) + offset)
                if trial == 5:
                    columns[-1][rng.integers(0, n)] = info.min
                    columns[0][rng.integers(0, n)] = info.max
                got = _joint_ids(*columns)
                assert got.dtype == np.int64
                assert np.array_equal(got, joint_ids_oracle(*columns))

    @pytest.mark.parametrize("m, n_sorts", [(10, 2), (20, 3)])
    def test_width_product_passing_the_limit_mid_fold(self, monkeypatch, m, n_sorts):
        # columns of width 100 at n = 200: 100**10 passes 2**62 at the tenth
        # column, where the fold re-ranks to 200 distinct ids; 200 * 100**8
        # passes it again at the eighteenth
        rng = np.random.default_rng(16)
        columns = [rng.integers(0, 100, 200) for _ in range(m)]
        for col in columns:
            col[:2] = [0, 99]
        sorts = _count_sorts(monkeypatch)
        got = _joint_ids(*columns)
        assert len(sorts) == n_sorts
        assert np.array_equal(got, joint_ids_oracle(*columns))

    def test_window_costs_one_sort(self, monkeypatch):
        rng = np.random.default_rng(17)
        symbols = rng.integers(0, 10, 500)
        sorts = _count_sorts(monkeypatch)
        got = _history(symbols, 5)
        assert len(sorts) == 1
        assert np.array_equal(got, joint_ids_oracle(
            *(symbols[j: 500 - 1 - 5 + j] for j in range(6))))

    def test_negative_labels_leave_transfer_entropy_unchanged(self):
        # folding raw values without shifting them to zero fails this
        rng = np.random.default_rng(15)
        for trial in range(20):
            n = int(rng.integers(10, 400))
            b = int(rng.integers(2, 5))
            k = int(rng.integers(0, 3))
            x = rng.integers(0, b, n)
            y = rng.integers(0, b, n)
            assert transfer_entropy(x - 1, y - 1, k) == transfer_entropy(x, y, k)


INT64 = np.iinfo(np.int64)
LABELS = st.one_of(
    st.integers(-3, 3),
    st.integers(-400, 400),
    st.integers(int(INT64.min), int(INT64.max)),
    st.sampled_from([int(INT64.min), int(INT64.max), -10**17, 10**17]),
)


def _crossing_columns(rng, n):
    """Named column sets for the value-sort counts: int64 extremes, +-1e17
    offsets, labels just below the int64 maximum, and widths whose product passes 2**62 partway through the fold:
    at the third column (widths 3, 2**31 + 1, 2**31 + 1), at the tenth of
    width 100, or at a first column of width 2**64."""
    wide = rng.integers(0, 2**31 + 1, n)
    wide[:2] = [0, 2**31]
    hundred = [rng.integers(0, 100, n) for _ in range(12)]
    for col in hundred:
        col[:2] = [0, 99]
    first = rng.choice([0, 2**39, 2**40 - 1], n)
    first[:2] = [0, 2**40 - 1]
    extremes = rng.integers(-2, 3, n)
    extremes[:2] = [INT64.min, INT64.max]
    return {
        "int64_extremes": [extremes, rng.integers(0, 3, n), extremes[::-1].copy()],
        "offsets_1e17": [rng.integers(0, 4, n) + 10**17, rng.integers(0, 4, n) - 10**17,
                         rng.integers(-1, 2, n) * 10**17],
        # unshifted, the last column would take some keys past the int64
        # maximum and not others
        "near_int64_max": [first, rng.integers(0, 3, n),
                           2**63 - 2**41 + rng.integers(0, 2, n)],
        "two_31_at_third_column": [rng.integers(0, 3, n), wide, wide[::-1].copy(),
                                    rng.integers(0, 5, n)],
        "hundred_at_tenth_column": hundred,
        "first_column_overflows": [extremes, wide],
        "single_column": [rng.integers(-5, 5, n)],
    }


class TestValueSortCounts:
    """Entropies count the sorted fold keys; the counts must be those of
    the dense ids, element for element, so every float stays the same."""

    @pytest.mark.parametrize("name", list(_crossing_columns(np.random.default_rng(0), 8)))
    @pytest.mark.parametrize("n", [2, 9, 300])
    def test_named_counts_equal_dense_id_bincount(self, name, n):
        columns = _crossing_columns(np.random.default_rng(n), n)[name]
        want = np.bincount(joint_ids_oracle(*columns))
        got = _counts(_fold(columns)[None])[0]
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @settings(deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 60), st.integers(1, 12)),
                  elements=LABELS))
    def test_counts_equal_dense_id_bincount(self, rows):
        want = np.bincount(joint_ids_oracle(*rows.T))
        assert _counts(_fold(rows.T)[None])[0].tolist() == want.tolist()

    def test_fold_sorts_only_when_the_span_overflows(self, monkeypatch):
        # columns that each span the row count stay raw: no dense rank
        rng = np.random.default_rng(18)
        columns = [rng.integers(0, 10**6, 50) for _ in range(3)]
        sorts = _count_sorts(monkeypatch)
        _fold(columns)
        assert sorts == []

    def test_window_keys_rank_to_history_ids(self):
        rng = np.random.default_rng(19)
        for symbols in (rng.integers(0, 10, 400), rng.integers(-10**17, 10**17, 400)):
            for k in range(4):
                keys = _windows(symbols, k)
                assert np.array_equal(np.unique(keys, return_inverse=True)[1],
                                      _history(symbols, k))

    @pytest.mark.parametrize("extreme", [False, True], ids=["no-sort", "re-rank"])
    def test_batch_fold_ranks_each_row_as_alone(self, extreme):
        # a shared leading column broadcast over a batch of rows with mixed
        # widths and negative labels; an int64-extreme row re-ranks the batch
        rng = np.random.default_rng(20)
        n = 80
        rows = [rng.integers(0, 3, n), rng.integers(-50, -40, n), np.full(n, -7)]
        if extreme:
            rows.append(rng.integers(INT64.min, INT64.max, n, endpoint=True))
        rows = np.stack(rows)
        lead = rng.integers(0, 4, n)
        batch = _fold((np.broadcast_to(lead, rows.shape), rows, rows[::-1]))
        for got, row, flipped in zip(batch, rows, rows[::-1]):
            alone = _fold((lead, row, flipped))
            assert np.array_equal(np.unique(got, return_inverse=True)[1],
                                  np.unique(alone, return_inverse=True)[1])
        for k in range(3):
            for got, row in zip(_windows(rows, k), rows):
                assert np.array_equal(np.unique(got, return_inverse=True)[1],
                                      _history(row, k))

    @pytest.mark.parametrize("k", range(4))
    def test_named_scores_equal_dense_id_path(self, k):
        rng = np.random.default_rng(60 + k)
        n = 300
        z = rng.integers(0, 4, n)
        sources = [
            rng.integers(0, 10, n),
            rng.integers(0, 100, n),
            rng.integers(0, 4, n) * 10**17 - 2 * 10**17,
            rng.integers(INT64.min, INT64.max, n, endpoint=True),
            np.roll(z, 1),
            z.copy(),
            np.full(n, 3),
        ]
        assert transfer_entropies(sources, z, k) == \
            dense_transfer_entropies_oracle(sources, z, k)
        for x, y in zip(sources, sources[1:]):
            assert causation_entropy_pair(x, y, z, k) == \
                dense_causation_entropy_pair_oracle(x, y, z, k)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_scores_equal_dense_id_path(self, data):
        k = data.draw(st.integers(0, 3))
        n = data.draw(st.integers(k + 2, 50))
        column = arrays(np.int64, n, elements=LABELS)
        z = data.draw(column)
        sources = data.draw(st.lists(column, min_size=2, max_size=4))
        assert transfer_entropies(sources, z, k) == \
            dense_transfer_entropies_oracle(sources, z, k)
        assert causation_entropy_pair(sources[0], sources[1], z, k) == \
            dense_causation_entropy_pair_oracle(sources[0], sources[1], z, k)


def _count_sorts(monkeypatch):
    """Record each np.unique call made inside tefuse.infotheory."""
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def unique(*args, **kwargs):
            calls.append(len(args[0]))
            return np.unique(*args, **kwargs)

    monkeypatch.setattr(infotheory, "np", CountingNumpy())
    return calls


class TestShannonEntropy:
    def test_constant_is_zero(self):
        assert shannon_entropy([3] * 20) == 0.0

    def test_balanced_binary_is_one_bit(self):
        assert shannon_entropy([0, 1] * 50) == 1.0

    def test_uniform_four_is_two_bits(self):
        assert shannon_entropy([0, 0, 1, 1, 2, 2, 3, 3]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            shannon_entropy([])

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            seq = rng.integers(0, 5, int(rng.integers(1, 200)))
            assert math.isclose(shannon_entropy(seq), entropy_oracle(seq.tolist()),
                                abs_tol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            seq = rng.integers(0, 6, 100)
            h = shannon_entropy(seq)
            assert -1e-12 <= h <= math.log2(len(set(seq.tolist()))) + 1e-12

    def test_accepts_symbol_sequence(self):
        assert shannon_entropy(SymbolSequence([0, 1, 0, 1], 2)) == 1.0


class TestConditionalEntropy:
    def test_deterministic_function_gives_zero(self):
        given = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
        nxt = (given * 2) % 3
        assert abs(conditional_entropy(nxt, given)) <= 1e-12

    def test_independent_product_construction(self):
        # joint counts factorize exactly, so H(next | given) == H(next)
        given = np.repeat([0, 1, 2], 4)
        nxt = np.tile([0, 1], 6)
        assert math.isclose(conditional_entropy(nxt, given), 1.0, abs_tol=1e-12)
        assert math.isclose(conditional_entropy(nxt, given),
                            shannon_entropy(nxt), abs_tol=1e-12)

    def test_constant_conditioning(self):
        nxt = np.array([0, 1, 1, 0, 2, 2])
        given = np.zeros(6, dtype=int)
        assert math.isclose(conditional_entropy(nxt, given),
                            shannon_entropy(nxt), abs_tol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            conditional_entropy([0, 1], [0, 1, 2])

    def test_no_conditioning_columns_rejected(self):
        with pytest.raises(ValueError, match="no columns"):
            conditional_entropy([0, 1, 1], np.zeros((3, 0), dtype=np.int64))

    def test_chain_rule(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            nxt = rng.integers(0, 3, 150)
            given = rng.integers(0, 4, (150, 2))
            joint = np.column_stack([nxt, given])
            h_joint = shannon_entropy(
                np.unique(joint, axis=0, return_inverse=True)[1]
            )
            h_given = shannon_entropy(
                np.unique(given, axis=0, return_inverse=True)[1]
            )
            assert math.isclose(h_joint, h_given + conditional_entropy(nxt, given),
                                abs_tol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            nxt = rng.integers(0, 3, 80)
            given = rng.integers(0, 3, 80)
            assert math.isclose(
                conditional_entropy(nxt, given),
                conditional_entropy_oracle(nxt.tolist(), given.tolist()),
                abs_tol=1e-12,
            )


class TestTransferEntropy:
    def test_identical_sequences_give_zero(self):
        rng = np.random.default_rng(4)
        seq = rng.integers(0, 3, 300)
        assert transfer_entropy(seq, seq, 1) == 0.0

    def test_delayed_copy_is_fully_explained(self):
        # target trails the source by one step: knowing the source history
        # makes the next target symbol deterministic, so the transfer equals
        # the target's own conditional entropy
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, 5000)
        y = np.roll(x, 1)
        te = transfer_entropy(x, y, 1)
        h_own = conditional_entropy(y[2:], np.column_stack([y[:-2], y[1:-1]]))
        assert math.isclose(te, h_own, abs_tol=1e-12)
        assert te > 1.5  # nearly 2 bits for a uniform 4-symbol source

    def test_matches_oracle_small_cases(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            n = int(rng.integers(10, 150))
            b = int(rng.integers(2, 4))
            k = int(rng.integers(0, 3))
            x = rng.integers(0, b, n)
            y = rng.integers(0, b, n)
            assert math.isclose(
                transfer_entropy(x, y, k),
                te_oracle(x.tolist(), y.tolist(), k),
                abs_tol=1e-12,
            )

    def test_independent_sequences_small_bias(self):
        rng = np.random.default_rng(7)
        values = []
        for trial in range(5):
            x = rng.integers(0, 2, 10_000)
            y = rng.integers(0, 2, 10_000)
            te = transfer_entropy(x, y, 1)
            assert 0.0 <= te < 0.02
            values.append(te)
        coarse = [
            transfer_entropy(rng.integers(0, 2, 1000), rng.integers(0, 2, 1000), 1)
            for _ in range(5)
        ]
        assert np.mean(values) < np.mean(coarse)  # plug-in bias shrinks with n

    def test_two_routes_agree(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            n = int(rng.integers(20, 300))
            x = rng.integers(0, 3, n)
            y = rng.integers(0, 3, n)
            k = int(rng.integers(0, 3))
            assert math.isclose(
                transfer_entropy(x, y, k),
                te_ratio_sum_oracle(x.tolist(), y.tolist(), k),
                abs_tol=1e-12,
            )

    def test_recoding_invariance(self):
        rng = np.random.default_rng(9)
        b = 4
        x = rng.integers(0, b, 400)
        y = rng.integers(0, b, 400)
        base = transfer_entropy(x, y, 2)
        for trial in range(10):
            px, py = rng.permutation(b), rng.permutation(b)
            assert math.isclose(base, transfer_entropy(px[x], py[y], 2),
                                abs_tol=1e-12)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            transfer_entropy([0, 1, 0], [0, 1], 0)
        with pytest.raises(SequenceTooShort):
            transfer_entropy([0, 1], [1, 0], 1)
        # the target and the depth are checked before the source: this once
        # raised LengthMismatch
        with pytest.raises(SequenceTooShort):
            transfer_entropy([0, 1, 0], [0, 1], 5)


class TestTransferEntropies:
    @pytest.mark.parametrize("k", range(4))
    def test_equals_one_call_per_source(self, k):
        rng = np.random.default_rng(50 + k)
        n = 400
        z = rng.integers(-2, 2, n)
        sources = [
            rng.integers(-3, 3, n),
            np.roll(z, 1),
            z.copy(),
            rng.integers(0, 7, n) * 10**17 - 3 * 10**17,
            np.full(n, -5),
            SymbolSequence(rng.integers(0, 4, n), 4),
        ]
        expected = [transfer_entropy(s, z, k) for s in sources]
        assert transfer_entropies(sources, z, k) == expected
        assert transfer_entropies(iter(sources), z, k) == expected
        assert transfer_entropies([], z, k) == []

    @pytest.mark.parametrize("source, target, k", [
        ([0, 1, 0], [0, 1], 0),
        ([0, 1], [1, 0], 1),
        ([0, 1, 0], [0, 1], 5),
    ])
    def test_errors_as_transfer_entropy(self, source, target, k):
        with pytest.raises((LengthMismatch, SequenceTooShort)) as single:
            transfer_entropy(source, target, k)
        with pytest.raises(single.type, match=re.escape(str(single.value))):
            transfer_entropies([source, target], target, k)


    @pytest.mark.parametrize("sources", [[], [[0, 1, 0]]], ids=["none", "longer"])
    def test_target_and_depth_checked_before_any_source(self, sources):
        # with no source this once returned [], and with a longer one raised
        # LengthMismatch; SequenceTooShort is a data error (exit 3) too
        read = []

        def reading():
            for source in sources:
                read.append(source)
                yield source

        with pytest.raises(SequenceTooShort, match=re.escape("k+2=7")):
            transfer_entropies(reading(), [0, 1], 5)
        assert read == []


class TestChunks:
    """transfer_entropies scores its sources in row-wise chunks; no chunk
    size, row mix or fallback may change a float."""

    @staticmethod
    def _sources(rng, n):
        return [
            rng.integers(-3, 3, n),
            rng.integers(-40, -30, n),
            # three labels 2**20 apart: at k = 2 the windows still fold
            # without a sort, but the joint width product passes 2**62 and
            # the window keys are re-ranked; from k = 3 the window fold
            # re-ranks too
            rng.choice([0, 5, 2**20 - 1], n),
            # int64-extreme labels: every window fold re-ranks, and so does
            # every fold of a chunk that holds them
            rng.integers(INT64.min, INT64.max, n, endpoint=True),
            np.full(n, -7),
            SymbolSequence(rng.integers(0, 4, n), 4),
            rng.integers(0, 7, n) * 10**17 - 3 * 10**17,
        ]

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("rows", [1, 2, None], ids=["one-row", "two-rows", "one-chunk"])
    @pytest.mark.parametrize("limit", [2**62, 2**8], ids=["limit", "low-limit"])
    def test_chunks_equal_single_calls(self, monkeypatch, k, rows, limit):
        rng = np.random.default_rng(70 + k)
        n = 240
        z = rng.integers(-2, 3, n)
        sources = self._sources(rng, n)
        single = [transfer_entropy(s, z, k) for s in sources]
        columns = [getattr(s, "symbols", s) for s in sources]
        assert single == dense_transfer_entropies_oracle(columns, z, k)
        # a budget of rows * (windows per source) keys puts that many sources
        # in a chunk; a low id limit forces every re-rank on small labels
        monkeypatch.setattr(infotheory, "_CHUNK_KEYS",
                            2**40 if rows is None else rows * (n - 1 - k))
        monkeypatch.setattr(infotheory, "_ID_LIMIT", limit)
        assert transfer_entropies(sources, z, k) == single
        assert transfer_entropies(iter(sources), z, k) == single

    def test_budget_bounds_the_chunk(self, monkeypatch):
        rng = np.random.default_rng(75)
        n, k = 100, 1
        z = rng.integers(0, 3, n)
        sources = [rng.integers(0, 3, n) for _ in range(7)]
        chunks = []
        kernel = infotheory._transfer_rows

        def recording(rows, *args):
            chunks.append(rows.shape)
            return kernel(rows, *args)

        monkeypatch.setattr(infotheory, "_transfer_rows", recording)
        for budget, want in ((1, [1] * 7), (3 * (n - 1 - k), [3, 3, 1]),
                             (2**40, [7])):
            monkeypatch.setattr(infotheory, "_CHUNK_KEYS", budget)
            chunks.clear()
            transfer_entropies(sources, z, k)
            assert chunks == [(rows, n) for rows in want]

    def test_sources_read_lazily(self):
        rng = np.random.default_rng(76)
        z = rng.integers(0, 3, 50)
        taken = []

        def sources():
            for index in range(3):
                taken.append(index)
                yield rng.integers(0, 3, 50)
            raise AssertionError("read past the bad source")

        def with_bad_third():
            for index, source in enumerate(sources()):
                yield source if index < 2 else source[:-1]

        with pytest.raises(LengthMismatch):
            transfer_entropies(with_bad_third(), z, 1)
        assert taken == [0, 1, 2]


@pytest.mark.parametrize("call", [
    lambda x, y: transfer_entropy(x, y, -1),
    lambda x, y: transfer_entropies([x], y, -1),
    lambda x, y: causation_entropy_pair(x, y, y, -1),
], ids=["transfer_entropy", "transfer_entropies", "causation_entropy_pair"])
def test_negative_depth_rejected(call):
    with pytest.raises(ValueError, match="k must be >= 0"):
        call([0, 1, 0, 1, 1], [1, 0, 1, 0, 0])


class TestCausationEntropyPair:
    def test_duplicate_source_adds_nothing(self):
        rng = np.random.default_rng(10)
        x = rng.integers(0, 3, 500)
        z = rng.integers(0, 3, 500)
        _, c_y = causation_entropy_pair(x, x.copy(), z, 1)
        assert c_y == 0.0

    def test_independent_target(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 2, 10_000)
        y = rng.integers(0, 2, 10_000)
        z = rng.integers(0, 2, 10_000)
        c_x, c_y = causation_entropy_pair(x, y, z, 0)
        assert 0.0 <= c_x < 0.02 and 0.0 <= c_y < 0.02

    def test_xor_pair_each_fully_informative_jointly(self):
        rng = np.random.default_rng(12)
        n = 20_000
        x = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        z = np.empty(n, dtype=np.int64)
        z[0] = 0
        z[1:] = np.bitwise_xor(x[:-1], y[:-1])
        c_x, c_y = causation_entropy_pair(x, y, z, 0)
        assert abs(c_x - 1.0) < 0.02
        assert abs(c_y - 1.0) < 0.02

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(15):
            n = int(rng.integers(12, 120))
            b = int(rng.integers(2, 4))
            k = int(rng.integers(0, 2))
            x = rng.integers(0, b, n)
            y = rng.integers(0, b, n)
            z = rng.integers(0, b, n)
            got = causation_entropy_pair(x, y, z, k)
            want = causation_pair_oracle(x.tolist(), y.tolist(), z.tolist(), k)
            assert math.isclose(got[0], want[0], abs_tol=1e-12)
            assert math.isclose(got[1], want[1], abs_tol=1e-12)
