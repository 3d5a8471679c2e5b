import math

import numpy as np
import pytest

from tefuse import (
    EmptySequence,
    LengthMismatch,
    SequenceTooShort,
    SymbolSequence,
    causation_entropy_pair,
    conditional_entropy,
    shannon_entropy,
    transfer_entropy,
)
from tefuse.infotheory import _joint_ids

from oracles import (
    causation_pair_oracle,
    conditional_entropy_oracle,
    entropy_oracle,
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
