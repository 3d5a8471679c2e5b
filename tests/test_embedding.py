import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tefuse import SequenceTooShort, SymbolSequence, decode_state, embed

from oracles import embed_oracle


def test_depth_two_radix_encoding():
    seq = SymbolSequence([0, 1, 2, 0, 1], 3)
    out = embed(seq, 2)
    assert out.states.tolist() == [5, 15, 19]
    assert out.depth == 2 and out.base == 3


def test_depth_zero_is_identity():
    seq = SymbolSequence([2, 0, 1, 1], 3)
    out = embed(seq, 0)
    assert out.states.tolist() == [2, 0, 1, 1]
    assert len(out) == len(seq)


def test_full_depth_single_state():
    seq = SymbolSequence([1, 0, 1], 2)
    out = embed(seq, 2)
    assert len(out) == 1
    assert out.states.tolist() == [0b101]


def test_too_short():
    with pytest.raises(SequenceTooShort):
        embed(SymbolSequence([0, 1], 2), 2)


def test_output_length():
    rng = np.random.default_rng(0)
    for k in (0, 1, 3):
        n = int(rng.integers(k + 1, 50))
        seq = SymbolSequence(rng.integers(0, 4, n), 4)
        assert len(embed(seq, k)) == n - k


def test_decode_round_trips():
    rng = np.random.default_rng(1)
    for trial in range(20):
        b = int(rng.integers(2, 6))
        k = int(rng.integers(0, 4))
        symbols = rng.integers(0, b, 30)
        states = embed(SymbolSequence(symbols, b), k).states
        for i, state in enumerate(states):
            assert decode_state(state, k, b) == tuple(symbols[i: i + k + 1])


def test_consecutive_states_overlap():
    # low k digits of state_t are the high k digits of state_{t+1}
    rng = np.random.default_rng(2)
    b, k = 5, 3
    states = embed(SymbolSequence(rng.integers(0, b, 200), b), k).states
    assert np.all(states[:-1] % b**k == states[1:] // b)


def test_overflow_guard():
    seq = SymbolSequence(np.zeros(100, dtype=np.int64), 10)
    with pytest.raises(ValueError):
        embed(seq, 25)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_states_match_radix_oracle(data):
    b = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(0, 8))
    n = data.draw(st.integers(k + 1, 60))
    symbols = data.draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n))
    seq = SymbolSequence(symbols, b)
    assert embed(seq, k).states.tolist() == embed_oracle(seq.symbols, k, b).tolist()


def test_radix_states_up_to_the_id_limit():
    # 2^61 states still have radix ids; 2^62 reaches the fold's limit
    rng = np.random.default_rng(5)
    symbols = rng.integers(0, 2, 70)
    states = embed(SymbolSequence(symbols, 2), 60).states
    assert len(states) == 10 and states.max() >= 2**60
    for i, state in enumerate(states):
        assert decode_state(state, 60, 2) == tuple(symbols[i: i + 61])
    with pytest.raises(ValueError, match="2\\^62"):
        embed(SymbolSequence(symbols, 2), 61)
