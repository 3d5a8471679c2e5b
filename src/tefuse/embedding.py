"""History embedding: pack each symbol with its k predecessors into one state.

State ids are radix encodings in the sequence's alphabet base with the
earliest symbol as the most significant digit. The first k positions carry
no complete window and produce no state, so an n-symbol sequence embeds into
exactly n-k states, the first of which sits at original index k.
:func:`history_ids` numbers the same windows densely, in the same order, as
the entropies and the estimator count them; dense ids never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SequenceTooShort
from .infotheory import _aligned, _history
from .sdf import SymbolSequence


@dataclass(frozen=True, eq=False)
class StateSequence:
    """Radix-encoded (depth+1)-symbol windows of a symbol sequence."""

    states: np.ndarray
    depth: int
    base: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        object.__setattr__(self, "states", states)
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.base < 1:
            raise ValueError("base must be >= 1")

    def __len__(self) -> int:
        return len(self.states)


def embed(seq: SymbolSequence, k: int) -> StateSequence:
    """Embed a symbol sequence into states of depth ``k``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    symbols = seq.symbols
    n = len(symbols)
    if n <= k:
        raise SequenceTooShort(f"need more than k={k} symbols, got {n}")
    b = seq.alphabet_size
    if b ** (k + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"state space {b}^{k + 1} overflows the id type")
    if k == 0:
        states = symbols.copy()
    else:
        windows = np.lib.stride_tricks.sliding_window_view(symbols, k + 1)
        powers = b ** np.arange(k, -1, -1, dtype=np.int64)
        states = windows @ powers
    return StateSequence(states=states, depth=k, base=b)


def history_ids(seq: SymbolSequence, k: int) -> np.ndarray:
    """Dense ids of the windows ending at t = k .. n-2; the last window has
    no next symbol to pair with."""
    (symbols,) = _aligned(k, seq)
    return _history(symbols, k)


def decode_state(state: int, k: int, b: int) -> tuple[int, ...]:
    """Recover the (k+1)-symbol window a state id encodes, earliest first."""
    digits = []
    state = int(state)
    for _ in range(k + 1):
        digits.append(state % b if b > 1 else 0)
        state //= max(b, 1)
    return tuple(reversed(digits))
